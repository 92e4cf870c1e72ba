"""Independent ground truth by exhaustive search over small edge colorings.

f(p, n, t) is the maximum over all t-colorings of K_p of the fewest
colors any n-star shows; R(n, t, s) <= p exactly when f(p, n, t) <= s.

Both questions go through one depth-first search, ``_search``.  It
assigns edges in lexicographic order, quotients out color relabeling by
allowing a new color only after all smaller ones appear, and prunes a
branch when a per-vertex optimistic bound cannot beat the incumbent.
The incumbent starts at a floor and the search stops as soon as it
reaches a ceiling:

* ``max_min_star_colors`` searches with floor 1 and ceiling t, so it
  finds f(p) exactly;
* ``ramsey_value`` asks only whether f(p) > s, so it searches with
  floor s and ceiling s+1 and stops at the first coloring whose every
  n-star shows more than s colors.

The search is sequential and deterministic, so results and node counts
depend on the instance alone.  ``threads`` is accepted (it must be
>= 1) and runs the same search: the search is pure Python, and a
thread pool gave no speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleInstanceError, InvalidParameterError

DEFAULT_EDGE_BUDGET = 21
DEFAULT_MAX_COLORS = 4


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    canonical_skips: int
    bound_prunes: int

    def __add__(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(
            self.nodes + other.nodes,
            self.canonical_skips + other.canonical_skips,
            self.bound_prunes + other.bound_prunes,
        )


@dataclass(frozen=True)
class OracleResult:
    value: int
    stats: SearchStats


@dataclass(frozen=True)
class RamseyResult:
    """Smallest p <= p_max with f(p, n, t) <= s, or None if none qualifies.

    ``checked`` holds one decision search per order scanned.  Its value is
    not f(p): ``value > s`` means some coloring of K_p has every n-star on
    more than s colors (the value is that coloring's fewest star colors),
    and ``value == s`` means f(p) <= s.
    """

    value: int | None
    checked: tuple[tuple[int, OracleResult], ...]

    @property
    def stats(self) -> SearchStats:
        total = SearchStats(0, 0, 0)
        for _, res in self.checked:
            total = total + res.stats
        return total


def _reachable_k(row: list[int], extra: int, n: int) -> int:
    """Largest achievable 'least k with top-k >= n' after placing ``extra``
    more edges at this vertex.

    Spreading the remaining edges one at a time onto the currently
    smallest color class (water filling) minimizes every top-k prefix
    sum simultaneously, so the resulting k is an admissible optimistic
    bound on what any completion can reach.  The filling is computed in
    closed form: the j+1 smallest classes rise together to height h, r of
    them one higher, and the classes above stay as they are.
    """
    levels = sorted(row)
    t = len(levels)
    j = 0
    while j + 1 < t and extra >= (levels[j + 1] - levels[j]) * (j + 1):
        extra -= (levels[j + 1] - levels[j]) * (j + 1)
        j += 1
    q, r = divmod(extra, j + 1)
    h = levels[j] + q
    acc = 0
    k = 0
    for d in levels[:j:-1]:
        k += 1
        acc += d
        if acc >= n:
            return k
    for i in range(j + 1):
        k += 1
        acc += h + 1 if i < r else h
        if acc >= n:
            return k
    return t  # unreachable: totals always cover n when p-1 >= n


def _search(p: int, n: int, t: int, floor: int, ceiling: int) -> OracleResult:
    """Best fewest-star-colors value above ``floor`` over t-colorings of
    K_p, or ``floor`` when none beats it; stops once it reaches ``ceiling``.

    A branch is pruned when the least per-vertex bound is ``<=`` the
    incumbent.  At a leaf no edge remains, so the bound is the coloring's
    exact value.
    """
    # its own lexicographic edge list: the oracle does not import numpy
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
    last = len(edges) - 1
    counts = [[0] * t for _ in range(p + 1)]
    rem = [p - 1] * (p + 1)
    vb = [_reachable_k([0] * t, p - 1, n)] * (p + 1)
    vb[0] = t + 1  # no vertex 0; never the least bound
    if min(vb) <= floor:
        return OracleResult(floor, SearchStats(0, 0, 1))

    nodes = 0
    skips = 0
    prunes = 0
    incumbent = floor

    def dfs(i, maxc):
        nonlocal nodes, skips, prunes, incumbent
        u, v = edges[i]
        cu, cv = counts[u], counts[v]
        allowed = maxc + 1 if maxc < t else t
        skips += t - allowed
        for c in range(allowed):
            nodes += 1
            cu[c] += 1
            cv[c] += 1
            rem[u] -= 1
            rem[v] -= 1
            old_u, old_v = vb[u], vb[v]
            vb[u] = _reachable_k(cu, rem[u], n)
            vb[v] = _reachable_k(cv, rem[v], n)
            bound = min(vb)
            if bound <= incumbent:
                prunes += 1
            elif i == last:
                incumbent = bound
            else:
                dfs(i + 1, maxc if c < maxc else c + 1)
            vb[u], vb[v] = old_u, old_v
            cu[c] -= 1
            cv[c] -= 1
            rem[u] += 1
            rem[v] += 1
            if incumbent >= ceiling:
                break

    dfs(0, 0)
    return OracleResult(incumbent, SearchStats(nodes, skips, prunes))


def _check_instance(p: int, n: int, t: int, edge_budget: int, max_colors: int) -> None:
    if p < 2 or n < 1 or t < 1:
        raise InvalidParameterError(f"need p >= 2, n >= 1, t >= 1; got {p}, {n}, {t}")
    if n > p - 1:
        raise InvalidParameterError(f"K_{p} has no {n}-star (degree {p - 1})")
    num_edges = p * (p - 1) // 2
    if num_edges > edge_budget:
        raise InfeasibleInstanceError(
            f"K_{p} has {num_edges} edges, over the budget of {edge_budget}"
        )
    if t > max_colors:
        raise InfeasibleInstanceError(
            f"t={t} is over the color budget of {max_colors}"
        )


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise InvalidParameterError(f"need threads >= 1, got {threads}")


def max_min_star_colors(p: int, n: int, t: int, *,
                        edge_budget: int = DEFAULT_EDGE_BUDGET,
                        max_colors: int = DEFAULT_MAX_COLORS,
                        threads: int = 1) -> OracleResult:
    """Exact f(p, n, t) by exhaustive search; refuses oversized instances."""
    _check_threads(threads)
    _check_instance(p, n, t, edge_budget, max_colors)
    # every n-star shows at least one color and at most t
    return _search(p, n, t, 1, t)


def ramsey_value(n: int, t: int, s: int, p_max: int, *,
                 edge_budget: int = DEFAULT_EDGE_BUDGET,
                 max_colors: int = DEFAULT_MAX_COLORS,
                 threads: int = 1) -> RamseyResult:
    """Smallest p <= p_max where every t-coloring of K_p has an n-star on
    at most s colors.

    Orders below n+1 hold no n-star at all, so the scan starts at n+1;
    the first qualifying p is returned because the property is monotone
    upward in p.  Each order is one decision search that stops at the
    first coloring beating the budget.
    """
    if n < 1 or t < 1 or s < 1 or p_max < 2:
        raise InvalidParameterError(
            f"need n, t, s >= 1 and p_max >= 2; got {n}, {t}, {s}, {p_max}"
        )
    _check_threads(threads)
    checked: list[tuple[int, OracleResult]] = []
    for p in range(n + 1, p_max + 1):
        _check_instance(p, n, t, edge_budget, max_colors)
        result = _search(p, n, t, s, s + 1)
        checked.append((p, result))
        if result.value <= s:
            return RamseyResult(p, tuple(checked))
    return RamseyResult(None, tuple(checked))
