"""Independent ground truth by exhaustive search over small edge colorings.

Call a t-coloring of K_p whose every n-star shows more than s colors a
*witness*.  R(n, t, s) is the least p with no witness on K_p, and the
oracle asks only that question, order by order: its one entry is
``ramsey_value``.

The question goes to one depth-first search, ``_search``.  It assigns
edges in lexicographic order, tries each edge's colors least-loaded
first, quotients out color relabeling by allowing a new color only after
all smaller ones appear, and prunes a branch when a per-vertex
optimistic bound cannot beat s; the bound of each color-degree row is
computed once per search.  The bound water-fills a row's remaining edges
onto its smallest classes and reads the filled row's fewest star colors
by the rule of ``verify.star_minima``, written again here: of the
package the oracle imports only ``errors``, so that it checks the kernel
and the formulas rather than sharing them.  The incumbent starts at s,
and the search stops at the first witness.

Two root checks can settle an order before the first edge
(``_root_settles``): the bound at the empty coloring, and a parity
rule.  A vertex whose n-stars all show more than s colors has an
*admissible* color-degree row: its top-s sum is at most n-1.  When p is
odd and every admissible row has all parts odd, each vertex would have
odd degree in color 1, and p odd degrees cannot sum to the even
2|E_1|; so K_p has no witness.  The rule walks the admissible rows
itself, to the first with an even part, since the oracle is the check on
``formulas`` and imports nothing from it; ``verify.sample_upper_check``
borrows it.

``ramsey_value`` scans upward with the root checks alone to the first
order they settle, then searches downward from the order below it for
a witness.  Where the root checks settle R itself, every node goes to
the witness at K_{R-1}.

The search is sequential and deterministic, so results and node counts
depend on the instance alone.  ``ramsey_value`` accepts ``threads`` (it
must be >= 1) and runs the same search: the search is pure Python, and
a thread pool gave no speedup.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

from .errors import InfeasibleInstanceError, InvalidParameterError

DEFAULT_EDGE_BUDGET = 21
DEFAULT_MAX_COLORS = 4


class SearchStats(NamedTuple):
    nodes: int
    canonical_skips: int
    bound_prunes: int


class OracleResult(NamedTuple):
    value: int
    stats: SearchStats


class RamseyResult(NamedTuple):
    """Smallest p <= p_max with no witness on K_p, or None if none qualifies.

    ``checked`` lists the order the root checks settled (if it is at most
    p_max), then one decision search per order below it, downward, up to
    and including the first order with a witness.  A search's value is s
    when it refuted its order, and otherwise the witness's fewest star
    colors, so ``value > s`` marks a witness.  The order settled at the
    root counts zero nodes and one bound prune.  Orders the upward root
    scan passed without settling are not listed.
    """

    value: int | None
    checked: tuple[tuple[int, OracleResult], ...]

    @property
    def stats(self) -> SearchStats:
        """Each counter summed over the searches in ``checked``."""
        searches = [res.stats for _, res in self.checked]
        return SearchStats(sum(st.nodes for st in searches),
                           sum(st.canonical_skips for st in searches),
                           sum(st.bound_prunes for st in searches))


def _reachable_k(row: list[int], extra: int, n: int) -> int:
    """Largest achievable 'least k with top-k >= n' after placing ``extra``
    more edges at this vertex; n is at most the row's total plus ``extra``.

    Spreading the remaining edges one at a time onto the currently
    smallest color class (water filling) minimizes every top-k prefix
    sum simultaneously, so the filled row's k is an admissible optimistic
    bound on what any completion can reach.  The filling is computed in
    closed form: the j+1 smallest classes rise together to height h, r of
    them one higher, and the classes above stay as they are.  Its k is
    found by the rule of ``verify.star_minima``: bisection on the
    descending prefix sums.
    """
    levels = sorted(row)
    j = 0
    while j + 1 < len(levels) and extra >= (levels[j + 1] - levels[j]) * (j + 1):
        extra -= (levels[j + 1] - levels[j]) * (j + 1)
        j += 1
    q, r = divmod(extra, j + 1)
    h = levels[j] + q
    filled = [*levels[:j:-1], *[h + 1] * r, *[h] * (j + 1 - r)]  # descending
    return bisect_left(list(accumulate(filled)), n) + 1


def _admissible_rows(total: int, t: int, s: int, room: int):
    """Non-increasing t-tuples of nonnegative ints summing to ``total`` whose
    s largest sum to at most ``room``, largest first, on one stack (t may
    be in the thousands).  A head part x fits when h more head parts within the room
    r left, then tail parts at most min(x, r // h), can hold the edges left;
    that exact bound is not monotone in x (r grows as x falls), so a misfit
    is skipped."""
    heads, row, left, x = min(s, t), [], total, min(total, room)
    while True:
        i, h = len(row), max(heads - len(row) - 1, 0)  # h: head parts after this one
        while i < t and x * (t - i) >= left:  # else the parts left, all <= x, are too few
            r = room - (total - left) - x if i < heads else 0
            if left - x <= min(r, h * x) + (t - i - 1 - h) * (min(x, r // h) if h else x):
                break
            x -= 1
        else:  # a full row, or no part fits here: back up one part
            if i == t:
                yield tuple(row)
            elif not row:
                return
            x = row.pop()
            left, x = left + x, x - 1
            continue
        row.append(x)
        left -= x
        x = min(x, left, room - (total - left) if i + 1 < heads else left)


def _parity_forbids(p: int, n: int, t: int, s: int) -> bool:
    """True when no t-coloring of K_p has every n-star on more than
    s colors, by parity.

    A vertex's n-stars all show more than s colors exactly when its
    top-s color degrees sum to at most n-1; call such a row
    admissible.  If p is odd and every admissible row has all parts odd,
    every vertex has odd degree in color 1, and p odd degrees cannot sum
    to the even 2|E_1|.  The walk stops at the first admissible row
    with an even part.
    """
    return p % 2 == 1 and all(
        all(d % 2 for d in row) for row in _admissible_rows(p - 1, t, s, n - 1))


def _root_settles(p: int, n: int, t: int, s: int) -> bool:
    """True when no t-coloring of K_p beats s, by the checks made before
    the first edge: the bound at the empty coloring, then parity."""
    return _reachable_k([0] * t, p - 1, n) <= s or _parity_forbids(p, n, t, s)


# an order settled at the root: no node, one bound prune
_ROOT_PRUNE = SearchStats(0, 0, 1)


def _search(p: int, n: int, t: int, s: int) -> OracleResult:
    """The fewest star colors of the first witness on K_p, or s when K_p
    has none; the search stops at the first leaf that beats s.

    A branch is pruned when the least per-vertex bound is ``<=`` the
    incumbent.  At a leaf no edge remains, so the bound is the coloring's
    exact value.  The root alone is also pruned by parity
    (``_root_settles``); either root prune is one ``bound_prunes``.
    Each edge tries its colors least-loaded first: by the edge's two
    endpoints' current degrees in that color, then by color.  This
    changes only the order of the children, so a refutation visits the
    same nodes; a witness turns up sooner.
    Bounds are memoized per search by row: n is fixed, and a row fixes
    its remaining edges (p-1 minus its sum).
    """
    if _root_settles(p, n, t, s):
        return OracleResult(s, _ROOT_PRUNE)
    # its own lexicographic edge list, not coloring.edges: oracle loads only errors
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
    last = len(edges) - 1
    counts = [[0] * t for _ in range(p + 1)]
    rem = [p - 1] * (p + 1)
    vb = [_reachable_k([0] * t, p - 1, n)] * (p + 1)
    vb[0] = t + 1  # no vertex 0; never the least bound

    bounds: dict[tuple[int, ...], int] = {}
    nodes = 0
    skips = 0
    prunes = 0
    incumbent = s

    def dfs(i, maxc):
        nonlocal nodes, skips, prunes, incumbent
        u, v = edges[i]
        cu, cv = counts[u], counts[v]
        allowed = maxc + 1 if maxc < t else t
        skips += t - allowed
        # least-loaded color first; the sort is stable, so ties go by color
        for c in sorted(range(allowed), key=lambda c: cu[c] + cv[c]):
            nodes += 1
            cu[c] += 1
            cv[c] += 1
            rem[u] -= 1
            rem[v] -= 1
            old_u, old_v = vb[u], vb[v]
            key = tuple(cu)
            b = bounds.get(key)
            if b is None:
                b = bounds[key] = _reachable_k(cu, rem[u], n)
            vb[u] = b
            key = tuple(cv)
            b = bounds.get(key)
            if b is None:
                b = bounds[key] = _reachable_k(cv, rem[v], n)
            vb[v] = b
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
            if incumbent > s:
                break

    dfs(0, 0)
    return OracleResult(incumbent, SearchStats(nodes, skips, prunes))


def ramsey_value(n: int, t: int, s: int, p_max: int, *,
                 edge_budget: int = DEFAULT_EDGE_BUDGET,
                 threads: int = 1) -> RamseyResult:
    """Smallest p <= p_max where every t-coloring of K_p has an n-star on
    at most s colors.

    Deleting a vertex from a witness leaves a witness on K_{p-1} (each
    n-star left was an n-star before), and K_n has no n-star, so R is one
    above the largest order with a witness, and at least n+1.  The scan
    runs two ways:

    * upward from n+1 with the root checks alone (``_root_settles``, no
      node), to the first order P0 they settle, or P0 = p_max + 1;
    * downward from P0-1, one decision search per order, to the first
      order with a witness.

    Witnesses are cheap to find near R, and every order at or above P0 is
    refuted without a search.  ``DEFAULT_MAX_COLORS``, read at the call,
    is checked first, since the root checks build t-part rows too;
    ``edge_budget`` is checked at each order the upward pass leaves open,
    since a search runs at that order or above it.
    """
    if n < 1 or t < 1 or s < 1 or p_max < 2:
        raise InvalidParameterError(
            f"need n, t, s >= 1 and p_max >= 2; got {n}, {t}, {s}, {p_max}"
        )
    if threads < 1:
        raise InvalidParameterError(f"need threads >= 1, got {threads}")
    if t > DEFAULT_MAX_COLORS:
        raise InfeasibleInstanceError(f"t={t} is over the color budget of {DEFAULT_MAX_COLORS}")
    p0 = n + 1
    while p0 <= p_max and not _root_settles(p0, n, t, s):
        if (num_edges := p0 * (p0 - 1) // 2) > edge_budget:
            raise InfeasibleInstanceError(
                f"K_{p0} has {num_edges} edges, over the budget of {edge_budget}")
        p0 += 1
    checked = [(p0, OracleResult(s, _ROOT_PRUNE))] if p0 <= p_max else []
    for p in range(p0 - 1, n, -1):
        result = _search(p, n, t, s)
        checked.append((p, result))
        if result.value > s:
            break
    else:
        p = n
    return RamseyResult(p + 1 if p < p_max else None, tuple(checked))
