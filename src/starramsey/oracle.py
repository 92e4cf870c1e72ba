"""Independent ground truth by exhaustive search over small edge colorings.

f(p, n, t) is the maximum over all t-colorings of K_p of the fewest
colors any n-star shows; R(n, t, s) <= p exactly when f(p, n, t) <= s.
The search assigns edges in lexicographic order, quotients out color
relabeling by allowing a new color only after all smaller ones appear,
and prunes with a per-vertex optimistic bound.

The tree is split at a fixed shallow depth into independent subtree
tasks, each searched with its own incumbent, and the reduction is
order-free, so results and node counts depend on the instance alone.
The tasks run one after another whatever ``threads`` says (it must be
>= 1): the search is pure Python, and a thread pool gave no speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleInstanceError, InvalidParameterError

DEFAULT_EDGE_BUDGET = 21
DEFAULT_MAX_COLORS = 4
_SPLIT_DEPTH = 3


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
    """Smallest p <= p_max with f(p, n, t) <= s, or None if none qualifies."""

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
    bound on what any completion can reach.
    """
    levels = sorted(row)
    t = len(levels)
    for _ in range(extra):
        lo = 0
        for i in range(1, t):
            if levels[i] < levels[lo]:
                lo = i
        levels[lo] += 1
    levels.sort(reverse=True)
    acc = 0
    for k, d in enumerate(levels, start=1):
        acc += d
        if acc >= n:
            return k
    return t  # unreachable: totals always cover n when p-1 >= n


class _Task:
    """One independent subtree: a prefix assignment plus DFS from there."""

    __slots__ = ("prefix", "maxc")

    def __init__(self, prefix: tuple[int, ...], maxc: int):
        self.prefix = prefix
        self.maxc = maxc


def _enumerate_prefixes(edges, t, depth):
    """Canonical assignments of the first ``depth`` edges, in lex order.

    No pruning happens here; the nodes and skips are charged to the
    shared part of the stats so totals never depend on scheduling.
    """
    prefixes: list[_Task] = []
    nodes = 0
    skips = 0

    def rec(i, colors, maxc):
        nonlocal nodes, skips
        if i == depth:
            prefixes.append(_Task(tuple(colors), maxc))
            return
        allowed = maxc + 1 if maxc < t else t
        skips += t - allowed
        for c in range(1, allowed + 1):
            nodes += 1
            colors.append(c)
            rec(i + 1, colors, max(maxc, c))
            colors.pop()

    rec(0, [], 0)
    return prefixes, nodes, skips


def _run_task(task: _Task, edges, p, n, t, depth):
    """Search one subtree to completion with a local incumbent."""
    counts = [[0] * t for _ in range(p + 1)]
    rem = [p - 1] * (p + 1)
    for i, c in enumerate(task.prefix):
        u, v = edges[i]
        counts[u][c - 1] += 1
        counts[v][c - 1] += 1
        rem[u] -= 1
        rem[v] -= 1
    vb = [0] * (p + 1)
    for v in range(1, p + 1):
        vb[v] = _reachable_k(counts[v], rem[v], n)

    nodes = 0
    skips = 0
    prunes = 0
    incumbent = 1  # every coloring realizes at least one color per star
    E = len(edges)

    bound = min(vb[1:])
    if bound <= incumbent and depth < E:
        return incumbent, SearchStats(0, 0, 1)
    if depth == E:
        return max(incumbent, bound), SearchStats(0, 0, 0)

    def dfs(i, maxc):
        nonlocal nodes, skips, prunes, incumbent
        u, v = edges[i]
        allowed = maxc + 1 if maxc < t else t
        skips += t - allowed
        for c in range(allowed):
            nodes += 1
            counts[u][c] += 1
            counts[v][c] += 1
            rem[u] -= 1
            rem[v] -= 1
            old_u, old_v = vb[u], vb[v]
            vb[u] = _reachable_k(counts[u], rem[u], n)
            vb[v] = _reachable_k(counts[v], rem[v], n)
            bound = min(vb[1:])
            if bound <= incumbent:
                prunes += 1
            elif i + 1 == E:
                incumbent = bound  # exact here: no edges remain anywhere
            else:
                dfs(i + 1, maxc if c + 1 <= maxc else c + 1)
            vb[u], vb[v] = old_u, old_v
            counts[u][c] -= 1
            counts[v][c] -= 1
            rem[u] += 1
            rem[v] += 1
            if incumbent >= t:
                break  # cannot be beaten; local cutoff keeps determinism

    dfs(depth, task.maxc)
    return incumbent, SearchStats(nodes, skips, prunes)


def max_min_star_colors(p: int, n: int, t: int, *,
                        edge_budget: int = DEFAULT_EDGE_BUDGET,
                        max_colors: int = DEFAULT_MAX_COLORS,
                        threads: int = 1) -> OracleResult:
    """Exact f(p, n, t) by exhaustive search; refuses oversized instances."""
    if p < 2 or n < 1 or t < 1:
        raise InvalidParameterError(f"need p >= 2, n >= 1, t >= 1; got {p}, {n}, {t}")
    if n > p - 1:
        raise InvalidParameterError(f"K_{p} has no {n}-star (degree {p - 1})")
    if threads < 1:
        raise InvalidParameterError(f"need threads >= 1, got {threads}")
    num_edges = p * (p - 1) // 2
    if num_edges > edge_budget:
        raise InfeasibleInstanceError(
            f"K_{p} has {num_edges} edges, over the budget of {edge_budget}"
        )
    if t > max_colors:
        raise InfeasibleInstanceError(
            f"t={t} is over the color budget of {max_colors}"
        )
    # its own lexicographic edge list: the oracle does not import numpy
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
    depth = min(_SPLIT_DEPTH, num_edges)
    tasks, prefix_nodes, prefix_skips = _enumerate_prefixes(edges, t, depth)

    outcomes = [_run_task(task, edges, p, n, t, depth) for task in tasks]
    value = max(best for best, _ in outcomes)
    stats = SearchStats(prefix_nodes, prefix_skips, 0)
    for _, task_stats in outcomes:
        stats = stats + task_stats
    return OracleResult(value, stats)


def ramsey_value(n: int, t: int, s: int, p_max: int, *,
                 edge_budget: int = DEFAULT_EDGE_BUDGET,
                 max_colors: int = DEFAULT_MAX_COLORS,
                 threads: int = 1) -> RamseyResult:
    """Smallest p <= p_max where every t-coloring of K_p has an n-star on
    at most s colors.

    Orders below n+1 hold no n-star at all, so the scan starts at n+1;
    the first qualifying p is returned because the property is monotone
    upward in p.
    """
    if n < 1 or t < 1 or s < 1 or p_max < 2:
        raise InvalidParameterError(
            f"need n, t, s >= 1 and p_max >= 2; got {n}, {t}, {s}, {p_max}"
        )
    if threads < 1:
        raise InvalidParameterError(f"need threads >= 1, got {threads}")
    checked: list[tuple[int, OracleResult]] = []
    for p in range(n + 1, p_max + 1):
        result = max_min_star_colors(
            p, n, t, edge_budget=edge_budget, max_colors=max_colors, threads=threads
        )
        checked.append((p, result))
        if result.value <= s:
            return RamseyResult(p, tuple(checked))
    return RamseyResult(None, tuple(checked))
