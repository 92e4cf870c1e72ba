"""Independent ground truth by exhaustive search over small edge colorings.

Call a t-coloring of K_p whose every n-star shows more than s colors a
*witness*.  R(n, t, s) is the least p with no witness on K_p, and the
oracle asks only that question, order by order: its one entry is
``ramsey_value``.

The question goes to one depth-first search, ``_search``.  It assigns
edges in lexicographic order, tries each edge's colors least-loaded
first, quotients out color relabeling by allowing a new color only after
all smaller ones appear, and prunes a branch when a per-vertex
optimistic bound cannot beat s.  The bound water-fills a row's remaining
edges onto its smallest classes and reads the filled row's fewest star
colors by the rule of ``verify.star_minima``, written again here: of the
package the oracle imports only ``errors``, so that it checks the kernel
and the formulas rather than sharing them.

Two root checks can settle an order before the first edge
(``_root_settles``): the bound at the empty coloring, and a parity
rule.  A vertex whose n-stars all show more than s colors has an
*admissible* color-degree row: its top-s sum is at most n-1.  When p is
odd and every admissible row has all parts odd, each vertex would have
odd degree in color 1, and p odd degrees cannot sum to the even
2|E_1|; so K_p has no witness.  The rule asks, for each even part e,
whether a row that holds e can be admissible, by the water-filling
lemma the bound rests on (``_parity_forbids``).  The oracle is the check
on ``exact.star_upper`` and shares nothing with it: no module of the
package imports the oracle, and of the commands only ``oracle`` loads
it.

``ramsey_value`` scans upward with the root checks alone to the first
order they settle, then searches downward from the order below it for
a witness.  Where the root checks settle R itself, every node goes to
the witness at K_{R-1}.  One bound limits the work, at any t and any
order: ``NODE_BUDGET`` nodes per call.  The search is sequential and
deterministic, so results and node counts depend on the instance alone;
``threads`` (>= 1) runs the same search (a pool gave no speedup).
"""
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate

from .errors import InfeasibleInstanceError, InvalidParameterError

# The most nodes one ramsey_value call may search.  A refusal takes
# 0.4-0.75 s in process at t <= 8 and R-1 <= 45; whole `oracle` launches
# (median of 5) refuse (31, 20, 10) at K_60 in 0.5 s and (91, 60, 30) at
# K_180 in 1.0 s.  Past t = p-1 a node costs O(colors in use): the
# 44,850-node K_300 witness at t = 10**6 takes 4.7 s (2-vCPU Xeon VM,
# Python 3.11.7).
NODE_BUDGET = 500_000
# Row cells the bound memo holds (about 70 MB) before it starts over; never at t <= 8.
_MEMO_CELLS = 2**23


SearchStats = namedtuple("SearchStats", "nodes canonical_skips bound_prunes")
OracleResult = namedtuple("OracleResult", "value stats")


class RamseyResult(namedtuple("RamseyResult", "value checked")):
    """Smallest p <= p_max with no witness on K_p, or None if none qualifies.

    ``checked`` lists the order the root checks settled (if it is at most
    p_max), then one decision search per order below it, downward, up to
    and including the first order with a witness.  A search's value is s
    when it refuted its order, and otherwise the witness's fewest star
    colors, so ``value > s`` marks a witness.  The order settled at the
    root counts zero nodes and one bound prune.  Orders the upward root
    scan passed without settling are not listed.  ``value`` is an int or
    None, and ``checked`` a tuple of (order, ``OracleResult``) pairs.
    """

    __slots__ = ()

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


def _parity_forbids(p: int, n: int, t: int, s: int) -> bool:
    """True when no t-coloring of K_p has every n-star on more than s
    colors, by the parity rule of the module docstring: p is odd and no
    admissible row holds an even part e.

    The other p-1-e edges of a row that holds e fill t-1 parts, and their
    even split has the least top-k sum for every k (the lemma of
    ``_reachable_k``).  So the least top-s sum of such a row is
    max(top_s(rest), e + top_{s-1}(rest)), rest that even split.  The
    second term never falls as e grows, so the scan stops once it
    passes n-1.  At t = 1 the one part is p-1.
    """
    if p % 2 == 0:
        return False
    with_e, without_e = min(s, t) - 1, min(s, t - 1)  # parts of rest in the top s
    for e in range(0 if t > 1 else p - 1, p, 2):
        a, b = divmod(p - 1 - e, max(t - 1, 1))
        if e + with_e * a + min(with_e, b) > n - 1:
            return True  # and for every larger e
        if without_e * a + min(without_e, b) <= n - 1:
            return False  # an admissible row holds e
    return True


def _root_settles(p: int, n: int, t: int, s: int) -> bool:
    """True when no t-coloring of K_p beats s, by the checks made before
    the first edge: the bound at the empty row, whose p-1 edges fill at
    most ``min(t, p-1)`` classes, then parity.  False at p <= n, where K_p
    has no n-star and every coloring beats s."""
    return p > n and (_reachable_k([0] * min(t, p - 1), p - 1, n) <= s
                      or _parity_forbids(p, n, t, s))


# an order settled at the root: no node, one bound prune
_ROOT_PRUNE = SearchStats(0, 0, 1)


def _search(p: int, n: int, t: int, s: int, spent: int = 0) -> OracleResult:
    """The fewest star colors of the first witness on K_p, or s when K_p
    has none; the search stops at the first leaf that beats s, and
    refuses once ``spent`` plus its own nodes pass ``NODE_BUDGET``.

    A branch is pruned when a vertex's bound is ``<= s``; at a leaf the
    least bound is the coloring's exact value.  A root prune, by the bound
    or by parity, is one ``bound_prunes``.  Each edge tries its colors
    least-loaded first (by its ends' degrees in the color, then by color),
    which reorders only the children: a refutation visits the same nodes.
    Bounds are memoized by row, since a row fixes its remaining edges.  An
    edge changes only its ends' rows and never raises a bound, so only
    the two changed rows can newly fail: every other row beat s when its
    last edge was placed.  The open edges sit on one stack, not one
    Python frame each, and a resumed edge sorts its colors again.  Rows
    start at ``min(t, p-1)`` classes and grow as canonical colors open: a
    row of p-1 classes or more has a 0 class per edge it still takes, so
    extras move no bound.
    """
    if _root_settles(p, n, t, s):
        return OracleResult(s, _ROOT_PRUNE)
    # its own lexicographic edge list, not coloring.edges: oracle loads only errors
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
    last = len(edges) - 1
    counts = [[0] * min(t, p - 1) for _ in range(p + 1)]  # by vertex; 0 unused
    bounds: dict[tuple[int, ...], int] = {}
    nodes = skips = prunes = 0
    left = NODE_BUDGET - spent
    stack = [(0, 0, 0, 0)]  # per open edge: index, maxc, colors tried, its child's color
    while stack:
        i, maxc, tried, c = stack[-1]
        u, v = edges[i]
        cu, cv = counts[u], counts[v]
        allowed = maxc + 1 if maxc < t else t
        if tried:  # back from a child: take back its color
            cu[c] -= 1
            cv[c] -= 1
        else:
            skips += t - allowed
            if allowed > len(cu):  # a color no row holds yet
                for row in counts:
                    row.append(0)
            if len(bounds) * len(cu) > _MEMO_CELLS:
                bounds.clear()
        # least-loaded first, ties by color; a resumed edge's rows are as on entry
        order = sorted(range(allowed), key=lambda c: cu[c] + cv[c])
        for tried, c in enumerate(order[tried:], tried + 1):
            nodes += 1
            if nodes > left:
                raise InfeasibleInstanceError(
                    f"the search spent the budget of {NODE_BUDGET} nodes and left K_{p} open")
            cu[c] += 1
            cv[c] += 1
            for row in cu, cv:  # the two changed rows, until one fails
                b = bounds.get(key := tuple(row))
                if b is None:
                    b = bounds[key] = _reachable_k(row, p - 1 - sum(row), n)
                if b <= s:
                    break
            if b > s:
                if i == last:
                    value = min(_reachable_k(row, 0, n) for row in counts[1:])
                    return OracleResult(value, SearchStats(nodes, skips, prunes))
                stack[-1] = i, maxc, tried, c
                stack.append((i + 1, maxc if c < maxc else c + 1, 0, 0))
                break
            prunes += 1
            cu[c] -= 1
            cv[c] -= 1
        else:
            stack.pop()
    return OracleResult(s, SearchStats(nodes, skips, prunes))


def ramsey_value(n: int, t: int, s: int, p_max: int, *, threads: int = 1) -> RamseyResult:
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

    Every order at or above P0 is refuted without a search.
    ``NODE_BUDGET``, read at the call, bounds the nodes of all the
    searches together; the upward pass refuses an open order with more
    edges than that, since a witness there takes one node per edge.
    """
    if n < 1 or t < 1 or s < 1 or p_max < 2:
        raise InvalidParameterError(
            f"need n, t, s >= 1 and p_max >= 2; got {n}, {t}, {s}, {p_max}"
        )
    if threads < 1:
        raise InvalidParameterError(f"need threads >= 1, got {threads}")
    p0 = n + 1
    while p0 <= p_max and not _root_settles(p0, n, t, s):
        if (num_edges := p0 * (p0 - 1) // 2) > NODE_BUDGET:
            raise InfeasibleInstanceError(
                f"K_{p0} has {num_edges} edges, over the budget of {NODE_BUDGET} nodes")
        p0 += 1
    checked = [(p0, OracleResult(s, _ROOT_PRUNE))] if p0 <= p_max else []
    spent = 0
    for p in range(p0 - 1, n, -1):
        result = _search(p, n, t, s, spent)
        checked.append((p, result))
        spent += result.stats.nodes
        if result.value > s:
            break
    else:
        p = n
    return RamseyResult(p + 1 if p < p_max else None, tuple(checked))
