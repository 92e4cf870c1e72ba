import functools
import itertools
import math
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from starramsey import EdgeColoring
from starramsey.errors import InvalidParameterError

# Brute-force references.  The package builds every coloring from closed
# forms over its byte store; these spell the same objects out edge by edge
# (or in numpy) so that tests can check the closed forms against them.


def all_edges(p):
    """Edges of K_p in lexicographic order."""
    return [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]


@functools.lru_cache(maxsize=2)
def edge_endpoints(p):
    """1-based int32 endpoint arrays (u, v) of every edge of K_p in rank
    order (read-only, cached)."""
    lengths = np.arange(p - 1, 0, -1)  # row u holds v = u+1..p
    us = np.repeat(np.arange(1, p, dtype=np.int32), lengths)
    # v steps by 1 along a row and falls back from p to u+1 at its start
    vs = np.ones(us.size, dtype=np.int32)
    vs[np.cumsum(lengths) - lengths] = np.arange(2 - p, 1)
    np.cumsum(vs, dtype=np.int32, out=vs)
    vs += p
    us.flags.writeable = vs.flags.writeable = False
    return us, vs


class OrderedMatching(NamedTuple):
    """Near-perfect matching of odd K_x that misses exactly ``center``.

    Edge k (1-based) joins the vertices at circle positions center+k and
    center-k, taken mod x with residue 0 read as x.  The order of
    ``edges`` follows k.
    """

    center: int
    edges: tuple


def near_one_factorization(x):
    """Split E(K_x), x odd, into x matchings M_1..M_x with M_i missing vertex i.

    Each M_i holds (x-1)/2 ordered edges; edge k of M_i is {i+k, i-k}
    (indices mod x, 0 read as x).  Edge {a, b} lands in M_i exactly when
    a + b = 2i (mod x), so the matchings partition the edge set.
    """
    if x < 3 or x % 2 == 0:
        raise InvalidParameterError(f"need odd x >= 3, got {x}")
    half = (x - 1) // 2
    matchings = []
    for i in range(1, x + 1):
        edges = []
        for k in range(1, half + 1):
            a = (i + k - 1) % x + 1
            b = (i - k - 1) % x + 1
            edges.append((a, b) if a < b else (b, a))
        matchings.append(OrderedMatching(center=i, edges=tuple(edges)))
    return matchings


def one_factorization(p):
    """Split E(K_p), p even, into p-1 perfect matchings (circle method).

    Round i pairs vertex p with the center that round i of the
    near-factorization of K_{p-1} leaves uncovered.
    """
    if p < 2 or p % 2:
        raise InvalidParameterError(f"need even p >= 2, got {p}")
    if p == 2:
        return [[(1, 2)]]
    return [list(m.edges) + [(m.center, p)] for m in near_one_factorization(p - 1)]


def degree_counts(p, t, colors):
    """(p, t) int64 array: [v-1, c-1] = edges of color c at vertex v, for
    numpy rank-ordered colors (all in 1..t) of K_p; a (B, edges) stack of
    colorings gives a (B, p, t) array."""
    shape = colors.shape[:-1] + (p, t)
    offset = -(t + 1)  # the cell of color c at vertex v is (v-1)*t + c-1
    if colors.ndim == 2:  # a stack: each coloring gets its own p * t cells
        offset = offset + np.arange(len(colors))[:, None] * (p * t)
    counts = 0
    for ends in edge_endpoints(p):
        cells = ends.astype(np.int64) * t + colors + offset
        counts = counts + np.bincount(cells.ravel(), minlength=math.prod(shape))
    return counts.reshape(shape)


def star_minima_reference(counts, n):
    """Per vertex of a (..., p, t) color-degree array, the least k whose k
    largest color degrees sum to >= n (t+1 when none does), by sorted
    prefix sums in numpy."""
    prefix = (-np.sort(-counts, axis=-1)).cumsum(axis=-1)
    return (prefix < n).sum(axis=-1) + 1


@st.composite
def colorings(draw, min_p=1, max_p=9, min_t=1, max_t=5):
    """Arbitrary valid edge colorings of small complete graphs."""
    p = draw(st.integers(min_p, max_p))
    t = draw(st.integers(min_t, max_t))
    edges = all_edges(p)
    cols = draw(
        st.lists(st.integers(1, t), min_size=len(edges), max_size=len(edges))
    )
    return EdgeColoring(p, t, dict(zip(edges, cols)))


def monochrome_build(recipe, order=16):
    """Stand-in for ``constructions.build_recipe`` that ignores the recipe
    and returns K_order on one color: every star there shows a single
    color, so the caller's certificate check must refuse it."""
    return EdgeColoring(order, 1, {e: 1 for e in all_edges(order)}), recipe


def pigeonhole_order(n, t, s):
    """Smallest p whose balanced split of p-1 edges into t colors has a
    top-s sum >= n.

    Every t-coloring of K_p then has an n-star on at most s colors, so
    this order bounds R(n, t, s) from above by counting alone; computed
    here independently of ``formulas``.
    """
    p = n + 1
    while s * ((p - 1) // t) + min(s, (p - 1) % t) < n:
        p += 1
    return p


def parity_pigeonhole_order(n, t, s):
    """``pigeonhole_order``, one lower when parity rules out its K_{p-1}.

    With a, b = divmod(n-1, s), the order below the pigeonhole order is
    K_{ta+b+1}.  There a vertex whose n-stars all show more than s colors
    has t-s color degrees equal to a and s summing to sa+b; when b = 0
    every one equals a.  If a is odd and t even, p-1 = ta+1 vertices of
    odd degree in color 1 cannot exist, so no coloring of K_{p-1} beats
    the budget.
    """
    a, b = divmod(n - 1, s)
    return pigeonhole_order(n, t, s) - (b == 0 and a % 2 == 1 and t % 2 == 0)


def profiles(total, t, most):
    """Non-increasing t-tuples of nonnegative ints summing to ``total``,
    each part at most ``most``: every color-degree row, unfiltered.

    The largest part rises from the mean, so the most even rows come
    first and a filter for admissible rows (top-s sum at most n-1) meets
    them early.
    """
    if t == 1:
        if total <= most:
            yield (total,)
        return
    for d in range(-(-total // t), min(total, most) + 1):
        for rest in profiles(total - d, t - 1, d):
            yield (d, *rest)


def parity_forbids_reference(p, n, t, s):
    """The parity rule over every row: p odd, and every admissible row
    (top-s sum at most n-1) of p-1 edges in t parts has all parts odd."""
    return p % 2 == 1 and all(all(d % 2 for d in row)
                              for row in profiles(p - 1, t, p - 1) if sum(row[:s]) <= n - 1)


def threshold_predicate(l, t, q, r):
    """The paper's threshold x - l - 2q < n for the decomposition
    x - 2 = tq + r: t > (2r+4)/l for even t and t > 1 + (2q+2r+4)/l for
    odd t, cross-multiplied so the comparison is exact."""
    if t % 2 == 0:
        return t * l > 2 * r + 4
    return (t - 1) * l > 2 * q + 2 * r + 4


def brute_star_at(coloring: EdgeColoring, v: int, n: int):
    """Reference implementation at one vertex: enumerate every n-subset of
    its star; None when its degree is below n."""
    incident = [
        c for (a, b), c in coloring.colors.items() if v in (a, b)
    ]
    if len(incident) < n:
        return None
    return min(len(set(combo)) for combo in itertools.combinations(incident, n))


def brute_min_star(coloring: EdgeColoring, n: int):
    """Reference implementation: enumerate every n-subset of every star."""
    values = [brute_star_at(coloring, v, n) for v in range(1, coloring.p + 1)]
    return min((k for k in values if k is not None), default=None)


@functools.cache
def brute_max_min_star(p: int, n: int, t: int) -> int:
    """Reference oracle: plain enumeration over all t-colorings of K_p
    (memoized: several oracle tests ask for the same instances).

    Coloring i gives edge j the color of digit j of i in base t.  Each
    n-subset of each star is read as the OR of one bit per color, whose
    popcount is the number of colors the subset shows; the colorings go
    through in blocks of 2^16.
    """
    edges = all_edges(p)
    subsets = [list(sub) for v in range(1, p + 1)
               for sub in itertools.combinations(
                   [j for j, e in enumerate(edges) if v in e], n)]
    if not subsets:
        return 0
    popcount = np.array([bin(b).count("1") for b in range(1 << t)])
    place = t ** np.arange(len(edges))
    total = t ** len(edges)
    best = 0
    for start in range(0, total, 1 << 16):
        i = np.arange(start, min(start + (1 << 16), total))
        bits = 1 << (i[:, None] // place % t)
        fewest = np.minimum.reduce(
            [popcount[np.bitwise_or.reduce(bits[:, sub], axis=1)] for sub in subsets])
        best = max(best, int(fewest.max()))
    return best
