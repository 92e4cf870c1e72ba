import functools
import itertools

import numpy as np
from hypothesis import strategies as st

from starramsey import EdgeColoring, all_edges


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
