import itertools

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


def brute_max_min_star(p: int, n: int, t: int) -> int:
    """Reference oracle: plain enumeration over all t-colorings of K_p."""
    edges = all_edges(p)
    best = 0
    for combo in itertools.product(range(1, t + 1), repeat=len(edges)):
        c = EdgeColoring(p, t, dict(zip(edges, combo)))
        v = brute_min_star(c, n)
        if v is not None and v > best:
            best = v
    return best
