"""Builders for the explicit colorings behind each lower-bound certificate.

Every builder checks its own postcondition before returning, so a
coloring handed back from this module is always a valid certificate for
the property its recipe promises.  ``formulas._witness_recipe`` picks one
of four builders (partitioned factorization, cyclic, regular,
near-regular), or the balanced three-coloring at (t, s) = (3, 1), and
its docstring proves the pick a certificate.

Each builder is a closed form over the int32 edge endpoints of K_p.  One
table builder for both parities, ``_rotation_colors``, colors each edge
by the center of its matching (``matching_centers``), the edge (i, p) of
even K_p completing M_i of K_{p-1}; the cyclic colors use the index
within it (``matching_indices``).  One row check, ``_certified``, builds
the degree table that ``witness_coloring``'s star check reuses and raises
"<name> row [...] != [...] at vertex v" (``below`` for a floor).
``BUILDERS`` maps recipe tags to builders.  Every builder goes through
``_rotation_colors`` or ``cyclic_matching_coloring``, which refuse orders
past ``coloring.check_order``'s limit before any per-edge array exists;
``witness_coloring`` refuses them before it builds anything.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coloring import (
    EdgeColoring,
    check_order,
    edge_endpoints,
    edge_rank,
    matching_centers,
    matching_indices,
)
from .errors import ConstructionFailedError, InvalidParameterError
from .formulas import CaseVerdict, WitnessRecipe, classify
from .verify import min_star_colors


class ClassLayout(NamedTuple):
    """Circle positions used by the rotation colorings of odd K_x.

    ``singletons`` come first, then ``classes`` of t positions each, with
    len(singletons) + t * len(classes) == x.  The color-regular layout
    additionally places class i and class q+1-i so that paired positions
    sum to 0 mod x, which puts the prescribed edge inside the last
    vertex's matching.
    """

    x: int
    singletons: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def regular_layout(t: int, q: int) -> ClassLayout:
    """Positions for the q-regular-per-color coloring: the lone vertex at x,
    classes 1..q/2 before it and their mirror images after it."""
    x = t * q + 1
    classes = []
    for i in range(1, q + 1):
        if i <= q // 2:
            row = tuple((i - 1) * t + j for j in range(1, t + 1))
        else:
            row = tuple(x - ((q - i) * t + j) for j in range(1, t + 1))
        classes.append(row)
    return ClassLayout(x=x, singletons=(x,), classes=tuple(classes))


def near_regular_layout(t: int, q: int, r: int) -> ClassLayout:
    """Positions for the floor-regular coloring: singletons 1..r, then
    classes of t consecutive positions."""
    x = t * q + r
    classes = tuple(
        tuple(r + (i - 1) * t + j for j in range(1, t + 1))
        for i in range(1, q + 1)
    )
    return ClassLayout(x=x, singletons=tuple(range(1, r + 1)), classes=classes)


def _certified(coloring: EdgeColoring, name: str, expected,
               at_least: bool = False) -> EdgeColoring:
    """``coloring`` once each row of its ``color_degrees`` equals
    ``expected(palette)``, or reaches it when ``at_least``.  Builders pass
    the built coloring rather than its colors, so that no call argument
    keeps the fresh color array alive beside the degree table.  Once
    t > p-1 that table counts only the colors that occur; every exact row
    here is nonnegative and sums to p-1, as every real row does, so rows
    that agree there agree on all t colors.
    """
    palette, counts = coloring.color_degrees
    want = expected(palette)
    bad = np.flatnonzero(((counts < want) if at_least else (counts != want)).any(axis=1))
    if bad.size:
        p, t, v = coloring.p, coloring.t, int(bad[0])
        row = np.zeros(t, dtype=np.int64)
        row[palette - 1] = counts[v]
        want = np.broadcast_to(expected(np.arange(1, t + 1)), (p, t))[v]
        raise ConstructionFailedError(
            f"{name} row {row.tolist()} {'below' if at_least else '!='} "
            f"{want.tolist()} at vertex {v + 1}"
        )
    return coloring


def _classes_in_order(sizes: list[int]) -> np.ndarray:
    """The class of each matching in order: class c takes sizes[c-1]
    consecutive matchings, and a class of size 0 takes no room."""
    used = [c for c, size in enumerate(sizes, 1) if size]
    return np.repeat(np.array(used, dtype=np.int64), [sizes[c - 1] for c in used])


def _sizes_at(sizes: list[int], palette: np.ndarray) -> np.ndarray:
    """sizes[c-1] for each color c of ``palette``."""
    return np.array([sizes[c - 1] for c in palette.tolist()], dtype=np.int64)


def partitioned_factorization_coloring(p: int, class_sizes: list[int]) -> EdgeColoring:
    """Group the p-1 perfect matchings of even K_p into color classes.

    Round i of ``one_factorization(p)`` is M_i of K_{p-1} plus the edge
    (i, p); rounds go to colors in order, class_sizes[c-1] rounds each.
    Each matching touches every vertex once, so every vertex sees
    exactly class_sizes[c-1] edges of color c.
    """
    if p < 2 or p % 2:
        raise InvalidParameterError(f"need even p >= 2, got {p}")
    sizes = list(class_sizes)
    if not sizes or any(sz < 0 for sz in sizes):
        raise InvalidParameterError(f"class sizes must be nonnegative, got {sizes}")
    if sum(sizes) != p - 1:
        raise InvalidParameterError(
            f"class sizes must sum to p-1={p - 1}, got {sizes} (sum {sum(sizes)})"
        )
    classes = _classes_in_order(sizes)
    coloring = EdgeColoring._adopt(p, len(sizes), _rotation_colors(p, classes, {}))
    return _certified(coloring, "partitioned factorization",
                      lambda palette: _sizes_at(sizes, palette))


def _rotation_colors(p: int, color_of_center: np.ndarray, by_k: dict) -> np.ndarray:
    """Colors of K_p from the near-factorization of odd K_x, x = p or p-1:
    every edge of M_i gets color_of_center[i-1], except that M_i for i in
    ``by_k`` colors its edge k with by_k[i][k-1].  On even p the edge
    (i, p) completes M_i and gets color_of_center[i-1] too."""
    check_order(p)
    x = p - 1 + p % 2
    colors = color_of_center[matching_centers(*edge_endpoints(p), x)]
    if x < p:
        colors[edge_rank(p, np.arange(1, p), p)] = color_of_center
    for i, k_colors in by_k.items():
        colors[_matching_ranks(x, i)] = k_colors
    return colors


def _matching_ranks(x: int, i: int) -> np.ndarray:
    """Edge ranks of M_i of odd K_x in edge order: edge k joins the circle
    positions i+k and i-k."""
    k = np.arange(1, (x + 1) // 2)
    a, b = (i + k - 1) % x + 1, (i - k - 1) % x + 1
    return edge_rank(x, np.minimum(a, b), np.maximum(a, b))


def regular_coloring(t: int, q: int) -> EdgeColoring:
    """t-coloring of K_{tq+1}, q even, with every color class q-regular.

    The matching of the j-th vertex of every class is colored wholly
    with j, and the edge of the last vertex's matching joining the j-th
    vertices of classes i and q+1-i is colored j as well.  The mirrored
    layout makes those paired positions sum to 0 mod x, so that edge
    really does lie in the last vertex's matching.
    """
    if t < 2:
        raise InvalidParameterError(f"need t >= 2, got {t}")
    if q < 2 or q % 2:
        raise InvalidParameterError(f"need even q >= 2, got {q}")
    layout = regular_layout(t, q)
    x = layout.x
    classes = np.array(layout.classes)          # (q, t) circle positions
    color_of_center = np.zeros(x, dtype=np.int64)
    color_of_center[classes - 1] = np.arange(1, t + 1)
    m, partner = classes[:q // 2], classes[::-1][:q // 2]
    unpaired = np.argwhere((m + partner) % x != 0)
    if unpaired.size:
        i, j = unpaired[0]
        raise ConstructionFailedError(
            f"layout pair ({m[i, j]}, {partner[i, j]}) does not sum to 0 mod {x}"
        )
    # edge k of the last matching joins positions k and x-k
    last = np.zeros((x - 1) // 2, dtype=np.int64)
    last[np.minimum(m, partner) - 1] = np.arange(1, t + 1)
    coloring = EdgeColoring._adopt(x, t, _rotation_colors(x, color_of_center, {x: last}))
    return _certified(coloring, "regular coloring", lambda palette: q)


def near_regular_coloring(t: int, q: int, r: int) -> EdgeColoring:
    """t-coloring of odd K_x, x = tq+r, 2 <= r <= t-1, with >= q of every
    color at every vertex.

    The matchings of the q classes give every vertex q edges of each
    color, except that a class vertex v of color j misses its own
    matching and gets q-1 of color j.  One singleton matching makes up
    for it, its edge k joining positions i+k and i-k:

    * if v - r <= (x-1)/2, the last singleton's matching (i = r) meets v
      at k = v - r = (c-1)t + j for v in class c, and colors that edge
      ((k-1) mod t) + 1 = j;
    * otherwise the first singleton's matching (i = 1) meets v at
      k = x - (v-1) = (q-c+1)t - j + 1, which is at most (x-1)/2 because
      v >= r + (x+1)/2, and colors that edge (t-k) mod t + 1 = j.

    Singleton vertices lie in every class matching, so every row is at
    least q.  The singletons in between take a cyclic filler, and
    ``_certified`` checks the floor at every build.
    """
    if t < 3:
        raise InvalidParameterError(f"need t >= 3, got {t}")
    if q < 1:
        raise InvalidParameterError(f"need q >= 1, got {q}")
    if not 2 <= r <= t - 1:
        raise InvalidParameterError(f"need 2 <= r <= t-1, got r={r}, t={t}")
    layout = near_regular_layout(t, q, r)
    x = layout.x
    if x % 2 == 0:
        raise InvalidParameterError(f"order tq+r={x} must be odd")
    # the matchings of each class take colors 1..t in turn
    color_of_center = np.zeros(x, dtype=np.int64)
    color_of_center[np.array(layout.classes) - 1] = np.arange(1, t + 1)
    # last singleton counts 1, 2, ..., t along its edge order; the first
    # counts t, t-1, ..., 1; singletons in between get a cyclic filler
    k = np.arange(1, (x - 1) // 2 + 1)
    first, *middle, last = layout.singletons
    by_k = {last: (k - 1) % t + 1, first: (t - k) % t + 1}
    for mid in middle:
        by_k[mid] = (k + mid - 1) % t + 1
    coloring = EdgeColoring._adopt(x, t, _rotation_colors(x, color_of_center, by_k))
    # t < x, so the floor is checked on all t colors
    return _certified(coloring, "near-regular", lambda palette: q, at_least=True)


def cyclic_matching_coloring(p: int, t: int) -> EdgeColoring:
    """Color edge k of every near-matching of odd K_p with ((k-1) mod t) + 1.

    Used both as the three-color balanced coloring for odd orders and as
    the filler certificate when no n-star exists at all.
    """
    if t < 1:
        raise InvalidParameterError(f"need t >= 1, got {t}")
    if p < 1 or p % 2 == 0:
        raise InvalidParameterError(f"need odd p >= 1, got {p}")
    check_order(p)
    k = matching_indices(*edge_endpoints(p), p)
    k -= 1
    k %= min(t, p)  # k <= (p-1)/2; a t past int32 would not fit k's dtype
    k += 1
    return EdgeColoring._adopt(p, t, k)


def three_color_balanced_coloring(n: int) -> EdgeColoring:
    """3-coloring of K_{3n-2} with exactly n-1 edges of each color at
    every vertex.

    Even orders group a 1-factorization into three classes of n-1; odd
    orders color the near-matchings cyclically, which is balanced
    because the edge index within a matching depends only on the
    circular distance of its endpoints, and each color then collects
    (n-1)/2 distance classes contributing two edges per vertex.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    x = 3 * n - 2
    if x % 2 == 0:
        return partitioned_factorization_coloring(x, [n - 1] * 3)
    return _certified(cyclic_matching_coloring(x, 3), "three-color balanced",
                      lambda palette: n - 1)


# recipe tag -> builder; a recipe's params are its builder's keyword arguments
BUILDERS = {
    "cyclic": cyclic_matching_coloring,
    "partitioned-factorization": partitioned_factorization_coloring,
    "regular": regular_coloring,
    "near-regular": near_regular_coloring,
    "three-color-balanced": three_color_balanced_coloring,
}


def build_recipe(recipe: WitnessRecipe) -> tuple[EdgeColoring, WitnessRecipe]:
    """Run a witness recipe; the returned recipe records what was executed."""
    builder = BUILDERS.get(recipe.tag)
    if builder is None:
        raise InvalidParameterError(f"unknown recipe tag {recipe.tag!r}")
    return builder(**recipe.params), recipe


def witness_coloring(n: int, t: int, s: int) -> tuple[EdgeColoring, WitnessRecipe]:
    """Certificate coloring of K_{R-1} for the instance (n, t, s).

    The coloring is checked against the claim (every n-star shows at
    least s+1 colors) before it is returned; a failed check raises
    rather than handing back a bad certificate.
    """
    verdict: CaseVerdict = classify(n, t, s)
    check_order(verdict.value - 1)
    coloring, recipe = build_recipe(verdict.witness)
    k = min_star_colors(coloring, n)
    if k is not None and k < s + 1:
        raise ConstructionFailedError(
            f"recipe {recipe.describe()} for (n={n}, t={t}, s={s}) built K_{coloring.p} "
            f"with an n-star on {k} <= {s} colors; "
            f"the case value {verdict.value} ({verdict.case_tag}) has no certificate here"
        )
    return coloring, recipe
