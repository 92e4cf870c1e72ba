"""The judge: coloring validation and star color minima.

A coloring of K_p certifies R > p for the instance (n, t, s) exactly when
every n-edge star in it shows at least s+1 distinct colors; every such
check goes through one per-row kernel, ``star_minima``, over color
degrees.  ``check_certificate`` is the one verdict on a certificate:
``verify`` prints it, and ``constructions.witness_coloring`` refuses any
build it fails.  The exhaustive search re-derives the same rule for
its water-filled rows without importing it.

The color degrees are ``EdgeColoring.color_degrees``, built once.  The
rule for a well-formed coloring is ``coloring.defects``, written once:
``validate`` lists every defect, and ``check_certificate`` (like the
degree table) refuses a coloring with the first five.
``sample_upper_check`` answers R <= p from the proof: ``exact``'s
``star_upper`` for the pass, and ``constructions`` only for a
counterexample.
"""

from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate

from .coloring import EdgeColoring, check_order, check_well_formed, defects, edge_rank, join_store
from .errors import InvalidParameterError


def validate(coloring: EdgeColoring) -> list[str]:
    """Return a list of defects; empty means the coloring is well formed.

    Defects are data, not exceptions: ``coloring.defects`` in order, every
    one of them.  An order or color count below 1 comes alone; otherwise
    every color outside 1..t is named with its edge.  Missing and
    unexpected edges are not defects here: no coloring has them, since
    every constructor refuses them.
    """
    return list(defects(coloring))


def star_minima(rows, n: int) -> list[int]:
    """Per row of color degrees, the least k whose k largest sum to >= n.

    At a vertex, the k largest color classes cover the most edges any k
    colors can, so this is the fewest colors an n-star centered there can
    show: the first of the descending prefix sums to reach n, found by
    bisection.  A row whose total stays below n gets len(row) + 1.  Rows
    repeat (every row of a regular certificate), so each distinct row is
    computed once.
    """
    rows = list(map(tuple, rows))
    minimum = {row: bisect_left(list(accumulate(sorted(row, reverse=True))), n) + 1
               for row in set(rows)}
    return list(map(minimum.__getitem__, rows))


def _profile_minima(coloring: EdgeColoring, n: int):
    """(color-degree rows, the color of each of their columns, star
    minima); None when no n-star exists.

    The rows are ``coloring.color_degrees``, which a builder's row check
    may have made.  When t > p-1 their columns are only the colors that
    occur.  Every row then still sums to p-1 >= n, and ties between
    columns still go to the smaller color, so the minima and the offending
    colors do not change.
    """
    if n < 1:
        raise InvalidParameterError(f"star size must be >= 1, got {n}")
    if coloring.p - 1 < n:
        return None
    palette, rows = coloring.color_degrees
    return rows, palette, star_minima(rows, n)


def min_star_colors(coloring: EdgeColoring, n: int) -> int | None:
    """Fewest distinct colors over all n-edge stars; None when no star exists."""
    profile = _profile_minima(coloring, n)
    return None if profile is None else min(profile[2])


class Certificate(namedtuple("Certificate", "coloring n s passed min_colors offending_vertex "
                             "offending_colors covered_edges", defaults=(None, (), 0))):
    """Outcome of checking that ``coloring``, an ``EdgeColoring``, witnesses
    R > p for (n, t, s).  ``min_colors`` is an int, or None when no n-star
    exists; on a fail, ``offending_vertex`` is an int and
    ``offending_colors`` a tuple of ints."""

    __slots__ = ()


def check_certificate(coloring: EdgeColoring, n: int, s: int) -> Certificate:
    """Pass iff every n-star uses more than s colors (or no n-star exists)."""
    check_well_formed(coloring)
    if s < 1:
        raise InvalidParameterError(f"color budget must be >= 1, got {s}")
    profile = _profile_minima(coloring, n)
    if profile is None:
        return Certificate(coloring, n, s, True, None)
    rows, palette, minima = profile
    k = min(minima)
    if k > s:
        return Certificate(coloring, n, s, True, k)
    # first vertex with an n-star on <= s colors; ties go to the smaller color
    v = next(v for v, m in enumerate(minima) if m <= s)
    row = rows[v]
    chosen = sorted(range(len(row)), key=lambda i: -row[i])[:minima[v]]  # stable
    return Certificate(coloring, n, s, False, k, offending_vertex=v + 1,
                       offending_colors=tuple(palette[i] for i in chosen),
                       covered_edges=sum(row[i] for i in chosen))


class SampleCheckResult(namedtuple("SampleCheckResult", "passed trials counterexample",
                                   defaults=(None,))):
    """Outcome of the upper-bound check of R <= p; ``counterexample`` is
    an ``EdgeColoring``, or None on a pass."""

    __slots__ = ()


def sample_upper_check(p: int, n: int, t: int, s: int, trials: int,
                       seed: int) -> SampleCheckResult:
    """Pass iff every t-coloring of K_p has an n-star on at most s colors,
    from the proof of R(n, t, s): ``trials`` is echoed, ``seed`` unused.

    Pass exactly when p >= ``star_upper``'s U_par.  Else return
    ``witness_coloring``'s K_{U_par-1} cut to its first p vertices, a
    witness since each n-star of K_p is one of K_{U_par-1}, and its colors
    are at most U_par-2, whatever t; its refusals stand.  Refused first:
    an argument below 1, s >= t (``star_upper`` holds for s < t only) and
    an order past ``check_order``.
    """
    if p < 1 or n < 1 or t < 1 or s < 1 or trials < 1:
        raise InvalidParameterError("p, n, t, s, trials must all be >= 1")
    if s >= t:
        raise InvalidParameterError(f"need 1 <= s < t, got s={s}, t={t}")
    check_order(p)
    from .exact import star_upper
    if p >= star_upper(n, t, s)[0]:
        return SampleCheckResult(True, trials)
    from .constructions import witness_coloring
    witness = witness_coloring(n, t, s)[0]
    w, store = witness.p, witness.array
    rows = [store[edge_rank(w, u, u + 1):edge_rank(w, u, u + 1) + p - u] for u in range(1, p)]
    return SampleCheckResult(False, trials, EdgeColoring._adopt(p, t, join_store(rows, store)))
