"""The judge: coloring validation, star color minima, and seeded sampling.

A coloring of K_p certifies R > p for the instance (n, t, s) exactly when
every n-edge star in it shows at least s+1 distinct colors; every such
check goes through one per-row kernel, ``star_minima``, over color
degrees.

The color degrees are ``EdgeColoring.color_degrees``, built once.  The
rule for a well-formed coloring is ``coloring.defects``, written once:
``validate`` lists every defect, and ``check_certificate`` (like the
degree table) refuses a coloring with the first five.  None of this
imports numpy.  The sampler does, inside its own functions only: it
draws any edge of any trial on demand (``sample_colors``), so it
screens a batch of trials one vertex at a time and draws only the edges
it reads.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

from .coloring import (
    EdgeColoring,
    check_order,
    check_table,
    check_well_formed,
    color_store,
    defects,
    edge_count,
    edge_rank,
)
from .errors import InvalidParameterError

# The sampler screens max(1, SAMPLE_BATCH_EDGES // max(p - 1, t + 1)) trials
# at a time: at each vertex a surviving trial holds p - 1 drawn colors, then
# a t-cell color-degree row and its star minimum, so a batch's arrays stay
# near this many cells whatever p and t are.  K_14 at t <= 4 fits 1,260
# trials.
SAMPLE_BATCH_EDGES = 1 << 14


def validate(coloring: EdgeColoring) -> list[str]:
    """Return a list of defects; empty means the coloring is well formed.

    Defects are data, not exceptions: ``coloring.defects`` in order, every
    one of them.  An order or color count below 1 comes alone; otherwise
    missing edges, unexpected edges (out of range or not in canonical
    (u < v) form) and colors outside 1..t are all enumerated.  Only a
    coloring built from a malformed mapping can have the first two.
    """
    return list(defects(coloring))


def star_minima(rows, n: int) -> list[int]:
    """Per row of color degrees, the least k whose k largest sum to >= n.

    At a vertex, the k largest color classes cover the most edges any k
    colors can, so this is the fewest colors an n-star centered there can
    show: the first of the descending prefix sums to reach n, found by
    bisection.  A row whose total stays below n gets len(row) + 1.  Rows
    repeat (every row of a regular certificate, most of a sampler batch),
    so each distinct row is computed once.
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


class Certificate(NamedTuple):
    """Outcome of checking that a coloring witnesses R > p for (n, t, s)."""

    coloring: EdgeColoring
    n: int
    s: int
    passed: bool
    min_colors: int | None
    offending_vertex: int | None = None
    offending_colors: tuple[int, ...] = ()
    covered_edges: int = 0


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


class SampleCheckResult(NamedTuple):
    """Outcome of the randomized necessary-condition check of R <= p."""

    passed: bool
    trials: int
    trial_index: int | None = None
    counterexample: EdgeColoring | None = None


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): Weyl increment, multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z):
    """SplitMix64's finalizer, a bijection of uint64, applied in place to a
    numpy uint64 array."""
    import numpy as np

    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def sample_colors(p: int, t: int, seed: int, trials, ranks):
    """(len(trials), len(ranks)) int64 numpy array of the colors the
    sampler draws for these edge ranks (an integer array) of these trials
    of K_p.

    Counter-based (Salmon et al., SC 2011), so any edge of any trial can be
    drawn alone: rank r of trial i gets ``z % t + 1``, z = _mix(_mix(seed) +
    (i*m + r + 1)*gamma), m = p(p-1)/2.  Each color's probability is within
    2^-64 of 1/t.  With seed < 2^64 and trials * m < 2^64 no two draws
    share a counter.
    """
    import numpy as np

    key = _mix(np.array([seed], np.uint64))
    z = (np.asarray(trials).astype(np.uint64)[:, None] * np.uint64(edge_count(p))
         + (np.asarray(ranks).astype(np.uint64) + np.uint64(1)))
    z *= np.uint64(_GAMMA)
    z += key
    return (_mix(z) % np.uint64(t)).astype(np.int64) + 1


def sample_upper_check(p: int, n: int, t: int, s: int, trials: int,
                       seed: int) -> SampleCheckResult:
    """Sample uniform t-colorings of K_p; pass iff every one contains an
    n-star with at most s colors.

    The first trial, in index order, where every n-star needs more than s
    colors disproves R <= p and is returned as a counterexample.  Trial
    i's colors come from ``sample_colors``, so the verdict depends on
    ``seed`` alone and ``trials = i + 1`` draws trial i again.  Each batch
    of trials draws vertex 1's edges and keeps the trials whose
    ``star_minima`` there exceeds s; the survivors draw vertex 2's, and so
    on, so when vertex 1 settles the trials the work is O(trials * p).
    Refused before anything is drawn: per-edge arrays or a p x t
    color-degree table over ``MAX_COLORING_BYTES``, a seed outside
    0..2^64-1, and trials * p(p-1)/2 >= 2^64, where the counter would wrap.
    """
    if p < 1 or n < 1 or t < 1 or s < 1 or trials < 1:
        raise InvalidParameterError("p, n, t, s, trials must all be >= 1")
    if not 0 <= seed < 1 << 64:
        raise InvalidParameterError(f"seed must be in 0..2^64-1, got {seed}")
    check_order(p)
    check_table(p, t)
    m = edge_count(p)
    if trials * m >= 1 << 64:
        raise InvalidParameterError(
            f"{trials} trials of K_{p} need {trials * m} draws; the limit is 2^64-1")
    # with no n-star at all, trial 0 already beats the budget
    first = 0 if p - 1 < n else _first_beating_trial(p, n, t, s, trials, seed)
    if first is None:
        return SampleCheckResult(True, trials)
    colors = sample_colors(p, t, seed, [first], range(m))[0]
    return SampleCheckResult(False, trials, first,
                             EdgeColoring._adopt(p, t, color_store(colors.tolist())))


def _first_beating_trial(p: int, n: int, t: int, s: int, trials: int,
                         seed: int) -> int | None:
    """The vertex-by-vertex screen: the first trial that survives all p
    vertices, or None."""
    import numpy as np

    batch = max(1, SAMPLE_BATCH_EDGES // max(p - 1, t + 1))
    for start in range(0, trials, batch):
        alive = np.arange(start, min(start + batch, trials), dtype=np.uint64)
        for v in range(1, p + 1):
            ranks = [edge_rank(p, u, v) for u in range(1, v)]
            ranks += range(edge_rank(p, v, v + 1), edge_rank(p, v, p) + 1)
            cells = sample_colors(p, t, seed, alive, ranks)
            cells += (np.arange(alive.size) * t - 1)[:, None]
            counts = np.bincount(cells.ravel(), minlength=alive.size * t)
            minima = star_minima(counts.reshape(-1, t).tolist(), n)
            alive = alive[np.array(minima) > s]
            if not alive.size:
                break
        else:
            return int(alive[0])
    return None
