"""The judge: coloring validation, star color minima, and seeded sampling.

A coloring of K_p certifies R > p for the instance (n, t, s) exactly when
every n-edge star in it shows at least s+1 distinct colors; every such
check goes through one kernel, ``star_minima``, over color degrees.

Everything here works on the coloring's rank-ordered color array: the
color degrees are ``EdgeColoring.color_degrees``, built once, and
``validate`` is a range check on the array plus the missing and
unexpected edges a malformed mapping left.  The sampler draws any edge of
any trial on demand (``sample_colors``), so it screens a batch of trials
one vertex at a time and draws only the edges it reads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coloring import (
    EdgeColoring,
    check_order,
    check_table,
    edge_count,
    edge_endpoints,
    edge_rank,
)
from .errors import InvalidParameterError

# The sampler screens max(1, SAMPLE_BATCH_EDGES // max(p - 1, t + 1)) trials
# at a time: at each vertex a surviving trial holds p - 1 drawn colors, then
# a t-cell color-degree row and its star minimum, so a batch's arrays stay
# near this many cells whatever p and t are.  K_14 at t <= 4 fits 1,260
# trials; 8,000 of them take about 2 ms, against 4 ms at 4,096 cells.
SAMPLE_BATCH_EDGES = 1 << 14


def validate(coloring: EdgeColoring) -> list[str]:
    """Return a list of defects; empty means the coloring is well formed.

    Defects are data, not exceptions: missing edges, unexpected edges
    (out of range or not in canonical (u < v) form), and colors outside
    1..t are all enumerated.  Only a coloring built from a malformed
    mapping can have the first two; the color check is one pass over
    the color array.
    """
    defects: list[str] = []
    if coloring.p < 1:
        defects.append(f"graph order must be >= 1, got {coloring.p}")
    if coloring.t < 1:
        defects.append(f"color count must be >= 1, got {coloring.t}")
    if defects:
        return defects
    colors = coloring.array
    missing = sorted(coloring.missing)
    out_of_range = (colors < 1) | (colors > coloring.t)
    out_of_range[missing] = False
    out_of_range = np.flatnonzero(out_of_range).tolist()
    if missing or out_of_range:
        us, vs = edge_endpoints(coloring.p)
    for r in missing:
        defects.append(f"missing edge {(int(us[r]), int(vs[r]))}")
    for edge in sorted(coloring.unexpected):
        defects.append(f"unexpected edge {edge}")
    for r in out_of_range:
        defects.append(
            f"color out of range on edge {(int(us[r]), int(vs[r]))}: {int(colors[r])}")
    return defects


def star_minima(counts: np.ndarray, n: int) -> np.ndarray:
    """Per vertex, the least k whose k largest color degrees sum to >= n.

    ``counts`` is a (p, t) color-degree array, or a (B, p, t) stack of
    them giving (B, p) minima.  At a vertex, the k largest color classes
    cover the most edges any k colors can, so this is the fewest colors an
    n-star centered there can show.  A row whose total stays below n gets
    t+1.
    """
    prefix = (-np.sort(-counts, axis=-1)).cumsum(axis=-1)
    return (prefix < n).sum(axis=-1) + 1


def _profile_minima(coloring: EdgeColoring,
                    n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(color-degree array, the color of each of its columns, star minima);
    None when no n-star exists.

    The array is ``coloring.color_degrees``, which a builder's row check
    may have made.  When t > p-1 its columns are only the colors that
    occur.  Every row then still sums to p-1 >= n, and ties between
    columns still go to the smaller color, so the minima and the offending
    colors do not change.
    """
    if n < 1:
        raise InvalidParameterError(f"star size must be >= 1, got {n}")
    if coloring.p - 1 < n:
        return None
    palette, counts = coloring.color_degrees
    return counts, palette, star_minima(counts, n)


def min_star_colors(coloring: EdgeColoring, n: int) -> int | None:
    """Fewest distinct colors over all n-edge stars; None when no star exists."""
    profile = _profile_minima(coloring, n)
    return None if profile is None else int(profile[2].min())


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
    recipe: object | None = None


def check_certificate(coloring: EdgeColoring, n: int, s: int,
                      recipe: object | None = None) -> Certificate:
    """Pass iff every n-star uses more than s colors (or no n-star exists)."""
    defects = validate(coloring)
    if defects:
        raise InvalidParameterError(
            "invalid coloring: " + "; ".join(defects[:5])
        )
    if s < 1:
        raise InvalidParameterError(f"color budget must be >= 1, got {s}")
    profile = _profile_minima(coloring, n)
    if profile is None:
        return Certificate(coloring, n, s, True, None, recipe=recipe)
    counts, palette, minima = profile
    k = int(minima.min())
    if k > s:
        return Certificate(coloring, n, s, True, k, recipe=recipe)
    # first vertex with an n-star on <= s colors; ties go to the smaller color
    v = int(np.argmax(minima <= s))
    chosen = np.argsort(-counts[v], kind="stable")[:minima[v]]
    return Certificate(coloring, n, s, False, k, offending_vertex=v + 1,
                       offending_colors=tuple(palette[chosen].tolist()),
                       covered_edges=int(counts[v, chosen].sum()), recipe=recipe)


class SampleCheckResult(NamedTuple):
    """Outcome of the randomized necessary-condition check of R <= p."""

    passed: bool
    trials: int
    trial_index: int | None = None
    counterexample: EdgeColoring | None = None


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): Weyl increment, multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, a bijection of uint64, applied in place."""
    z ^= z >> np.uint64(30)
    z *= _MUL1
    z ^= z >> np.uint64(27)
    z *= _MUL2
    z ^= z >> np.uint64(31)
    return z


def sample_colors(p: int, t: int, seed: int, trials: np.ndarray,
                  ranks: np.ndarray) -> np.ndarray:
    """(len(trials), len(ranks)) int64 colors the sampler draws for these
    edge ranks of these trials of K_p.

    Counter-based (Salmon et al., SC 2011), so any edge of any trial can be
    drawn alone: rank r of trial i gets ``z % t + 1``, z = _mix(_mix(seed) +
    (i*m + r + 1)*gamma), m = p(p-1)/2.  Each color's probability is within
    2^-64 of 1/t.  With seed < 2^64 and trials * m < 2^64 no two draws
    share a counter.
    """
    key = _mix(np.array([seed], np.uint64))
    z = (trials.astype(np.uint64)[:, None] * np.uint64(edge_count(p))
         + (ranks.astype(np.uint64) + np.uint64(1)))
    z *= _GAMMA
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
    colors = sample_colors(p, t, seed, np.array([first]), np.arange(m))[0]
    return SampleCheckResult(False, trials, first, EdgeColoring._adopt(p, t, colors))


def _first_beating_trial(p: int, n: int, t: int, s: int, trials: int,
                         seed: int) -> int | None:
    """The vertex-by-vertex screen: the first trial that survives all p
    vertices, or None."""
    batch = max(1, SAMPLE_BATCH_EDGES // max(p - 1, t + 1))
    for start in range(0, trials, batch):
        alive = np.arange(start, min(start + batch, trials), dtype=np.uint64)
        for v in range(1, p + 1):
            ranks = np.concatenate((edge_rank(p, np.arange(1, v), v),
                                    edge_rank(p, v, np.arange(v + 1, p + 1))))
            cells = sample_colors(p, t, seed, alive, ranks)
            cells += (np.arange(alive.size) * t - 1)[:, None]
            counts = np.bincount(cells.ravel(), minlength=alive.size * t)
            alive = alive[star_minima(counts.reshape(-1, t), n) > s]
            if not alive.size:
                break
        else:
            return int(alive[0])
    return None
