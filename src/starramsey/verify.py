"""The judge: coloring validation, star color minima, and seeded sampling.

A coloring of K_p certifies R > p for the instance (n, t, s) exactly when
every n-edge star in it shows at least s+1 distinct colors; every such
check goes through one kernel, ``star_minima``, over color degrees.

Everything here works on the coloring's rank-ordered color array: the
color degrees are one ``bincount`` (``coloring.degree_counts``),
``validate`` is a range check on the array plus the missing and
unexpected edges a malformed mapping left, and the sampler draws a batch
of trials from one seeded stream in one call, then counts and checks the
batch in one pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coloring import (
    MAX_COLORING_BYTES,
    EdgeColoring,
    check_order,
    degree_counts,
    edge_count,
    edge_endpoints,
    palette_colors,
)
from .errors import InvalidParameterError

# The sampler checks max(1, SAMPLE_BATCH_EDGES // max(edges, p * t)) trials
# at a time, with one bincount and one star_minima per batch: a trial holds
# `edges` drawn colors and p * t color-degree cells, so a batch's arrays stay
# near this many cells whatever t is.  K_14 at t <= 4 fits 45 trials, and a
# sample-check process peaks about 0.2 MB higher at 4,096 cells and 0.75 MB
# higher at 16,384 than with one trial per batch.  A trial larger than this
# goes alone.
SAMPLE_BATCH_EDGES = 1 << 12


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


def _check_table(p: int, t: int) -> None:
    """Refuse a p x t color-degree table whose ``star_minima`` pass would
    exceed ``MAX_COLORING_BYTES``: it holds three int64 copies of the table
    at its peak, and 32 bytes per cell are assumed."""
    if 32 * p * t > MAX_COLORING_BYTES:
        raise InvalidParameterError(
            f"K_{p} with {t} colors needs a {p} x {t} color-degree table, "
            f"about {32 * p * t >> 20} MiB with its temporaries; "
            f"the limit is {MAX_COLORING_BYTES >> 20} MiB")


def _profile_minima(coloring: EdgeColoring,
                    n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(color-degree array, the color of each of its columns, star minima);
    None when no n-star exists.

    When t > p-1 the columns are only the colors that occur
    (``coloring.palette_colors``), so a huge declared t does not size the
    table.  Every row then still sums to p-1 >= n, and ties between
    columns still go to the smaller color, so the minima and the
    offending colors do not change.
    """
    if n < 1:
        raise InvalidParameterError(f"star size must be >= 1, got {n}")
    p, t = coloring.p, coloring.t
    if p - 1 < n:
        return None
    palette, columns = palette_colors(coloring)
    if t > p - 1:
        _check_table(p, len(palette))
    counts = degree_counts(p, len(palette), columns)
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


def sample_upper_check(p: int, n: int, t: int, s: int, trials: int,
                       seed: int) -> SampleCheckResult:
    """Sample uniform t-colorings of K_p; pass iff every one contains an
    n-star with at most s colors.

    A sample where every n-star needs more than s colors disproves
    R <= p and is returned as a counterexample.  All trials come from one
    generator seeded with ``seed``: trial i is the i-th run of edge-count
    draws from that stream, whatever the batch size, so the verdict
    depends on ``seed`` alone and a run with ``trials = i + 1`` draws
    trial i's coloring again.  An order whose per-edge arrays, or a
    color count whose p x t color-degree table, would exceed
    ``MAX_COLORING_BYTES`` is refused before anything is drawn.
    """
    if p < 1 or n < 1 or t < 1 or s < 1 or trials < 1:
        raise InvalidParameterError("p, n, t, s, trials must all be >= 1")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    check_order(p)
    _check_table(p, t)
    m = edge_count(p)
    rng = np.random.default_rng(seed)
    if p - 1 < n:
        # No n-star exists at all: any sample is a counterexample.
        cex = EdgeColoring.from_array(p, t, rng.integers(1, t + 1, size=m))
        return SampleCheckResult(False, trials, 0, cex)
    batch = max(1, SAMPLE_BATCH_EDGES // max(m, p * t))
    for start in range(0, trials, batch):
        draws = rng.integers(1, t + 1, size=(min(batch, trials - start), m))
        beats = star_minima(degree_counts(p, t, draws), n).min(axis=-1) > s
        if beats.any():
            j = int(beats.argmax())
            return SampleCheckResult(False, trials, start + j,
                                     EdgeColoring.from_array(p, t, draws[j]))
    return SampleCheckResult(True, trials)
