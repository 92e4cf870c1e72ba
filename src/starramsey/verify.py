"""The judge: coloring validation, star color minima, and seeded sampling.

A coloring of K_p certifies R > p for the instance (n, t, s) exactly when
every n-edge star in it shows at least s+1 distinct colors; every such
check goes through one per-row kernel, ``star_minima``, over color
degrees.  ``check_certificate`` is the one verdict on a certificate:
``verify`` prints it, and ``constructions.witness_coloring`` refuses any
build it fails.  The oracle's bound applies the same rule to its
water-filled rows without importing it.

The color degrees are ``EdgeColoring.color_degrees``, built once.  The
rule for a well-formed coloring is ``coloring.defects``, written once:
``validate`` lists every defect, and ``check_certificate`` (like the
degree table) refuses a coloring with the first five.  Nothing here
imports numpy, the sampler included: it draws any edge of any trial on
demand (``sample_colors``), mixing a batch's draws as 64-bit lanes of
one Python int, and screens a batch of trials one vertex at a time, so
it draws only the edges it reads.  No step of a batch runs Python per
draw: big-int operations mix and reduce all lanes, ``bytes.count`` tallies.
First, when even the most even row of p-1 edges has an n-star on <= s
colors, vertex 1 would settle every trial, so the sampler draws nothing;
nor does it where the oracle's parity rule refutes every coloring.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, repeat
from typing import NamedTuple

from .coloring import (MAX_COLOR, EdgeColoring, check_order, check_well_formed, color_store,
                       defects, edge_count, edge_rank)
from .errors import InvalidParameterError

# The sampler screens max(1, SAMPLE_BATCH_EDGES // max(p - 1, t + 1)) trials
# at a time: at each vertex a surviving trial holds p - 1 drawn colors, then
# a color-degree row of at most t cells and its star minimum.  A draw peaks
# at 104-109 bytes under tracemalloc (six 17-byte lanes: vertex 1's kept
# lanes and their mask, the mixed lanes, three temporaries of ``_residues``),
# so a batch's draws stay near 430 KiB whatever p and t are, and its ints fit
# a core's cache.  K_14 at t <= 4 fits 315 trials.
SAMPLE_BATCH_EDGES = 1 << 12


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
_U64 = (1 << 64) - 1
_LANE = _U64.to_bytes(16, "little")  # the low 64 of a lane's 128 bits


def _mix(z: int, mask: int = _U64) -> int:
    """SplitMix64's finalizer, a bijection of uint64, on every 64-bit lane of
    z at once: ``mask`` keeps the low 64 of each 128-bit lane, which a lane's
    product (< 2^128) never carries past, and drops a shift's next-lane bits."""
    z ^= z >> 30 & mask
    z = z * _MUL1 & mask
    z ^= z >> 27 & mask
    z = z * _MUL2 & mask
    return z ^ z >> 31 & mask


def _counters(p: int, seed: int, trials, ranks) -> tuple[int, int]:
    """(lanes, mask): each draw's counter times gamma, premixed, in a 128-bit
    lane of one int, trial-major, and the mask of the lanes' low 64 bits."""
    m, width, lanes = edge_count(p), len(ranks), len(trials) * len(ranks)
    offset = 1 + _mix(seed) * pow(_GAMMA, -1, 1 << 64)
    counters = array("Q", bytes(16 * width))
    counters[::2] = array("Q", ranks)
    z = int.from_bytes(b"".join((i * m + offset & _U64).to_bytes(16, "little") * width
                                for i in trials), "little")
    mask = int.from_bytes(_LANE * lanes, "little")
    z += int.from_bytes(bytes(counters) * len(trials), "little")
    return (z & mask) * _GAMMA & mask, mask


def _residues(z: int, t: int, mask: int, lanes: int) -> bytes:
    """Each 64-bit lane of z mod t (1 <= t <= 255), one byte a lane, with no
    Python step per lane: y = hi * (2^32 mod t) + lo < 2^40 keeps z's residue,
    and y * (2^48 // t + 1) >> 48 is y // t exactly for y < 2^40, t < 2^8."""
    y = z - (z >> 32 & mask) * ((1 << 32) - pow(2, 32, t))  # a lane's hi * 2^32 <= it
    y -= (y * ((1 << 48) // t + 1) >> 48 & mask) * t
    return y.to_bytes(16 * lanes, "little")[::16]


def sample_colors(p: int, t: int, seed: int, trials, ranks) -> list[int]:
    """The colors the sampler draws for these edge ranks (a sequence of
    ints) of these trials of K_p: a flat list, trial-major.

    Counter-based (Salmon et al., SC 2011), so any edge of any trial can be
    drawn alone: rank r of trial i gets ``z % t + 1``, z = _mix(_mix(seed) +
    (i*m + r + 1)*gamma), m = p(p-1)/2.  Each color's probability is within
    2^-64 of 1/t.  With seed < 2^64 and trials * m < 2^64 no two draws
    share a counter.  Each draw is a 128-bit lane of one int: its rank,
    plus its trial's i*m + 1 + _mix(seed)/gamma (mod 2^64), times gamma.
    """
    z = _mix(*_counters(p, seed, trials, ranks)).to_bytes(16 * len(trials) * len(ranks), "little")
    return [x % t + 1 for x in array("Q", z)[::2]]


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
    Every row of p-1 edges majorizes the most even one (at most p-1
    cells), so when that row has an n-star on <= s colors, vertex 1 settles
    every trial: the check passes for every seed with nothing drawn.  So
    it does where the oracle's parity rule refutes every coloring; it is
    loaded only at odd orders left open with t <= p-1, since at t > p-1
    the most even row has a 0 part and is admissible there.
    Refused before that: t > 2^63-1, whose colors a counterexample's int64
    store cannot hold (no p x t table is built), per-edge arrays over
    ``MAX_COLORING_BYTES``, a seed outside 0..2^64-1, and trials *
    p(p-1)/2 >= 2^64, where the counter would wrap.
    """
    if p < 1 or n < 1 or t < 1 or s < 1 or trials < 1:
        raise InvalidParameterError("p, n, t, s, trials must all be >= 1")
    if not 0 <= seed < 1 << 64:
        raise InvalidParameterError(f"seed must be in 0..2^64-1, got {seed}")
    if t > MAX_COLOR:
        raise InvalidParameterError(
            f"a counterexample's colors are 64-bit integers: t must be <= 2^63-1, got {t}")
    check_order(p)
    m = edge_count(p)
    if trials * m >= 1 << 64:
        raise InvalidParameterError(
            f"{trials} trials of K_{p} need {trials * m} draws; the limit is 2^64-1")
    q, r = divmod(p - 1, t)  # the most even row: vertex 1 settles all if it does
    settled = p - 1 >= n and star_minima([[q + 1] * r + [q] * (min(t, p - 1) - r)], n)[0] <= s
    if not settled and p % 2 and n <= p - 1 and t <= p - 1:  # else parity cannot fire
        from .oracle import _parity_forbids
        settled = _parity_forbids(p, n, t, s)
    if settled:
        return SampleCheckResult(True, trials)
    # with no n-star at all, trial 0 already beats the budget
    first = 0 if p - 1 < n else _first_beating_trial(p, n, t, s, trials, seed)
    if first is None:
        return SampleCheckResult(True, trials)
    colors = [c for lo in range(0, m, SAMPLE_BATCH_EDGES)  # a batch of ranks at a time
              for c in sample_colors(p, t, seed, [first], range(lo, m)[:SAMPLE_BATCH_EDGES])]
    return SampleCheckResult(False, trials, first, EdgeColoring._adopt(p, t, color_store(colors)))


def _first_beating_trial(p: int, n: int, t: int, s: int, trials: int,
                         seed: int) -> int | None:
    """The vertex-by-vertex screen: the first trial that survives all p
    vertices, or None.  Vertex 1 reads ranks 0..p-2 in every batch, so its
    lanes are built once and then advance by batch * m * gamma a batch.  A
    row counts each color in a trial's p - 1 cells (``bytes.count`` on the
    lanes' residues) while the colors fit a byte and are no more than the
    cells, else only the colors that occur: every row sums to p - 1 >= n."""
    batch, d = max(1, SAMPLE_BATCH_EDGES // max(p - 1, t + 1)), p - 1
    first, full = _counters(p, seed, range(min(batch, trials)), range(d))
    step = (batch * edge_count(p) * _GAMMA & _U64).to_bytes(16, "little") * d  # one trial
    for start in range(0, trials, batch):
        alive = range(start, min(start + batch, trials))
        if start:
            first = first + int.from_bytes(step * batch, "little") & full
            if len(alive) < batch:  # a short last batch keeps its low lanes
                full &= (1 << 128 * d * len(alive)) - 1
                first &= full
        z, mask = first, full
        for v in range(1, p + 1):
            if v > 1:
                ranks = [edge_rank(p, u, v) for u in range(1, v)]
                ranks += range(edge_rank(p, v, v + 1), edge_rank(p, v, p) + 1)
                z, mask = _counters(p, seed, alive, ranks)
            z, lanes = _mix(z, mask), len(alive) * d
            starts = range(0, lanes, d)
            if t <= min(d, 255):
                cells = _residues(z, t, mask, lanes)
                rows = zip(*[map(cells.count, repeat(c), starts, range(d, lanes + 1, d))
                             for c in range(t)])
            else:
                cells = [x % t for x in array("Q", z.to_bytes(16 * lanes, "little"))[::2]]
                rows = [Counter(cells[lo:lo + d]).values() for lo in starts]
            alive = [i for i, k in zip(alive, star_minima(rows, n)) if k > s]
            if not alive:
                break
        else:
            return alive[0]
    return None
