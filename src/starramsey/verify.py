"""The judge: coloring validation, star color minima, and seeded sampling.

A coloring of K_p certifies R > p for the instance (n, t, s) exactly when
every n-edge star in it shows at least s+1 distinct colors; every such
check goes through one kernel, ``star_minima``, over color degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import EdgeColoring, all_edges, color_degree_profile
from .errors import InvalidParameterError


def validate(coloring: EdgeColoring) -> list[str]:
    """Return a list of defects; empty means the coloring is well formed.

    Defects are data, not exceptions: missing edges, unexpected edges
    (out of range or not in canonical (u < v) form), and colors outside
    1..t are all enumerated.
    """
    defects: list[str] = []
    if coloring.p < 1:
        defects.append(f"graph order must be >= 1, got {coloring.p}")
    if coloring.t < 1:
        defects.append(f"color count must be >= 1, got {coloring.t}")
    if defects:
        return defects
    if _is_complete(coloring):
        return defects
    expected = set(all_edges(coloring.p))
    present = set(coloring.colors)
    for edge in sorted(expected - present):
        defects.append(f"missing edge {edge}")
    for edge in sorted(present - expected):
        defects.append(f"unexpected edge {edge}")
    for edge in sorted(present & expected):
        c = coloring.colors[edge]
        if not (1 <= c <= coloring.t):
            defects.append(f"color out of range on edge {edge}: {c}")
    return defects


def _is_complete(coloring: EdgeColoring) -> bool:
    """True when the coloring holds p(p-1)/2 int keys (u, v) with
    1 <= u < v <= p and int colors in 1..t.

    Distinct keys in range that many must be every edge of K_p, so this
    proves a coloring well formed without materialising the edge set.
    """
    p, t = coloring.p, coloring.t
    if len(coloring.colors) != p * (p - 1) // 2:
        return False
    for key, c in coloring.colors.items():
        if type(key) is not tuple or len(key) != 2:
            return False
        u, v = key
        if not (type(u) is int and type(v) is int and type(c) is int
                and 1 <= u < v <= p and 1 <= c <= t):
            return False
    return True


def star_minima(counts: np.ndarray, n: int) -> np.ndarray:
    """Per vertex, the least k whose k largest color degrees sum to >= n.

    ``counts`` is a (p, t) color-degree array.  At a vertex, the k largest
    color classes cover the most edges any k colors can, so this is the
    fewest colors an n-star centered there can show.  A row whose total
    stays below n gets t+1.
    """
    prefix = (-np.sort(-counts, axis=1)).cumsum(axis=1)
    return (prefix < n).sum(axis=1) + 1


def _profile_minima(coloring: EdgeColoring, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(color-degree array, star minima); None when no n-star exists."""
    if n < 1:
        raise InvalidParameterError(f"star size must be >= 1, got {n}")
    if coloring.p - 1 < n:
        return None
    counts = np.array(color_degree_profile(coloring))
    return counts, star_minima(counts, n)


def min_star_colors(coloring: EdgeColoring, n: int) -> int | None:
    """Fewest distinct colors over all n-edge stars; None when no star exists."""
    profile = _profile_minima(coloring, n)
    return None if profile is None else int(profile[1].min())


@dataclass(frozen=True)
class Certificate:
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
    counts, minima = profile
    k = int(minima.min())
    if k > s:
        return Certificate(coloring, n, s, True, k, recipe=recipe)
    # first vertex with an n-star on <= s colors; ties go to the smaller color
    v = int(np.argmax(minima <= s))
    chosen = np.argsort(-counts[v], kind="stable")[:minima[v]]
    return Certificate(coloring, n, s, False, k, offending_vertex=v + 1,
                       offending_colors=tuple(int(c) + 1 for c in chosen),
                       covered_edges=int(counts[v, chosen].sum()), recipe=recipe)


@dataclass(frozen=True)
class SampleCheckResult:
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
    R <= p and is returned as a counterexample.  Trial i draws from a
    generator seeded with (seed, i), so the verdict does not depend on
    evaluation order or worker count.
    """
    if p < 1 or n < 1 or t < 1 or s < 1 or trials < 1:
        raise InvalidParameterError("p, n, t, s, trials must all be >= 1")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    edges = all_edges(p)
    if p - 1 < n:
        # No n-star exists at all: any sample is a counterexample.
        rng = np.random.default_rng([seed, 0])
        cols = rng.integers(1, t + 1, size=len(edges))
        cex = EdgeColoring(p, t, dict(zip(edges, (int(c) for c in cols))))
        return SampleCheckResult(False, trials, 0, cex)
    us = np.array([u - 1 for u, _ in edges])
    vs = np.array([v - 1 for _, v in edges])
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        cols = rng.integers(1, t + 1, size=len(edges))
        counts = np.zeros((p, t), dtype=np.int64)
        np.add.at(counts, (us, cols - 1), 1)
        np.add.at(counts, (vs, cols - 1), 1)
        if int(star_minima(counts, n).min()) > s:
            cex = EdgeColoring(p, t, dict(zip(edges, (int(c) for c in cols))))
            return SampleCheckResult(False, trials, i, cex)
    return SampleCheckResult(True, trials)
