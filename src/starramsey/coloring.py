"""Complete-graph edge colorings and their matching decompositions.

Vertices are numbered 1..p and colors 1..t throughout, in files as well
as in memory.

An ``EdgeColoring`` stores its colors as one flat int64 array in
lexicographic edge-rank order: edge (u, v), u < v, sits at
``edge_rank(p, u, v)``, and ``edge_endpoints(p)`` lists every edge's
endpoints in that order as int32.  Builders, degree profiles, validation
and file I/O are vectorised passes over that array, in place where they
can be; ``.color_degrees`` keeps the degree table once built, and
``.colors`` is a read-only mapping view for (u, v) -> color.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError

Edge = tuple[int, int]

# witness_coloring and sample_upper_check refuse K_p when its per-edge
# arrays would need more than this; reading a file is bounded by the file.
# Building and writing a coloring peaks at about 26 bytes per edge under
# tracemalloc, reading and checking one at about 37 (int32 endpoints, int64
# colors, file bytes; files are rendered in blocks), so BYTES_PER_EDGE
# leaves room for allocator overhead.  The limit admits orders up to K_5793.
MAX_COLORING_BYTES = 2 << 30
BYTES_PER_EDGE = 128


def canonical_edge(u: int, v: int) -> Edge:
    """Order a vertex pair as (min, max); loops are rejected."""
    if u == v:
        raise InvalidParameterError(f"loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def all_edges(p: int) -> list[Edge]:
    """Edges of K_p in lexicographic order."""
    return [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]


def edge_count(p: int) -> int:
    """Edges of K_p; 0 for p < 1."""
    return p * (p - 1) // 2 if p > 0 else 0


def edge_rank(p: int, u: int, v: int) -> int:
    """Position of edge (u, v), 1 <= u < v <= p, in lexicographic order."""
    return (u - 1) * (2 * p - u) // 2 + (v - u - 1)


def check_order(p: int) -> None:
    """Refuse K_p before allocating when its arrays would exceed
    ``MAX_COLORING_BYTES``."""
    need = edge_count(p) * BYTES_PER_EDGE
    if need > MAX_COLORING_BYTES:
        raise InvalidParameterError(
            f"K_{p} has {edge_count(p)} edges, about {need >> 20} MiB of arrays; "
            f"the limit is {MAX_COLORING_BYTES >> 20} MiB"
        )


def check_table(p: int, t: int) -> None:
    """Refuse a p x t color-degree table whose ``verify.star_minima`` pass
    would exceed ``MAX_COLORING_BYTES``: it holds three int64 copies of the
    table at its peak, and 32 bytes per cell are assumed."""
    if 32 * p * t > MAX_COLORING_BYTES:
        raise InvalidParameterError(
            f"K_{p} with {t} colors needs a {p} x {t} color-degree table, "
            f"about {32 * p * t >> 20} MiB with its temporaries; "
            f"the limit is {MAX_COLORING_BYTES >> 20} MiB")


def _rank_of(p: int, key) -> int | None:
    """Rank of ``key`` when it is an edge (u, v), 1 <= u < v <= p, else None."""
    if type(key) is not tuple or len(key) != 2:
        return None
    try:
        u, v = map(operator.index, key)
    except TypeError:
        return None
    return edge_rank(p, u, v) if 1 <= u < v <= p else None


def _int64_array(values) -> np.ndarray:
    try:
        return np.fromiter(map(operator.index, values), np.int64)
    except (TypeError, OverflowError):
        raise InvalidParameterError("colors must be 64-bit integers") from None


@lru_cache(maxsize=2)
def edge_endpoints(p: int) -> tuple[np.ndarray, np.ndarray]:
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


def matching_centers(a: np.ndarray, b: np.ndarray, x: int) -> np.ndarray:
    """i - 1 for the near-matching M_i of odd K_x holding each edge {a, b}:
    a + b = 2i (mod x).  In place after the sum; int64 past x = 46,340,
    where (a + b)(x + 1)/2 could pass int32."""
    center = np.add(a, b, dtype=np.int64 if x > 46_340 else None)
    center *= (x + 1) // 2  # the inverse of 2 mod x
    center -= 1
    center %= x
    return center


def matching_indices(a: np.ndarray, b: np.ndarray, x: int) -> np.ndarray:
    """k for each edge {a, b} of odd K_x, edge k (1-based) of its M_i:
    edge k joins i+k and i-k, so (a - b)/2 = +-k (mod x)."""
    k = np.subtract(a, b, dtype=np.int64 if x > 46_340 else None)
    k *= (x + 1) // 2
    k %= x
    np.minimum(k, x - k, out=k)
    return k


class OrderedMatching(NamedTuple):
    """Near-perfect matching of odd K_x that misses exactly ``center``.

    Edge k (1-based) joins the vertices at circle positions center+k and
    center-k, taken mod x with residue 0 read as x.  The order of
    ``edges`` follows k; several colorings rely on it.
    """

    center: int
    edges: tuple[Edge, ...]


class EdgeColoring:
    """Assignment of colors 1..t to the edges of K_p.

    ``EdgeColoring(p, t, colors)`` takes a mapping (u, v) -> color;
    ``EdgeColoring.from_array`` takes the rank-ordered color array.  A
    mapping may be malformed (edges missing, keys that are not edges of
    K_p, colors outside 1..t); the defects are kept so that
    ``verify.validate`` can name them.
    """

    __slots__ = ("p", "t", "array", "missing", "unexpected", "_dict", "_degrees")

    def __init__(self, p: int, t: int, colors: Mapping[Edge, int]):
        colors = dict(colors)
        ranks, values, unexpected = [], [], {}
        for key, c in colors.items():
            r = _rank_of(p, key)
            if r is None:
                unexpected[key] = c
            else:
                ranks.append(r)
                values.append(c)
        array = np.zeros(edge_count(p), dtype=np.int64)
        array[ranks] = _int64_array(values)
        missing = frozenset(range(array.size)).difference(ranks)
        self._set(p, t, array, missing, unexpected, colors)

    @classmethod
    def from_array(cls, p: int, t: int, array) -> "EdgeColoring":
        """Coloring whose edge of rank r has color array[r] (copied)."""
        array = np.array(array, dtype=np.int64)
        if array.shape != (edge_count(p),):
            raise InvalidParameterError(
                f"K_{p} needs {edge_count(p)} colors, got shape {array.shape}"
            )
        coloring = cls.__new__(cls)
        coloring._set(p, t, array, frozenset(), {}, None)
        return coloring

    def _set(self, p, t, array, missing, unexpected, as_dict):
        array.flags.writeable = False
        self.p = int(p)
        self.t = int(t)
        self.array = array            # colors by edge rank; 0 where missing
        self.missing = missing        # ranks the mapping left out
        self.unexpected = unexpected  # mapping keys that are not edges of K_p
        self._dict = as_dict          # the (u, v) -> color dict, built on demand
        self._degrees = None          # (palette, color-degree table), built on demand

    @property
    def colors(self) -> Mapping[Edge, int]:
        """Read-only (u, v) -> color view, built on first use."""
        if self._dict is None:
            us, vs = edge_endpoints(self.p)
            self._dict = dict(zip(zip(us.tolist(), vs.tolist()), self.array.tolist()))
        return MappingProxyType(self._dict)

    @property
    def color_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(palette, counts): the colors 1..t, or only those that occur
        once t > p-1 (a vertex meets at most p-1), and the read-only
        (p, len(palette)) table of every vertex's degree in each.  Built
        once, so a builder's row check and the star check share it."""
        if self._degrees is None:
            palette = columns = countable_colors(self)
            if self.t <= self.p - 1:
                palette = np.arange(1, self.t + 1)
            else:
                palette, columns = np.unique(columns, return_inverse=True)
                columns += 1
                check_table(self.p, len(palette))
            counts = degree_counts(self.p, len(palette), columns)
            counts.flags.writeable = False
            self._degrees = palette, counts
        return self._degrees

    def color_of(self, u: int, v: int) -> int:
        return self.colors[canonical_edge(u, v)]

    @property
    def edge_count(self) -> int:
        return edge_count(self.p)

    def __eq__(self, other):
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        if (self.p, self.t) != (other.p, other.t):
            return False
        if self.missing or self.unexpected or other.missing or other.unexpected:
            return self.colors == other.colors
        return bool(np.array_equal(self.array, other.array))

    __hash__ = None

    def __repr__(self):
        return f"EdgeColoring(p={self.p}, t={self.t}, colors={dict(self.colors)!r})"


def near_one_factorization(x: int) -> list[OrderedMatching]:
    """Split E(K_x), x odd, into x matchings M_1..M_x with M_i missing vertex i.

    Each M_i holds (x-1)/2 ordered edges; edge k of M_i is {i+k, i-k}
    (indices mod x, 0 read as x).  Edge {a, b} lands in M_i exactly when
    a + b = 2i (mod x), so the matchings partition the edge set
    (``matching_centers`` and ``matching_indices`` give it in closed form).
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


def one_factorization(p: int) -> list[list[Edge]]:
    """Split E(K_p), p even, into p-1 perfect matchings (circle method).

    Round i pairs vertex p with the center that round i of the
    near-factorization of K_{p-1} leaves uncovered.
    """
    if p < 2 or p % 2:
        raise InvalidParameterError(f"need even p >= 2, got {p}")
    if p == 2:
        return [[(1, 2)]]
    rounds = []
    for m in near_one_factorization(p - 1):
        rounds.append(list(m.edges) + [(m.center, p)])
    return rounds


def degree_counts(p: int, t: int, colors: np.ndarray) -> np.ndarray:
    """(p, t) int64 array: [v-1, c-1] = edges of color c at vertex v, for
    the rank-ordered colors (all in 1..t) of K_p.

    Two bincounts over the cells vertex*t + color, one for each endpoint
    of every edge, built in turn in one int64 buffer.  A (B, edges) stack
    of colorings gives a (B, p, t) array, each coloring counted in its own
    block of cells.
    """
    rows = max(p, 0)
    shape = colors.shape[:-1] + (rows, t)
    offset = -(t + 1)  # the cell of color c at vertex v is (v-1)*t + c-1
    if colors.ndim == 2:  # a stack: each coloring gets its own rows * t cells
        offset = offset + np.arange(len(colors))[:, None] * (rows * t)
    cells = np.empty(colors.shape, dtype=np.int64)
    counts = 0
    for ends in edge_endpoints(p):
        np.multiply(ends, t, out=cells, dtype=np.int64)  # v*t passes 2^31
        cells += colors
        cells += offset
        counts = counts + np.bincount(cells.ravel(), minlength=math.prod(shape))
    return counts.reshape(shape)


def countable_colors(coloring: EdgeColoring) -> np.ndarray:
    """The color array of a complete coloring with colors in 1..t, ready
    for ``degree_counts``.

    Raises ``InvalidParameterError`` for a coloring built from a malformed
    mapping or holding a color outside 1..t, whose bincount cells would
    land in another vertex's row.
    """
    colors = coloring.array
    if coloring.missing or coloring.unexpected:
        raise InvalidParameterError(
            f"color degrees need every edge of K_{coloring.p} exactly once")
    if colors.size and (colors.min() < 1 or colors.max() > coloring.t):
        raise InvalidParameterError(f"color degrees need colors in 1..{coloring.t}")
    return colors


def color_degree_profile(coloring: EdgeColoring) -> list[list[int]]:
    """Per-vertex color counts: rows[v-1][c-1] = edges of color c at vertex v."""
    return degree_counts(coloring.p, coloring.t, countable_colors(coloring)).tolist()
