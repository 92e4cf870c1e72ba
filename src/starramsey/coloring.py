"""Complete-graph edge colorings.

Vertices are numbered 1..p and colors 1..t throughout, in files as well
as in memory.

An ``EdgeColoring`` stores its colors in one read-only sequence in
lexicographic edge-rank order: edge (u, v), u < v, sits at
``edge_rank(p, u, v)``, so row u, the edges (u, v) for v > u, is one
slice.  The store is ``bytes`` when every color lies in 0..255 and a
read-only int64 memoryview of an ``array('q')`` otherwise
(``color_store``); the choice depends on the values alone.  Builders,
the degree table, validation and file I/O work on slices of that store
with the C loops of ``bytes`` (slicing, ``count``, ``translate``), so no
numpy is loaded.  No other module tells the two kinds apart: they make,
join, patch, range-check and render stores through ``color_store``,
``join_store``, ``join_colors``, ``patch_store``, ``in_color_range`` and
``color_digit_columns``.  ``.color_degrees`` keeps the degree table once
built, and ``.colors`` is a read-only mapping view for (u, v) -> color.

Every coloring holds every edge of K_p exactly once.  Each path into a
store checks the order once, ``from_array`` and the mapping constructor
against ``check_order``, ``_adopt`` (for stores the builders and parsers
made) against the store's length; the mapping constructor refuses any
key set that is not exactly the edges of K_p.  The rest of the rule for
a well-formed coloring (order and color count at least 1, colors in
1..t) is written once, as the lazy generator ``defects``:
``verify.validate`` lists what it yields, and ``check_well_formed``
refuses with the first five, for the degree table and for
``verify.check_certificate``.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from collections.abc import Mapping
from itertools import chain, islice, repeat
from types import MappingProxyType

from .errors import InvalidParameterError

Edge = tuple[int, int]

# witness_coloring, sample_upper_check, the mapping constructor and the
# line parser (fileio, for a file not in canonical form) refuse K_p when
# its per-edge buffers would need more than this; the bulk parser reads a
# canonical file of any order.  Building and writing a coloring and
# reading and checking one peak well under 45 bytes per edge under
# tracemalloc (one-byte colors, a p x p degree matrix, the padded file
# render), and the line parser, which holds the file and one list entry
# per edge, about 20; BYTES_PER_EDGE leaves room for the int64 store and
# allocator overhead.  The limit admits orders up to K_5793.
MAX_COLORING_BYTES = 2 << 30
BYTES_PER_EDGE = 128
# the widest color an int64 store holds; the parsers and the sampler
# refuse colors past it
MAX_COLOR = (1 << 63) - 1

_BYTE_VALUES = bytes(range(256))


def canonical_edge(u: int, v: int) -> Edge:
    """Order a vertex pair as (min, max); loops are rejected."""
    if u == v:
        raise InvalidParameterError(f"loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def edge_count(p: int) -> int:
    """Edges of K_p; 0 for p < 1."""
    return p * (p - 1) // 2 if p > 0 else 0


def edge_rank(p: int, u: int, v: int) -> int:
    """Position of edge (u, v), 1 <= u < v <= p, in lexicographic order."""
    return (u - 1) * (2 * p - u) // 2 + (v - u - 1)


def edges(p: int):
    """The edges of K_p in rank order, as a generator of (u, v)."""
    return ((u, v) for u in range(1, p) for v in range(u + 1, p + 1))


def check_order(p: int) -> None:
    """Refuse K_p before allocating when its buffers, at ``BYTES_PER_EDGE``,
    would exceed ``MAX_COLORING_BYTES``."""
    need = edge_count(p) * BYTES_PER_EDGE
    if need > MAX_COLORING_BYTES:
        raise InvalidParameterError(
            f"K_{p} has {edge_count(p)} edges, about {need >> 20} MiB of arrays; "
            f"the limit is {MAX_COLORING_BYTES >> 20} MiB"
        )


def check_table(p: int, t: int) -> None:
    """Refuse a p x t color-degree table that would exceed
    ``MAX_COLORING_BYTES``: its rows are tuples of Python ints, and 32
    bytes per cell are assumed."""
    if 32 * p * t > MAX_COLORING_BYTES:
        raise InvalidParameterError(
            f"K_{p} with {t} colors needs a {p} x {t} color-degree table, "
            f"about {32 * p * t >> 20} MiB with its temporaries; "
            f"the limit is {MAX_COLORING_BYTES >> 20} MiB")


def color_store(values: list[int]) -> bytes | memoryview:
    """The read-only store of a list of colors: ``bytes`` when every value
    lies in 0..255, else an int64 memoryview.  Raises
    ``InvalidParameterError`` for a value that is not a 64-bit integer."""
    try:
        return bytes(values)
    except ValueError:  # a value outside 0..255
        pass
    except TypeError:
        raise InvalidParameterError("colors must be 64-bit integers") from None
    try:
        return memoryview(array("q", values)).toreadonly()
    except (TypeError, OverflowError):
        raise InvalidParameterError("colors must be 64-bit integers") from None


def join_store(pieces, like: bytes | memoryview) -> bytes | memoryview:
    """Slices of a store ``like`` joined into one store of the same kind."""
    joined = b"".join(pieces)
    return joined if isinstance(like, bytes) else memoryview(joined).cast("q")


def join_colors(parts) -> bytes | memoryview:
    """The store of the colors of ``parts`` in order, each part a sequence
    of integers (``bytes`` or a list).  Raises ``InvalidParameterError``
    as ``color_store`` does."""
    try:
        return b"".join(map(bytes, parts))
    except ValueError:  # a value outside 0..255
        return color_store([c for part in parts for c in part])
    except TypeError:
        raise InvalidParameterError("colors must be 64-bit integers") from None


def patch_store(store: bytes | memoryview, patches: dict[int, int]) -> bytes | memoryview:
    """The store with color c at rank r for each r: c of ``patches``;
    a new store when there are any."""
    if not patches:
        return store
    if isinstance(store, bytes):
        patched = bytearray(store)
        try:
            for r, c in patches.items():
                patched[r] = c
            return bytes(patched)
        except ValueError:  # a color past one byte
            pass
    values = list(store)
    for r, c in patches.items():
        values[r] = c
    return color_store(values)


def digit_columns(numbers: list[str], width: int) -> list[bytes]:
    """Column j of the numbers right-aligned in ``width`` behind NUL
    bytes, for j = 0..width-1: one byte per number."""
    joined = "".join(number.rjust(width, "\0") for number in numbers).encode()
    return [joined[j::width] for j in range(width)]


def color_digit_columns(colors: bytes | memoryview) -> list[bytes]:
    """``digit_columns`` of every color in a store, as wide as its widest
    color: one translate per column for one-byte colors, one string per
    color otherwise."""
    if not isinstance(colors, bytes):
        numbers = list(map(str, colors))
        return digit_columns(numbers, max(map(len, numbers)))
    width, top = next((w, top) for w, top in ((1, 10), (2, 100), (3, 256))
                      if not colors.translate(None, _BYTE_VALUES[:top]))
    # a table maps every byte; those at or past ``top`` do not occur
    return [colors.translate(table)
            for table in digit_columns([str(c % top) for c in range(256)], width)]


def in_color_range(colors: bytes | memoryview, t: int) -> bool:
    """Whether every color of a store lies in 1..t."""
    if isinstance(colors, bytes):  # delete the colors in range; none may be left
        return not colors.translate(None, _BYTE_VALUES[1:t + 1])
    return not colors or (min(colors) >= 1 and max(colors) <= t)


def _rank_of(p: int, key) -> int | None:
    """Rank of ``key`` when it is an edge (u, v), 1 <= u < v <= p, else None."""
    if type(key) is not tuple or len(key) != 2:
        return None
    try:
        u, v = map(operator.index, key)
    except TypeError:
        return None
    return edge_rank(p, u, v) if 1 <= u < v <= p else None


class EdgeColoring:
    """Assignment of colors 1..t to the edges of K_p.

    ``EdgeColoring(p, t, colors)`` takes a mapping (u, v) -> color;
    ``EdgeColoring.from_array`` takes the rank-ordered colors.  Both
    refuse an order past ``check_order``'s limit before they allocate,
    and colors that do not cover every edge of K_p exactly once: a mapping
    is refused naming its first five defects, the edges it leaves out (in
    edge order), then its keys that are not edges of K_p (in mapping
    order).  Colors outside 1..t are kept, so that ``defects`` can name
    them.
    """

    __slots__ = ("p", "t", "array", "_dict", "_degrees")

    def __init__(self, p: int, t: int, colors: Mapping[Edge, int]):
        check_order(p)
        colors = dict(colors)
        unset = object()
        values, unexpected = [unset] * edge_count(p), []
        for key, c in colors.items():
            r = _rank_of(p, key)
            if r is None:
                unexpected.append(key)
            else:
                values[r] = c
        # an identity scan: no color's own == is called
        if unexpected or any(map(operator.is_, values, repeat(unset))):
            named = chain((f"missing edge {edge}"
                           for edge, c in zip(edges(p), values) if c is unset),
                          (f"unexpected edge {key!r}" for key in unexpected))
            raise InvalidParameterError("invalid coloring: " + "; ".join(islice(named, 5)))
        self._set(p, t, color_store(values), colors)

    @classmethod
    def from_array(cls, p: int, t: int, array) -> "EdgeColoring":
        """Coloring whose edge of rank r has color array[r] (copied from
        any iterable of integers).  The order is checked first, and at most
        one value past K_p's edges is read."""
        check_order(p)
        m = edge_count(p)
        try:
            values = list(map(operator.index, islice(array, m + 1)))
        except TypeError:
            raise InvalidParameterError("colors must be 64-bit integers") from None
        if len(values) > m:
            raise InvalidParameterError(f"K_{p} needs {m} colors, got more")
        return cls._adopt(p, t, color_store(values))

    @classmethod
    def _adopt(cls, p: int, t: int, store: bytes | memoryview) -> "EdgeColoring":
        """``from_array`` for a store that ``color_store`` or ``join_store``
        made: it becomes the coloring's own without a copy."""
        if len(store) != edge_count(p):
            raise InvalidParameterError(
                f"K_{p} needs {edge_count(p)} colors, got {len(store)}")
        coloring = cls.__new__(cls)
        coloring._set(p, t, store)
        return coloring

    def _set(self, p, t, store, as_dict=None):
        self.p = int(p)
        self.t = int(t)
        self.array = store    # colors by edge rank
        self._dict = as_dict  # the (u, v) -> color dict, built on demand
        self._degrees = None  # (palette, color-degree rows), built on demand

    @property
    def colors(self) -> Mapping[Edge, int]:
        """Read-only (u, v) -> color view, built on first use."""
        if self._dict is None:
            self._dict = dict(zip(edges(self.p), self.array))
        return MappingProxyType(self._dict)

    @property
    def color_degrees(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(palette, rows): the colors 1..t, or only those that occur once
        t > p-1 (a vertex meets at most p-1), and per vertex the tuple of
        its degree in each.  Built once, so a builder's row check and the
        star check share it."""
        if self._degrees is None:
            self._degrees = degree_table(self)
        return self._degrees

    def color_of(self, u: int, v: int) -> int:
        return self.colors[canonical_edge(u, v)]

    @property
    def edge_count(self) -> int:
        return edge_count(self.p)

    def __eq__(self, other):
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (self.p, self.t) == (other.p, other.t) and self.array == other.array

    __hash__ = None

    def __repr__(self):
        return f"EdgeColoring(p={self.p}, t={self.t}, colors={dict(self.colors)!r})"


def _vertex_colors(store: bytes | memoryview, p: int):
    """Per vertex v = 1..p, its row (the colors of (v, w), w > v, a slice
    of the store) and its column (the colors of (u, v), u < v: a strided
    slice of the p x p matrix whose row u is u zeros, then row u of the
    store)."""
    wide = not isinstance(store, bytes)
    raw, size = (store.cast("B"), 8) if wide else (store, 1)
    zeros = bytes(size * p)
    pieces, r = [], 0
    for u in range(1, p + 1):
        pieces += (zeros[:size * u], raw[size * r:size * (r + p - u)])
        r += p - u
    matrix = b"".join(pieces)
    if wide:
        matrix = memoryview(matrix).cast("q")
    r = 0
    for v in range(1, p + 1):
        yield store[r:r + p - v], matrix[v - 1:(v - 1) * (p + 1):p]
        r += p - v


def degree_table(coloring: EdgeColoring) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The (palette, rows) of ``EdgeColoring.color_degrees``, counted anew.

    A vertex's row and column are counted with one ``bytes.count`` per
    color when the colors take one byte, else with one ``Counter`` pass.
    Raises ``InvalidParameterError`` for a coloring that ``defects``
    faults, or when the table would exceed ``MAX_COLORING_BYTES``.
    """
    check_well_formed(coloring)
    colors, p = coloring.array, coloring.p
    if coloring.t <= p - 1:
        palette = tuple(range(1, coloring.t + 1))
    else:
        palette = tuple(sorted(set(colors)))
        check_table(p, len(palette))
    rows = []
    for row, column in _vertex_colors(colors, p):
        if isinstance(row, bytes):
            row += column
            rows.append(tuple(map(row.count, palette)))
        else:
            tally = Counter(row)
            tally.update(column)
            rows.append(tuple(map(tally.__getitem__, palette)))
    return palette, tuple(rows)


def defects(coloring: EdgeColoring):
    """The coloring's defects as messages, lazily and in order: an order
    or color count below 1, then the edges whose color lies outside 1..t.
    Edges are named in a walk of ``edges(p)`` that starts only when a
    defect is known to be there; the color check is one range check over
    the store."""
    p, t, colors = coloring.p, coloring.t, coloring.array
    if p < 1:
        yield f"graph order must be >= 1, got {p}"
    if t < 1:
        yield f"color count must be >= 1, got {t}"
    if p < 1 or t < 1:
        return
    if not in_color_range(colors, t):
        yield from (f"color out of range on edge {edge}: {c}"
                    for edge, c in zip(edges(p), colors) if not 1 <= c <= t)


def check_well_formed(coloring: EdgeColoring) -> None:
    """Raise ``InvalidParameterError`` naming the first five ``defects``."""
    first = list(islice(defects(coloring), 5))
    if first:
        raise InvalidParameterError("invalid coloring: " + "; ".join(first))


def palette_row(palette, row, t: int) -> list[int]:
    """``row``, counted at ``palette``'s colors, spread over colors 1..t
    (0 at every color it does not count)."""
    full = [0] * t
    for c, d in zip(palette, row):
        full[c - 1] = d
    return full


def color_degree_profile(coloring: EdgeColoring) -> list[list[int]]:
    """Per-vertex color counts: rows[v-1][c-1] = edges of color c at vertex v."""
    palette, rows = degree_table(coloring)
    return [palette_row(palette, row, coloring.t) for row in rows]
