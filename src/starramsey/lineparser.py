"""The line parser: ``fileio.parse_coloring`` loads it only for a file
that the bulk path declines, so a canonical file's launch compiles none of it.
"""

from itertools import islice

from .bulkparser import _integers
from .coloring import (MAX_COLOR, EdgeColoring, check_order, color_store, edge_count, edge_rank,
                       edges)
from .errors import ColoringFormatError, InvalidParameterError


def _data_lines(data: bytes):
    """Yield (line number, line, fields) for each non-blank, non-comment
    line, found one at a time with ``bytes.find``.  Only '\\n' ends a
    line, and only spaces separate fields; a line loses its surrounding
    spaces and one final '\\r', so CRLF files parse."""
    start, lineno = 0, 0
    while start < len(data):
        end = data.find(b"\n", start)
        if end < 0:
            end = len(data)
        lineno += 1
        line = data[start:end].removesuffix(b"\r").strip(b" ")
        start = end + 1
        if line and not line.startswith(b"#"):
            fields = line.split(b" ")
            yield lineno, line, [f for f in fields if f] if b"" in fields else fields


def _parse_lines(data: bytes) -> EdgeColoring:
    """Line-by-line parser: accepts comments, blank lines and any edge
    order, and reports the first defect with its line number.  The colors
    go into one list by edge rank, made at the first edge line; an unset
    rank holds 0, which no valid color is, so it finds duplicates and
    gaps."""
    p = t = colors = None
    for lineno, line, fields in _data_lines(data):
        if not line.isascii():
            char = next(ch for ch in line.decode("utf-8", "surrogateescape") if not ch.isascii())
            raise ColoringFormatError(f"non-ASCII character {char!r}; files are ASCII", lineno)
        numbers = _integers(fields)
        if p is None:
            if len(fields) != 2:
                raise ColoringFormatError(
                    f"header must be 'p t', got {line.decode()!r}", lineno
                )
            if numbers is None:
                raise ColoringFormatError(
                    f"header must hold two integers, got {line.decode()!r}", lineno
                )
            p, t = numbers
            if p < 1 or t < 1:
                raise ColoringFormatError(f"need p >= 1 and t >= 1, got p={p}, t={t}", lineno)
            try:  # the bulk path reads a canonical file of any order
                check_order(p)
            except InvalidParameterError as exc:
                raise ColoringFormatError(f"{exc} (a file not in canonical form)", lineno) from None
            continue
        if len(fields) != 3:
            raise ColoringFormatError(f"edge line must be 'u v c', got {line.decode()!r}", lineno)
        if numbers is None:
            raise ColoringFormatError(
                f"edge line must hold three integers, got {line.decode()!r}", lineno
            )
        u, v, c = numbers
        if not (1 <= u < v <= p):
            raise ColoringFormatError(f"need 1 <= u < v <= {p}, got u={u}, v={v}", lineno)
        if not (1 <= c <= t):
            raise ColoringFormatError(f"color {c} out of range 1..{t}", lineno)
        if c > MAX_COLOR:
            raise ColoringFormatError(f"color {c} past 2^63-1: colors must be 64-bit integers",
                                      lineno)
        if colors is None:
            colors = [0] * edge_count(p)
        r = edge_rank(p, u, v)
        if colors[r]:
            # every data line before this one parsed cleanly
            first = next(n for n, _, f in islice(_data_lines(data), 1, None)
                         if _integers(f[:2]) == [u, v])
            raise ColoringFormatError(
                f"duplicate edge ({u}, {v}); first seen on line {first}", lineno)
        colors[r] = c
    if p is None:
        raise ColoringFormatError("empty file: missing 'p t' header")
    gap = edge_count(p) if colors is None else colors.count(0)
    if gap:
        first = next(islice(edges(p), 0 if colors is None else colors.index(0), None))
        raise ColoringFormatError(f"{gap} edge(s) missing, first is {first}")
    # every edge once, colors in 1..t: the store needs no further check
    return EdgeColoring._adopt(p, t, color_store(colors or []))
