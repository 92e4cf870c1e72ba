"""Reference line parser for coloring files, on ``str``.

This is the line parser the package used before it read bytes, kept as an
independent reference: ``fileio.parse_coloring`` must return the same
coloring, or raise the same message on the same line, for any text.  It
reads the text one line at a time into a (u, v) -> color dict, so it is
slow and needs about 200 bytes per edge; the tests run it on small files.
"""

import io

from starramsey.coloring import EdgeColoring, check_order, color_store, edge_count, edges
from starramsey.errors import ColoringFormatError, InvalidParameterError


def _integers(fields: list[str] | list[bytes]) -> list[int] | None:
    """ASCII fields (str or bytes) as integers; None unless each is digits
    only (int() alone also reads signs and underscores) and within int()'s
    digit limit."""
    if not all(f.isdigit() for f in fields):
        return None
    try:
        return [int(f) for f in fields]
    except ValueError:  # over the int-string digit limit
        return None


def _data_lines(text: str):
    """Yield (line number, line, fields) for each non-blank, non-comment
    line, reading one line at a time.  Only '\\n' ends a line (where
    str.splitlines() also splits at form feeds, \\x1c-\\x1e and \\x85), and
    only spaces separate fields; a line loses its surrounding spaces and
    one final '\\r', so CRLF files parse."""
    for lineno, raw in enumerate(io.StringIO(text, newline="\n"), start=1):
        line = raw.removesuffix("\n").removesuffix("\r").strip(" ")
        if line and not line.startswith("#"):
            yield lineno, line, [field for field in line.split(" ") if field]


def _first_line_of(text: str, edge: tuple[int, int]) -> int:
    """Line number of the first data line holding ``edge``; every data line
    before a duplicate has already parsed cleanly."""
    data = _data_lines(text)
    next(data)  # header
    return next(lineno for lineno, _, fields in data
                if (int(fields[0]), int(fields[1])) == edge)


def parse_lines(text: str) -> EdgeColoring:
    """Line-by-line parser: accepts comments, blank lines and any edge
    order, and reports the first defect with its line number.  Having
    refused duplicates, gaps and colors outside 1..t, it keeps only the
    store of the colors in rank order."""
    p = t = None
    colors: dict = {}
    for lineno, line, fields in _data_lines(text):
        if not line.isascii():
            # int() and split() would read other scripts' digits and spaces
            char = next(ch for ch in line if not ch.isascii())
            raise ColoringFormatError(f"non-ASCII character {char!r}; files are ASCII", lineno)
        numbers = _integers(fields)
        if p is None:
            if len(fields) != 2:
                raise ColoringFormatError(
                    f"header must be 'p t', got {line!r}", lineno
                )
            if numbers is None:
                raise ColoringFormatError(
                    f"header must hold two integers, got {line!r}", lineno
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
            raise ColoringFormatError(f"edge line must be 'u v c', got {line!r}", lineno)
        if numbers is None:
            raise ColoringFormatError(
                f"edge line must hold three integers, got {line!r}", lineno
            )
        u, v, c = numbers
        if not (1 <= u < v <= p):
            raise ColoringFormatError(f"need 1 <= u < v <= {p}, got u={u}, v={v}", lineno)
        if not (1 <= c <= t):
            raise ColoringFormatError(f"color {c} out of range 1..{t}", lineno)
        if (u, v) in colors:
            raise ColoringFormatError(
                f"duplicate edge ({u}, {v}); "
                f"first seen on line {_first_line_of(text, (u, v))}",
                lineno,
            )
        colors[(u, v)] = c
    if p is None:
        raise ColoringFormatError("empty file: missing 'p t' header")
    gap = edge_count(p) - len(colors)
    if gap:
        first = next(edge for edge in edges(p) if edge not in colors)
        raise ColoringFormatError(f"{gap} edge(s) missing, first is {first}")
    # every edge once, colors in 1..t: the store needs no further check
    return EdgeColoring._adopt(p, t, color_store([colors[edge] for edge in edges(p)]))
