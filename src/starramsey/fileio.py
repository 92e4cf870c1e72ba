"""Plain-text coloring files.

Format: a header line ``p t`` followed by exactly p(p-1)/2 data lines
``u v c`` with 1 <= u < v <= p and 1 <= c <= t, single spaces between
fields.  Lines starting with ``#`` are ignored.  Parsing and
serialization round-trip losslessly; edges are written in lexicographic
order so files diff cleanly.

Both directions work on the coloring's rank-ordered color array:
``serialize_coloring`` writes the digits of every field into one byte
matrix, and ``parse_coloring`` reads a file that is byte for byte what
``serialize_coloring`` writes by locating each line's color, then
renders the result and compares it with the input.  Any other file
(comments, blank lines, another edge order, CRLF, any error) goes
through the line parser, which names the offending line.
"""

from __future__ import annotations

import numpy as np

from .coloring import EdgeColoring, edge_count, edge_endpoints
from .errors import ColoringFormatError, InvalidParameterError

_PAD = 0  # marks unused digit positions; dropped from the output


def _digit_planes(values: np.ndarray) -> np.ndarray:
    """(D, len(values)) uint8: row j holds digit j of every value in ASCII,
    right-aligned, with leading positions set to _PAD and a '-' before
    negative values."""
    magnitude = np.abs(values)
    width = len(str(int(magnitude.max()))) if values.size else 1
    planes = np.empty((width, values.size), dtype=np.uint8)
    rest = magnitude
    for j in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        planes[j] = digit
    planes += ord("0")
    for j in range(width - 1):
        planes[j][magnitude < 10 ** (width - 1 - j)] = _PAD
    if values.size and values.min() < 0:
        sign = np.where(values < 0, ord("-"), _PAD).astype(np.uint8)
        planes = np.vstack([sign, planes])
    return planes


def _render(coloring: EdgeColoring) -> bytes:
    """The file bytes.  Row i of one byte matrix is data line i: the digit
    planes of u, v and c with separators between them; dropping the
    padding and reading the matrix row by row gives the lines."""
    if coloring.missing:
        raise InvalidParameterError(
            f"cannot serialize K_{coloring.p}: {len(coloring.missing)} edge(s) missing")
    us, vs = edge_endpoints(coloring.p)
    vertex = _digit_planes(np.arange(coloring.p + 1))
    space = np.full((1, us.size), ord(" "), dtype=np.uint8)
    newline = np.full((1, us.size), ord("\n"), dtype=np.uint8)
    columns = np.vstack([np.take(vertex, us, axis=1), space,
                         np.take(vertex, vs, axis=1), space,
                         _digit_planes(coloring.array), newline]).T
    return f"{coloring.p} {coloring.t}\n".encode() + columns[columns != _PAD].tobytes()


def serialize_coloring(coloring: EdgeColoring) -> str:
    return _render(coloring).decode("ascii")


def _line_colors(body: np.ndarray, m: int) -> np.ndarray | None:
    """Colors of ``m`` data lines ``u v c`` in ``body``: each lies between
    its line's second space and its newline.  None when the byte counts
    do not fit that shape."""
    ends = np.flatnonzero(body == ord("\n"))
    spaces = np.flatnonzero(body == ord(" "))
    if ends.size != m or spaces.size != 2 * m:
        return None
    widths = ends - spaces[1::2] - 1
    if m and not 1 <= widths.min() <= widths.max() <= 18:
        return None
    colors = np.zeros(m, dtype=np.int64)
    for j in range(int(widths.max()) if m else 0):
        digit = body[ends - 1 - j].astype(np.int64) - ord("0")
        colors += np.where(j < widths, digit * 10 ** j, 0)
    return colors


def _parse_canonical(text: str) -> EdgeColoring | None:
    """The coloring when ``text`` is exactly what ``serialize_coloring``
    writes for a valid coloring, else None.

    Only the colors are read; rendering the result and comparing it with
    ``text`` then checks every other byte.  The size checks come before
    any allocation: every data line takes at least six bytes.
    """
    head = text[:text.find("\n") + 1]
    fields = head[:-1].split(" ")
    if len(fields) != 2 or not all(f.isascii() and f.isdigit() for f in fields):
        return None
    try:
        p, t = int(fields[0]), int(fields[1])
    except ValueError:  # over the int-string digit limit
        return None
    m = edge_count(p)
    if p < 1 or t < 1 or len(text) - len(head) < 6 * m or not text.isascii():
        return None
    data = text.encode("ascii")
    colors = _line_colors(np.frombuffer(data, dtype=np.uint8)[len(head):], m)
    if colors is None or (m and (colors.min() < 1 or colors.max() > t)):
        return None
    coloring = EdgeColoring.from_array(p, t, colors)
    return coloring if _render(coloring) == data else None


def _integers(fields: list[str]) -> list[int] | None:
    """ASCII fields as integers; None unless each is digits only (int()
    alone also reads signs and underscores) and within int()'s digit
    limit."""
    if not all(f.isdigit() for f in fields):
        return None
    try:
        return [int(f) for f in fields]
    except ValueError:  # over the int-string digit limit
        return None


def _data_lines(lines: list[str]):
    """Yield (line number, stripped line, fields) for each non-blank,
    non-comment line."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.split()


def _first_line_of(lines: list[str], edge: tuple[int, int]) -> int:
    """Line number of the first data line holding ``edge``; every data line
    before a duplicate has already parsed cleanly."""
    data = _data_lines(lines)
    next(data)  # header
    return next(lineno for lineno, _, fields in data
                if (int(fields[0]), int(fields[1])) == edge)


def parse_coloring(text: str) -> EdgeColoring:
    """Parse a coloring file, rejecting duplicates, gaps, and range errors
    with the offending line number."""
    coloring = _parse_canonical(text)
    return coloring if coloring is not None else _parse_lines(text)


def _parse_lines(text: str) -> EdgeColoring:
    """Line-by-line parser: accepts comments, blank lines and any edge
    order, and reports the first defect with its line number."""
    p = t = None
    colors: dict = {}
    # only '\n' ends a line: str.splitlines() also splits at form feeds,
    # \x1c-\x1e and \x85; strip() below drops a CRLF file's '\r'
    lines = text.split("\n")
    for lineno, line, fields in _data_lines(lines):
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
                f"first seen on line {_first_line_of(lines, (u, v))}",
                lineno,
            )
        colors[(u, v)] = c
    if p is None:
        raise ColoringFormatError("empty file: missing 'p t' header")
    gap = p * (p - 1) // 2 - len(colors)
    if gap:
        first = next((u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)
                     if (u, v) not in colors)
        raise ColoringFormatError(f"{gap} edge(s) missing, first is {first}")
    return EdgeColoring(p, t, colors)


def write_coloring(path: str, coloring: EdgeColoring) -> None:
    data = _render(coloring)
    with open(path, "wb") as fh:
        fh.write(data)


def read_coloring(path: str) -> EdgeColoring:
    """Read and parse a coloring file; a byte >= 0x80 is a format error
    naming its line, numbered as the line parser numbers lines."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        # surrogateescape reads byte b >= 0x80 as the code point 0xDC00 + b
        lineno, line = next((i, line) for i, line in enumerate(text.split("\n"), 1)
                            if not line.isascii())
        byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
        raise ColoringFormatError(f"non-ASCII byte {byte:#04x}; files are ASCII", lineno)
    return parse_coloring(text)
