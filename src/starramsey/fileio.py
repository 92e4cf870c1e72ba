"""Plain-text coloring files.

Format: a header line ``p t`` followed by exactly p(p-1)/2 data lines
``u v c`` with 1 <= u < v <= p and 1 <= c <= t, single spaces between
fields.  Lines starting with ``#`` are ignored.  Parsing and
serialization round-trip losslessly; edges are written in lexicographic
order so files diff cleanly.

Both directions work on the coloring's rank-ordered color array:
``serialize_coloring`` writes each line as one packed record of its
three fields, and ``parse_coloring`` reads a file (its text or bytes)
that is byte for byte what ``serialize_coloring`` writes by reading
each line's color back from its newline, then renders the result and
compares it with the input; a CRLF file reads as its LF twin.  Any
other file (comments, blank lines, another edge order, any error) goes
through the line parser, which names the offending line.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .coloring import EdgeColoring, edge_count, edge_endpoints
from .errors import ColoringFormatError, InvalidParameterError

_PAD = 0  # marks unused digit positions; dropped from the output
RENDER_BLOCK = 1 << 14  # lines at a time: a block's temporaries are reused


def _fields(values: np.ndarray, end: str) -> np.ndarray:
    """Each value in ASCII, right-aligned behind _PAD bytes (with a '-'
    before the digits of a negative value), then ``end``: one unsigned
    integer per value when 2, 4 or 8 bytes hold that, else one void item."""
    magnitude = np.abs(values)
    digits = len(str(int(magnitude.max()))) if values.size else 1
    sign = bool(values.size) and values.min() < 0
    width = next(w for w in (2, 4, 8, digits + sign + 1) if w > digits + sign)
    cells = np.full((values.size, width), _PAD, dtype=np.uint8)
    cells[:, -1] = ord(end)
    rest = magnitude
    for j in range(1, digits + 1):  # digit j from the right
        rest, digit = np.divmod(rest, 10)
        cells[:, -1 - j] = digit + ord("0")
        if j > 1:  # leading zeros are padding
            cells[magnitude < 10 ** (j - 1), -1 - j] = _PAD
    if sign:
        cells[values < 0, -2 - digits] = ord("-")
    return cells.view(f"u{width}" if width in (2, 4, 8) else f"V{width}")[:, 0]


def _render(coloring: EdgeColoring) -> Iterator[bytes]:
    """The file bytes: the header, then RENDER_BLOCK data lines at a time,
    line i being the ``_fields`` "u ", "v " and "c\\n" of edge i as one packed
    record without its _PAD bytes.  The checks and the vertex and color
    tables come first, so a coloring that cannot be written fails early."""
    if coloring.missing:
        raise InvalidParameterError(
            f"cannot serialize K_{coloring.p}: {len(coloring.missing)} edge(s) missing")
    colors = coloring.array
    if colors.size and 0 <= colors.min() and colors.max() <= colors.size:
        color = np.take(_fields(np.arange(colors.max() + 1), "\n"), colors)
    else:
        color = _fields(colors, "\n")
    vertex = _fields(np.arange(coloring.p + 1), " ")
    us, vs = edge_endpoints(coloring.p)

    def block(lo: int) -> bytes:
        at = slice(lo, lo + RENDER_BLOCK)
        lines = np.rec.fromarrays([vertex[us[at]], vertex[vs[at]], color[at]])
        body = lines.view(np.uint8)
        keep = body != _PAD
        return (body if keep.all() else body[keep]).tobytes()

    head = f"{coloring.p} {coloring.t}\n".encode()
    return itertools.chain([head], map(block, range(0, colors.size, RENDER_BLOCK)))


def serialize_coloring(coloring: EdgeColoring) -> str:
    return b"".join(_render(coloring)).decode("ascii")


def _line_colors(data: bytes, p: int, t: int) -> EdgeColoring | None:
    """The coloring of K_p whose edge of rank r has the last field of data
    line r as its color, read back from the newline over ASCII digits; None
    when they do not fit K_p and 1..t.  Rendering the coloring and comparing
    it with the file checks every other byte."""
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))[1:]  # after the header's
    if ends.size != edge_count(p):
        return None
    ends -= 1  # now each line's last digit
    colors = buf[ends].astype(np.int64)
    colors -= ord("0")
    ends -= 1
    rows = np.flatnonzero(buf[ends] - ord("0") < 10)  # lines still in digits
    for place in range(1, 18):  # int64 holds every 18-digit color
        if not rows.size:
            break
        digits = buf[ends[rows] - (place - 1)]
        colors[rows] += (digits.astype(np.int64) - ord("0")) * 10 ** place
        rows = rows[buf[ends[rows] - place] - ord("0") < 10]
    if rows.size or (colors.size and (colors.min() < 1 or colors.max() > t)):
        return None
    return EdgeColoring.from_array(p, t, colors)


def _parse_canonical(data: bytes) -> EdgeColoring | None:
    """The coloring when ``data`` is exactly what ``serialize_coloring``
    writes for a valid coloring, else None.

    Only the colors are read; rendering the result and comparing it with
    ``data`` then checks every other byte.  The size checks come before
    any allocation: every data line takes at least six bytes.
    """
    head = data[:data.find(b"\n") + 1]
    fields = head[:-1].split(b" ")
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        return None
    try:
        p, t = int(fields[0]), int(fields[1])
    except ValueError:  # over the int-string digit limit
        return None
    if p < 1 or t < 1 or len(data) - len(head) < 6 * edge_count(p):
        return None
    coloring = _line_colors(data, p, t)
    end = 0
    for block in _render(coloring) if coloring else ():
        if not data.startswith(block, end):
            return None
        end += len(block)
    return coloring if end == len(data) else None


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
    """Yield (line number, line, fields) for each non-blank, non-comment
    line.  Only spaces separate fields; a line loses its surrounding
    spaces and one final '\\r', so CRLF files parse."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.removesuffix("\r").strip(" ")
        if line and not line.startswith("#"):
            yield lineno, line, [field for field in line.split(" ") if field]


def _first_line_of(lines: list[str], edge: tuple[int, int]) -> int:
    """Line number of the first data line holding ``edge``; every data line
    before a duplicate has already parsed cleanly."""
    data = _data_lines(lines)
    next(data)  # header
    return next(lineno for lineno, _, fields in data
                if (int(fields[0]), int(fields[1])) == edge)


def parse_coloring(text: str | bytes) -> EdgeColoring:
    """Parse a coloring file (text, or ASCII bytes), rejecting duplicates,
    gaps, and range errors with the offending line number."""
    # a non-ASCII character turns into '?', which no canonical file holds;
    # the line parser drops a final '\r', so CRLF files may read as LF ones
    data = text if isinstance(text, bytes) else text.encode("ascii", "replace")
    return _parse_canonical(data.replace(b"\r\n", b"\n")) or _parse_lines(
        text if isinstance(text, str) else text.decode("ascii", "surrogateescape"))


def _parse_lines(text: str) -> EdgeColoring:
    """Line-by-line parser: accepts comments, blank lines and any edge
    order, and reports the first defect with its line number."""
    p = t = None
    colors: dict = {}
    # only '\n' ends a line: str.splitlines() also splits at form feeds,
    # \x1c-\x1e and \x85
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
    blocks = _render(coloring)
    with open(path, "wb") as fh:
        fh.writelines(blocks)


def read_coloring(path: str) -> EdgeColoring:
    """Read and parse a coloring file; a byte >= 0x80 is a format error
    naming its line, numbered as the line parser numbers lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        lineno, line = next((i, line) for i, line in enumerate(data.split(b"\n"), 1)
                            if not line.isascii())
        byte = next(b for b in line if b >= 0x80)
        raise ColoringFormatError(f"non-ASCII byte {byte:#04x}; files are ASCII", lineno)
    return parse_coloring(data)
