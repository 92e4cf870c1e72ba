"""Plain-text coloring files.

Format: a header line ``p t`` followed by exactly p(p-1)/2 data lines
``u v c`` with 1 <= u < v <= p and 1 <= c <= t, single spaces between
fields.  Lines starting with ``#`` are ignored.  Parsing and
serialization round-trip losslessly; edges are written in lexicographic
order so files diff cleanly.

Both directions work on the coloring's rank-ordered store with the C
loops of ``bytes``, without numpy.  ``serialize_coloring`` renders blocks
of rows with every line at one width, v and c right-aligned behind NUL
bytes, by strided assignment of one column of digits at a time, and
then deletes the NULs.  ``parse_coloring`` reads a file that is byte for
byte what ``serialize_coloring`` writes: in each run of lines of one
width (one row, one digit count of v, one-digit colors) the colors are
a strided slice, and any other run is split into lines; it renders the
result and compares it with the file.  A CRLF file reads as its LF
twin, and a file that only adds lines starting with ``#`` and empty
lines reads as the file without them.  Any other file (indented
comments, another edge order, any error) goes through the line parser,
which names the offending line.  Both paths hand the coloring its
rank-ordered store (``EdgeColoring._adopt``), with no size limit, so a
file of any order reads.
"""

from __future__ import annotations

from operator import itemgetter

from .coloring import (EdgeColoring, color_digit_columns, color_store, digit_columns, edge_count,
                       edge_rank, edges, in_color_range, join_colors)
from .errors import ColoringFormatError, InvalidParameterError

RENDER_LINES = 1 << 16  # a render block ends after the row that reaches this
# ASCII digit -> its value; any other byte -> 0, which no valid color is
_DIGIT_VALUES = bytes(c - 48 if 48 <= c <= 57 else 0 for c in range(256))
# characters of the widest 64-bit color, 2**63 - 1
_COLOR_DIGITS = 19


def _row_blocks(p: int):
    """(first, last) rows of each render block: the rows whose u has one
    digit count, cut after the row that reaches ``RENDER_LINES`` lines."""
    first, lines = 1, 0
    for u in range(1, p):
        lines += p - u
        if u == p - 1 or lines >= RENDER_LINES or len(str(u + 1)) > len(str(first)):
            yield first, u
            first, lines = u + 1, 0


def _render(coloring: EdgeColoring):
    """The file bytes as an iterator of blocks: the header, then the data
    lines in blocks of rows.  A coloring with missing edges is refused
    here, before any block is made."""
    if coloring.missing:
        raise InvalidParameterError(
            f"cannot serialize K_{coloring.p}: {len(coloring.missing)} edge(s) missing")
    return _blocks(coloring.p, coloring.t, coloring.array)


def _blocks(p: int, t: int, colors):
    """The blocks of ``_render``, made one at a time.

    A block first lays every line out at the full width of "u v c\n",
    with v and c right-aligned behind NUL bytes; each digit column of u,
    v and c is one strided assignment (u is constant along a row, and v
    runs over a suffix of 1..p).  Deleting the NULs, where a block has
    any, leaves the lines."""
    yield f"{p} {t}\n".encode()
    if not colors:
        return
    color_columns = color_digit_columns(colors)
    padded_colors = b"\0" in color_columns[0]
    wv, wc = len(str(p)), len(color_columns)
    v_columns = digit_columns(list(map(str, range(p + 1))), wv)
    for first, last in _row_blocks(p):
        wu = len(str(first))
        width = wu + wv + wc + 3
        start, end = edge_rank(p, first, first + 1), edge_rank(p, last, p) + 1
        line = bytearray(width)
        line[wu] = line[wu + wv + 1] = ord(" ")
        line[-1] = ord("\n")
        body = line * (end - start)
        rows = range(first, last + 1)
        for j, column in enumerate(digit_columns(list(map(str, rows)), wu)):
            body[j::width] = b"".join(column[i:i + 1] * (p - u) for i, u in enumerate(rows))
        for j, column in enumerate(v_columns, wu + 1):
            body[j::width] = b"".join(column[u + 1:] for u in rows)
        for j, column in enumerate(color_columns, wu + wv + 2):
            body[j::width] = column[start:end]
        if padded_colors or len(str(first + 1)) < wv:
            body = body.translate(None, b"\0")
        yield body


def serialize_coloring(coloring: EdgeColoring) -> str:
    return b"".join(_render(coloring)).decode("ascii")


def _line_colors(data: bytes, p: int, t: int) -> EdgeColoring | None:
    """The coloring of K_p whose edge of rank r has the last field of data
    line r as its color; None when the lines do not fit K_p and 1..t.

    The lines of one row with one digit count of v share their prefix
    width.  When each of them ends one byte after its color's first
    digit, their colors are one strided slice; otherwise that run is split
    into lines.  Rendering the coloring and comparing it with the file
    checks every other byte."""
    pos = data.find(b"\n") + 1
    parts = []
    # a line longer than prefix + cw + 1 holds no color that fits 1..t and
    # a 64-bit store
    cw = min(len(str(t)), _COLOR_DIGITS)
    for u in range(1, p):
        lo = u + 1
        while lo <= p:
            hi = min(p, 10 ** len(str(lo)) - 1)
            n, prefix = hi - lo + 1, len(str(u)) + len(str(lo)) + 2
            end = pos + n * (prefix + 2)
            if data[pos + prefix + 1:end:prefix + 2].count(10) == n:  # one-digit colors
                parts.append(data[pos + prefix:end:prefix + 2].translate(_DIGIT_VALUES))
                pos = end
            else:
                run = data[pos:pos + n * (prefix + cw + 1)]
                lines = run.split(b"\n", n)
                if len(lines) <= n:
                    return None
                pos += len(run) - len(lines.pop())
                fields = list(map(itemgetter(slice(prefix, None)), lines))
                try:  # each distinct field is read once
                    value = {field: int(field) for field in set(fields)}
                except ValueError:
                    return None
                parts.append(list(map(value.__getitem__, fields)))
            lo = hi + 1
    if pos != len(data):
        return None
    try:
        colors = join_colors(parts)
    except InvalidParameterError:
        return None
    if not in_color_range(colors, t):
        return None
    return EdgeColoring._adopt(p, t, colors)


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
    if coloring is None:
        return None
    end = 0
    for block in _render(coloring):
        if not data.startswith(block, end):
            return None
        end += len(block)
    return coloring if end == len(data) else None


def _drop_comment_lines(data: bytes) -> bytes:
    """``data`` without the lines that start with '#', found by one scan
    for '#'."""
    kept, start = [], 0
    at = data.find(b"#")
    while at >= 0:
        if at and data[at - 1] != 10:  # not at a line start
            at = data.find(b"#", at + 1)
            continue
        kept.append(data[start:at])
        end = data.find(b"\n", at)
        start = len(data) if end < 0 else end + 1
        at = data.find(b"#", start)
    return b"".join(kept) + data[start:] if kept else data


def _drop_empty_lines(data: bytes) -> bytes:
    """``data`` without its empty lines."""
    while b"\n\n" in data:
        data = data.replace(b"\n\n", b"\n")
    return data.removeprefix(b"\n")


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
    if b"\r" in data:  # a scan, where the fold would copy the whole file
        data = data.replace(b"\r\n", b"\n")
    # a file that only adds comment lines or empty lines also takes the
    # bulk path; the scan for empty lines runs only when one is left to try
    coloring = _parse_canonical(data)
    if coloring is None and b"#" in data:
        data = _drop_comment_lines(data)
        coloring = _parse_canonical(data)
    if coloring is None and (data.startswith(b"\n") or b"\n\n" in data):
        coloring = _parse_canonical(_drop_empty_lines(data))
    return coloring or _parse_lines(
        text if isinstance(text, str) else text.decode("ascii", "surrogateescape"))


def _parse_lines(text: str) -> EdgeColoring:
    """Line-by-line parser: accepts comments, blank lines and any edge
    order, and reports the first defect with its line number.  Having
    refused duplicates, gaps and colors outside 1..t, it keeps only the
    store of the colors in rank order."""
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
    gap = edge_count(p) - len(colors)
    if gap:
        first = next(edge for edge in edges(p) if edge not in colors)
        raise ColoringFormatError(f"{gap} edge(s) missing, first is {first}")
    # every edge once, colors in 1..t: the store needs no further check
    return EdgeColoring._adopt(p, t, color_store([colors[edge] for edge in edges(p)]))


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
