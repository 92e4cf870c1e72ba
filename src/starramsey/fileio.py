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
which reads the same bytes as given, one line at a time, and names the
offending line.  Text is read as its UTF-8 bytes.  Both paths hand the
coloring its rank-ordered store (``EdgeColoring._adopt``).  The bulk
path has no size limit, so a canonical file of any order reads; the line
parser keeps one list entry per edge and refuses right after the header
an order past ``check_order``'s limit, the package's one order limit.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

from .coloring import (MAX_COLOR, EdgeColoring, check_order, color_digit_columns, color_store,
                       digit_columns, edge_count, edge_rank, edges, in_color_range, join_colors)
from .errors import ColoringFormatError, InvalidParameterError

RENDER_LINES = 1 << 16  # a render block ends after the row that reaches this
# ASCII digit -> its value; any other byte -> 0, which no valid color is
_DIGIT_VALUES = bytes(c - 48 if 48 <= c <= 57 else 0 for c in range(256))
_COLOR_DIGITS = len(str(MAX_COLOR))
_ASCII = bytes(range(128))


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
    """The file bytes as blocks made one at a time: the header, then the
    data lines in blocks of rows.

    A block first lays every line out at the full width of "u v c\n",
    with v and c right-aligned behind NUL bytes; each digit column of u,
    v and c is one strided assignment (u is constant along a row, and v
    runs over a suffix of 1..p).  Deleting the NULs, where a block has
    any, leaves the lines."""
    p, colors = coloring.p, coloring.array
    yield f"{p} {coloring.t}\n".encode()
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
    header = _integers(head[:-1].split(b" "))
    if header is None or len(header) != 2:
        return None
    p, t = header
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


def _integers(fields: list[bytes]) -> list[int] | None:
    """Byte fields as integers; None unless each is ASCII digits only
    (int() alone also reads signs, underscores and surrounding
    whitespace) and within int()'s digit limit."""
    if not all(map(bytes.isdigit, fields)):
        return None
    try:
        return list(map(int, fields))
    except ValueError:  # over the int-string digit limit
        return None


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


def parse_coloring(text: str | bytes) -> EdgeColoring:
    """Parse a coloring file (its text or its bytes), rejecting duplicates,
    gaps, and range errors with the offending line number."""
    # text is read as its UTF-8 bytes, so that the line parser can name a
    # non-ASCII character; the line parser drops a final '\r', so CRLF
    # files may read as LF ones
    raw = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    data = raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw
    # a file that only adds comment lines or empty lines also takes the
    # bulk path; the scan for empty lines runs only when one is left to try
    coloring = _parse_canonical(data)
    if coloring is None and b"#" in data:
        data = _drop_comment_lines(data)
        coloring = _parse_canonical(data)
    if coloring is None and (data.startswith(b"\n") or b"\n\n" in data):
        coloring = _parse_canonical(_drop_empty_lines(data))
    return coloring or _parse_lines(raw)


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


def write_coloring(path: str, coloring: EdgeColoring) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_render(coloring))


def read_coloring(path: str) -> EdgeColoring:
    """Read and parse a coloring file; a byte >= 0x80 is a format error
    naming its line, numbered as the line parser numbers lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        # the first byte left once the ASCII ones are deleted is the
        # first non-ASCII byte, and no earlier byte has its value
        byte = data.translate(None, _ASCII)[0]
        raise ColoringFormatError(f"non-ASCII byte {byte:#04x}; files are ASCII",
                                  data.count(b"\n", 0, data.find(byte)) + 1)
    return parse_coloring(data)
