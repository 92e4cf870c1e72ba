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
then deletes the NULs.  ``parse_coloring`` reads, with the bulk parser
(``bulkparser``, loaded only to read, so ``construct`` compiles none of
it), a file that is byte for byte what ``serialize_coloring`` writes:
in each run of lines of one width (one row, one digit count of v,
one-digit colors) the colors are a strided slice, and any other run is
split into lines; it renders the result and compares it with the file.
A CRLF file reads as its LF twin, and a file that only adds lines
starting with ``#`` and empty lines reads as the file without them.
Any other file (indented comments, another edge order, any error) goes
through the line parser (``lineparser``, loaded only then), which reads
the same bytes as given, one line at a time, and names the offending
line.  Text is read as its UTF-8 bytes.  Both paths hand the coloring
its rank-ordered store (``EdgeColoring._adopt``).  The bulk path has no
size limit, so a canonical file of any order reads; the line parser
keeps one list entry per edge and refuses right after the header an
order past ``check_order``'s limit, the package's one order limit.
"""

from .coloring import EdgeColoring, color_digit_columns, digit_columns, edge_rank
from .errors import ColoringFormatError

RENDER_LINES = 1 << 16  # a render block ends after the row that reaches this
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


def parse_coloring(text: str | bytes) -> EdgeColoring:
    """Parse a coloring file (its text or its bytes), rejecting duplicates,
    gaps, and range errors with the offending line number."""
    # text is read as its UTF-8 bytes, so that the line parser can name a
    # non-ASCII character; the line parser drops a final '\r', so CRLF
    # files may read as LF ones
    raw = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    data = raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw
    # a file that only adds comment lines or empty lines also takes the
    # bulk path, parsed again after each drop that shortened it; empty
    # lines are looked for only when that is still needed, since the scan
    # stops at every newline and costs most of a parse
    from .bulkparser import _drop_comment_lines, _drop_empty_lines, _parse_canonical
    coloring = _parse_canonical(data)
    for drop in (_drop_comment_lines, _drop_empty_lines):
        if coloring is None and len(shorter := drop(data)) < len(data):
            data = shorter
            coloring = _parse_canonical(data)
    if coloring is not None:
        return coloring
    from .lineparser import _parse_lines
    return _parse_lines(raw)


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
