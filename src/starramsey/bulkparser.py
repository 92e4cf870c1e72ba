"""The bulk parser: ``fileio.parse_coloring`` loads it to read a file, so
a launch that only writes one (``construct``) compiles none of it.
"""

from operator import itemgetter

from .coloring import MAX_COLOR, EdgeColoring, edge_count, in_color_range, join_colors
from .errors import InvalidParameterError
from .fileio import _render

# ASCII digit -> its value; any other byte -> 0, which no valid color is
_DIGIT_VALUES = bytes(c - 48 if 48 <= c <= 57 else 0 for c in range(256))
_COLOR_DIGITS = len(str(MAX_COLOR))


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
