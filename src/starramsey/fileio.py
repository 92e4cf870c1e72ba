"""Plain-text coloring files.

Format: a header line ``p t`` followed by exactly p(p-1)/2 data lines
``u v c`` with 1 <= u < v <= p and 1 <= c <= t, single spaces between
fields.  Lines starting with ``#`` are ignored.  Parsing and
serialization round-trip losslessly; edges are written in lexicographic
order so files diff cleanly.
"""

from __future__ import annotations

from .coloring import EdgeColoring
from .errors import ColoringFormatError


def serialize_coloring(coloring: EdgeColoring) -> str:
    p, colors = coloring.p, coloring.colors
    rows = [f"{p} {coloring.t}\n"]
    for u in range(1, p + 1):
        rows.append("".join(f"{u} {v} {colors[(u, v)]}\n"
                            for v in range(u + 1, p + 1)))
    return "".join(rows)


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
    p = t = None
    colors: dict = {}
    lines = text.splitlines()
    for lineno, line, fields in _data_lines(lines):
        if p is None:
            if len(fields) != 2:
                raise ColoringFormatError(
                    f"header must be 'p t', got {line!r}", lineno
                )
            try:
                p, t = int(fields[0]), int(fields[1])
            except ValueError:
                raise ColoringFormatError(
                    f"header must hold two integers, got {line!r}", lineno
                ) from None
            if p < 1 or t < 1:
                raise ColoringFormatError(f"need p >= 1 and t >= 1, got p={p}, t={t}", lineno)
            continue
        if len(fields) != 3:
            raise ColoringFormatError(f"edge line must be 'u v c', got {line!r}", lineno)
        try:
            u, v, c = (int(f) for f in fields)
        except ValueError:
            raise ColoringFormatError(
                f"edge line must hold three integers, got {line!r}", lineno
            ) from None
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
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_coloring(coloring))


def read_coloring(path: str) -> EdgeColoring:
    with open(path, "r", encoding="ascii") as fh:
        return parse_coloring(fh.read())
