import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starramsey import (
    EdgeColoring,
    fileio,
    parse_coloring,
    serialize_coloring,
    witness_coloring,
)
from starramsey.errors import ColoringFormatError, InvalidParameterError

from .conftest import colorings


@given(colorings())
def test_round_trip(coloring):
    assert parse_coloring(serialize_coloring(coloring)) == coloring


def test_serialized_shape():
    coloring, _ = witness_coloring(3, 3, 1)
    text = serialize_coloring(coloring)
    lines = text.splitlines()
    assert lines[0] == "7 3"
    assert len(lines) == 1 + 21
    assert text.endswith("\n")
    assert lines[1] == "1 2 " + lines[1].split()[2]


def test_comments_and_blank_lines_ignored():
    text = "# a certificate\n2 2\n\n# the only edge\n1 2 1\n"
    c = parse_coloring(text)
    assert (c.p, c.t) == (2, 2)
    assert c.colors == {(1, 2): 1}


def test_empty_order_one_file():
    c = parse_coloring("1 4\n")
    assert (c.p, c.t) == (1, 4)
    assert c.colors == {}


def _expect_error(text, needle, line=None):
    with pytest.raises(ColoringFormatError) as exc:
        parse_coloring(text)
    assert needle in str(exc.value)
    if line is not None:
        assert exc.value.line == line


def test_parse_rejects_duplicate_with_line_number():
    _expect_error("2 2\n1 2 1\n1 2 2\n", "duplicate edge (1, 2)", line=3)


def test_parse_rejects_color_out_of_range():
    _expect_error("2 2\n1 2 3\n", "color 3 out of range", line=2)


def test_parse_rejects_bad_vertex_order():
    _expect_error("3 2\n2 1 1\n1 3 1\n2 3 1\n", "1 <= u < v", line=2)


def test_parse_rejects_missing_edges():
    _expect_error("3 2\n1 2 1\n", "2 edge(s) missing, first is (1, 3)")
    _expect_error("3 2\n1 2 1\n2 3 1\n", "1 edge(s) missing, first is (1, 3)")


def test_header_only_file_names_first_gap_in_small_memory():
    tracemalloc.start()
    try:
        _expect_error("3000 2\n", "4498500 edge(s) missing, first is (1, 2)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_rejects_malformed_lines():
    _expect_error("2 2\n1 2\n", "must be 'u v c'", line=2)
    _expect_error("2\n", "header", line=1)
    _expect_error("", "empty file")


def test_parse_rejects_non_ascii_digits():
    # int() reads any script's digits: ARABIC-INDIC DIGIT ONE would be color 1
    _expect_error("3 2\n1 2 \u0661\n1 3 2\n2 3 1\n",
                  "non-ASCII character '\u0661'; files are ASCII", line=2)
    _expect_error("\u0663 2\n1 2 1\n1 3 2\n2 3 1\n", "non-ASCII character", line=1)
    # an EM SPACE is whitespace to split(), not a field separator here
    _expect_error("2 2\n1\u20032 1\n", "non-ASCII character", line=2)
    # comments may hold any text
    assert parse_coloring("# K\u2082\n2 2\n1 2 1\n").colors == {(1, 2): 1}


def _swap_lines(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]


def _edit_token(lines, i, edit):
    fields = lines[i].split(" ")
    k = len(fields) - 1
    fields[k] = edit(fields[k])
    lines[i] = " ".join(fields)


def _move_token_down(lines, i):
    # the last token of line i becomes the first of line i+1
    if i + 1 < len(lines):
        head, _, last = lines[i].rpartition(" ")
        lines[i], lines[i + 1] = head, f"{last} {lines[i + 1]}"


_LINE_MUTATIONS = {
    "swap": lambda lines, i, j: _swap_lines(lines, i, j),
    "drop": lambda lines, i, j: lines.pop(i),
    "duplicate": lambda lines, i, j: lines.insert(i, lines[i]),
    "leading zero": lambda lines, i, j: _edit_token(lines, i, lambda f: "0" + f),
    "plus sign": lambda lines, i, j: _edit_token(lines, i, lambda f: "+" + f),
    "decimal point": lambda lines, i, j: _edit_token(lines, i, lambda f: f + ".0"),
    "extra space": lambda lines, i, j: lines.__setitem__(i, lines[i].replace(" ", "  ", 1)),
    "leading space": lambda lines, i, j: lines.__setitem__(i, " " + lines[i]),
    "comment": lambda lines, i, j: lines.insert(i, "# note"),
    "blank line": lambda lines, i, j: lines.insert(i, ""),
    "token across break": lambda lines, i, j: _move_token_down(lines, i),
}


def _mutate(text, kind, i, j):
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no trailing newline":
        return text[:-1]
    lines = text.splitlines()
    _LINE_MUTATIONS[kind](lines, i % len(lines), j % len(lines))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except ColoringFormatError as exc:
        return (str(exc), exc.line)


@given(colorings(min_p=2),
       st.sampled_from(sorted(_LINE_MUTATIONS) + ["crlf", "no trailing newline"]),
       st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=300)
def test_parse_agrees_with_line_parser_on_mutated_files(coloring, kind, i, j):
    text = _mutate(serialize_coloring(coloring), kind, i, j)
    assert _outcome(parse_coloring, text) == _outcome(fileio._parse_lines, text)


@given(colorings())
def test_serialized_files_take_the_bulk_path(coloring):
    text = serialize_coloring(coloring)
    assert fileio._parse_canonical(text) == coloring
    assert fileio._parse_lines(text) == coloring


def test_bulk_path_refuses_near_canonical_files():
    text = serialize_coloring(witness_coloring(4, 2, 1)[0])
    assert fileio._parse_canonical(text) is not None
    for other in (text[:-1], text + "\n", text.replace("\n", "\r\n", 1),
                  text.replace(" ", "  ", 1), "# c\n" + text,
                  text.replace("1 2 ", "01 2 ", 1), text.replace("\n1 3", " 1\n3", 1)):
        assert fileio._parse_canonical(other) is None


def test_serialize_writes_any_integer_color():
    coloring = EdgeColoring(3, 2, {(1, 2): -3, (1, 3): 0, (2, 3): 12345})
    assert serialize_coloring(coloring) == "3 2\n1 2 -3\n1 3 0\n2 3 12345\n"


def test_serialize_refuses_missing_edges():
    with pytest.raises(InvalidParameterError, match="1 edge"):
        serialize_coloring(EdgeColoring(3, 2, {(1, 2): 1, (1, 3): 2}))
