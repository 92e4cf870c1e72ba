import tracemalloc

import pytest
from hypothesis import given

from starramsey import parse_coloring, serialize_coloring, witness_coloring
from starramsey.errors import ColoringFormatError

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
