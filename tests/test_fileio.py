import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starramsey import (
    EdgeColoring,
    bulkparser,
    check_certificate,
    cyclic_matching_coloring,
    lineparser,
    parse_coloring,
    read_coloring,
    serialize_coloring,
    witness_coloring,
    write_coloring,
)
from starramsey import coloring as coloring_module
from starramsey.coloring import BYTES_PER_EDGE, edge_count
from starramsey.errors import ColoringFormatError, InvalidParameterError

from .conftest import colorings
from .line_parser import parse_lines as reference_parse_lines


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


def test_parse_rejects_color_past_int64_at_its_line():
    # within the header's 1..t, but past the int64 store; the bulk path
    # falls through to the line parser, which names the line
    for text in ("2 99999999999999999999\n1 2 9999999999999999999\n",
                 "2 99999999999999999999\n  1 2 9223372036854775808\n"):
        for data in (text, text.encode()):
            _expect_error(data, "colors must be 64-bit integers", line=2)
    assert parse_coloring("2 99999999999999999999\n1 2 9223372036854775807\n").colors == {
        (1, 2): 2**63 - 1}


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
    _expect_error("0 3\n", "line 1: need p >= 1 and t >= 1, got p=0, t=3", line=1)
    _expect_error("", "empty file")


def test_parse_rejects_non_ascii_digits():
    # int() reads any script's digits: ARABIC-INDIC DIGIT ONE would be color 1
    _expect_error("3 2\n1 2 \u0661\n1 3 2\n2 3 1\n",
                  "non-ASCII character '\u0661'; files are ASCII", line=2)
    # UTF-8 bytes name the same character
    _expect_error("3 2\n1 2 \u0661\n1 3 2\n2 3 1\n".encode(),
                  "non-ASCII character '\u0661'; files are ASCII", line=2)
    _expect_error("\u0663 2\n1 2 1\n1 3 2\n2 3 1\n", "non-ASCII character", line=1)
    # an EM SPACE is whitespace to split(), not a field separator here
    _expect_error("2 2\n1\u20032 1\n", "non-ASCII character", line=2)
    # comments may hold any text
    assert parse_coloring("# K\u2082\n2 2\n1 2 1\n").colors == {(1, 2): 1}


def test_parse_reads_only_ascii_digit_fields():
    # int() reads '0_1' as 1 and '+1' as 1
    _expect_error("2 2\n1 2 0_1\n", "edge line must hold three integers", line=2)
    _expect_error("2 2\n1 +2 1\n", "edge line must hold three integers", line=2)
    _expect_error("2_0 2\n", "header must hold two integers", line=1)
    _expect_error("-2 2\n", "header must hold two integers", line=1)


def test_parse_ends_lines_at_newlines_only():
    # splitlines() would read the form feed as a line break: header "2 2",
    # then the edge line "1 2 1"
    _expect_error("2 2\x0c1 2 1\n", "header must be 'p t'", line=1)
    for sep in ("\x0b", "\x1c", "\x1d", "\x1e", "\r"):
        with pytest.raises(ColoringFormatError):
            parse_coloring(f"2 2{sep}1 2 1\n")
    # lines are numbered by '\n': the 'x' is on line 5 (splitlines: 6)
    _expect_error("# c\x0cd\n3 2\n1 2 1\n1 3 1\n2 3 x\n",
                  "edge line must hold three integers", line=5)
    # CRLF files still parse
    assert parse_coloring("# c\r\n2 2\r\n1 2 1\r\n").colors == {(1, 2): 1}


def test_parse_separates_fields_by_spaces_only():
    # split() and strip() would read these as '1 2 1' and '2 2'
    _expect_error("2 2\n1\x0c2\t1\n", "edge line must be 'u v c'", line=2)
    _expect_error("2 2\n1\t2 1\n", "edge line must be 'u v c'", line=2)
    _expect_error("2 2\n1 2 1\x1f\n", "edge line must hold three integers", line=2)
    _expect_error("2 2\n1 2 1\x0b\n", "edge line must hold three integers", line=2)
    _expect_error("2 2\x1f\n1 2 1\n", "header must hold two integers", line=1)
    _expect_error("\x0c2 2\n1 2 1\n", "header must hold two integers", line=1)
    _expect_error("\t# c\n2 2\n1 2 1\n", "header must hold two integers", line=1)
    _expect_error("2 2\n\x0c\n1 2 1\n", "edge line must be 'u v c'", line=2)
    # one final '\r' is dropped, not two
    _expect_error("2 2\n1 2 1\r\r\n", "edge line must hold three integers", line=2)
    # runs of spaces, leading and trailing spaces and CRLF still parse
    for text in ("  2  2 \r\n 1   2 1  \r\n", "2 2\n  # c\n\n   \n1 2 1 \n"):
        assert parse_coloring(text).colors == {(1, 2): 1}
        assert parse_coloring(text.encode()).colors == {(1, 2): 1}


def test_read_coloring_ends_lines_at_newlines_only(tmp_path, monkeypatch):
    text = serialize_coloring(witness_coloring(4, 2, 1)[0])
    (tmp_path / "crlf.txt").write_bytes(text.replace("\n", "\r\n").encode())
    (tmp_path / "cr.txt").write_bytes(text.replace("\n", "\r").encode())
    with pytest.raises(ColoringFormatError, match="line 1: header must be 'p t'"):
        read_coloring(str(tmp_path / "cr.txt"))
    # a CRLF file reads as its LF twin, on the bulk path
    monkeypatch.setattr(lineparser, "_parse_lines", None)
    assert read_coloring(str(tmp_path / "crlf.txt")) == parse_coloring(text)


def test_read_coloring_names_a_non_ascii_line_in_small_memory(tmp_path):
    # the 3.0 MiB K_798 certificate with one trailing 'e' with an acute
    # accent: the line is found by counting newlines before the byte, so
    # the refusal peaks at the file and its read buffer, twice the file
    data = serialize_coloring(witness_coloring(600, 8, 6)[0]).encode() + "\u00e9".encode()
    path = tmp_path / "accent.coloring"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(ColoringFormatError) as exc:
            read_coloring(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (str(exc.value), exc.value.line) == (
        "line 318005: non-ASCII byte 0xc3; files are ASCII", 318005)
    assert peak < 2.5 * len(data)


def test_certificate_files_peak_bytes_per_edge(tmp_path):
    # K_405 (near-regular) peaks at 13.7 and 22.6 bytes per edge under
    # tracemalloc with one-byte colors, a p x p degree matrix and the
    # padded render of each block of rows (26.4 and 37.3 with int64 numpy
    # passes, 73.2 and 84.2 before those were narrowed)
    path = str(tmp_path / "k405.txt")
    tracemalloc.start()
    try:
        coloring, _ = witness_coloring(338, 6, 5)
        write_coloring(path, coloring)
        build = tracemalloc.get_traced_memory()[1]
        del coloring
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert check_certificate(read_coloring(path), 338, 5).passed
        check = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert build / edge_count(405) < 32
    assert check / edge_count(405) < 45


def test_line_parser_keeps_only_the_store():
    # an indented comment sends K_299 to the line parser; its per-rank list
    # is dropped once the store is made (a coloring that kept a (u, v) ->
    # color dict held 124 B/edge)
    coloring = cyclic_matching_coloring(299, 3)
    text = "  # K_299\n" + serialize_coloring(coloring)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        parsed = parse_coloring(text)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert parsed == coloring
    assert kept / edge_count(299) < 8


def test_line_parser_peak_fits_its_bytes_per_edge(tmp_path):
    # an indented comment sends K_299 to the line parser, which holds the
    # file and one list entry per edge: about 18 B/edge measured
    path = tmp_path / "k299.coloring"
    coloring = cyclic_matching_coloring(299, 3)
    path.write_text("  # K_299\n" + serialize_coloring(coloring))
    del coloring
    tracemalloc.start()
    try:
        read_coloring(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / edge_count(299) < 32


def test_line_parser_refuses_orders_over_the_limit(monkeypatch, tmp_path):
    # the limit admits K_9's 36 edges on the line parser but not K_11's 55,
    # which are refused at the header (line 2, after the comment); the bulk
    # parser reads the canonical file of either order.  The builders share
    # the limit, so both colorings are built before it is lowered
    colorings_by_order = {p: cyclic_matching_coloring(p, 3) for p in (9, 11)}
    monkeypatch.setattr(coloring_module, "MAX_COLORING_BYTES", 36 * BYTES_PER_EDGE)
    for p, coloring in colorings_by_order.items():
        path = tmp_path / f"k{p}.coloring"
        write_coloring(str(path), coloring)
        assert read_coloring(str(path)) == coloring
        path.write_text("  # indented\n" + serialize_coloring(coloring))
        if p == 9:
            assert read_coloring(str(path)) == coloring
            continue
        with pytest.raises(ColoringFormatError, match=r"^line 2: K_11 has 55 edges, about .*"
                           r"the limit is 0 MiB \(a file not in canonical form\)$"):
            read_coloring(str(path))


def test_line_parser_shares_the_package_order_limit():
    # check_order's limit, K_5793: a header-only file of that order passes
    # the header and is refused for its gap, K_5794 at the header
    _expect_error("# c\n5793 3\n", "16776528 edge(s) missing, first is (1, 2)")
    _expect_error("# c\n5794 3\n", "K_5794 has 16782321 edges", line=2)


def test_bulk_parser_keeps_one_color_array():
    # K_405's colors read back at about 3.3 B/edge over the file: strided
    # slices of the lines' color bytes, one byte per color (18 with a numpy
    # newline mask and int64 colors, 24 with a copy of them)
    coloring, _ = witness_coloring(338, 6, 5)
    data = serialize_coloring(coloring).encode()
    tracemalloc.start()
    try:
        parsed = bulkparser._line_colors(data, coloring.p, coloring.t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == coloring
    assert peak / edge_count(coloring.p) < 21


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


_WHOLE_FILE_MUTATIONS = ("crlf", "no trailing newline")
_MUTATIONS = st.tuples(st.sampled_from(sorted(_LINE_MUTATIONS) + list(_WHOLE_FILE_MUTATIONS)),
                       st.integers(0, 100), st.integers(0, 100))


def _mutate(text, kind, i, j):
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no trailing newline":
        return text[:-1]
    lines = text.splitlines()
    if lines:
        _LINE_MUTATIONS[kind](lines, i % len(lines), j % len(lines))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except ColoringFormatError as exc:
        return (str(exc), exc.line)


def _assert_parsers_agree(text):
    # the reference reads text; the package reads text and bytes alike
    expected = _outcome(reference_parse_lines, text)
    assert _outcome(lineparser._parse_lines, text.encode()) == expected
    assert _outcome(parse_coloring, text) == expected
    assert _outcome(parse_coloring, text.encode()) == expected


@given(colorings(min_p=2), _MUTATIONS)
@settings(max_examples=300)
def test_parse_agrees_with_line_parser_on_mutated_files(coloring, mutation):
    _assert_parsers_agree(_mutate(serialize_coloring(coloring), *mutation))


@given(colorings(min_p=2), st.lists(_MUTATIONS, min_size=1, max_size=3))
@example(cyclic_matching_coloring(5, 3), [("comment", 2, 0), ("plus sign", 4, 0)])
@example(cyclic_matching_coloring(5, 3), [("crlf", 0, 0), ("no trailing newline", 0, 0)])
@example(cyclic_matching_coloring(5, 3), [("blank line", 3, 0), ("duplicate", 5, 0)])
@settings(max_examples=200)
def test_parse_agrees_with_line_parser_on_stacked_mutations(coloring, mutations):
    # line edits first: a whole-file edit would not survive a later one's
    # split into lines and join with '\n'
    text = serialize_coloring(coloring)
    for mutation in sorted(mutations, key=lambda m: m[0] in _WHOLE_FILE_MUTATIONS):
        text = _mutate(text, *mutation)
    _assert_parsers_agree(text)


@given(colorings())
def test_serialized_files_take_the_bulk_path(coloring):
    text = serialize_coloring(coloring)
    assert bulkparser._parse_canonical(text.encode()) == coloring
    assert reference_parse_lines(text) == coloring
    assert lineparser._parse_lines(text.encode()) == coloring


def test_bulk_path_refuses_near_canonical_files():
    text = serialize_coloring(witness_coloring(4, 2, 1)[0])
    assert bulkparser._parse_canonical(text.encode()) is not None
    for other in (text[:-1], text + "\n", text.replace("\n", "\r\n", 1),
                  text.replace(" ", "  ", 1), "# c\n" + text,
                  text.replace("1 2 ", "01 2 ", 1), text.replace("\n1 3", " 1\n3", 1)):
        assert bulkparser._parse_canonical(other.encode()) is None


def test_commented_files_take_the_bulk_path(monkeypatch):
    # a K_798 file that adds only '#' lines and empty lines to a canonical
    # one parses without the line parser, within twice the canonical time
    coloring, _ = witness_coloring(600, 8, 6)
    data = serialize_coloring(coloring).encode()
    commented = b"# c\n" + data
    monkeypatch.setattr(lineparser, "_parse_lines", None)
    for variant in (commented, b"\n\n# a\n#\n" + data.replace(b"\n", b"\n\n", 5),
                    data.replace(b"\n1 3 ", b"\n# 1 3\n1 3 ", 1) + b"# end"):
        assert parse_coloring(variant) == coloring
        assert parse_coloring(variant.decode()) == coloring

    def best(text):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            parse_coloring(text)
            times.append(time.perf_counter() - start)
        return min(times)

    best(data)  # first-use costs
    assert best(commented) < 2 * best(data)


def test_multi_digit_colors_take_the_bulk_path(monkeypatch):
    # K_801 with colors 1..12, and a K_6 whose colors past 255 make an
    # int64 store: the runs of lines with wider colors are split
    monkeypatch.setattr(lineparser, "_parse_lines", None)
    near_regular, _ = witness_coloring(669, 12, 10)
    wide = EdgeColoring.from_array(6, 300, [7, 300, 12, 255, 256, 1, 99, 100, 5, 5, 5, 5, 5,
                                            5, 5])
    assert type(wide.array) is memoryview
    for coloring in (near_regular, wide):
        assert parse_coloring(serialize_coloring(coloring)) == coloring


def test_huge_color_bound_does_not_widen_the_parse(monkeypatch):
    # a header t of thousands of digits over two-digit colors: each run of
    # lines is sliced at the width of the widest 64-bit color, not of t, so
    # the parse peaks as with t = 99 (1.4x that when runs took str(t) digits)
    monkeypatch.setattr(lineparser, "_parse_lines", None)
    p = 400
    colors = [10 + r % 90 for r in range(edge_count(p))]
    peaks = []
    for t in (99, 10 ** 4000):
        coloring = EdgeColoring.from_array(p, t, colors)
        data = serialize_coloring(coloring).encode()
        tracemalloc.start()
        try:
            assert parse_coloring(data) == coloring
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def test_bad_commented_files_keep_their_line_numbers():
    # the bulk path refuses them, and the line parser counts every line
    _expect_error("# c\n2 2\n1 2 3\n", "color 3 out of range", line=3)
    _expect_error("2 2\n\n# c\n1 2 1\n1 2 1\n", "duplicate edge (1, 2); first seen on line 4",
                  line=5)
    _expect_error("# c\n3 2\n\n1 2 1\n", "2 edge(s) missing, first is (1, 3)")
    _expect_error("# c\n2 2\n  # indented\n1 2 x\n", "edge line must hold three integers",
                  line=4)


def test_serialize_writes_any_integer_color():
    coloring = EdgeColoring(3, 2, {(1, 2): -3, (1, 3): 0, (2, 3): 12345})
    assert serialize_coloring(coloring) == "3 2\n1 2 -3\n1 3 0\n2 3 12345\n"


def test_serialize_refuses_missing_edges():
    # no coloring lacks an edge: the mapping is refused before there is
    # anything to serialize
    with pytest.raises(InvalidParameterError, match=r"^invalid coloring: missing edge \(2, 3\)$"):
        serialize_coloring(EdgeColoring(3, 2, {(1, 2): 1, (1, 3): 2}))


def test_write_refuses_missing_edges_before_opening_the_file(tmp_path):
    path = tmp_path / "k3.txt"
    with pytest.raises(InvalidParameterError, match=r"^invalid coloring: missing edge \(2, 3\)$"):
        write_coloring(str(path), EdgeColoring(3, 2, {(1, 2): 1, (1, 3): 2}))
    assert not path.exists()
