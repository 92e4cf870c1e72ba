import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from starramsey import (
    all_edges,
    check_certificate,
    constructions,
    formulas,
    read_coloring,
    verify,
    write_coloring,
)
from starramsey.cli import EXIT_BROKEN_PIPE, main

from .conftest import monochrome_build


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


def test_compute_known_values(capsys):
    rc, out, _ = run(capsys, "compute", "--n", "4", "--t", "2", "--s", "1")
    assert rc == 0
    fields = kv(out)
    assert fields["value"] == "7"
    assert fields["case"] == "x.odd-q"
    assert (fields["x"], fields["q"], fields["r"]) == ("7", "3", "1")
    assert "witness" in fields

    rc, out, _ = run(capsys, "compute", "--n", "3", "--t", "3", "--s", "1")
    assert rc == 0
    assert kv(out)["value"] == "8"


def test_compute_refuses_small_budget(capsys):
    rc, _, err = run(capsys, "compute", "--n", "3", "--t", "4", "--s", "1")
    assert rc == 2
    assert "general_bounds" in err


def test_bounds(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "5", "--t", "4", "--l", "2")
    assert rc == 0
    fields = kv(out)
    assert (fields["lower"], fields["upper"]) == ("7", "10")

    rc, out, _ = run(capsys, "bounds", "--n", "4", "--t", "2", "--l", "1")
    fields = kv(out)
    assert (rc, fields["lower"], fields["upper"]) == (0, "7", "8")

    rc, _, err = run(capsys, "bounds", "--n", "3", "--t", "3", "--l", "2")
    assert rc == 2


def test_construct_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "k7.coloring"
    rc, out, _ = run(capsys, "construct", "--n", "3", "--t", "3", "--s", "1",
                     "--out", str(path))
    assert rc == 0
    assert kv(out)["order"] == "7"
    rc, out, _ = run(capsys, "verify", "--file", str(path), "--n", "3", "--s", "1")
    assert rc == 0
    assert kv(out)["verdict"] == "pass"


def test_construct_stdout_is_a_coloring_file(capsys):
    rc, out, _ = run(capsys, "construct", "--n", "5", "--t", "4", "--s", "2")
    assert rc == 0
    assert out.splitlines()[0] == "9 4"


def test_construct_trivial_order_one(capsys, tmp_path):
    path = tmp_path / "k1.coloring"
    rc, out, _ = run(capsys, "construct", "--n", "1", "--t", "4", "--s", "3",
                     "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "--file", str(path), "--n", "1", "--s", "3")
    assert rc == 0
    assert kv(out)["min_star_colors"] == "no-star"


def test_construct_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "build_recipe", monochrome_build)
    rc, _, err = run(capsys, "construct", "--n", "9", "--t", "5", "--s", "3")
    assert rc == 1
    assert "construction failed" in err


def test_verify_fail_reports_offender(capsys, tmp_path):
    path = tmp_path / "mono.coloring"
    lines = ["4 2"] + [f"{u} {v} 1" for u, v in all_edges(4)]
    path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "1")
    assert rc == 1
    fields = kv(out)
    assert fields["verdict"] == "fail"
    assert fields["offending_vertex"] == "1"
    assert fields["offending_colors"] == "1"


def test_verify_malformed_file_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.coloring"
    path.write_text("3 2\n1 2 1\n1 2 1\n")
    rc, _, err = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "1")
    assert rc == 2
    assert "line 3" in err


def test_verify_non_ascii_file_exits_two(capsys, tmp_path):
    path = tmp_path / "accent.coloring"
    path.write_bytes(b"3 2\n1 2 1\n1 3 2\n2 3 1 \xc3\xa9\n")
    rc, out, err = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "1")
    assert (rc, out) == (2, "")
    assert err == "error: line 4: non-ASCII byte 0xc3; files are ASCII\n"


def test_tampered_tight_certificate_flips_verdict(capsys, tmp_path):
    path = tmp_path / "tight.coloring"
    rc, _, _ = run(capsys, "construct", "--n", "4", "--t", "2", "--s", "1",
                   "--out", str(path))
    assert rc == 0
    original = read_coloring(path)
    tampered_path = tmp_path / "tampered.coloring"
    flipped = None
    for edge in all_edges(original.p):
        for c in range(1, original.t + 1):
            if c == original.colors[edge]:
                continue
            mutated = dict(original.colors)
            mutated[edge] = c
            write_coloring(str(tampered_path), type(original)(original.p, original.t, mutated))
            rc, out, _ = run(capsys, "verify", "--file", str(tampered_path),
                             "--n", "4", "--s", "1")
            if rc == 1:
                flipped = (edge, c, kv(out))
                break
        if flipped:
            break
    assert flipped is not None
    assert flipped[2]["verdict"] == "fail"


def test_table_text_and_csv(capsys):
    rc, out, _ = run(capsys, "table", "--t", "2", "--s", "1",
                     "--n-from", "2", "--n-to", "10", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,case"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [3, 6, 7, 10, 11, 14, 15, 18, 19]

    rc, out, _ = run(capsys, "table", "--t", "3", "--s", "1",
                     "--n-from", "2", "--n-to", "4")
    assert rc == 0
    assert "value" in out.splitlines()[0]


def test_table_empty_range_exits_two(capsys):
    rc, _, err = run(capsys, "table", "--t", "2", "--s", "1",
                     "--n-from", "5", "--n-to", "4")
    assert rc == 2


def test_oracle_command(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "2", "--t", "3", "--s", "1",
                     "--max-p", "6")
    assert rc == 0
    fields = kv(out)
    assert fields["value"] == "5"
    assert int(fields["nodes"]) > 0


def test_oracle_budget_exit(capsys):
    # R(3, 2, 1) = 6: the root settles K_6, so only K_5 (10 edges), where
    # the search runs, has to fit the edge budget
    rc, out, _ = run(capsys, "oracle", "--n", "3", "--t", "2", "--s", "1",
                     "--max-p", "9", "--edge-budget", "10")
    assert rc == 0
    assert kv(out)["value"] == "6"
    rc, _, err = run(capsys, "oracle", "--n", "3", "--t", "2", "--s", "1",
                     "--max-p", "9", "--edge-budget", "9")
    assert rc == 2
    assert "budget" in err


def test_sample_check_command(capsys):
    rc, out, _ = run(capsys, "sample-check", "--n", "2", "--t", "3", "--s", "1",
                     "--p", "5", "--trials", "500", "--seed", "7")
    assert rc == 0
    assert kv(out)["verdict"] == "pass"

    rc, out, _ = run(capsys, "sample-check", "--n", "2", "--t", "3", "--s", "1",
                     "--p", "4", "--trials", "10000", "--seed", "42")
    assert rc == 1
    fields = kv(out)
    assert fields["verdict"] == "counterexample"
    assert fields["trial"] == "192"


@pytest.mark.parametrize("argv", [
    ("--n", "2", "--t", "3", "--s", "1", "--p", "4", "--trials", "10000", "--seed", "42"),
    ("--n", "2", "--t", "3", "--s", "1", "--p", "5", "--trials", "500", "--seed", "7"),
    ("--n", "6", "--t", "4", "--s", "3", "--p", "7", "--trials", "1000", "--seed", "2"),
])
def test_sample_check_output_does_not_depend_on_batch_size(capsys, monkeypatch, argv):
    # 1 and 6 cells are below one trial's size, so each batch is one trial;
    # then the default, and 2^16 cells (over 2,000 trials per batch)
    outputs = set()
    for cells in (1, 6, verify.SAMPLE_BATCH_EDGES, 1 << 16):
        monkeypatch.setattr(verify, "SAMPLE_BATCH_EDGES", cells)
        outputs.add(run(capsys, "sample-check", *argv)[:2])
    assert len(outputs) == 1


@pytest.mark.parametrize("t", ("9223372036854775807", "18446744073709551616"))
def test_sample_check_huge_t_exits_two(capsys, t):
    rc, out, err = run(capsys, "sample-check", "--n", "2", "--t", t, "--s", "1",
                       "--p", "3", "--trials", "1", "--seed", "0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "color-degree table" in err


@pytest.mark.parametrize("seed, trials, refused", [
    ("18446744073709551615", "10000", None),
    ("18446744073709551616", "10000", "seed must be in 0..2^64-1"),
    ("-1", "10000", "seed must be in 0..2^64-1"),
    # K_4 has 6 edges: 6 * 3074457345618258602 < 2^64 <= 6 * 3074457345618258603
    ("42", "3074457345618258602", None),
    ("42", "3074457345618258603", "the limit is 2^64-1"),
])
def test_sample_check_counter_range(capsys, seed, trials, refused):
    # accepted runs stop at their first counterexample, long before the
    # last trial
    rc, out, err = run(capsys, "sample-check", "--n", "2", "--t", "3", "--s", "1",
                       "--p", "4", "--trials", trials, "--seed", seed)
    if refused is None:
        assert (rc, kv(out)["verdict"], err) == (1, "counterexample", "")
    else:
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and refused in err


@pytest.mark.parametrize("argv", [
    ("compute", "--n", "2", "--t", "10000000", "--s", "9999999"),
    ("compute", "--n", "2", "--t", "100000000000", "--s", "99999999999"),
    ("compute", "--n", "2", "--t", "18446744073709551616", "--s", "18446744073709551615"),
    ("table", "--t", "18446744073709551616", "--s", "18446744073709551615",
     "--n-from", "2", "--n-to", "3"),
    ("construct", "--n", "3", "--t", "18446744073709551616", "--s", "18446744073709551615"),
])
def test_huge_t_witness_exits_two(capsys, argv):
    # the witness of (2, t, t-1) lists t class sizes; construct (3, t, t-1)
    # would build a cyclic coloring whose colors overflow int64
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and f"limit is {formulas.MAX_WITNESS_COLORS}" in err


def test_usage_error_from_argparse(capsys):
    rc = main(["compute", "--n", "3"])
    capsys.readouterr()
    assert rc == 2


def test_missing_file_exits_two(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", "--file", str(tmp_path / "nope"),
                     "--n", "2", "--s", "1")
    assert rc == 2


def test_verify_huge_declared_t_counts_only_the_colors_that_occur(capsys, tmp_path):
    # a valid K_3 file declaring 4,000,000 colors: a 3 x t color-degree
    # table would peak near 300 MB; the output names the file's own colors
    path = tmp_path / "k3.coloring"
    path.write_text("3 4000000\n1 2 3999999\n1 3 7\n2 3 3999999\n")
    coloring = read_coloring(str(path))
    tracemalloc.start()
    try:
        check_certificate(coloring, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    rc, out, _ = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "1")
    assert rc == 1
    assert out == ("verdict fail\nmin_star_colors 1\noffending_vertex 2\n"
                   "offending_colors 3999999\ncovered_edges 2\n")
    rc, out, _ = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "2")
    assert rc == 1
    assert out == ("verdict fail\nmin_star_colors 1\noffending_vertex 1\n"
                   "offending_colors 7,3999999\ncovered_edges 2\n")


def test_oracle_threads_checked_before_empty_range(capsys):
    # --max-p 4 leaves no order >= n+1 = 6 to search
    rc, out, err = run(capsys, "oracle", "--n", "5", "--t", "2", "--s", "1",
                       "--max-p", "4", "--threads", "0")
    assert rc == 2
    assert out == ""
    assert "need threads >= 1" in err


def test_oversized_construct_exits_two(capsys):
    rc, out, err = run(capsys, "construct", "--n", "1000000", "--t", "8", "--s", "6")
    assert rc == 2
    assert out == ""
    assert "K_1333332 has 888886444446 edges" in err


def _child_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))


# Per command, the modules that must stay unloaded after it runs.
NOT_LOADED = {
    "compute": ("numpy", "dataclasses", "starramsey.oracle"),
    "bounds": ("numpy", "dataclasses", "starramsey.oracle"),
    "table": ("numpy", "dataclasses", "starramsey.oracle"),
    "oracle": ("numpy", "dataclasses", "starramsey.formulas"),
    "verify": ("starramsey.formulas", "starramsey.oracle"),
    "sample-check": ("starramsey.formulas", "starramsey.oracle", "numpy.random"),
    "construct": ("starramsey.oracle",),
}


@pytest.mark.parametrize("argv", [
    ("compute", "--n", "4", "--t", "2", "--s", "1"),
    ("oracle", "--n", "2", "--t", "3", "--s", "1", "--max-p", "6"),
    ("bounds", "--n", "5", "--t", "4", "--l", "2"),
    ("table", "--t", "3", "--s", "1", "--n-from", "2", "--n-to", "40"),
    ("verify", "--file", "{file}", "--n", "3", "--s", "1"),
    ("sample-check", "--n", "2", "--t", "3", "--s", "1", "--p", "5",
     "--trials", "500", "--seed", "7"),
    ("construct", "--n", "3", "--t", "3", "--s", "1", "--out", "{file}"),
])
def test_numpy_free_commands_do_not_import_numpy(argv, tmp_path):
    # Each command loads only the modules it runs, on the same start-up
    # path as `python -m starramsey`: package, then cli.  compute, bounds,
    # table and oracle load neither numpy nor dataclasses.
    path = tmp_path / "k7.coloring"
    write_coloring(str(path), constructions.witness_coloring(3, 3, 1)[0])
    watched = sorted({name for names in NOT_LOADED.values() for name in names})
    code = ("import sys\n"
            "from starramsey.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            f"print(rc, *[m for m in {watched!r} if m in sys.modules])\n")
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    rc, *loaded = proc.stdout.splitlines()[-1].split()
    assert rc == "0", proc.stderr
    assert not set(loaded) & set(NOT_LOADED[argv[0]]), loaded


def test_oracle_default_edge_budget(capsys):
    # K_7 (21 edges) is searched and does not qualify; K_8 is over the budget
    rc, out, err = run(capsys, "oracle", "--n", "6", "--t", "2", "--s", "1",
                       "--max-p", "9")
    assert (rc, out, err) == (2, "", "error: K_8 has 28 edges, over the budget of 21\n")


class _DigestWriter:
    """A stdout that keeps only a running digest of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def _table_run(n_to, fmt):
    """(exit code, output digest, tracemalloc peak) of one table command."""
    writer = _DigestWriter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(writer):
            rc = main(["table", "--t", "5", "--s", "3", "--n-from", "1",
                       "--n-to", str(n_to), "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, writer.digest.hexdigest(), peak


@pytest.mark.parametrize("fmt, digest", [
    ("text", "88bd05ea13ca3c5aea0fc2872832a47f99decab2991a22c7d60565551ca7adf8"),
    ("csv", "c09dc767215d7fd259a741eeb2778221e51c7809643cec5deec9267c40d7ddf2"),
], ids=("text", "csv"))
def test_table_streams_its_rows(fmt, digest):
    # 10^4 rows print as each is computed: the peak stays that of 10^3
    # rows (a kept row list took about 1.3 MB), and the bytes are those
    # the row list printed
    _table_run(100, fmt)  # first-use caches of argparse and re
    _, _, small_peak = _table_run(1_000, fmt)
    rc, got, peak = _table_run(10_000, fmt)
    assert (rc, got) == (0, digest)
    assert peak < small_peak + (64 << 10)


def test_table_builds_no_witness_recipe():
    # at t = 2^20 each row's recipe would list 2^20 class sizes, a
    # transient 16 MiB; the rows need only value and case tag
    t = formulas.MAX_WITNESS_COLORS
    argv = ["table", "--t", str(t), "--s", str(t - 1), "--n-from", "2", "--n-to", "41"]
    with contextlib.redirect_stdout(_DigestWriter()):
        main(argv)  # first-use caches of argparse and re
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak < 1 << 20
    rows = [line.split() for line in out.getvalue().splitlines()[1:]]
    verdicts = {n: formulas.classify(n, t, t - 1) for n in range(2, 42)}
    assert rows == [[str(n), str(v.value), v.case_tag] for n, v in verdicts.items()]


def test_closed_stdout_ends_quietly():
    # the reader takes one line of a 200,000-row table and closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "starramsey", "table", "--t", "3", "--s", "2",
         "--n-from", "1", "--n-to", "200000"],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        rc = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.split() == [b"n", b"value", b"case"]
    assert (rc, err) == (EXIT_BROKEN_PIPE, b"")
