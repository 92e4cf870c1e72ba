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
    read_coloring,
    write_coloring,
)
from starramsey.cli import main

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
    rc, _, err = run(capsys, "oracle", "--n", "3", "--t", "2", "--s", "1",
                     "--max-p", "9", "--edge-budget", "10")
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
    assert fields["trial"] == "138"


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


@pytest.mark.parametrize("argv", [
    ("compute", "--n", "4", "--t", "2", "--s", "1"),
    ("oracle", "--n", "2", "--t", "3", "--s", "1", "--max-p", "6"),
])
def test_numpy_free_commands_do_not_import_numpy(argv):
    # the same start-up path as `python -m starramsey`: package, then cli
    code = ("import sys\n"
            "from starramsey.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('numpy loaded' if 'numpy' in sys.modules else 'numpy absent', rc)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "numpy absent 0"
