import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from starramsey import (
    check_certificate,
    constructions,
    exact,
    formulas,
    read_coloring,
    serialize_coloring,
    write_coloring,
)
from starramsey import cli, oracle
from starramsey.cli import EXIT_BROKEN_PIPE, main
from starramsey.errors import ConstructionFailedError, StarRamseyError

from .conftest import all_edges, monochrome_build


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
    # the same file behind an indented comment takes the line parser, and
    # verify reports it byte for byte as the canonical file, pass and fail
    indented = tmp_path / "k7-indented.coloring"
    indented.write_text("  # K_7, indented\n" + path.read_text())
    for s in ("1", "2"):
        assert run(capsys, "verify", "--file", str(indented), "--n", "3", "--s", s) == run(
            capsys, "verify", "--file", str(path), "--n", "3", "--s", s), s


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
    # the refusal names star_upper's argument, not a paper clause, at a
    # budget compute serves and at one it refuses
    monkeypatch.setattr(constructions, "build_recipe", monochrome_build)
    for (n, t, s), recipe, argument in [
        ((9, 5, 3), "near-regular(q=2, r=3, t=5)", "pigeonhole value 14"),
        ((10, 8, 3), "partitioned-factorization(p=24, t=8)",
         "parity value 25"),
    ]:
        assert run(capsys, "construct", "--n", str(n), "--t", str(t), "--s", str(s)) == (1, "", (
            f"construction failed: recipe {recipe} for (n={n}, t={t}, s={s}) built K_16 "
            f"with an n-star on 1 <= {s} colors; the {argument} has no certificate here\n"))


def test_construct_checks_parameters_before_any_budget_rule(capsys):
    # construct serves every 1 <= s < t, so at n = 0 its error is n's;
    # compute refuses the budget first, as before.  t and s come first in both.
    budget = ("error: exact values cover s in {t-1, t-2} only, got s=1, t=5; "
              "use general_bounds for other budgets\n")
    t_error = "error: need t >= 2, got 1\n"
    s_error = "error: need 1 <= s < t, got s=5, t=5\n"
    for argv, construct_err, compute_err in [
        (("--n", "0", "--t", "5", "--s", "1"), "error: need n >= 1, got 0\n", budget),
        (("--n", "0", "--t", "1", "--s", "1"), t_error, t_error),
        (("--n", "0", "--t", "5", "--s", "5"), s_error, s_error),
    ]:
        assert run(capsys, "construct", *argv) == (2, "", construct_err), argv
        assert run(capsys, "compute", *argv) == (2, "", compute_err), argv


def test_construct_then_verify_passes_every_budget_compute_refuses(capsys, tmp_path):
    # the 1,120 points s <= t-3, t = 4..10, n = 1..40: each certificate is
    # of K_{U_par - 1}, U_par = star_upper's value, and verify passes it
    # with a least n-star of exactly s+1 colors, or none (K_24 of (10, 8, 3):
    # min_star_colors 4); the digest pins every certificate's bytes
    path = str(tmp_path / "cert.coloring")
    count, digest = 0, hashlib.sha256()
    for t in range(4, 11):
        for s in range(1, t - 2):
            for n in range(1, 41):
                params = ("--n", str(n), "--s", str(s))
                rc, out, err = run(capsys, "construct", *params, "--t", str(t), "--out", path)
                assert (rc, err, kv(out)["order"]) == (
                    0, "", str(exact.star_upper(n, t, s)[0] - 1)), (n, t, s)
                with open(path, "rb") as f:
                    digest.update(f.read())
                rc, out, err = run(capsys, "verify", "--file", path, *params)
                assert (rc, err) == (0, "") and out in (
                    f"verdict pass\nmin_star_colors {s + 1}\n",
                    "verdict pass\nmin_star_colors no-star\n"), (n, t, s)
                count += 1
    assert count == 1120
    assert digest.hexdigest() == (
        "112044864f34174ea843622ba123e933fc6776f48faaa5c9c7fbc8bdc81a060c")


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


def test_verify_refuses_a_line_parser_order_over_the_limit(capsys, tmp_path):
    # a header-only K_6000 file is not canonical, and the line parser
    # refuses its 17,997,000 edges at the package's 128 bytes per edge
    path = tmp_path / "k6000.coloring"
    path.write_text("# K_6000\n6000 3\n")
    rc, out, err = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "1")
    assert (rc, out) == (2, "")
    assert err == ("error: line 2: K_6000 has 17997000 edges, about 2196 MiB of arrays; "
                   "the limit is 2048 MiB (a file not in canonical form)\n")


def test_verify_non_ascii_file_exits_two(capsys, tmp_path):
    path = tmp_path / "accent.coloring"
    path.write_bytes(b"3 2\n1 2 1\n1 3 2\n2 3 1 \xc3\xa9\n")
    rc, out, err = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "1")
    assert (rc, out) == (2, "")
    assert err == "error: line 4: non-ASCII byte 0xc3; files are ASCII\n"
    # lines are numbered by '\n' alone, as the line parser numbers them
    path.write_bytes(b"3 2\x0c1 2 1\n1 3 2\n2 3 1 \xc3\xa9\n")
    rc, out, err = run(capsys, "verify", "--file", str(path), "--n", "2", "--s", "1")
    assert (rc, out) == (2, "")
    assert err == "error: line 3: non-ASCII byte 0xc3; files are ASCII\n"


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


def test_oracle_budget_exit(capsys, monkeypatch):
    # R(3, 2, 1) = 6, found in 14 nodes at K_5: a node budget below that
    # refuses with exit 2 and one error line, and --edge-budget is ignored
    argv = ("oracle", "--n", "3", "--t", "2", "--s", "1", "--max-p", "9")
    rc, out, _ = run(capsys, *argv, "--edge-budget", "9")
    assert (rc, kv(out)["value"], kv(out)["nodes"]) == (0, "6", "14")
    monkeypatch.setattr(oracle, "NODE_BUDGET", 13)
    assert run(capsys, *argv, "--edge-budget", "1000000000") == (
        2, "", "error: the search spent the budget of 13 nodes and left K_5 open\n")


def test_sample_check_command(capsys):
    rc, out, _ = run(capsys, "sample-check", "--n", "2", "--t", "3", "--s", "1",
                     "--p", "5", "--trials", "500", "--seed", "7")
    assert rc == 0
    assert kv(out)["verdict"] == "pass"

    rc, out, _ = run(capsys, "sample-check", "--n", "2", "--t", "3", "--s", "1",
                     "--p", "4", "--trials", "10000", "--seed", "42")
    assert rc == 1
    assert kv(out) == {"verdict": "counterexample", "trials": "10000"}


_HUGE_WITNESS_REFUSALS = {
    "9223372036854775807": "K_9223372036854775808 has 42535295865117307928310139910543638528 "
                           "edges, about 5192296858534827627967546375798784 MiB of arrays",
    "18446744073709551616": "K_18446744073709551616 has 170141183460469231722463931679029329920 "
                            "edges, about 20769187434139310512996085410037760 MiB of arrays",
}


@pytest.mark.parametrize("t", ("9223372036854775807", "18446744073709551616"))
def test_sample_check_huge_t_exits_two(capsys, t):
    # K_3 lies below R(2, t, 1), and its counterexample is cut from the
    # witness of K_{t+1} (odd t) or K_t (even t, the parity cut), which
    # check_order refuses; no t is refused for the colors it names
    rc, out, err = run(capsys, "sample-check", "--n", "2", "--t", t, "--s", "1",
                       "--p", "3", "--trials", "1", "--seed", "0")
    assert (rc, out) == (2, "")
    assert err == f"error: {_HUGE_WITNESS_REFUSALS[t]}; the limit is 2048 MiB\n"


@pytest.mark.parametrize("t, trials, seed, refused", [
    ("9223372036854775807", "3074457345618258602", "18446744073709551615", None),
    ("9223372036854775808", "1", "0", None),
    ("2", "1", "0", "need 1 <= s < t, got s=2, t=2"),
])
def test_sample_check_refuses_before_the_row_bound(capsys, t, trials, seed, refused):
    # K_4 lies past R(2, t, 2) = 3, so an accepted run passes at any t,
    # trials and seed; the refusal of s >= t (star_upper holds for s < t
    # only) still comes first
    rc, out, err = run(capsys, "sample-check", "--n", "2", "--t", t, "--s", "2",
                       "--p", "4", "--trials", trials, "--seed", seed)
    if refused is None:
        assert (rc, kv(out), err) == (0, {"verdict": "pass", "trials": trials}, "")
    else:
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and refused in err


@pytest.mark.parametrize("t", [2**20 + 1, 10**18, 2**64])
def test_compute_answers_at_any_color_count(capsys, t):
    # every witness recipe is a tag and at most three integers, so no t
    # is refused for the length of what compute prints
    for n, witness in ((2, f"partitioned-factorization(p=2, t={t})"),
                       (5, f"cyclic(p=5, t={t})")):
        rc, out, err = run(capsys, "compute", "--n", str(n), "--t", str(t), "--s", str(t - 1))
        assert (rc, err) == (0, "") and kv(out)["witness"] == witness
        assert kv(out)["value"] == str(n + 1)


@pytest.mark.parametrize("t", [2**20 + 1, 10**18, 2**64])
def test_table_answers_at_any_color_count(capsys, t):
    rc, out, err = run(capsys, "table", "--t", str(t), "--s", str(t - 1), "--n-from", "1",
                       "--n-to", "3", "--format", "csv")
    assert (rc, out, err) == (0, "n,value,case\n1,2,trivial\n2,3,xp1.even-x\n"
                                 "3,4,xp1.remainder\n", "")


def test_construct_past_int64_colors_at_n_below_the_budget(capsys, tmp_path):
    # at n <= s the certificate is K_n.  Odd n takes the cyclic coloring,
    # whose colors stay at most (n-1)/2, and even n the factorization,
    # whose colors stay at most n-1; the header keeps t, which verify reads
    t = str(2**64)
    for n, witness, body in (
            (3, f"cyclic(p=3, t={t})", "1 2 1\n1 3 1\n2 3 1\n"),
            (2, f"partitioned-factorization(p=2, t={t})", "1 2 1\n")):
        path = str(tmp_path / f"k{n}.coloring")
        rc, out, err = run(capsys, "construct", "--n", str(n), "--t", t, "--s", str(2**64 - 1),
                           "--out", path)
        assert (rc, err, kv(out)["witness"]) == (0, "", witness)
        with open(path, encoding="ascii") as f:
            assert f.read() == f"{n} {t}\n{body}"
        assert run(capsys, "verify", "--file", path, "--n", str(n), "--s", str(2**64 - 1)) == (
            0, "verdict pass\nmin_star_colors no-star\n", "")


def test_construct_wide_palette_k2_stays_small(capsys):
    # K_2 at t = 10^18 is one edge of color 1, whatever the palette's width
    argv = ["construct", "--n", "2", "--t", str(10**18), "--s", str(10**18 - 1)]
    run(capsys, *argv)  # first-use imports and caches
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out, err) == (0, f"2 {10**18}\n1 2 1\n", "")
    assert peak < 1 << 20


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


# Per command, the modules that must stay unloaded after it runs.  No
# command in the plain form imports __future__, argparse or cliparser (the
# argparse fallback), nor array, which only an int64 store needs.
_NEVER = ("__future__", "argparse", "starramsey.cliparser", "array", "numpy")
NOT_LOADED = {
    "compute": (*_NEVER, "dataclasses", "starramsey.oracle"),
    "bounds": (*_NEVER, "dataclasses", "starramsey.oracle", "starramsey.exact"),
    "table": (*_NEVER, "dataclasses", "starramsey.oracle"),
    "oracle": (*_NEVER, "dataclasses", "starramsey.formulas", "starramsey.coloring",
               "starramsey.verify", "starramsey.constructions", "starramsey.fileio",
               "starramsey.exact"),
    "verify": (*_NEVER, "starramsey.formulas", "starramsey.oracle", "starramsey.lineparser",
               "starramsey.exact"),
    "sample-check": (*_NEVER, "starramsey.formulas", "starramsey.oracle",
                     "starramsey.constructions"),
    "construct": (*_NEVER, "starramsey.oracle", "starramsey.formulas",
                  "starramsey.lineparser", "starramsey.bulkparser"),
}
# sample-check passes by star_upper and never loads the oracle, also at
# K_13 for (10, 4, 3), which the parity cut settles
PARITY_PROBE = ("sample-check", "--n", "10", "--t", "4", "--s", "3", "--p", "13",
                "--trials", "8000", "--seed", "1")
# verify reads a canonical file with the bulk parser
CANONICAL_PROBE = ("verify", "--file", "{file}", "--n", "3", "--s", "1")
# verify loads the line parser only for a file the bulk path declines, such
# as the K_7 file behind an indented comment
LINES_PROBE = ("verify", "--file", "{indented}", "--n", "3", "--s", "1")
# sample-check builds the witness only below R, as README's K_4 at (2, 3, 1),
# which exits 1 with a counterexample
COUNTEREXAMPLE_PROBE = ("sample-check", "--n", "2", "--t", "3", "--s", "1", "--p", "4",
                        "--trials", "10000", "--seed", "42")
# the K_300 witness of (2, 300, 1) has colors past 255, an int64 store
WIDE_PROBE = ("construct", "--n", "2", "--t", "300", "--s", "1")
# help is not the plain form, so argparse prints it
HELP_PROBE = ("--help",)
# The probes that must load a module their command otherwise leaves alone,
# so that each check is seen to find what a command loads.
LOADED = {CANONICAL_PROBE: ("starramsey.bulkparser",),
          LINES_PROBE: ("starramsey.lineparser",),
          COUNTEREXAMPLE_PROBE: ("starramsey.constructions",),
          WIDE_PROBE: ("array",),
          HELP_PROBE: ("argparse", "starramsey.cliparser")}
PROBES = [
    ("compute", "--n", "4", "--t", "2", "--s", "1"),
    ("oracle", "--n", "2", "--t", "3", "--s", "1", "--max-p", "6"),
    ("bounds", "--n", "5", "--t", "4", "--l", "2"),
    ("table", "--t", "3", "--s", "1", "--n-from", "2", "--n-to", "40"),
    CANONICAL_PROBE,
    ("sample-check", "--n", "2", "--t", "3", "--s", "1", "--p", "5",
     "--trials", "500", "--seed", "7"),
    ("construct", "--n", "3", "--t", "3", "--s", "1", "--out", "{file}"),
    ("construct", "--n", "3", "--t", "3", "--s", "1"),
    PARITY_PROBE,
    LINES_PROBE,
    COUNTEREXAMPLE_PROBE,
    WIDE_PROBE,
    HELP_PROBE,
]


def _probe_argv(argv, tmp_path):
    """``argv`` with ``{file}`` and ``{indented}`` replaced by a K_7
    certificate and the same file behind an indented comment."""
    path, indented = tmp_path / "k7.coloring", tmp_path / "k7-indented.coloring"
    write_coloring(str(path), constructions.witness_coloring(3, 3, 1)[0])
    indented.write_text("  # K_7, indented\n" + path.read_text())
    return [arg.replace("{file}", str(path)).replace("{indented}", str(indented))
            for arg in argv]


@pytest.mark.parametrize("argv", PROBES)
def test_numpy_free_commands_do_not_import_numpy(argv, tmp_path):
    # Each command loads only the modules it runs, on the same start-up
    # path as `python -m starramsey`: package, then cli.  No command loads
    # numpy: compute, bounds, table and oracle load no dataclasses either,
    # and construct (to a file or to stdout), verify and sample-check work
    # on bytes.  A module counts as loaded when importing the package and
    # running the command added it to sys.modules, so a module that site
    # preloads on some interpreter fails no check and stays on the lists.
    watched = sorted({name for names in (*NOT_LOADED.values(), *LOADED.values())
                      for name in names})
    code = ("import sys\n"
            "preloaded = set(sys.modules)\n"
            "from starramsey.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            f"print(rc, *[m for m in {watched!r} if m in sys.modules.keys() - preloaded])\n")
    probe = tuple(argv)
    proc = subprocess.run([sys.executable, "-c", code, *_probe_argv(argv, tmp_path)],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    rc, *loaded = proc.stdout.splitlines()[-1].split()
    assert rc == ("1" if probe == COUNTEREXAMPLE_PROBE else "0"), (argv, proc.stderr)
    must_load = set(LOADED.get(probe, ()))
    not_loaded = set(NOT_LOADED.get(argv[0], ())) - must_load
    assert not set(loaded) & not_loaded, (argv, loaded)
    assert must_load <= set(loaded), (argv, loaded)


@pytest.mark.parametrize("argv", [probe for probe in PROBES if probe != HELP_PROBE])
def test_plain_launches_without_site_load_no_typing(argv, tmp_path):
    # The probe above looks after site has run, and site may preload
    # typing, re and enum (a .pth file that imports them).  Under
    # `python -S -m starramsey` every module the launch loads shows in
    # -v's "import 'name'" lines, and no launch in the plain form loads
    # typing, re or enum.  runpy loads contextlib under -m, so it is not
    # checked; --help is left out, since argparse imports re.
    proc = subprocess.run([sys.executable, "-S", "-v", "-m", "starramsey",
                           *_probe_argv(argv, tmp_path)], env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=60)
    assert proc.returncode == (1 if tuple(argv) == COUNTEREXAMPLE_PROBE else 0), (argv, proc.stderr)
    loaded = set(re.findall(r"^import '([\w.]+)' ", proc.stderr, re.M))
    assert "starramsey.cli" in loaded, argv
    assert not loaded & {"typing", "re", "enum"}, (argv, loaded)


def test_oracle_default_edge_budget(capsys):
    # no edge or color cap: the node budget alone bounds the search, so
    # the K_13 witness of (5, 3, 1) and the K_58 one of (30, 2, 1), past
    # any recursion limit, are in reach with the default flags
    assert run(capsys, "oracle", "--n", "5", "--t", "3", "--s", "1", "--max-p", "20") == (
        0, "value 14\nnodes 114\ncanonical_skips 3\nbound_prunes 30\n", "")
    assert run(capsys, "oracle", "--n", "30", "--t", "2", "--s", "1", "--max-p", "60",
               "--edge-budget", "5000") == (
        0, "value 59\nnodes 1653\ncanonical_skips 1\nbound_prunes 1\n", "")
    # K_9 has a witness for (6, 2, 1), whose R is 11
    assert run(capsys, "oracle", "--n", "6", "--t", "2", "--s", "1", "--max-p", "9")[:2] == (
        0, "value exceeds_p_max=9\nnodes 36\ncanonical_skips 1\nbound_prunes 0\n")


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
    _table_run(100, fmt)  # first-use imports and caches
    _, _, small_peak = _table_run(1_000, fmt)
    rc, got, peak = _table_run(10_000, fmt)
    assert (rc, got) == (0, digest)
    assert peak < small_peak + (64 << 10)


def test_compute_output_is_pinned_over_grid():
    # 30,800 compute runs, t = 2..40, s = t-1 then t-2 (s >= 1),
    # n = 1..400: value, case, x, q, r and witness, byte for byte
    writer, runs = _DigestWriter(), 0
    with contextlib.redirect_stdout(writer):
        for t in range(2, 41):
            for s in (t - 1, t - 2):
                for n in range(1, 401) if s >= 1 else ():
                    assert main(["compute", "--n", str(n), "--t", str(t), "--s", str(s)]) == 0
                    runs += 1
    assert runs == 30_800
    assert writer.digest.hexdigest() == (
        "6cc6cb31d7849e3fedda61e2f5549ad3b3589973c9f0e2c9a4a7318c74bcc915")


def test_table_builds_no_witness_recipe():
    # at t = 2^20 a recipe that listed 2^20 class sizes made a transient
    # 16 MiB per row; each row's recipe is now a tag and two integers
    t = 2**20
    argv = ["table", "--t", str(t), "--s", str(t - 1), "--n-from", "2", "--n-to", "41"]
    with contextlib.redirect_stdout(_DigestWriter()):
        main(argv)  # first-use imports and caches
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


ROOT = Path(__file__).resolve().parents[1]


def _launch(*argv, stdout=subprocess.PIPE):
    """``python -m starramsey ARGV`` with stderr (and by default stdout)
    as pipes, block-buffered (no PYTHONUNBUFFERED), so the launcher's own
    flush writes them."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    env["COLUMNS"] = "80"
    return subprocess.run([sys.executable, "-m", "starramsey", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=60)


@pytest.mark.parametrize("unbuffered", [False, True], ids=("buffered", "unbuffered"))
def test_construct_into_a_closed_pipe_exits_141(unbuffered):
    # the reader takes 10 bytes of the 2.4 MB K_802 certificate and closes
    # the pipe: unbuffered, stdout's raw write stops short there, and the
    # rest of the write must still meet the closed pipe
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "starramsey", "construct", "--n", "268", "--t", "3", "--s", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.read(10)
        proc.stdout.close()
        rc = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b"802 3\n1 2 "
    assert (rc, err) == (EXIT_BROKEN_PIPE, b"")


def test_launcher_writes_all_of_stdout():
    # 2.4 MB of K_802 certificate, still in stdout's buffer when main returns
    proc = _launch("construct", "--n", "268", "--t", "3", "--s", "1")
    expected = serialize_coloring(constructions.witness_coloring(268, 3, 1)[0])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected.encode()


def test_launcher_prints_the_pinned_help():
    pins = json.loads(ROOT.joinpath("tests", "cli_pins.json").read_text(encoding="utf-8"))
    version = "%d.%d" % sys.version_info[:2]
    if version not in pins:
        pytest.skip(f"no pins recorded for Python {version}")
    proc = _launch("--help")
    assert [proc.returncode, proc.stdout.decode(), proc.stderr.decode()] == pins[version]["help"]


# Each command's whole stdout, stderr and exit code, byte for byte and in
# line order.  "{file}" stands for a K_7 certificate of (3, 3, 1), which
# the construct --out case writes again in place.
PINNED = [
    (("compute", "--n", "1", "--t", "2", "--s", "1"), 0,
     "value 2\ncase trivial\nwitness cyclic(p=1, t=2)\n", ""),
    (("compute", "--n", "5", "--t", "4", "--s", "2"), 0,
     "value 10\ncase xp1.c\nx 9\nq 1\nr 3\nwitness cyclic(p=9, t=4)\n", ""),
    (("compute", "--n", "3", "--t", "4", "--s", "1"), 2, "",
     "error: exact values cover s in {t-1, t-2} only, got s=1, t=4; "
     "use general_bounds for other budgets\n"),
    (("bounds", "--n", "5", "--t", "4", "--l", "2"), 0,
     "lower 7\nupper 10\ny 7\nepsilon 1\nt_prime 2\n", ""),
    (("bounds", "--n", "2", "--t", "100", "--l", "50"), 0,
     "lower -95\nupper 4\ny -95\nepsilon 1\nt_prime 2\n", ""),
    (("bounds", "--n", "1", "--t", "4", "--l", "2"), 2, "", "error: need n >= 2, got 1\n"),
    (("construct", "--n", "3", "--t", "3", "--s", "1", "--out", "{file}"), 0,
     "order 7\ncolors 3\nwitness cyclic(p=7, t=3)\nout {file}\n", ""),
    (("construct", "--n", "2", "--t", "2", "--s", "1"), 0, "2 2\n1 2 1\n", ""),
    # s = t-4: a budget compute refuses, K_6 of 15 edges
    (("construct", "--n", "2", "--t", "5", "--s", "1"), 0,
     "6 5\n1 2 4\n1 3 2\n1 4 5\n1 5 3\n1 6 1\n2 3 5\n2 4 3\n2 5 1\n2 6 2\n3 4 1\n"
     "3 5 4\n3 6 3\n4 5 2\n4 6 4\n5 6 5\n", ""),
    (("verify", "--file", "{file}", "--n", "3", "--s", "1"), 0,
     "verdict pass\nmin_star_colors 2\n", ""),
    (("verify", "--file", "{file}", "--n", "3", "--s", "2"), 1,
     "verdict fail\nmin_star_colors 2\noffending_vertex 1\noffending_colors 1,2\n"
     "covered_edges 4\n", ""),
    (("verify", "--file", "{file}", "--n", "3", "--s", "0"), 2, "",
     "error: color budget must be >= 1, got 0\n"),
    (("verify", "--file", "{file}.missing", "--n", "3", "--s", "1"), 2, "",
     "error: [Errno 2] No such file or directory: '{file}.missing'\n"),
    (("oracle", "--n", "3", "--t", "2", "--s", "1", "--max-p", "4"), 0,
     "value exceeds_p_max=4\nnodes 6\ncanonical_skips 1\nbound_prunes 0\n", ""),
    (("oracle", "--n", "3", "--t", "4", "--s", "2", "--max-p", "6", "--threads", "2"), 0,
     "value 5\nnodes 6\ncanonical_skips 6\nbound_prunes 1\n", ""),
    (("table", "--t", "2", "--s", "1", "--n-from", "2", "--n-to", "4"), 0,
     "   n value  case\n   2     3  x.odd-q\n   3     6  xp1.even-q\n   4     7  x.odd-q\n", ""),
    (("sample-check", "--n", "2", "--t", "3", "--s", "1", "--p", "5",
      "--trials", "500", "--seed", "7"), 0, "verdict pass\ntrials 500\n", ""),
    (("sample-check", "--n", "2", "--t", "3", "--s", "1", "--p", "4",
      "--trials", "10000", "--seed", "42"), 1,
     "verdict counterexample\ntrials 10000\n", ""),
    (("sample-check", "--n", "2", "--t", "3", "--s", "1", "--p", "0",
      "--trials", "10", "--seed", "1"), 2, "", "error: p, n, t, s, trials must all be >= 1\n"),
    # K_2 lies below R = 3, and its counterexample colors its edge 1 at any t
    (("sample-check", "--n", "2", "--t", "18446744073709551616", "--s", "18446744073709551615",
      "--p", "2", "--trials", "1", "--seed", "0"), 1,
     "verdict counterexample\ntrials 1\n", ""),
]


def _pinned(path):
    """PINNED with "{file}" read as ``path``."""
    return [(tuple(arg.replace("{file}", path) for arg in argv), code,
             out.replace("{file}", path), err.replace("{file}", path))
            for argv, code, out, err in PINNED]


@pytest.mark.parametrize("case", range(len(PINNED)),
                         ids=["-".join(arg.lstrip("-") for arg in argv) for argv, *_ in PINNED])
def test_command_output_is_pinned(capsys, tmp_path, case):
    path = str(tmp_path / "k7.coloring")
    write_coloring(path, constructions.witness_coloring(3, 3, 1)[0])
    argv, code, out, err = _pinned(path)[case]
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("cls", [*StarRamseyError.__subclasses__(), OSError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(capsys, monkeypatch, cls):
    # a failed construction exits 1; every other package error and every
    # OSError exits 2, so a new error class exits 2 too
    def handler(args):
        raise cls("boom")

    monkeypatch.setitem(cli.COMMANDS, "compute", (handler, *cli.COMMANDS["compute"][1:]))
    expected = ((1, "", "construction failed: boom\n") if cls is ConstructionFailedError
                else (2, "", "error: boom\n"))
    assert run(capsys, "compute", "--n", "4", "--t", "2", "--s", "1") == expected


def test_other_errors_escape_main(monkeypatch):
    def handler(args):
        raise ValueError("boom")

    monkeypatch.setitem(cli.COMMANDS, "compute", (handler, *cli.COMMANDS["compute"][1:]))
    with pytest.raises(ValueError, match="boom"):
        main(["compute", "--n", "4", "--t", "2", "--s", "1"])


def test_launcher_exit_codes(capsys, tmp_path):
    # each launch prints what main prints in-process, and exits with its code
    path = str(tmp_path / "k7.coloring")
    for argv, code in [
        *((argv, code) for argv, code, _, _ in _pinned(path)),
        (("construct", "--n", "3", "--t", "3", "--s", "1", "--out", path), 0),
        (("verify", "--file", path, "--n", "3", "--s", "1"), 0),
        (("verify", "--file", path, "--n", "3", "--s", "2"), 1),
        (("compute", "--n", "3", "--t", "4", "--s", "1"), 2),
    ]:
        proc = _launch(*argv)
        rc, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) \
            == (rc, out, err) and rc == code, argv
    assert err.startswith("error: ")


@pytest.mark.parametrize("exc, status, last", [
    ("RuntimeError('escaped main')", 1, "RuntimeError: escaped main"),
    ("KeyboardInterrupt", -signal.SIGINT, "KeyboardInterrupt"),
])
def test_exception_escaping_main_keeps_its_traceback(exc, status, last):
    code = ("from starramsey import cli\n"
            "def main(argv=None):\n"
            f"    raise {exc}\n"
            "cli.main = main\n"
            "cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == status
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith(f"\n{last}\n")


def test_installed_command_shares_the_launcher():
    # read as text: Python 3.10 has no tomllib
    text = ROOT.joinpath("pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    name = re.fullmatch(r'starramsey = "starramsey\.cli:(\w+)"\s*', scripts).group(1)
    code = ("import runpy\n"
            "from starramsey import cli\n"
            f"cli.{name} = lambda: print('launcher')\n"
            "runpy.run_module('starramsey', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "launcher\n", "")


# fd 1 closed, then the launcher started in its place: sys.stdout is None
_NO_STDOUT = ("import os, sys\n"
              "os.close(1)\n"
              "os.execv(sys.executable, [sys.executable, '-m', 'starramsey', *sys.argv[1:]])\n")


@pytest.mark.parametrize("argv, status, err", [
    (("compute", "--n", "4", "--t", "2", "--s", "1"), EXIT_BROKEN_PIPE, ""),
    (("construct", "--n", "3", "--t", "3", "--s", "1"), EXIT_BROKEN_PIPE, ""),
    (("compute", "--n", "3", "--t", "4", "--s", "1"), 2, "error: exact values cover"),
])
def test_missing_stdout_counts_as_a_closed_pipe(argv, status, err):
    # a command whose output is lost exits 141 quietly; a usage error
    # printed nothing to stdout and keeps its exit 2
    proc = subprocess.run([sys.executable, "-c", _NO_STDOUT, *argv], env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode == status
    assert proc.stderr.startswith(err) and bool(proc.stderr) == bool(err)


# A launcher whose construction fails its certificate check
_FAILED_CONSTRUCTION = ("from starramsey import cli, constructions\n"
                        "from starramsey.errors import ConstructionFailedError\n"
                        "def witness_coloring(n, t, s):\n"
                        "    raise ConstructionFailedError('refused')\n"
                        "constructions.witness_coloring = witness_coloring\n"
                        "cli.run()\n")
# fd 2 closed, then python started in its place on the same arguments:
# sys.stderr is None
_NO_STDERR = ("import os, sys\n"
              "os.close(2)\n"
              "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])\n")
# (python arguments, exit code) of a launch that fails
_FAILING_LAUNCHES = [
    (("-m", "starramsey", "compute", "--n", "3", "--t", "4", "--s", "1"), 2),
    (("-m", "starramsey", "verify", "--file", "missing.coloring", "--n", "3", "--s", "1"), 2),
    (("-c", _FAILED_CONSTRUCTION, "construct", "--n", "3", "--t", "3", "--s", "1"), 1),
]
_FAILING_IDS = ("usage", "missing-file", "failed-construction")


def _buffering_env(unbuffered):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("args, status", _FAILING_LAUNCHES, ids=_FAILING_IDS)
def test_closed_stderr_pipe_keeps_the_exit_code(args, status, unbuffered, tmp_path):
    # the reader of stderr is gone, so the error line is lost; the exit
    # code is not (it was 1 unbuffered and 120 buffered for exit 2)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *args], env=_buffering_env(unbuffered),
                              cwd=tmp_path, stdout=subprocess.PIPE, stderr=write, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (status, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("args, status", _FAILING_LAUNCHES, ids=_FAILING_IDS)
def test_missing_stderr_keeps_stdout_clean(args, status, unbuffered, tmp_path):
    # the error line has nowhere to go: it must not land on stdout
    proc = subprocess.run([sys.executable, "-c", _NO_STDERR, *args],
                          env=_buffering_env(unbuffered), cwd=tmp_path,
                          stdout=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stdout) == (status, b"")


_ARGPARSE_ERRORS = [("compute", "--n", "x", "--t", "2", "--s", "1"), ("compute", "--bogus"),
                    ("nosuch",)]
_ARGPARSE_ERROR_IDS = ("bad-value", "unknown-flag", "unknown-command")


@pytest.mark.parametrize("argv, status", [
    *((argv, 2) for argv in _ARGPARSE_ERRORS),
    (("compute", "-h"), 0),
], ids=(*_ARGPARSE_ERROR_IDS, "help"))
def test_argparse_with_missing_stderr_keeps_usage_off_stdout(argv, status, tmp_path):
    # argparse's print_usage takes a missing stderr for stdout, so a usage
    # error printed its usage there (and exited 1 on 3.10 and 3.11.2);
    # help still goes to stdout
    proc = subprocess.run([sys.executable, "-c", _NO_STDERR, "-m", "starramsey", *argv],
                          env=_child_env(), cwd=tmp_path, stdout=subprocess.PIPE, timeout=60)
    assert proc.returncode == status
    if status:
        assert proc.stdout == b""
    else:
        assert proc.stdout.startswith(b"usage: starramsey compute")


@pytest.mark.parametrize("unbuffered", [False, True], ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", _ARGPARSE_ERRORS, ids=_ARGPARSE_ERROR_IDS)
def test_argparse_usage_error_into_a_closed_stderr_pipe_exits_two(argv, unbuffered):
    # on 3.10 and 3.11.2, argparse's own write raised BrokenPipeError (exit
    # 120 buffered, 1 unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "starramsey", *argv],
                              env=_buffering_env(unbuffered), stdout=subprocess.PIPE,
                              stderr=write, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_help_into_a_closed_pipe_ends_quietly():
    # argparse's help is still in stdout's buffer when main returns, so
    # the launcher's flush meets the closed pipe (teardown printed
    # "Exception ignored ... BrokenPipeError" and exited 120)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _launch("--help", stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")
