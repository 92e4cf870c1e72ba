#!/usr/bin/env python3
"""Benchmark of the starramsey CLI: wall time per command, end to end, on
three workloads, and a traced in-process run for the per-layer metrics.

Load is one client in a closed loop: it starts ``python -m starramsey ...``
(with PYTHONPATH=src), waits for it to exit, checks its output, and only
then starts the next op.  Each op is timed from launch to exit, interpreter
start and import included.  A run repeats whole passes over its workload's
units; it starts another pass only while that pass still fits in
``--seconds``, so every run measures the same mix of ops.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --repeat 3 --out perfbench/results/a.json
    python3 perfbench/run.py --all --trace 1 --out perfbench/results/a-trace.json
    python3 perfbench/run.py --compare perfbench/results/a.json perfbench/results/b.json
    python3 perfbench/run.py --self-test

Every op's output is checked, untimed; a wrong output counts as a failed
op and makes ``correct`` false.  A construction the package refuses (exit 1,
"construction failed") counts as failed but not as wrong.

Each workload reports the latencies of the commands it runs as median and
tail seconds (the tail is the highest of p75..p99.9 with at least ten
samples beyond it, else the median; the percentile and sample count are
recorded), and the same figures relative to a reference process ("rel",
unit "ref").  BENCHMARK.json gates on the figures every workload produces
and that stay steady from run to run: set-up time, peak child RSS, and the
geometric mean of the relative op time.

The last line of a ``--workload`` run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from workloads import InProcessRunner, Session, SubprocessRunner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 5
PROBE_REPEATS = 5
PERCENTILES = (75, 90, 95, 99, 99.9)  # tail candidates

# The reference process: interpreter start plus the numpy import, nothing
# of the package.  It runs before every op, and each op is also reported
# relative to it (unit "ref": multiples of the reference time in force).
# On a shared machine the speed of process start and first-touch memory
# drifts by tens of percent over minutes; that drift moves ops and the
# reference together, so the relative figures stay steady where the raw
# seconds do not.  The raw seconds are reported as well.
REFERENCE = ["-c", "import numpy"]

# Per-command latencies; every workload reports those its commands produce.
COMMAND_METRICS = ("compute", "bounds", "construct", "verify", "oracle", "oracle_threads2",
                   "sample_check")

# name -> (unit, better, bound).  The bound is the share of the parent's
# median by which a metric may get worse before a change counts as a
# regression; the ones in BENCHMARK.json must agree (see --self-test).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "failed_frac": ("ratio", "lower", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "op_mean_rel": ("ref", "lower", 0.20),
    "op_gmean_rel": ("ref", "lower", 0.20),
}
for _cmd in ("op",) + COMMAND_METRICS:
    END_TO_END[f"{_cmd}_p50_s"] = ("s", "lower", 0.25)
    END_TO_END[f"{_cmd}_tail_s"] = ("s", "lower", 0.25)
    END_TO_END[f"{_cmd}_p50_rel"] = ("ref", "lower", 0.20)
    END_TO_END[f"{_cmd}_tail_rel"] = ("ref", "lower", 0.25)

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MOVES = {
    "cli.interpreter_start_s": "compute_p50_s on lookup",
    "cli.import_s": "compute_p50_s on lookup",
    "formulas.classify_us": "nothing end to end (<1% of an op)",
    "formulas.general_bounds_us": "nothing end to end (<1% of an op)",
    "constructions.failed": "failed_frac on certify",
    "constructions.certified_ratio": "failed_frac on certify",
    "constructions.build_ns_per_edge": "construct_* on certify; lookup unchanged or better",
    "coloring.factorization_ns_per_edge": "construct_* on certify; lookup unchanged or better",
    "coloring.profile_ns_per_edge": "construct_* on certify; lookup unchanged or better",
    "fileio.serialize_ns_per_edge": "construct_* on certify; lookup unchanged or better",
    "verify.validate_ns_per_edge": "verify_* on certify",
    "fileio.parse_ns_per_edge": "verify_* on certify",
    "verify.check_certificate_self_ns_per_edge": "verify_* on certify",
    "fileio.bytes_per_edge": "verify_* on certify",
    "verify.min_star_ns_per_edge": "construct_* and verify_* on certify",
    "verify.sample_trials_per_s": "sample_check_* on small-exact",
    "oracle.nodes": "oracle_* and oracle_threads2_* on small-exact",
    "oracle.canonical_skips": "oracle_* and oracle_threads2_* on small-exact",
    "oracle.bound_prunes": "oracle_* and oracle_threads2_* on small-exact",
    "oracle.prune_ratio": "oracle_* and oracle_threads2_* on small-exact",
    "oracle.nodes_per_s.threads1": "oracle_* on small-exact",
    "oracle.nodes_per_s.threads2": "oracle_threads2_* on small-exact",
    "oracle.search_s": "oracle_* and oracle_threads2_* on small-exact",
}


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile of
    PERCENTILES with at least ten samples beyond it; the median when there
    are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    best = (statistics.median(ordered), 50, n // 2)
    for q in PERCENTILES:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            best = (ordered[rank - 1], q, n - rank)
    return best


def timing_metrics(prefix: str, values: list[float], suffix: str, unit: str) -> dict:
    value, pct, beyond = tail(values)
    return {
        f"{prefix}_p50_{suffix}": {"value": statistics.median(values), "unit": unit,
                                   "samples": len(values), "percentile": 50},
        f"{prefix}_tail_{suffix}": {"value": value, "unit": unit, "samples": len(values),
                                    "percentile": pct, "beyond": beyond},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# --------------------------------------------------------------------------
# Untraced run: CLI subprocesses, end-to-end metrics


def measure(name: str, seed: int, seconds: float, workdir: str) -> dict:
    runner = SubprocessRunner(ROOT, workdir)
    setups, warm_wrong = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        units = workloads.build(name, seed, workdir)
        warm = Session(runner)
        workloads.warm_up(units, warm)
        setups.append(time.perf_counter() - t0)
        warm_wrong += warm.wrong

    session = Session(runner, reference=lambda: runner.run_python(REFERENCE).seconds)
    refs = session.refs
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for unit in units:
            unit.run(session)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break

    def ref_at(i):  # the reference just before this op and its two neighbours
        return statistics.median(refs[max(0, i - 1):i + 2])

    raw, rel = {}, {}
    for metric, secs, i in session.ops:
        for key in ("op", metric):
            raw.setdefault(key, []).append(secs)
            rel.setdefault(key, []).append(secs / ref_at(i))
    completed = session.attempted - session.failed
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "samples": len(setups)},
        "ops_per_s": {"value": completed / session.busy_s, "unit": "1/s"},
        "failed_frac": {"value": session.failed / session.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": session.peak_rss_kb / 1024, "unit": "MB"},
        "ref_s": {"value": statistics.median(refs), "unit": "s", "samples": len(refs)},
        "op_mean_rel": {"value": statistics.fmean(rel["op"]), "unit": "ref",
                        "samples": len(rel["op"])},
        "op_gmean_rel": {"value": statistics.geometric_mean(rel["op"]), "unit": "ref",
                         "samples": len(rel["op"])},
    }
    for key in raw:
        metrics.update(timing_metrics(key, raw[key], "s", "s"))
        metrics.update(timing_metrics(key, rel[key], "rel", "ref"))
    return {
        "workload": name, "seed": seed, "trace": 0, "seconds": seconds,
        "passes": passes, "wall_s": time.perf_counter() - start,
        "units": [u.label for u in units],
        "attempted": session.attempted, "failed": session.failed,
        "correct": not (session.wrong or warm_wrong),
        "wrong": warm_wrong + session.wrong, "refusals": session.refusals,
        "metrics": metrics,
        "ops": session.ops,
        "refs_s": refs,
    }


# --------------------------------------------------------------------------
# Traced run: the same inputs in this process through cli.main(argv)


def probe_startup(workdir: str) -> tuple[float, float, list, list]:
    runner = SubprocessRunner(ROOT, workdir)
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(runner.run_python(["-c", "pass"]).seconds)
        out = runner.run_python(["-c", "import starramsey.cli"])
        if out.code != 0:
            raise RuntimeError(f"import probe failed: {out.err.strip()}")
        imported.append(out.seconds)
    start = statistics.median(bare)
    return start, statistics.median(imported) - start, bare, imported


def traced(name: str, seed: int, workdir: str) -> dict:
    """One pass of the workload's units and the fixed baseline rows, each run
    untraced and traced in this process.  The per-layer metrics come from
    the spans of both traced parts; every value, node count, verdict and
    output of the traced side must equal the untraced side's."""
    import tracing

    start_s, import_s, bare, imported = probe_startup(workdir)
    tracer = tracing.Tracer()

    # Untraced, traced, untraced: first-call effects fall on neither side alone.
    first_rows = tracing.baseline_rows()
    with tracing.active(tracer):
        traced_rows = tracing.baseline_rows()
    last_rows = tracing.baseline_rows()

    units = workloads.build(name, seed, workdir)
    plain = Session(InProcessRunner())
    traced_session = Session(InProcessRunner())
    spans_before = len(tracer.spans)
    for i, unit in enumerate(units):
        # Alternate which side runs a unit first, for the same reason.
        if i % 2:
            unit.run(plain)
        with tracing.active(tracer):
            unit.run(traced_session)
        if not i % 2:
            unit.run(plain)

    mismatches = []
    for (label, _, a), (_, _, b), (_, _, c) in zip(first_rows, traced_rows, last_rows):
        if not a == b == c:
            mismatches.append(f"baseline {label}: untraced {a!r}, {c!r} traced {b!r}")
    if plain.transcript != traced_session.transcript:
        for a, b in zip(plain.transcript, traced_session.transcript):
            if a != b:
                mismatches.append(f"op {' '.join(a[0])}: traced output differs")
        if len(plain.transcript) != len(traced_session.transcript):
            mismatches.append("traced run made a different number of ops")

    layers = tracing.layer_metrics(tracer.spans, start_s, import_s)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    workload_spans = tracer.spans[spans_before:]
    return {
        "workload": name, "seed": seed, "trace": 1,
        "units": [u.label for u in units],
        "attempted": traced_session.attempted, "failed": traced_session.failed,
        "correct": not (plain.wrong or traced_session.wrong or mismatches),
        "wrong": plain.wrong + traced_session.wrong + mismatches,
        "refusals": traced_session.refusals,
        "metrics": metrics,
        "probes": {"pass_s": bare, "import_s": imported},
        "baseline": [{"row": label, "untraced_s": (a + c) / 2, "traced_s": b,
                      "result": repr(summary)}
                     for (label, a, summary), (_, b, _), (_, c, _)
                     in zip(first_rows, traced_rows, last_rows)],
        "overhead": {"untraced_s": plain.busy_s, "traced_s": traced_session.busy_s,
                     "frac": traced_session.busy_s / plain.busy_s - 1},
        "spans": len(tracer.spans),
        "self_times": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(
                           tracing.self_times(workload_spans).items())},
    }


# --------------------------------------------------------------------------
# Reporting


def environment() -> dict:
    import numpy
    rev = "unknown"  # a checkout without .git has no revision to report
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "starramsey")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"git_rev": rev, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def print_run(run: dict) -> None:
    print(f"== {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"attempted {run['attempted']} failed {run['failed']} "
          f"correct {str(run['correct']).lower()}")
    for line in run["wrong"]:
        print(f"  WRONG {line}")
    for line in run["refusals"][:3]:
        print(f"  refused {line}")
    if len(run["refusals"]) > 3:
        print(f"  ... {len(run['refusals']) - 3} more refusals")
    if run["trace"]:
        print("  baseline rows (untraced s, traced s, result):")
        for row in run["baseline"]:
            print(f"    {row['row']:<40} {row['untraced_s']:8.4f} {row['traced_s']:8.4f}"
                  f"  {row['result'][:44]}")
        o = run["overhead"]
        print(f"  tracing overhead on the workload pass: {100 * o['frac']:+.1f}% "
              f"({o['untraced_s']:.3f} s untraced, {o['traced_s']:.3f} s traced, "
              f"{run['spans']} spans)")
        print("  self time per span on the workload pass (calls, total s, self s):")
        for k, v in run["self_times"].items():
            print(f"    {k:<36} {v['calls']:7d} {v['total_s']:9.4f} {v['self_s']:9.4f}")
    else:
        print(f"  passes {run['passes']}, wall {run['wall_s']:.1f} s")
    for key, m in run["metrics"].items():
        extra = ""
        if "samples" in m:
            extra = f"  n={m['samples']}"
            if "beyond" in m:
                extra += f" p{m['percentile']:g} ({m['beyond']} beyond)"
        moves = f"  -> {LAYER_MOVES[key]}" if key in LAYER_MOVES else ""
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']:<6}{extra}{moves}")


def contract_line(run: dict, spec: dict) -> str:
    kind = "per_layer" if run["trace"] else "end_to_end"
    metrics = {m["name"]: {"value": run["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in spec[kind]}
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)

    def collect(doc):
        out = {}
        for run in doc["runs"]:
            for key, m in run["metrics"].items():
                out.setdefault((run["workload"], run["trace"], key), []).append(m["value"])
        return out

    va, vb = collect(a), collect(b)
    worse_any = False
    print(f"A: {path_a} ({a['meta'].get('git_rev')})")
    print(f"B: {path_b} ({b['meta'].get('git_rev')})")
    print(f"{'workload':<12} {'metric':<42} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'delta':>8}  verdict")
    for key in sorted(set(va) & set(vb), key=lambda k: (k[1], k[0], k[2])):
        workload, trace, metric = key
        qa, qb = quartiles(va[key]), quartiles(vb[key])
        if qa[1]:
            delta = (qb[1] - qa[1]) / qa[1]
        else:
            delta = math.copysign(math.inf, qb[1] - qa[1]) if qb[1] != qa[1] else 0.0
        verdict = "-"
        if not trace and metric in END_TO_END:
            _, better, bound = END_TO_END[metric]
            worse = delta if better == "lower" else -delta
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            if worse > bound:
                verdict = f"WORSE than bound {bound:g}"
                worse_any = True
            elif spread > bound:
                verdict = f"unresolved: A spread {spread:.2f} > bound {bound:g}"
            else:
                verdict = "within bound"
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{workload:<12} {metric:<42} {fmt(qa):>32} {fmt(qb):>32} "
              f"{100 * delta:+7.1f}%  {verdict}")
    return 1 if worse_any else 0


# --------------------------------------------------------------------------
# Self-test of the checks


def self_test(workdir: str) -> int:
    """Run real units through runners that tamper with the program's output,
    and show that the checks flag exactly the tampered runs."""
    real = SubprocessRunner(ROOT, workdir)
    path = os.path.join(workdir, "cert.txt")

    def rewrite_certificate(edit):
        def tamper(argv, outcome):
            if argv[0] == "construct" and outcome.code == 0:
                with open(path, encoding="ascii") as fh:
                    lines = fh.read().splitlines()
                with open(path, "w", encoding="ascii") as fh:
                    fh.write("\n".join(edit(lines)) + "\n")
            return outcome
        return tamper

    def rewrite_stdout(edit):
        def tamper(argv, outcome):
            outcome.out = edit(argv, outcome.out)
            return outcome
        return tamper

    def one_color_at_vertex_1(lines):
        return lines[:1] + [f"{u} {v} {1 if u == '1' else c}"
                            for u, v, c in (ln.split() for ln in lines[1:])]

    def value_plus_one(argv, out):
        value = workloads.fields(out)["value"]
        return out.replace(f"value {value}\n", f"value {int(value) + 1}\n")

    def threads2_extra_node(argv, out):
        if argv[-2:] != ["--threads", "2"]:
            return out
        nodes = workloads.fields(out)["nodes"]
        return out.replace(f"nodes {nodes}\n", f"nodes {int(nodes) + 1}\n")

    n, t, s = 5, 4, 2
    p = workloads.formulas.classify(n, t, s).value - 1
    certify = lambda: workloads.certify_unit(n, t, s, p, "", path, workloads.CertificateCache())
    oracle = lambda: workloads.oracle_unit(4, 2, 1)
    cases = [
        ("certify (5, 4, 2) as written", certify, None, False),
        ("certify (5, 4, 2), every edge at vertex 1 recolored to color 1", certify,
         rewrite_certificate(one_color_at_vertex_1), True),
        ("certify (5, 4, 2), last edge line dropped", certify,
         rewrite_certificate(lambda lines: lines[:-1]), True),
        ("certify (5, 4, 2), last color out of range", certify,
         rewrite_certificate(lambda lines: lines[:-1] + [lines[-1][:-1] + str(t + 1)]), True),
        ("oracle (4, 2, 1) as printed", oracle, None, False),
        ("oracle (4, 2, 1), value off by one", oracle, rewrite_stdout(value_plus_one), True),
        ("oracle (4, 2, 1), threads 2 node count off by one", oracle,
         rewrite_stdout(threads2_extra_node), True),
    ]
    failures = 0
    for label, make_unit, tamper, should_flag in cases:
        runner = real if tamper is None else (lambda argv, tamper=tamper: tamper(argv, real(argv)))
        session = Session(runner)
        make_unit().run(session)
        ok = bool(session.wrong) == should_flag and session.attempted > 0
        failures += not ok
        why = f": {session.wrong[0].split(': ')[-1]}" if session.wrong else ""
        print(f"{'PASS' if ok else 'FAIL'} {label} -> "
              f"{'flagged' if session.wrong else 'accepted'}{why}")

    for m in load_spec()["end_to_end"]:
        ok = (m["unit"], m["better"], m["bound"]) == END_TO_END[m["name"]]
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} BENCHMARK.json {m['name']} matches the metric table")
    return 1 if failures else 0


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="with --all: runs per workload, seeds seed, seed+1, ...")
    ap.add_argument("--out", help="write the runs and their environment to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "starramsey", "cli.py")):
        print(f"error: no starramsey source tree under {ROOT}/src", file=sys.stderr)
        return 2
    if not (args.workload or args.all or args.self_test):
        ap.error("give --workload, --all, --compare or --self-test")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads.load_package(ROOT)

    # SIGTERM unwinds like an exception, so a running op is killed and
    # reaped and the scratch files are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.self_test:
            return self_test(workdir)
        if args.workload:
            plan = [(args.workload, args.seed)]
        else:
            plan = [(w, args.seed + i) for i in range(args.repeat) for w in workloads.WORKLOADS]
        meta = dict(environment(), seconds=seconds, argv=sys.argv[1:],
                    date=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
        print("env " + " ".join(f"{k}={v}" for k, v in meta.items() if k != "argv"))
        runs = []
        for name, seed in plan:
            run = (traced(name, seed, workdir) if args.trace
                   else measure(name, seed, seconds, workdir))
            print_run(run)
            runs.append(run)
        if args.out:
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"meta": meta, "runs": runs}, fh, indent=1)
            print(f"wrote {args.out}")
        if args.workload:
            print(contract_line(runs[0], spec))
            return 0
        return 0 if all(r["correct"] for r in runs) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
