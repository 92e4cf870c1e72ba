"""Seeded workload inputs, the two ways of running a CLI op, and the
per-op correctness checks.

A workload is an ordered list of units.  A unit is a short chain of CLI
ops on one instance (for example construct, then verify twice); later ops
of a chain use what earlier ones produced.  Every op's output is checked
against an expectation the benchmark computes itself, untimed.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Imported lazily by load_package(), after the source tree has been checked.
formulas = None

WORKLOADS = ("certify", "lookup", "small-exact")

# A single op that runs longer than this is killed and counted as failed.
OP_TIMEOUT_S = 120.0


def load_package(root: str) -> None:
    """Make the package under ``root/src`` importable in this process."""
    global formulas
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from starramsey import formulas as _formulas
    formulas = _formulas


# --------------------------------------------------------------------------
# Running one op


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    seconds: float
    rss_kb: int = 0


class SubprocessRunner:
    """``python -m starramsey ARGV`` in a fresh interpreter, timed from launch
    to exit; peak RSS comes from the rusage that ``os.wait4`` returns."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH="src")

    def run_python(self, args: list[str]) -> Outcome:
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            fo.seek(0)
            fe.seek(0)
            out = fo.read().decode("utf-8", "replace")
            err = fe.read().decode("utf-8", "replace")
        return Outcome(proc.returncode, out, err, seconds, usage.ru_maxrss)

    def __call__(self, argv: list[str]) -> Outcome:
        return self.run_python(["-m", "starramsey", *argv])


class InProcessRunner:
    """``starramsey.cli.main(argv)`` in this process, output captured.

    ``cli.main`` is looked up on every call so that a tracer's wrapper,
    once installed on the module, is the one that runs.
    """

    def __call__(self, argv: list[str]) -> Outcome:
        from starramsey import cli
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        return Outcome(code, out.getvalue(), err.getvalue(), seconds)


# --------------------------------------------------------------------------
# Checking one op


class Refused(Exception):
    """The program declined the op with its documented failure exit."""


class Wrong(Exception):
    """The program's output contradicts what the benchmark expected."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def fields(text: str) -> dict[str, str]:
    """The CLI's ``key value`` lines as a dict (first occurrence wins)."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, value)
    return out


def color_counts(data: bytes | str) -> tuple[int, int, np.ndarray]:
    """Parse a coloring file without the package and return (p, t, counts),
    counts[v-1, c-1] = edges of color c at vertex v.

    Raises Wrong unless the file lists every edge of K_p exactly once, in
    lexicographic order, with colors in 1..t.
    """
    if isinstance(data, str):
        data = data.encode("ascii", "replace")
    body = b"\n".join(line for line in data.splitlines()
                      if line.strip() and not line.lstrip().startswith(b"#"))
    try:
        nums = np.array(body.split(), dtype=np.int64)
    except ValueError:
        raise Wrong("coloring file holds a non-integer token") from None
    expect(nums.size >= 2, "coloring file has no 'p t' header")
    p, t = int(nums[0]), int(nums[1])
    expect(p >= 1 and t >= 1, f"bad header p={p} t={t}")
    rest = nums[2:]
    edges = p * (p - 1) // 2
    expect(rest.size == 3 * edges,
           f"K_{p} needs {edges} edge lines, file holds {rest.size / 3:g}")
    uvc = rest.reshape(-1, 3)
    iu, iv = np.triu_indices(p, 1)
    expect(np.array_equal(uvc[:, 0], iu + 1) and np.array_equal(uvc[:, 1], iv + 1),
           "edges are not exactly those of K_p in lexicographic order")
    c = uvc[:, 2]
    expect(edges == 0 or (c.min() >= 1 and c.max() <= t), "color out of range 1..t")
    counts = (np.bincount(iu * t + c - 1, minlength=p * t)
              + np.bincount(iv * t + c - 1, minlength=p * t)).reshape(p, t)
    return p, t, counts


def min_star(counts: np.ndarray, n: int) -> int | None:
    """Fewest colors on an n-star: the least k whose top-k color degrees at
    some vertex reach n.  None when no vertex has degree n."""
    p = counts.shape[0]
    if p - 1 < n:
        return None
    top = np.cumsum(-np.sort(-counts, axis=1), axis=1)
    return int(((top < n).sum(axis=1) + 1).min())


# --------------------------------------------------------------------------
# Recording ops


@dataclass
class Session:
    """Runs ops through one runner and records timing, failures and output."""

    runner: Callable[[list[str]], Outcome]
    # When set, timed just before every op; its times go to ``refs``.
    reference: Callable[[], float] | None = None
    refs: list[float] = field(default_factory=list)
    # (metric, seconds, index of the reference taken just before) per completed op
    ops: list[tuple[str, float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    peak_rss_kb: int = 0
    refusals: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    transcript: list[tuple] = field(default_factory=list)

    def call(self, metric: str, argv: list[str], check: Callable[[Outcome], object]):
        """Run one op; return what ``check`` returns, or None if the op failed."""
        argv = [str(a) for a in argv]
        if self.reference is not None:
            self.refs.append(self.reference())
        outcome = self.runner(argv)
        self.attempted += 1
        self.busy_s += outcome.seconds
        self.peak_rss_kb = max(self.peak_rss_kb, outcome.rss_kb)
        written = ""
        if "--out" in argv and outcome.code == 0:
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                written = hashlib.sha256(fh.read()).hexdigest()
        self.transcript.append((tuple(argv), outcome.code, outcome.out, written))
        label = f"{metric}: {' '.join(argv)}"
        try:
            result = check(outcome)
        except Refused as exc:
            self.failed += 1
            self.refusals.append(f"{label}: {exc}")
            return None
        except Wrong as exc:
            self.failed += 1
            self.wrong.append(f"{label}: {exc}")
            return None
        self.ops.append((metric, outcome.seconds, len(self.refs) - 1))
        return result


@dataclass(frozen=True)
class Unit:
    label: str
    size: int                       # ordering key: smallest units warm up first
    commands: frozenset[str]        # the CLI commands the unit runs
    run: Callable[[Session], None]


# --------------------------------------------------------------------------
# certify: construct --out, verify (pass), verify (fail)

CERTIFY_FAMILIES = tuple((t, s) for t in range(2, 9) for s in (t - 1, t - 2) if s >= 1)
CERTIFY_LOW, CERTIFY_HIGH = 150, 805
CERTIFY_BAND = 0.02
# The odd-t, s = t-2 families fail to construct at every order in range
# (for example (95, 5, 3) and (539, 7, 5)).  They stay in the draw; they
# hold fixed rungs so that every seed puts the same number of refusals at
# the same sizes, and the op mix does not depend on the seed.
CERTIFY_FIXED_RUNGS = {(5, 3): 1, (7, 5): 12}
CERTIFY_FIXED_TAGS = {(7, 5): "matching-classes"}


def _certify_points(t: int, s: int) -> list[tuple[int, int, str]]:
    points = []
    for n in range(2, CERTIFY_HIGH * 2):
        verdict = formulas.classify(n, t, s)
        p = verdict.value - 1
        if p > CERTIFY_HIGH * (1 + CERTIFY_BAND):
            break
        if p >= CERTIFY_LOW * (1 - CERTIFY_BAND):
            points.append((n, p, verdict.witness.tag))
    return points


def certify_instances(seed: int) -> list[tuple[int, int, int, int, str]]:
    """One (n, t, s, order, tag) per family; orders follow a fixed geometric
    ladder from 150 to 805 vertices, and every reachable builder tag appears."""
    rng = random.Random(f"certify:{seed}")
    rungs = len(CERTIFY_FAMILIES)
    ladder = [CERTIFY_LOW * (CERTIFY_HIGH / CERTIFY_LOW) ** (i / (rungs - 1))
              for i in range(rungs)]
    free = [f for f in CERTIFY_FAMILIES if f not in CERTIFY_FIXED_RUNGS]
    open_rungs = [i for i in range(rungs) if i not in CERTIFY_FIXED_RUNGS.values()]
    rng.shuffle(open_rungs)
    rung_of = {**CERTIFY_FIXED_RUNGS, **dict(zip(free, open_rungs))}
    points = {f: _certify_points(*f) for f in CERTIFY_FAMILIES}
    tag_of = dict(CERTIFY_FIXED_TAGS)
    for tag in ("regular", "near-regular", "partitioned-factorization"):
        hosts = [f for f in free if f not in tag_of
                 and any(pt[2] == tag for pt in points[f])]
        if hosts:
            tag_of[rng.choice(hosts)] = tag
    out = []
    for family in CERTIFY_FAMILIES:
        target = ladder[rung_of[family]]
        # A tag the package no longer picks for this family leaves it unforced.
        cands = ([pt for pt in points[family] if pt[2] == tag_of.get(family)]
                 or points[family])
        near = [pt for pt in cands if abs(pt[1] - target) <= CERTIFY_BAND * target]
        n, p, tag = rng.choice(near) if near else min(cands, key=lambda pt: abs(pt[1] - target))
        out.append((n, *family, p, tag))
    out.sort(key=lambda inst: inst[3])
    return out


class CertificateCache:
    """Independent check results keyed by file content, so an identical
    certificate written again is not parsed again."""

    def __init__(self):
        self._by_digest: dict[str, tuple[int, int, np.ndarray]] = {}

    def counts(self, data: bytes) -> tuple[int, int, np.ndarray]:
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._by_digest:
            self._by_digest[digest] = color_counts(data)
        return self._by_digest[digest]


def check_construct(outcome: Outcome, n: int, t: int, s: int,
                    certificate: bytes, cache: CertificateCache) -> tuple[int, np.ndarray]:
    """construct: order = classify(...).value - 1 and the certificate shows
    at least s+1 colors on every n-star.  Returns (min star colors, counts)."""
    if outcome.code == 1 and "construction failed" in outcome.err:
        raise Refused(outcome.err.strip().splitlines()[-1])
    expect(outcome.code == 0, f"exit {outcome.code}: {outcome.err.strip()[-200:]}")
    order = formulas.classify(n, t, s).value - 1
    p, colors, counts = cache.counts(certificate)
    expect(p == order, f"certificate order {p}, expected classify value - 1 = {order}")
    expect(colors == t, f"certificate uses t={colors}, expected {t}")
    k = min_star(counts, n)
    expect(k is None or k >= s + 1,
           f"some {n}-star shows only {k} colors, budget {s} needs {s + 1}")
    return k, counts


def check_verify(outcome: Outcome, n: int, budget: int, k: int | None,
                 counts: np.ndarray) -> None:
    """verify: the verdict, exit code and star minimum match the independent
    check; a failing verdict names a real star on at most ``budget`` colors."""
    got = fields(outcome.out)
    should_pass = k is None or k >= budget + 1
    expect(outcome.code == (0 if should_pass else 1),
           f"exit {outcome.code}, expected {0 if should_pass else 1}")
    expect(got.get("verdict") == ("pass" if should_pass else "fail"),
           f"verdict {got.get('verdict')!r}")
    expect(got.get("min_star_colors") == ("no-star" if k is None else str(k)),
           f"min_star_colors {got.get('min_star_colors')!r}, expected {k}")
    if should_pass:
        return
    try:
        v = int(got["offending_vertex"])
        chosen = [int(c) for c in got["offending_colors"].split(",")]
        covered = int(got["covered_edges"])
    except (KeyError, ValueError):
        raise Wrong("failing verdict without a well-formed offending star") from None
    expect(1 <= v <= counts.shape[0], f"offending vertex {v} out of range")
    expect(len(chosen) <= budget, f"offending star uses {len(chosen)} > {budget} colors")
    expect(all(1 <= c <= counts.shape[1] for c in chosen), "offending color out of range")
    real = int(sum(counts[v - 1, c - 1] for c in chosen))
    expect(real == covered and covered >= n,
           f"offending star covers {real} edges, reported {covered}, needs {n}")


def certify_unit(n: int, t: int, s: int, p: int, tag: str, path: str,
                 cache: CertificateCache) -> Unit:
    def run(session: Session) -> None:
        state = {}

        def on_construct(outcome):
            data = b""
            if outcome.code == 0:
                with open(path, "rb") as fh:
                    data = fh.read()
            state["k"], state["counts"] = check_construct(outcome, n, t, s, data, cache)
            return True

        if not session.call("construct", ["construct", "--n", n, "--t", t, "--s", s,
                                          "--out", path], on_construct):
            return
        k, counts = state["k"], state["counts"]
        session.call("verify", ["verify", "--file", path, "--n", n, "--s", s],
                     lambda o: check_verify(o, n, s, k, counts))
        if k is not None:
            session.call("verify", ["verify", "--file", path, "--n", n, "--s", k],
                         lambda o: check_verify(o, n, k, k, counts))

    return Unit(f"certify({n},{t},{s}) K_{p} {tag}", p,
                frozenset({"construct", "verify"}), run)


# --------------------------------------------------------------------------
# lookup: compute, bounds, small construct to stdout

LOOKUP_UNITS = 10
LOOKUP_MAX_ORDER = 60


def _lookup_construct_space() -> list[tuple[int, int, int]]:
    space = []
    for t, s in CERTIFY_FAMILIES:
        for n in range(2, LOOKUP_MAX_ORDER + 2):
            if formulas.classify(n, t, s).value - 1 <= LOOKUP_MAX_ORDER:
                space.append((n, t, s))
    return space


def check_compute(outcome: Outcome, n: int, t: int, s: int) -> None:
    verdict = formulas.classify(n, t, s)
    got = fields(outcome.out)
    expect(outcome.code == 0, f"exit {outcome.code}")
    expect(got.get("value") == str(verdict.value),
           f"value {got.get('value')}, classify says {verdict.value}")
    expect(got.get("case") == verdict.case_tag, f"case {got.get('case')}")


def check_bounds(outcome: Outcome, n: int, t: int, l: int) -> None:
    want = formulas.general_bounds(n, t, l)
    got = fields(outcome.out)
    expect(outcome.code == 0, f"exit {outcome.code}")
    for key in ("lower", "upper", "y", "epsilon", "t_prime"):
        expect(got.get(key) == str(getattr(want, key)), f"{key} {got.get(key)}")


def check_construct_stdout(outcome: Outcome, n: int, t: int, s: int,
                           cache: CertificateCache) -> None:
    data = outcome.out.encode("ascii", "replace") if outcome.code == 0 else b""
    check_construct(outcome, n, t, s, data, cache)


def lookup_units(seed: int) -> list[Unit]:
    rng = random.Random(f"lookup:{seed}")
    space = _lookup_construct_space()
    cache = CertificateCache()
    units = []
    for i in range(LOOKUP_UNITS):
        ct = rng.randint(2, 8)
        cs = rng.choice([ct - 1, ct - 2] if ct > 2 else [1])
        cn = int(10 ** rng.uniform(0, 6))
        bt = rng.randint(3, 8)
        bl = rng.randint(1, bt // 2)
        bn = int(10 ** rng.uniform(math.log10(2), 6))
        kn, kt, ks = rng.choice(space)

        def run(session, cn=cn, ct=ct, cs=cs, bn=bn, bt=bt, bl=bl, kn=kn, kt=kt, ks=ks):
            session.call("compute", ["compute", "--n", cn, "--t", ct, "--s", cs],
                         lambda o: check_compute(o, cn, ct, cs))
            session.call("bounds", ["bounds", "--n", bn, "--t", bt, "--l", bl],
                         lambda o: check_bounds(o, bn, bt, bl))
            session.call("construct", ["construct", "--n", kn, "--t", kt, "--s", ks],
                         lambda o: check_construct_stdout(o, kn, kt, ks, cache))

        units.append(Unit(f"lookup#{i} compute({cn},{ct},{cs}) bounds({bn},{bt},{bl}) "
                          f"construct({kn},{kt},{ks})", i,
                          frozenset({"compute", "bounds", "construct"}), run))
    return units


# --------------------------------------------------------------------------
# small-exact: oracle at threads 1 and 2, sample-check at p = R

ORACLE_INSTANCES = ((4, 2, 1), (7, 2, 1), (5, 3, 1), (9, 3, 2), (6, 4, 2), (9, 4, 3))
SAMPLE_TRIALS = 8000
# One sample-check per order, so every seed samples the same sizes.
SAMPLE_ORDERS = (9, 10, 11, 12, 13, 14)


def check_oracle(outcome: Outcome, n: int, t: int, s: int) -> tuple[str, str, str]:
    want = formulas.classify(n, t, s).value
    got = fields(outcome.out)
    expect(outcome.code == 0, f"exit {outcome.code}: {outcome.err.strip()[-200:]}")
    expect(got.get("value") == str(want), f"oracle value {got.get('value')}, classify says {want}")
    stats = (got.get("nodes"), got.get("canonical_skips"), got.get("bound_prunes"))
    expect(all(x is not None and x.isdigit() for x in stats), f"missing search stats {stats}")
    return stats


def oracle_unit(n: int, t: int, s: int) -> Unit:
    R = formulas.classify(n, t, s).value
    base = ["oracle", "--n", n, "--t", t, "--s", s, "--max-p", R,
            "--edge-budget", R * (R - 1) // 2]

    def run(session):
        one = session.call("oracle", base + ["--threads", 1],
                           lambda o: check_oracle(o, n, t, s))

        def same_stats(o):
            stats = check_oracle(o, n, t, s)
            expect(one is None or stats == one,
                   f"threads 2 stats {stats} differ from threads 1 {one}")

        session.call("oracle_threads2", base + ["--threads", 2], same_stats)

    return Unit(f"oracle({n},{t},{s}) p<={R}", R, frozenset({"oracle"}), run)


def check_sample(outcome: Outcome, trials: int) -> None:
    got = fields(outcome.out)
    expect(outcome.code == 0 and got.get("verdict") == "pass",
           f"exit {outcome.code}, verdict {got.get('verdict')}")
    expect(got.get("trials") == str(trials), f"trials {got.get('trials')}")


def sample_units(seed: int) -> list[Unit]:
    rng = random.Random(f"small-exact:{seed}")
    units = []
    for p in SAMPLE_ORDERS:
        space = [(n, t, s) for t, s in CERTIFY_FAMILIES if t <= 4 for n in range(2, p)
                 if formulas.classify(n, t, s).value == p]
        n, t, s = rng.choice(space)
        sseed = rng.randrange(10 ** 6)
        argv = ["sample-check", "--n", n, "--t", t, "--s", s, "--p", p,
                "--trials", SAMPLE_TRIALS, "--seed", sseed]

        def run(session, argv=argv):
            session.call("sample_check", argv, lambda o: check_sample(o, SAMPLE_TRIALS))

        units.append(Unit(f"sample-check({n},{t},{s}) K_{p} seed {sseed}", p,
                          frozenset({"sample-check"}), run))
    return units


# --------------------------------------------------------------------------


def build(name: str, seed: int, workdir: str) -> list[Unit]:
    """The units of one pass of workload ``name`` for ``seed``."""
    if name == "certify":
        cache = CertificateCache()
        return [certify_unit(n, t, s, p, tag, os.path.join(workdir, f"cert-{i}.txt"), cache)
                for i, (n, t, s, p, tag) in enumerate(certify_instances(seed))]
    if name == "lookup":
        return lookup_units(seed)
    if name == "small-exact":
        return [oracle_unit(*inst) for inst in ORACLE_INSTANCES] + sample_units(seed)
    raise ValueError(f"unknown workload {name!r}")


def warm_up(units: list[Unit], session: Session) -> None:
    """Call each command of the workload once, untimed: for every command,
    the smallest unit that runs it."""
    todo = frozenset().union(*(u.commands for u in units))
    for unit in sorted(units, key=lambda u: u.size):
        if unit.commands & todo:
            unit.run(session)
            todo -= unit.commands
