"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE criterion-N: PASS|FAIL`` line
(visible with ``pytest -s`` or on failure) and then asserts.  Known-red
criteria are asserted as stated rather than weakened; the failing grid
points are printed in full.
"""

import time

from starramsey import (
    check_certificate,
    classify,
    cyclic_matching_coloring,
    general_bounds,
    min_star_colors,
    partitioned_factorization_coloring,
    near_regular_coloring,
    color_degree_profile,
    witness_coloring,
)
from starramsey.cli import main
from starramsey.errors import ConstructionFailedError
from starramsey.formulas import _t_minus_2_clauses
from starramsey.oracle import ramsey_value
from starramsey.verify import sample_upper_check

from .conftest import pigeonhole_order

ORACLE_INSTANCES = [
    ((2, 2, 1), 3),
    ((3, 2, 1), 6),
    ((4, 2, 1), 7),
    ((2, 3, 1), 5),
    ((3, 3, 2), 5),
    ((2, 3, 2), 3),
    ((2, 4, 2), 3),
    ((3, 4, 2), 5),
]


def _grid():
    for t in range(2, 9):
        yield t, t - 1
        if t >= 3:
            yield t, t - 2


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion-{num}: {status}{(' ' + detail) if detail else ''}")


def test_criterion_1_r2_identity(capsys):
    t0 = time.time()
    bad = []
    for n in range(2, 101):
        rc = main(["compute", "--n", str(n), "--t", "2", "--s", "1"])
        out = capsys.readouterr().out
        value = int(next(line.split()[1] for line in out.splitlines()
                         if line.startswith("value ")))
        want = 2 * n - (1 if n % 2 == 0 else 0)
        if rc != 0 or value != want:
            bad.append((n, value, want))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, f"n=2..100 via compute, {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_three_color_value(capsys):
    bad = [(n, classify(n, 3, 1).value) for n in range(2, 51)
           if classify(n, 3, 1).value != 3 * n - 1]
    with capsys.disabled():
        _report(2, not bad)
    assert not bad, bad


def test_criterion_3_oracle_agreement(capsys):
    failures = []
    slow = []
    for (n, t, s), want in ORACLE_INSTANCES:
        t0 = time.time()
        got = ramsey_value(n, t, s, p_max=want + 1).value
        elapsed = time.time() - t0
        predicted = classify(n, t, s).value
        if not (got == predicted == want):
            failures.append((n, t, s, got, predicted, want))
        if elapsed > 60:
            slow.append((n, t, s, elapsed))
    ok = not failures and not slow
    with capsys.disabled():
        _report(3, ok, f"{len(ORACLE_INSTANCES)} instances")
    assert not failures, failures
    assert not slow, slow


def test_criterion_4_witness_soundness(capsys):
    t0 = time.time()
    failures = []
    for t, s in _grid():
        for n in range(2, 41):
            value = classify(n, t, s).value
            try:
                coloring, _ = witness_coloring(n, t, s)
            except ConstructionFailedError:
                failures.append((n, t, s, value, "construction-failed"))
                continue
            if coloring.p != value - 1:
                failures.append((n, t, s, value, f"order={coloring.p}"))
                continue
            k = min_star_colors(coloring, n)
            if k is not None and k < s + 1:
                failures.append((n, t, s, value, f"min_star={k}"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120
    with capsys.disabled():
        _report(4, ok, f"{len(failures)} failing grid points, {elapsed:.1f}s")
        for f in failures:
            print(f"  criterion-4 failure: n={f[0]} t={f[1]} s={f[2]} value={f[3]} ({f[4]})")
    assert elapsed < 120, f"took {elapsed:.1f}s"
    assert not failures, f"{len(failures)} grid points have no verified certificate: {failures}"


def test_criterion_5_sandwiches_and_exclusivity(capsys):
    t0 = time.time()
    bad = []
    for n in range(2, 41):
        for t in range(2, 9):
            v1 = classify(n, t, t - 1)
            if not (v1.x <= v1.value <= v1.x + 1):
                bad.append(("cor1", n, t))
            if v1.x % 2 == 0 and v1.value != v1.x + 1:
                bad.append(("cor1-even", n, t))
            b = general_bounds(n, t, 1)
            if not (b.lower <= v1.value <= b.upper):
                bad.append(("bracket-l1", n, t))
        for t in range(4, 9):
            v2 = classify(n, t, t - 2)
            # the corollary's lower sides hold only up to the counting
            # bound, which undercuts them for some odd t
            u = pigeonhole_order(n, t, t - 2)
            if not (min(v2.x - 2, u) <= v2.value <= v2.x + 1):
                bad.append(("cor2", n, t))
            y = (t * (n - 1) - 2) // (t - 2)
            if y % 2 == 0 and not (min(v2.x - 1, u) <= v2.value <= v2.x + 1):
                bad.append(("cor2-refined", n, t, v2.value, v2.x))
            fired = [tag for tag, _, hit in
                     _t_minus_2_clauses(v2.x, t, v2.q, v2.r) if hit]
            if len(fired) > 1:
                bad.append(("exclusivity", n, t, fired))
            b = general_bounds(n, t, 2)
            if not (b.lower <= v2.value <= b.upper):
                bad.append(("bracket-l2", n, t))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 10
    with capsys.disabled():
        _report(5, ok, f"{len(bad)} violations, {elapsed:.1f}s")
        for item in bad:
            print(f"  criterion-5 violation: {item}")
    assert elapsed < 10, f"took {elapsed:.1f}s"
    assert not bad, f"{len(bad)} property violations: {bad}"


def test_criterion_6_construction_postconditions(capsys):
    t0 = time.time()
    bad = []
    for t in range(2, 7):
        for q in (2, 4):
            rows = color_degree_profile(cyclic_matching_coloring(t * q + 1, t))
            if rows != [[q] * t] * (t * q + 1):
                bad.append(("cyclic", t, q))
    for t in range(3, 41):
        for q in range(1, 41):
            for r in range(2, t):
                x = t * q + r
                if x % 2 == 0 or x > 41:
                    continue
                rows = color_degree_profile(near_regular_coloring(t, q, r))
                if any(min(row) < q for row in rows):
                    bad.append(("near-regular", t, q, r))
    import random
    rng = random.Random(8)
    for p in range(2, 41, 2):
        sizes = []
        left = p - 1
        for _ in range(2):
            cut = rng.randint(0, left)
            sizes.append(cut)
            left -= cut
        sizes.append(left)
        rows = color_degree_profile(partitioned_factorization_coloring(p, sizes))
        if rows != [sizes] * p:
            bad.append(("partition", p, sizes))
    for n in range(2, 16):
        rows = color_degree_profile(witness_coloring(n, 3, 1)[0])
        if rows != [[n - 1] * 3] * (3 * n - 2):
            bad.append(("(3, 1) witness", n))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 5
    with capsys.disabled():
        _report(6, ok, f"{elapsed:.1f}s")
    assert elapsed < 5, f"took {elapsed:.1f}s"
    assert not bad, bad


def test_criterion_7_upper_bound_sampling(capsys):
    instances = [(2, 2, 1), (3, 2, 1), (4, 2, 1), (2, 3, 1), (3, 3, 1),
                 (2, 3, 2), (3, 3, 2), (2, 4, 2), (3, 4, 2), (5, 4, 2)]
    assert len(instances) == 10
    bad = []
    for n, t, s in instances:
        value = classify(n, t, s).value
        res = sample_upper_check(value, n, t, s, trials=10_000, seed=2024)
        if not res.passed:
            bad.append(("sample", n, t, s))
        # one order below, the check must return a counterexample that is
        # a certificate
        below = sample_upper_check(value - 1, n, t, s, trials=10_000, seed=2024)
        if below.passed or not check_certificate(below.counterexample, n, s).passed:
            bad.append(("no-counterexample-below", n, t, s))
        # the construction at K_{R-1} must read as a counterexample to
        # the same predicate
        coloring, _ = witness_coloring(n, t, s)
        k = min_star_colors(coloring, n)
        if k is not None and k <= s:
            bad.append(("certificate-not-counterexample", n, t, s))
    with capsys.disabled():
        _report(7, not bad, "10 instances, pass at R and a certified counterexample at R-1")
    assert not bad, bad


def test_criterion_8_determinism_across_workers(capsys):
    bad = []
    for (n, t, s), want in ORACLE_INSTANCES:
        runs = [ramsey_value(n, t, s, p_max=want + 1, threads=w)
                for w in (1, 2, 8)]
        if len({r.value for r in runs}) != 1:
            bad.append(("value", n, t, s))
        if len({(r.stats.nodes, r.stats.canonical_skips, r.stats.bound_prunes)
                for r in runs}) != 1:
            bad.append(("stats", n, t, s))
    with capsys.disabled():
        _report(8, not bad)
    assert not bad, bad
