import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starramsey import (
    EdgeColoring,
    SampleCheckResult,
    check_certificate,
    constructions,
    cyclic_matching_coloring,
    min_star_colors,
    oracle,
    sample_upper_check,
    validate,
    witness_coloring,
)
from starramsey.coloring import edge_count
from starramsey.errors import InvalidParameterError
from starramsey.exact import star_upper
from starramsey.verify import star_minima

from .conftest import (
    all_edges,
    brute_min_star,
    brute_star_at,
    colorings,
    one_factorization,
    star_minima_reference,
)


def _mono(p, t=2, color=1):
    return EdgeColoring(p, t, {e: color for e in all_edges(p)})


def _proper_k4():
    rounds = one_factorization(4)
    return EdgeColoring(4, 3, {e: c for c, r in enumerate(rounds, 1) for e in r})


def test_validate_accepts_complete_coloring():
    assert validate(_mono(4)) == []


def test_validate_reports_missing_edge():
    # an edge set is checked where the coloring is built, so no coloring
    # that validate sees lacks an edge
    colors = {e: 1 for e in all_edges(4)}
    del colors[(1, 3)]
    with pytest.raises(InvalidParameterError) as refused:
        EdgeColoring(4, 2, colors)
    assert str(refused.value) == "invalid coloring: missing edge (1, 3)"


def test_validate_reports_out_of_range_color():
    colors = {e: 1 for e in all_edges(4)}
    colors[(1, 2)] = 5
    defects = validate(EdgeColoring(4, 4, colors))
    assert any("out of range" in d for d in defects)


def test_validate_reports_unexpected_edge():
    # refused where the coloring is built, as a missing edge is
    colors = {e: 1 for e in all_edges(3)}
    colors[(2, 7)] = 1
    with pytest.raises(InvalidParameterError) as refused:
        EdgeColoring(3, 2, colors)
    assert str(refused.value) == "invalid coloring: unexpected edge (2, 7)"


def test_mapping_names_keys_of_any_type_in_mapping_order():
    # keys that do not compare with one another are named as given, unsorted
    colors = {(1, 2): 1, (1, 3): 1, (2, 3): 1, "x": 1, (5, 6): 1}
    with pytest.raises(InvalidParameterError) as refused:
        EdgeColoring(3, 2, colors)
    assert str(refused.value) == "invalid coloring: unexpected edge 'x'; unexpected edge (5, 6)"


def test_min_star_examples():
    assert min_star_colors(_mono(5), 3) == 1
    assert min_star_colors(_proper_k4(), 3) == 3
    assert min_star_colors(cyclic_matching_coloring(5, 2), 3) == 2
    assert min_star_colors(_mono(3), 3) is None


@given(st.integers(1, 6).flatmap(lambda t: st.lists(
    st.lists(st.integers(0, 30), min_size=t, max_size=t), min_size=1, max_size=6)),
    st.integers(1, 200))
def test_star_minima_matches_sorted_prefix_reference(rows, n):
    assert star_minima(rows, n) == star_minima_reference(np.array(rows), n).tolist()


def test_min_star_rejects_bad_n():
    with pytest.raises(InvalidParameterError):
        min_star_colors(_mono(4), 0)


@given(colorings(min_p=2, max_p=6), st.integers(1, 5))
@settings(max_examples=150)
def test_min_star_matches_brute_force(coloring, n):
    assert min_star_colors(coloring, n) == brute_min_star(coloring, n)


@given(colorings(min_p=3, max_p=8, min_t=2), st.data())
def test_min_star_color_permutation_invariant(coloring, data):
    n = data.draw(st.integers(1, coloring.p - 1))
    perm = data.draw(st.permutations(range(1, coloring.t + 1)))
    relabeled = EdgeColoring(
        coloring.p, coloring.t,
        {e: perm[c - 1] for e, c in coloring.colors.items()},
    )
    assert min_star_colors(coloring, n) == min_star_colors(relabeled, n)


@given(colorings(min_p=3, max_p=8), st.data())
def test_min_star_vertex_permutation_invariant(coloring, data):
    n = data.draw(st.integers(1, coloring.p - 1))
    perm = data.draw(st.permutations(range(1, coloring.p + 1)))
    mapped = {}
    for (u, v), c in coloring.colors.items():
        a, b = perm[u - 1], perm[v - 1]
        mapped[(a, b) if a < b else (b, a)] = c
    relabeled = EdgeColoring(coloring.p, coloring.t, mapped)
    assert min_star_colors(coloring, n) == min_star_colors(relabeled, n)


@given(colorings(min_p=3, max_p=8))
def test_min_star_monotone_in_n(coloring):
    values = [min_star_colors(coloring, n) for n in range(1, coloring.p)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= min(coloring.t, coloring.p - 1) for v in values)


def test_check_certificate_examples():
    cert = check_certificate(cyclic_matching_coloring(7, 3), 3, 1)
    assert cert.passed and cert.min_colors == 2

    cert = check_certificate(_mono(7), 3, 1)
    assert not cert.passed
    assert cert.offending_vertex == 1
    assert cert.offending_colors == (1,)
    assert cert.covered_edges >= 3

    cert = check_certificate(cyclic_matching_coloring(9, 4), 5, 2)
    assert cert.passed and cert.min_colors == 3


@given(colorings(min_p=2, max_p=7), st.data())
@settings(max_examples=150)
def test_failing_certificate_names_smallest_offending_star(coloring, data):
    n = data.draw(st.integers(1, coloring.p - 1))
    k = brute_min_star(coloring, n)
    s = data.draw(st.integers(k, coloring.t))  # fails exactly when k <= s
    cert = check_certificate(coloring, n, s)
    assert not cert.passed and cert.min_colors == k

    at = {v: brute_star_at(coloring, v, n) for v in range(1, coloring.p + 1)}
    v = min(u for u, kv in at.items() if kv <= s)
    assert cert.offending_vertex == v
    assert len(cert.offending_colors) == at[v] <= s

    degree = Counter(c for e, c in coloring.colors.items() if v in e)
    assert cert.covered_edges == sum(degree[c] for c in cert.offending_colors)
    assert cert.covered_edges >= n
    ranked = sorted(range(1, coloring.t + 1), key=lambda c: (-degree[c], c))
    assert cert.offending_colors == tuple(ranked[:at[v]])


def test_check_certificate_no_star_passes():
    cert = check_certificate(_mono(3), 3, 1)
    assert cert.passed and cert.min_colors is None


def test_check_certificate_rejects_invalid():
    colors = {e: 1 for e in all_edges(4)}
    del colors[(1, 2)]
    with pytest.raises(InvalidParameterError):
        check_certificate(EdgeColoring(4, 2, colors), 2, 1)
    with pytest.raises(InvalidParameterError, match="^color budget must be >= 1, got 0$"):
        check_certificate(_mono(3), 3, 0)


def test_color_table_over_the_limit_is_refused():
    # K_600 with every edge its own color: even counted over the colors
    # that occur, the 600 x 179,700 table and its sort temporaries need
    # more than 2 GiB
    m = edge_count(600)
    coloring = EdgeColoring.from_array(600, m, np.arange(1, m + 1))
    with pytest.raises(InvalidParameterError, match="color-degree table"):
        min_star_colors(coloring, 2)
    with pytest.raises(InvalidParameterError, match="color-degree table"):
        check_certificate(coloring, 2, 1)


def test_sample_upper_check_tiny_always_holds():
    # two of K_3's three edges must share a color under 2 colors, and any
    # two edges of a triangle meet, so every coloring passes
    res = sample_upper_check(3, 2, 2, 1, trials=256, seed=11)
    assert res.passed


def test_sample_upper_check_at_known_value():
    res = sample_upper_check(5, 2, 3, 1, trials=10_000, seed=42)
    assert res.passed


def test_sample_upper_check_finds_proper_coloring():
    # K_4 < R(2, 3, 1) = 5: the K_4 certificate itself, a proper coloring
    res = sample_upper_check(4, 2, 3, 1, trials=10_000, seed=42)
    assert not res.passed and res.trials == 10_000
    assert validate(res.counterexample) == []
    assert min_star_colors(res.counterexample, 2) == 2
    assert res.counterexample == witness_coloring(2, 3, 1)[0]


def test_sample_upper_check_is_order_independent():
    # the verdict and the counterexample depend on (p, n, t, s) alone:
    # K_5 lies below R(4, 3, 2) = 6
    a = sample_upper_check(5, 4, 3, 2, trials=10_000, seed=42)
    for trials, seed in ((1, 0), (193, 2**64), (10_000, 42)):
        b = sample_upper_check(5, 4, 3, 2, trials, seed)
        assert (b.passed, b.trials, b.counterexample) == (a.passed, trials, a.counterexample)
    assert not a.passed and a.counterexample.p == 5


def _cut(coloring, p):
    """The coloring's first p vertices, edge by edge."""
    return EdgeColoring(p, coloring.t, {(u, v): c for (u, v), c in coloring.colors.items()
                                        if v <= p})


def test_sample_check_answers_from_the_proof_on_grid():
    # the check passes exactly at p >= U_par, and below it returns a
    # coloring of K_p in which every n-star shows more than s colors; past
    # p = n the oracle's root checks, which re-derive the rows and parity
    # without star_upper, settle the same orders
    for t in range(2, 9):
        for s in range(1, t):
            for n in range(1, 21):
                value = star_upper(n, t, s)[0]
                for p in range(1, value + 4):
                    res = sample_upper_check(p, n, t, s, trials=1, seed=0)
                    assert res.passed == (p >= value), (p, n, t, s)
                    if p > n:
                        assert res.passed == oracle._root_settles(p, n, t, s), (p, n, t, s)
                    if not res.passed:
                        assert res.counterexample.p == p, (p, n, t, s)
                        assert check_certificate(res.counterexample, n, s).passed, (p, n, t, s)


@pytest.mark.parametrize("p, n, t, s", ((11, 9, 4, 3), (3, 2, 300, 1), (1, 1, 2, 1)))
def test_counterexample_is_the_witness_cut_down(p, n, t, s):
    # (11, 9, 4, 3): K_11 lies below R = 12, one under the pigeonhole
    # bound with no parity cut.  t = 300 keeps the K_300 witness in an
    # int64 store; K_1 has no edge
    witness = witness_coloring(n, t, s)[0]
    res = sample_upper_check(p, n, t, s, trials=8000, seed=1)
    assert (res.passed, res.trials) == (False, 8000)
    assert res.counterexample == _cut(witness, p)
    assert check_certificate(res.counterexample, n, s).passed


def test_sample_upper_check_no_star_order():
    # K_3 has no 5-star, so it lies below R(5, 2, 1) = 10
    res = sample_upper_check(3, 5, 2, 1, trials=10, seed=0)
    assert not res.passed
    assert res.counterexample == _cut(witness_coloring(5, 2, 1)[0], 3)


@pytest.mark.parametrize("p, n, t, s", ((9, 5, 3, 4), (3, 5, 3, 4), (4, 2, 2, 2)))
def test_a_budget_of_t_or_more_colors_is_refused_at_every_order(p, n, t, s):
    # star_upper holds for s < t only, so s >= t is refused with
    # construct's wording at every order: K_9 and K_4 have n-stars, K_3
    # has no 5-star
    with pytest.raises(InvalidParameterError, match=f"^need 1 <= s < t, got s={s}, t={t}$"):
        sample_upper_check(p, n, t, s, trials=1, seed=0)


@pytest.mark.parametrize("p, n, t, s, trials", (
    (0, 2, 3, 1, 1), (3, 0, 3, 1, 1), (3, 2, 0, 1, 1), (3, 2, 3, 0, 1), (3, 2, 3, 1, 0)))
def test_an_argument_below_one_is_refused_first(p, n, t, s, trials):
    with pytest.raises(InvalidParameterError, match="^p, n, t, s, trials must all be >= 1$"):
        sample_upper_check(p, n, t, s, trials=trials, seed=1)


def test_sample_check_result_fields():
    assert SampleCheckResult._fields == ("passed", "trials", "counterexample")


def test_most_even_row_has_the_largest_star_minimum():
    # every composition of d into t parts majorizes the most even one, so
    # its k largest parts cover at least as many edges for every k
    for d in range(15):
        for t in range(1, 6):
            rows = [[b - a - 1 for a, b in zip((-1,) + cuts, cuts + (d + t - 1,))]
                    for cuts in combinations(range(d + t - 1), t - 1)]
            assert all(sum(row) == d for row in rows)
            even = [d // t + (i < d % t) for i in range(t)]
            for n in range(1, d + 1):
                assert max(star_minima(rows, n)) == star_minima([even], n)[0], (d, t, n)


@pytest.mark.parametrize("p, n, t, s", (
    (400, 300, 4, 3), (5, 2, 2**63 - 1, 2), (1000, 3, 2**63 - 1, 3),
    (13, 10, 4, 3), (13, 7, 4, 2), (11, 6, 2, 1)))
def test_row_bound_draws_nothing(monkeypatch, p, n, t, s):
    # a pass builds nothing: each order is at least star_upper's U_par, the
    # pigeonhole bound (the first three, two with a huge t) or its parity
    # cut one below it (the last three, odd orders), and neither the
    # oracle's parity rule nor a witness is asked
    monkeypatch.setattr(oracle, "_parity_forbids", None)
    monkeypatch.setattr(constructions, "witness_coloring", None)
    assert sample_upper_check(p, n, t, s, trials=8000, seed=1) == (True, 8000, None)


def test_validate_reads_zero_color_as_out_of_range_not_missing():
    colors = {e: 1 for e in all_edges(3)}
    colors[(2, 3)] = 0
    colors[(1, 3)] = -4
    assert validate(EdgeColoring(3, 2, colors)) == [
        "color out of range on edge (1, 3): -4",
        "color out of range on edge (2, 3): 0",
    ]


def test_validate_lists_defects_in_order():
    # the mapping constructor names missing edges in edge order, then
    # unexpected keys in mapping order, and no more than five; a color out
    # of range is left to validate
    colors = {(1, 2): 3, (2, 3): 1, (3, 1): 1, (2, 9): 2}
    with pytest.raises(InvalidParameterError) as refused:
        EdgeColoring(3, 2, colors)
    assert str(refused.value) == (
        "invalid coloring: missing edge (1, 3); unexpected edge (3, 1); unexpected edge (2, 9)")
    with pytest.raises(InvalidParameterError) as refused:
        EdgeColoring(4, 2, {(9, 9): 1, (3, 4): 1, (0, 1): 1})
    assert str(refused.value) == "invalid coloring: " + "; ".join(
        f"missing edge {e}" for e in all_edges(4)[:5])
    with pytest.raises(InvalidParameterError) as refused:
        EdgeColoring(3, 2, {(9, 9): 1, (1, 3): 1, (0, 1): 1, (3, 2): 1, (1, 1): 1})
    assert str(refused.value) == "invalid coloring: " + "; ".join(
        ["missing edge (1, 2)", "missing edge (2, 3)", "unexpected edge (9, 9)",
         "unexpected edge (0, 1)", "unexpected edge (3, 2)"])
    colors = {(1, 2): 3, (2, 3): 1, (1, 3): 1}
    assert validate(EdgeColoring(3, 2, colors)) == ["color out of range on edge (1, 2): 3"]


def test_validate_names_one_bad_edge_in_small_memory():
    # the defect scan walks the edges lazily; a list of K_1500's 1,124,250
    # edges took 102 MiB
    m = edge_count(1500)
    coloring = EdgeColoring.from_array(1500, 2, b"\1" * (m - 1) + b"\3")
    tracemalloc.start()
    try:
        defects = validate(coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defects == ["color out of range on edge (1499, 1500): 3"]
    assert peak < 8 << 20


def test_mapping_refuses_an_empty_mapping_in_small_memory():
    # the refusal holds one list entry per edge and names the first five
    # missing edges; keeping a set of K_1500's 1,124,250 missing ranks took
    # 79.7 MiB
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError) as refused:
            EdgeColoring(1500, 2, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "invalid coloring: " + "; ".join(
        f"missing edge (1, {v})" for v in range(2, 7))
    assert peak < 16 << 20


def test_certificate_refuses_a_bad_coloring_in_small_memory():
    # the refusal names the first five defects and scans no further; listing
    # every defect of an all-zero K_1500 took 247 MiB
    coloring = EdgeColoring.from_array(1500, 2, bytes(edge_count(1500)))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError) as refused:
            check_certificate(coloring, 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "invalid coloring: " + "; ".join(
        f"color out of range on edge (1, {v}): 0" for v in range(2, 7))
    assert peak < 8 << 20
