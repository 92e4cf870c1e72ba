from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starramsey import (
    EdgeColoring,
    all_edges,
    check_certificate,
    min_star_colors,
    one_factorization,
    regular_coloring,
    sample_upper_check,
    three_color_balanced_coloring,
    validate,
)
from starramsey.errors import InvalidParameterError

from .conftest import brute_min_star, brute_star_at, colorings


def _mono(p, t=2, color=1):
    return EdgeColoring(p, t, {e: color for e in all_edges(p)})


def _proper_k4():
    rounds = one_factorization(4)
    return EdgeColoring(4, 3, {e: c for c, r in enumerate(rounds, 1) for e in r})


def test_validate_accepts_complete_coloring():
    assert validate(_mono(4)) == []


def test_validate_reports_missing_edge():
    colors = {e: 1 for e in all_edges(4)}
    del colors[(1, 3)]
    defects = validate(EdgeColoring(4, 2, colors))
    assert any("missing edge (1, 3)" in d for d in defects)


def test_validate_reports_out_of_range_color():
    colors = {e: 1 for e in all_edges(4)}
    colors[(1, 2)] = 5
    defects = validate(EdgeColoring(4, 4, colors))
    assert any("out of range" in d for d in defects)


def test_validate_reports_unexpected_edge():
    colors = {e: 1 for e in all_edges(3)}
    colors[(2, 7)] = 1
    defects = validate(EdgeColoring(3, 2, colors))
    assert any("unexpected edge (2, 7)" in d for d in defects)


def test_min_star_examples():
    assert min_star_colors(_mono(5), 3) == 1
    assert min_star_colors(_proper_k4(), 3) == 3
    assert min_star_colors(regular_coloring(2, 2), 3) == 2
    assert min_star_colors(_mono(3), 3) is None


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
    cert = check_certificate(three_color_balanced_coloring(3), 3, 1)
    assert cert.passed and cert.min_colors == 2

    cert = check_certificate(_mono(7), 3, 1)
    assert not cert.passed
    assert cert.offending_vertex == 1
    assert cert.offending_colors == (1,)
    assert cert.covered_edges >= 3

    cert = check_certificate(regular_coloring(4, 2), 5, 2)
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


def test_sample_upper_check_tiny_always_holds():
    # two of K_3's three edges must share a color under 2 colors, and any
    # two edges of a triangle meet, so every sample passes
    res = sample_upper_check(3, 2, 2, 1, trials=256, seed=11)
    assert res.passed


def test_sample_upper_check_at_known_value():
    res = sample_upper_check(5, 2, 3, 1, trials=10_000, seed=42)
    assert res.passed


def test_sample_upper_check_finds_proper_coloring():
    res = sample_upper_check(4, 2, 3, 1, trials=10_000, seed=42)
    assert not res.passed
    assert res.trial_index == 138
    assert validate(res.counterexample) == []
    assert min_star_colors(res.counterexample, 2) == 2


def test_sample_upper_check_is_order_independent():
    a = sample_upper_check(4, 2, 3, 1, trials=10_000, seed=42)
    b = sample_upper_check(4, 2, 3, 1, trials=10_000, seed=42)
    assert (a.passed, a.trial_index) == (b.passed, b.trial_index)
    # the failing trial draws the same coloring when reached directly
    c = sample_upper_check(4, 2, 3, 1, trials=139, seed=42)
    assert c.trial_index == a.trial_index
    assert c.counterexample == a.counterexample


def test_sample_upper_check_no_star_order():
    res = sample_upper_check(3, 5, 2, 1, trials=10, seed=0)
    assert not res.passed and res.trial_index == 0


def test_validate_reads_zero_color_as_out_of_range_not_missing():
    colors = {e: 1 for e in all_edges(3)}
    colors[(2, 3)] = 0
    colors[(1, 3)] = -4
    assert validate(EdgeColoring(3, 2, colors)) == [
        "color out of range on edge (1, 3): -4",
        "color out of range on edge (2, 3): 0",
    ]


def test_validate_lists_defects_in_order():
    colors = {(1, 2): 3, (2, 3): 1, (3, 1): 1, (2, 9): 2}
    assert validate(EdgeColoring(3, 2, colors)) == [
        "missing edge (1, 3)",
        "unexpected edge (2, 9)",
        "unexpected edge (3, 1)",
        "color out of range on edge (1, 2): 3",
    ]
