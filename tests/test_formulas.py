import pytest

from starramsey import classify, general_bounds, threshold_predicate
from starramsey.errors import InvalidParameterError, UnsupportedParametersError
from starramsey.formulas import (
    MAX_WITNESS_COLORS,
    _t_minus_2_clauses,
    ramsey_star_t_minus_1,
    ramsey_star_t_minus_2,
)

from .conftest import pigeonhole_order

GRID_N = range(2, 201)


def test_threshold_predicate_examples():
    assert threshold_predicate(2, 4, 0, 1) is True      # 4 > 6/2
    assert threshold_predicate(3, 5, 0, 4) is False     # 5 > 1 + 12/3 fails
    assert threshold_predicate(1, 2, 3, 1) is False     # 2 > 6 fails


def test_threshold_predicate_rejects_bad_args():
    with pytest.raises(InvalidParameterError):
        threshold_predicate(0, 4, 1, 1)
    with pytest.raises(InvalidParameterError):
        threshold_predicate(1, 4, 1, 4)


def test_general_bounds_examples():
    b = general_bounds(5, 4, 2)
    assert (b.lower, b.upper) == (7, 10)
    b = general_bounds(4, 2, 1)
    assert (b.lower, b.upper) == (7, 8)
    b = general_bounds(2, 4, 1)
    assert b.lower <= classify(2, 4, 3).value <= b.upper


def test_general_bounds_needs_two_classes():
    with pytest.raises(UnsupportedParametersError):
        general_bounds(3, 3, 2)


def test_value_examples_budget_t_minus_1():
    assert ramsey_star_t_minus_1(4, 2).value == 7
    v = ramsey_star_t_minus_1(3, 3)
    assert (v.value, v.x) == (5, 4)
    assert ramsey_star_t_minus_1(2, 2).value == 3
    assert ramsey_star_t_minus_1(1, 6).case_tag == "trivial"
    with pytest.raises(InvalidParameterError):
        ramsey_star_t_minus_1(3, 1)


def test_value_examples_budget_t_minus_2():
    assert ramsey_star_t_minus_2(3, 3).value == 8
    v = ramsey_star_t_minus_2(3, 4)
    assert (v.value, v.case_tag) == (5, "x.a")
    v = ramsey_star_t_minus_2(3, 5)
    assert (v.value, v.case_tag) == (4, "xm1.d")
    v = ramsey_star_t_minus_2(5, 4)
    assert (v.value, v.case_tag) == (10, "xp1.c")
    v = ramsey_star_t_minus_2(2, 4)
    assert (v.value, v.case_tag) == (3, "x.b")
    v = classify(9, 5, 3)
    assert (v.value, v.case_tag, v.x) == (14, "pigeonhole", 17)
    assert ramsey_star_t_minus_2(1, 5).value == 2
    with pytest.raises(InvalidParameterError):
        ramsey_star_t_minus_2(3, 2)


def test_classify_dispatch():
    assert classify(4, 2, 1).value == 7
    assert classify(3, 3, 1).value == 8
    assert classify(2, 4, 2).value == 3
    with pytest.raises(UnsupportedParametersError):
        classify(3, 4, 1)
    with pytest.raises(InvalidParameterError):
        classify(3, 4, 0)
    with pytest.raises(InvalidParameterError):
        classify(3, 4, 4)


def test_r2_identity():
    for n in GRID_N:
        want = 2 * n - (1 if n % 2 == 0 else 0)
        assert classify(n, 2, 1).value == want


def test_corollary_one_sandwich_and_quotient():
    for t in range(2, 13):
        for n in GRID_N:
            v = classify(n, t, t - 1)
            assert v.x <= v.value <= v.x + 1
            if v.x % 2 == 0:
                assert v.value == v.x + 1
            # quotient identity n = x - [x/t]
            assert n == v.x - v.q
            # the remainder of x mod t is never zero on this path
            assert v.r != 0


def test_corollary_two_sandwich():
    for t in range(4, 13):
        for n in GRID_N:
            v = classify(n, t, t - 2)
            u = pigeonhole_order(n, t, t - 2)
            assert min(v.x - 2, u) <= v.value <= v.x + 1
            if u < v.x - 2:
                assert v.value == u


def test_clause_exclusivity_over_grid():
    for t in range(4, 13):
        for n in GRID_N:
            v = classify(n, t, t - 2)
            fired = [tag for tag, _, hit in
                     _t_minus_2_clauses(v.x, t, v.q, v.r) if hit]
            assert len(fired) <= 1
            if fired:
                assert fired[0] == v.case_tag
            elif v.case_tag != "xm2":
                assert v.case_tag == "pigeonhole"
                assert v.value < v.x - 2


def test_bounds_bracket_exact_values():
    for t in range(2, 13):
        for n in GRID_N:
            b = general_bounds(n, t, 1)
            assert b.lower <= classify(n, t, t - 1).value <= b.upper
    for t in range(4, 13):
        for n in GRID_N:
            b = general_bounds(n, t, 2)
            assert b.lower <= classify(n, t, t - 2).value <= b.upper


def test_clauses_match_threshold_predicate():
    # the cliams-style inequalities inside the clauses are instances of
    # the threshold predicate with l = 1, 2, 3
    for t in range(4, 13):
        for n in GRID_N:
            v = classify(n, t, t - 2)
            q, r = v.q, v.r
            if r < t - 2:
                fires_plus = v.case_tag in ("xp1.d", "xp1.e")
                assert fires_plus == threshold_predicate(1, t, q, r)
            if r == 1:
                cond = (threshold_predicate(3, t, q, r)
                        and not threshold_predicate(2, t, q, r)
                        and t % 2 == 1)
                assert cond == (v.case_tag in ("xm1.a", "xm1.b"))


def test_witness_recipe_matches_case():
    v = classify(5, 4, 2)
    assert v.witness.tag == "regular"
    assert v.witness.params == {"t": 4, "q": 2}
    v = classify(4, 2, 1)
    assert v.witness.tag == "partitioned-factorization"
    assert v.witness.params["class_sizes"] == [2, 3]
    v = classify(3, 5, 3)
    assert v.witness.tag == "cyclic"
    assert classify(7, 3, 1).witness.tag == "three-color-balanced"


def test_witness_color_limit():
    # (2, t, t-1) is K_3 with a K_2 witness listing t class sizes, and
    # (2, t, t-2) at even t likewise; both stop at the limit
    limit = MAX_WITNESS_COLORS
    v = classify(2, limit, limit - 1)
    assert v.value == 3 and len(v.witness.params["class_sizes"]) == limit
    assert len(ramsey_star_t_minus_2(2, limit).witness.params["class_sizes"]) == limit
    for t in (limit + 1, 10 ** 11, 2 ** 64):
        with pytest.raises(InvalidParameterError, match=f"limit is {limit} colors"):
            classify(2, t, t - 1)
        with pytest.raises(InvalidParameterError, match=f"limit is {limit} colors"):
            ramsey_star_t_minus_2(2, t)
    # n = 1 needs no witness coloring beyond K_1
    assert classify(1, 2 ** 64, 2 ** 64 - 1).value == 2
