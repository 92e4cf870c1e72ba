import pytest

from starramsey import classify, general_bounds, oracle
from starramsey.errors import InvalidParameterError, UnsupportedParametersError
from starramsey.exact import WitnessRecipe, pigeonhole_upper, star_upper
from starramsey.formulas import _t_minus_1_case, _t_minus_2_case, _t_minus_2_clauses

from .conftest import pigeonhole_order, threshold_predicate

GRID_N = range(2, 201)


def test_threshold_predicate_examples():
    assert threshold_predicate(2, 4, 0, 1) is True      # 4 > 6/2
    assert threshold_predicate(3, 5, 0, 4) is False     # 5 > 1 + 12/3 fails
    assert threshold_predicate(1, 2, 3, 1) is False     # 2 > 6 fails


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


@pytest.mark.parametrize("n, t, l, message", [
    (1, 4, 2, "need n >= 2, got 1"),
    (5, 4, 0, "need 1 <= l < t, got l=0, t=4"),
    (5, 4, 4, "need 1 <= l < t, got l=4, t=4"),
])
def test_general_bounds_refuses_bad_arguments(n, t, l, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        general_bounds(n, t, l)


def test_value_examples_budget_t_minus_1():
    assert classify(4, 2, 1).value == 7
    v = classify(3, 3, 2)
    assert (v.value, v.x) == (5, 4)
    assert classify(2, 2, 1).value == 3
    assert classify(1, 6, 5).case_tag == "trivial"
    with pytest.raises(InvalidParameterError):
        classify(3, 1, 0)


def test_value_examples_budget_t_minus_2():
    assert classify(3, 3, 1).value == 8
    v = classify(3, 4, 2)
    assert (v.value, v.case_tag) == (5, "x.a")
    v = classify(3, 5, 3)
    assert (v.value, v.case_tag) == (4, "xm1.d")
    v = classify(5, 4, 2)
    assert (v.value, v.case_tag) == (10, "xp1.c")
    v = classify(2, 4, 2)
    assert (v.value, v.case_tag) == (3, "x.b")
    v = classify(9, 5, 3)
    assert (v.value, v.case_tag, v.x) == (14, "pigeonhole", 17)
    assert classify(1, 5, 3).value == 2
    with pytest.raises(InvalidParameterError):
        classify(3, 2, 0)


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


def test_star_upper_is_burr_roberts_at_one_color():
    # Burr and Roberts (1973): R(K_{1,n_1}, ..., K_{1,n_t}) = N - t + theta,
    # N the sum of the n_i, theta = 1 when the number of even n_i is even
    # and positive, else 2.  A budget of s = 1 asks for a monochromatic
    # n-star, so every n_i is n.
    for t in range(2, 41):
        for n in range(1, 401):
            sizes = [n] * t
            evens = sum(1 for m in sizes if m % 2 == 0)
            theta = 1 if evens > 0 and evens % 2 == 0 else 2
            assert star_upper(n, t, 1)[0] == sum(sizes) - t + theta, (n, t)


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


def test_star_upper_lies_in_the_general_bracket_below_t_minus_2():
    # budgets s <= t-3, which classify does not serve: U_par lies in the
    # general-l bracket wherever it has one (floor(t/l) >= 2, l = t-s)
    count = 0
    for t in range(4, 25):
        for s in range(1, t - 2):
            if t // (t - s) < 2:
                continue
            for n in range(2, 301):
                b = general_bounds(n, t, t - s)
                assert b.lower <= star_upper(n, t, s)[0] <= b.upper, (n, t, s)
                count += 1
    assert count == 29_900


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
    assert v.witness.tag == "cyclic"
    assert v.witness.params == {"p": 9, "t": 4}
    v = classify(4, 2, 1)
    assert v.witness == WitnessRecipe("partitioned-factorization", {"p": 6, "t": 2})
    v = classify(3, 5, 3)
    assert v.witness.tag == "cyclic"
    # (t, s) = (3, 1) takes the general cases
    assert classify(7, 3, 1).witness == WitnessRecipe("cyclic", {"p": 19, "t": 3})
    assert classify(6, 3, 1).witness == WitnessRecipe(
        "partitioned-factorization", {"p": 16, "t": 3})


def test_classify_answers_at_any_color_count():
    # (2, t, t-1) is K_3 with a K_2 witness, and (2, t, t-2) at even t
    # likewise: each recipe is a tag and a few integers at any t
    for t in (2 ** 20 + 1, 10 ** 18, 2 ** 64):
        assert classify(2, t, t - 1) == (3, "xp1.even-x", WitnessRecipe(
            "partitioned-factorization", {"p": 2, "t": t}), 2, 0, 2)
        v = classify(2, t, t - 2)
        assert v.value == star_upper(2, t, t - 2)[0] and len(v.witness.params) <= 3
        assert classify(5, t, t - 1).witness == WitnessRecipe("cyclic", {"p": 5, "t": t})
        assert classify(1, t, t - 1).value == 2


def _rows_or_parity_refute(p, n, t, s):
    """True when K_p has no admissible color-degree row (top-s sum <= n-1)
    or the oracle's parity rule refutes every coloring.  The even split of
    p-1 edges into t parts has the least top-s sum of any row, so no row
    is admissible exactly when that sum is above n-1."""
    a, b = divmod(p - 1, t)
    return s * a + min(s, b) > n - 1 or oracle._parity_forbids(p, n, t, s)


def _first_forced_order(n, t, s):
    """Smallest p >= n+1 that the rows or parity refute."""
    p = n + 1
    while not _rows_or_parity_refute(p, n, t, s):
        p += 1
    return p


def test_star_upper_is_the_first_order_rows_or_parity_refute():
    # the full upward scan on t <= 10, n <= 20 (855 points)
    points = [(n, t, s) for t in range(2, 11) for s in range(1, t) for n in range(2, 21)]
    assert len(points) == 855
    for n, t, s in points:
        value, kind = star_upper(n, t, s)
        assert value == _first_forced_order(n, t, s), (n, t, s)
        assert kind == ("parity" if value < pigeonhole_upper(n, t, s) else "pigeonhole")
    # t <= 40, n <= 30 (22,620 points): the rules refute K_value and leave
    # K_{value-1} open.  A row admissible at K_{p+1} loses an edge and stays
    # admissible at K_p, so the rows leave every lower order open too; and
    # the certificate of K_{value-1} restricts to a witness at every lower
    # order, so the sound parity rule refutes none of them
    points = [(n, t, s) for t in range(2, 41) for s in range(1, t) for n in range(2, 31)]
    assert len(points) == 22_620
    for n, t, s in points:
        value, kind = star_upper(n, t, s)
        assert _rows_or_parity_refute(value, n, t, s), (n, t, s)
        assert not _rows_or_parity_refute(value - 1, n, t, s), (n, t, s)
        assert kind == ("parity" if value < pigeonhole_upper(n, t, s) else "pigeonhole")


def test_paper_clauses_agree_with_star_upper():
    # the clause a case theorem fires gives star_upper's value, except the
    # x-2 default at odd t >= 5, which lies above it and is tagged pigeonhole
    for t in range(2, 41):
        for s in {t - 1, t - 2} - {0}:
            for n in range(2, 401):
                case = _t_minus_1_case if s == t - 1 else _t_minus_2_case
                tag, clause_value, *_ = case(n, t)
                verdict = classify(n, t, s)
                assert verdict.value == star_upper(n, t, s)[0]
                if clause_value != verdict.value:
                    assert (tag, t % 2, s) == ("xm2", 1, t - 2)
                    assert clause_value > verdict.value and verdict.case_tag == "pigeonhole"
