import time

import pytest

from starramsey import check_certificate, classify, witness_coloring
from starramsey.errors import InfeasibleInstanceError, InvalidParameterError
from starramsey.oracle import max_min_star_colors, ramsey_value

from .conftest import brute_max_min_star


def test_max_min_examples():
    assert max_min_star_colors(3, 2, 2).value == 1
    # a proper 3-edge-coloring of K_4 maximizes both of these
    assert max_min_star_colors(4, 3, 3).value == 3
    assert max_min_star_colors(4, 3, 4).value == 3
    # a 2-star holds two edges, so two colors is the ceiling
    assert max_min_star_colors(4, 2, 3).value == 2


@pytest.mark.parametrize("p", (3, 4, 5))
@pytest.mark.parametrize("t", (2, 3))
def test_pruned_search_equals_plain_enumeration(p, t):
    # instances up to 10 edges: the bound and the canonical color rule
    # must not change any value
    for n in range(1, p):
        assert max_min_star_colors(p, n, t).value == brute_max_min_star(p, n, t)


@pytest.mark.parametrize("t, p_max", ((2, 5), (3, 5), (4, 4)))
def test_decision_search_equals_plain_enumeration(t, p_max):
    # instances up to 10 edges, every budget 1 <= s < t (s = t-3 at t = 4):
    # R is the first order whose plain maximum is within the budget
    for n in range(1, p_max):
        for s in range(1, t):
            want = next((p for p in range(n + 1, p_max + 1)
                         if brute_max_min_star(p, n, t) <= s), None)
            res = ramsey_value(n, t, s, p_max)
            assert res.value == want, (n, t, s)
            # every order before the answer has a coloring beating the budget
            assert all(r.value > s for p, r in res.checked if p != res.value)


# the small-exact benchmark instances and the README example: R, and the
# (nodes, canonical skips, bound prunes) of the whole scan up to it
DECISION_INSTANCES = {
    (4, 2, 1): (7, (11224, 3, 5605)),
    (7, 2, 1): (14, (5969, 6, 2899)),
    (5, 3, 1): (14, (827, 48, 417)),
    (9, 3, 2): (14, (625, 30, 325)),
    (6, 4, 2): (11, (552, 46, 358)),
    (9, 4, 3): (12, (744, 29, 514)),
    (3, 4, 2): (5, (62, 12, 43)),
}


def test_ramsey_value_matches_classify_on_pinned_instances():
    t0 = time.perf_counter()
    for (n, t, s), (want, stats) in DECISION_INSTANCES.items():
        res = ramsey_value(n, t, s, want, edge_budget=want * (want - 1) // 2)
        assert res.value == want == classify(n, t, s).value
        assert (res.stats.nodes, res.stats.canonical_skips, res.stats.bound_prunes) == stats
        *below, (p, last) = res.checked
        assert p == want and last.value == s
        assert all(r.value > s for _, r in below)
    # about 0.15 s on a 2-vCPU VM
    assert time.perf_counter() - t0 < 10


def test_ramsey_examples():
    assert ramsey_value(2, 2, 1, 6).value == 3
    assert ramsey_value(2, 3, 1, 6).value == 5
    assert ramsey_value(3, 4, 2, 5).value == 5


def test_ramsey_exceeds_p_max():
    res = ramsey_value(3, 2, 1, 5)
    assert res.value is None
    assert [p for p, _ in res.checked] == [4, 5]


def test_threshold_monotone_in_p():
    # once every coloring of K_p forces a cheap star, larger orders do too
    s = 1
    values = {p: max_min_star_colors(p, 3, 2).value for p in range(4, 7)}
    first = min((p for p, v in values.items() if v <= s), default=None)
    assert first is not None
    assert all(values[p] <= s for p in values if p >= first)


def test_budget_errors_are_explicit():
    with pytest.raises(InfeasibleInstanceError):
        max_min_star_colors(8, 3, 2)             # 28 edges over default budget
    with pytest.raises(InfeasibleInstanceError):
        max_min_star_colors(4, 2, 5)             # t over default color budget
    with pytest.raises(InvalidParameterError):
        max_min_star_colors(4, 4, 2)             # no 4-star in K_4
    # a raised budget admits the same instance
    assert max_min_star_colors(8, 3, 2, edge_budget=28).value >= 1


def test_deterministic_across_workers():
    for n, t, s in ((3, 2, 1), (3, 4, 2), (2, 3, 1)):
        runs = [ramsey_value(n, t, s, 7, threads=w) for w in (1, 2, 8)]
        assert len({r.value for r in runs}) == 1
        assert len({(r.stats.nodes, r.stats.canonical_skips, r.stats.bound_prunes)
                    for r in runs}) == 1


def test_stats_are_populated():
    res = max_min_star_colors(5, 3, 3)
    assert res.stats.nodes > 0
    assert res.stats.canonical_skips > 0


def test_certificate_pass_implies_oracle_exceeds_order():
    for n, t, s in ((2, 2, 1), (3, 3, 2), (3, 4, 2), (2, 3, 2)):
        coloring, _ = witness_coloring(n, t, s)
        assert check_certificate(coloring, n, s).passed
        res = ramsey_value(n, t, s, p_max=coloring.p + 3)
        assert res.value is None or res.value > coloring.p


def test_oracle_matches_classifier_where_feasible():
    for t in (2, 3, 4):
        budgets = [t - 1] + ([t - 2] if t >= 3 else [])
        for s in budgets:
            for n in (2, 3, 4):
                want = classify(n, t, s).value
                if want * (want - 1) // 2 > 21:
                    continue
                assert ramsey_value(n, t, s, p_max=want + 1).value == want
