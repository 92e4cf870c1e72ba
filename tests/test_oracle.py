import itertools
import time

import pytest

from starramsey import EdgeColoring, all_edges, check_certificate, classify, witness_coloring
from starramsey.errors import InfeasibleInstanceError, InvalidParameterError
from starramsey.formulas import pigeonhole_upper
from starramsey import oracle
from starramsey.oracle import (SearchStats, _parity_forbids, _reachable_k, _search,
                               max_min_star_colors, ramsey_value)

from .conftest import brute_max_min_star, brute_min_star, parity_pigeonhole_order


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
            # orders below the answer have a coloring beating the budget,
            # orders from the answer up have none
            assert all((r.value > s) == (want is None or p < want)
                       for p, r in res.checked), (n, t, s)


@pytest.mark.parametrize("t, p_max", ((2, 6), (3, 5), (4, 5)))
def test_search_refutes_without_root_rules(monkeypatch, t, p_max):
    # with the root bound and the parity rule switched off, every order
    # from p_max down to R is refuted by exhaustive search alone, and R is
    # still the first order whose plain maximum is within the budget
    monkeypatch.setattr(oracle, "_root_settles", lambda p, n, t, floor: False)
    for n in range(1, p_max):
        for s in range(1, t):
            want = next((p for p in range(n + 1, p_max + 1)
                         if brute_max_min_star(p, n, t) <= s), None)
            res = ramsey_value(n, t, s, p_max)
            assert res.value == want, (n, t, s)
            assert [p for p, _ in res.checked] == list(
                range(p_max, max(n, (want or p_max + 1) - 2), -1)), (n, t, s)
            assert all(r.stats.nodes > 0 for _, r in res.checked), (n, t, s)


def test_search_refutes_parity_order_without_root_rules(monkeypatch):
    # parity settles K_7 for (4, 2, 1) at the root; with the root rules off
    # the search must refute K_7 itself (no 3-regular graph on 7 vertices)
    monkeypatch.setattr(oracle, "_root_settles", lambda p, n, t, floor: False)
    res = ramsey_value(4, 2, 1, 7)
    assert res.value == 7
    (p, refuted), (q, witness) = res.checked
    assert (p, refuted.value, q) == (7, 1, 6) and witness.value > 1
    assert refuted.stats.nodes > 1000


# the small-exact benchmark instances, the README example, and the first
# two points past K_14: R, and the (nodes, canonical skips, bound prunes)
# of the whole scan, all of it spent finding the K_{R-1} witness
DECISION_INSTANCES = {
    (4, 2, 1): (7, (15, 1, 1)),
    (7, 2, 1): (14, (119, 1, 27)),
    (5, 3, 1): (14, (114, 3, 30)),
    (9, 3, 2): (14, (114, 3, 30)),
    (6, 4, 2): (11, (95, 6, 41)),
    (9, 4, 3): (12, (59, 6, 5)),
    (3, 4, 2): (5, (6, 6, 1)),
    (8, 4, 2): (15, (357, 6, 204)),
    (11, 4, 3): (15, (357, 6, 204)),
}


def test_ramsey_value_matches_classify_on_pinned_instances():
    t0 = time.perf_counter()
    for (n, t, s), (want, stats) in DECISION_INSTANCES.items():
        # the root settles K_R, so only K_{R-1} must fit the edge budget
        res = ramsey_value(n, t, s, want, edge_budget=(want - 1) * (want - 2) // 2)
        assert res.value == want == classify(n, t, s).value
        assert (res.stats.nodes, res.stats.canonical_skips, res.stats.bound_prunes) == stats
        (p, root), (q, witness) = res.checked
        assert (p, root) == (want, (s, (0, 0, 1)))
        assert q == want - 1 and witness.value > s
    # about 0.01 s on a 2-vCPU VM
    assert time.perf_counter() - t0 < 10


def test_brute_reference_matches_per_coloring_enumeration():
    # the vectorized reference against one brute_min_star call per coloring
    for p, t in itertools.product((2, 3, 4), (1, 2, 3)):
        edges = all_edges(p)
        colorings = [EdgeColoring(p, t, dict(zip(edges, combo)))
                     for combo in itertools.product(range(1, t + 1), repeat=len(edges))]
        for n in range(1, p):
            assert brute_max_min_star(p, n, t) == max(
                brute_min_star(c, n) for c in colorings), (p, n, t)


def test_parity_rule_is_sound():
    # wherever the root parity rule fires up to K_5 and 4 colors, plain
    # enumeration finds no coloring with every n-star on more than k colors
    fired = [(p, n, t, k) for p in range(2, 6) for t in range(1, 5)
             for n in range(1, p) for k in range(1, t) if _parity_forbids(p, n, t, k)]
    for p, n, t, k in fired:
        assert brute_max_min_star(p, n, t) <= k, (p, n, t, k)
        assert _search(p, n, t, k, k + 1) == (k, SearchStats(0, 0, 1))
    # where no row is admissible the root bound prunes already; parity
    # alone settles that K_3 has no proper 2-edge-coloring and K_5 no
    # proper 4-edge-coloring
    assert [(p, n, t, k) for p, n, t, k in fired
            if _reachable_k([0] * t, p - 1, n) > k] == [
        (3, 2, 2, 1), (5, 2, 4, 1), (5, 3, 4, 2), (5, 4, 4, 3)]


def test_parity_orders_in_reach():
    # orders the parity rule settles at the root, each one search that
    # ends at once instead of a full refutation
    t0 = time.perf_counter()
    for n, want in ((6, 11), (8, 15)):
        res = ramsey_value(n, 2, 1, want, edge_budget=want * (want - 1) // 2)
        assert res.value == want == classify(n, 2, 1).value
    # s = t-3, outside classify: 2 and 10 are the pigeonhole order, 5 and
    # 13 one below it (parity)
    for n, want, parity in ((1, 2, False), (2, 5, True), (3, 10, False), (4, 13, True)):
        res = ramsey_value(n, 4, 1, want, edge_budget=want * (want - 1) // 2)
        assert res.value == want == pigeonhole_upper(n, 4, 1) - parity
    # about 0.02 s on a 2-vCPU VM
    assert time.perf_counter() - t0 < 5


def test_ramsey_examples():
    assert ramsey_value(2, 2, 1, 6).value == 3
    assert ramsey_value(2, 3, 1, 6).value == 5
    assert ramsey_value(3, 4, 2, 5).value == 5


def test_ramsey_exceeds_p_max():
    # R(3, 2, 1) = 6: the root settles no order up to K_5, and the search
    # at K_5 finds a coloring beating the budget
    res = ramsey_value(3, 2, 1, 5)
    assert res.value is None
    assert [(p, r.value) for p, r in res.checked] == [(5, 2)]


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
    # every t <= 5, 1 <= s < t and n whose parity-refined pigeonhole order
    # (computed independently in conftest) is at most K_27, so that the
    # witness search runs up to K_26.  For s >= t-2 the oracle must equal
    # the paper's value, and below that the parity-refined order
    t0 = time.perf_counter()
    points = 0
    for t in (2, 3, 4, 5):
        for s in range(1, t):
            for n in itertools.count(1):
                if parity_pigeonhole_order(n, t, s) > 27:
                    break
                upper = pigeonhole_upper(n, t, s)
                res = ramsey_value(n, t, s, upper, edge_budget=upper * (upper - 1) // 2,
                                   max_colors=5)
                if s >= t - 2:
                    assert res.value == classify(n, t, s).value, (n, t, s)
                else:
                    assert res.value == parity_pigeonhole_order(n, t, s), (n, t, s)
                points += 1
    assert points == 136
    # about 0.8 s on a 2-vCPU VM
    assert time.perf_counter() - t0 < 5
