import itertools
import time

import numpy as np
import pytest

from starramsey import EdgeColoring, check_certificate, classify, witness_coloring
from starramsey.errors import InfeasibleInstanceError, InvalidParameterError
from starramsey.formulas import pigeonhole_upper
from starramsey import oracle
from starramsey.oracle import (SearchStats, _admissible_rows, _parity_forbids, _reachable_k, _search,
                               ramsey_value)

from .conftest import (all_edges, brute_max_min_star, brute_min_star, parity_forbids_reference,
                       parity_pigeonhole_order, profiles, star_minima_reference)


def test_max_min_examples():
    # f = f(p, n, t), the most colors every n-star can be made to show:
    # K_p has a witness beating s exactly when s < f, and no witness shows
    # more than f, so the one beating f-1 shows f
    examples = {
        (3, 2, 2): 1,
        # a proper 3-edge-coloring of K_4 maximizes both of these
        (4, 3, 3): 3,
        (4, 3, 4): 3,
        # a 2-star holds two edges, so two colors is the ceiling
        (4, 2, 3): 2,
    }
    for (p, n, t), f in examples.items():
        for s in range(1, t):
            value = _search(p, n, t, s).value
            assert (s < value <= f) if s < f else (value == s), (p, n, t, s)


@pytest.mark.parametrize("p", (3, 4, 5))
@pytest.mark.parametrize("t", (2, 3))
def test_pruned_search_equals_plain_enumeration(p, t):
    # instances up to 10 edges, every n and every budget s < t, at every
    # order (ramsey_value searches only some): the bound and the canonical
    # color rule must not change any decision
    for n in range(1, p):
        for s in range(1, t):
            assert (_search(p, n, t, s).value > s) == (brute_max_min_star(p, n, t) > s), (n, s)


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
    monkeypatch.setattr(oracle, "_root_settles", lambda p, n, t, s: False)
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
    monkeypatch.setattr(oracle, "_root_settles", lambda p, n, t, s: False)
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
        assert _search(p, n, t, k) == (k, SearchStats(0, 0, 1))
    # where no row is admissible the root bound prunes already; parity
    # alone settles that K_3 has no proper 2-edge-coloring and K_5 no
    # proper 4-edge-coloring
    assert [(p, n, t, k) for p, n, t, k in fired
            if _reachable_k([0] * t, p - 1, n) > k] == [
        (3, 2, 2, 1), (5, 2, 4, 1), (5, 3, 4, 2), (5, 4, 4, 3)]


def test_admissible_rows_are_the_filtered_profiles():
    # every row of total <= 14 in t <= 5 parts, every s <= t and every
    # room up to the total: the walk yields exactly the admissible rows,
    # largest first, including the empty walk when none is admissible
    for t in range(1, 6):
        for s in range(1, t + 1):
            for total in range(15):
                for room in range(total + 2):
                    want = sorted((row for row in profiles(total, t, total)
                                   if sum(row[:s]) <= room), reverse=True)
                    assert list(_admissible_rows(total, t, s, room)) == want, (total, t, s, room)


def test_parity_rule_agrees_with_every_row_reference():
    # every order from n+1 to two past U_par, t = 2..6, every s, n <= 15:
    # 2,962 orders, 343 of them refuted by parity
    fired = 0
    for t in range(2, 7):
        for s in range(1, t):
            for n in range(1, 16):
                for p in range(n + 1, parity_pigeonhole_order(n, t, s) + 3):
                    got = _parity_forbids(p, n, t, s)
                    assert got == parity_forbids_reference(p, n, t, s), (p, n, t, s)
                    fired += got
    assert fired == 343


def test_parity_rule_walks_thousands_of_colors():
    # the walk keeps its own stack, so a row of thousands of parts does
    # not recurse: K_5001 at t = 3000, where the most even row [2]*2000 +
    # [1]*1000 leaves the order open, and t = 4000 at U_par, where the only
    # admissible row is all ones
    assert not _parity_forbids(5001, 10, 3000, 2)
    assert _parity_forbids(4001, 2, 4000, 1)
    assert list(_admissible_rows(4000, 4000, 1, 1)) == [(1,) * 4000]


def test_reachable_k_is_the_best_any_completion_reaches():
    # every row of t <= 4 parts of at most 3, every way to add extra <= 5
    # edges to it, and every n up to the completed total: 16,368 cases
    cases = 0
    for t in range(1, 5):
        for extra in range(6):
            placements = np.array([add for add in itertools.product(range(extra + 1), repeat=t)
                                   if sum(add) == extra])
            for row in itertools.product(range(4), repeat=t):
                completed = placements + np.array(row)
                for n in range(1, sum(row) + extra + 1):
                    best = star_minima_reference(completed, n).max()
                    assert _reachable_k(list(row), extra, n) == best, (row, extra, n)
                    cases += 1
    assert cases == 16_368


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
    witness = {p: _search(p, 3, 2, s).value > s for p in range(4, 7)}
    first = min((p for p, w in witness.items() if not w), default=None)
    assert first is not None
    assert all(not witness[p] for p in witness if p >= first)
    # f(p) <= s exactly when ramsey_value finds R within p_max = p
    assert all((ramsey_value(3, 2, s, p).value is not None) == (not w)
               for p, w in witness.items())


def test_budget_errors_are_explicit():
    with pytest.raises(InfeasibleInstanceError):
        ramsey_value(6, 2, 1, 8)                 # K_8: 28 edges over default budget
    with pytest.raises(InfeasibleInstanceError):
        ramsey_value(2, 5, 1, 4)                 # t over default color budget
    with pytest.raises(InvalidParameterError):
        ramsey_value(2, 2, 0, 4)                 # no budget below one color
    # a raised budget admits the same instance; R(6, 2, 1) = 11
    assert ramsey_value(6, 2, 1, 8, edge_budget=28).value is None


def test_deterministic_across_workers():
    for n, t, s in ((3, 2, 1), (3, 4, 2), (2, 3, 1)):
        runs = [ramsey_value(n, t, s, 7, threads=w) for w in (1, 2, 8)]
        assert len({r.value for r in runs}) == 1
        assert len({(r.stats.nodes, r.stats.canonical_skips, r.stats.bound_prunes)
                    for r in runs}) == 1


def test_stats_are_populated():
    res = ramsey_value(3, 3, 1, 5)
    assert res.stats.nodes > 0
    assert res.stats.canonical_skips > 0


def test_certificate_pass_implies_oracle_exceeds_order():
    for n, t, s in ((2, 2, 1), (3, 3, 2), (3, 4, 2), (2, 3, 2)):
        coloring, _ = witness_coloring(n, t, s)
        assert check_certificate(coloring, n, s).passed
        res = ramsey_value(n, t, s, p_max=coloring.p + 3)
        assert res.value is None or res.value > coloring.p


def test_oracle_matches_classifier_where_feasible(monkeypatch):
    # every t <= 5, 1 <= s < t and n whose parity-refined pigeonhole order
    # (computed independently in conftest) is at most K_27, so that the
    # witness search runs up to K_26.  For s >= t-2 the oracle must equal
    # the paper's value, and below that the parity-refined order
    monkeypatch.setattr(oracle, "DEFAULT_MAX_COLORS", 5)
    t0 = time.perf_counter()
    points = 0
    for t in (2, 3, 4, 5):
        for s in range(1, t):
            for n in itertools.count(1):
                if parity_pigeonhole_order(n, t, s) > 27:
                    break
                upper = pigeonhole_upper(n, t, s)
                res = ramsey_value(n, t, s, upper, edge_budget=upper * (upper - 1) // 2)
                if s >= t - 2:
                    assert res.value == classify(n, t, s).value, (n, t, s)
                else:
                    assert res.value == parity_pigeonhole_order(n, t, s), (n, t, s)
                points += 1
    assert points == 136
    # about 0.8 s on a 2-vCPU VM
    assert time.perf_counter() - t0 < 5
