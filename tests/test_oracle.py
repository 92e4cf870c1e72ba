import itertools
import time
import tracemalloc

import numpy as np
import pytest

from starramsey import EdgeColoring, check_certificate, classify, witness_coloring
from starramsey.errors import InfeasibleInstanceError, InvalidParameterError
from starramsey.exact import pigeonhole_upper, star_upper
from starramsey.formulas import _t_minus_2_case
from starramsey import oracle
from starramsey.oracle import SearchStats, _parity_forbids, _reachable_k, _search, ramsey_value

from .conftest import (all_edges, brute_max_min_star, brute_min_star, parity_forbids_reference,
                       parity_pigeonhole_order, star_minima_reference)


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


@pytest.mark.parametrize("p, n, t, s, value", (
    (4, 3, 3, 1, 3), (4, 3, 4, 1, 3), (4, 3, 5, 1, 3),
    (5, 4, 3, 1, 3), (5, 4, 4, 1, 3), (5, 4, 5, 1, 3),
    (6, 5, 3, 1, 3), (6, 5, 4, 1, 3), (6, 5, 5, 1, 3),
    (7, 5, 4, 1, 3), (7, 5, 5, 1, 3), (7, 6, 3, 1, 3), (7, 6, 4, 1, 3),
    (7, 6, 5, 1, 4), (7, 6, 5, 2, 4),
    (8, 5, 4, 1, 3), (8, 5, 5, 1, 3), (8, 6, 3, 1, 3), (8, 6, 4, 1, 3),
    (8, 6, 5, 1, 4), (8, 6, 5, 2, 4),
    (8, 7, 3, 1, 3), (8, 7, 4, 1, 4), (8, 7, 4, 2, 4),
    (8, 7, 5, 1, 5), (8, 7, 5, 2, 5), (8, 7, 5, 3, 5),
))
def test_witness_value_is_its_least_vertex(p, n, t, s, value):
    # every point of p <= 8, t <= 5, n < p, s < t whose first witness shows
    # at least s+2 colors on each n-star: the value is the least over all p
    # vertices, not over the last edge's two ends
    assert _search(p, n, t, s).value == value


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


# every parity cut (star_upper's argument "parity") at t <= 4 whose K_{U_par}
# has at most 21 edges, with the nodes the search spends refuting K_{U_par}
PARITY_CUTS = {(2, 2, 1): (3, 5), (4, 2, 1): (7, 11_177), (2, 4, 1): (5, 50),
               (3, 4, 2): (5, 50), (4, 4, 3): (5, 50)}


def test_search_alone_refutes_parity_cuts(monkeypatch):
    # with the parity rule off and the root bound on, the search itself
    # refutes K_{U_par}: the one check of a parity value whose argument
    # differs from star_upper's (the row rule is the same argument again);
    # K_{U_par} has more than n vertices, so n <= 6 covers 21 edges
    values = {(n, t, s): star_upper(n, t, s) for t in range(2, 5)
              for s in range(1, t) for n in range(1, 7)}
    assert set(PARITY_CUTS) == {key for key, (p, how) in values.items() if how == "parity"
                                and p * (p - 1) // 2 <= 21}
    monkeypatch.setattr(oracle, "_parity_forbids", lambda p, n, t, s: False)
    for (n, t, s), (p, nodes) in PARITY_CUTS.items():
        assert star_upper(n, t, s)[0] == p and not oracle._root_settles(p, n, t, s)
        result = _search(p, n, t, s)
        assert (result.value, result.stats.nodes) == (s, nodes), (n, t, s)


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


def test_ramsey_value_matches_classify_on_pinned_instances(monkeypatch):
    t0 = time.perf_counter()
    for (n, t, s), (want, stats) in DECISION_INSTANCES.items():
        res = ramsey_value(n, t, s, want)
        assert res.value == want == classify(n, t, s).value
        assert (res.stats.nodes, res.stats.canonical_skips, res.stats.bound_prunes) == stats
        (p, root), (q, witness) = res.checked
        assert (p, root) == (want, (s, (0, 0, 1)))
        assert q == want - 1 and witness.value > s
    # the bound memo only saves time: emptied at every open edge, it
    # leaves every value and count as it was
    monkeypatch.setattr(oracle, "_MEMO_CELLS", 0)
    for (n, t, s), (want, stats) in DECISION_INSTANCES.items():
        res = ramsey_value(n, t, s, want)
        assert (res.value, res.stats) == (want, stats)
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


def test_parity_rule_agrees_with_every_row_reference():
    # every order from K_1 to two past the pigeonhole bound, t = 1..6,
    # s = 1..t+1, n <= 15: 6,778 orders, 607 of them refuted by parity,
    # all past K_n.  At t = 1 the one part is p-1, and at s >= t a row's
    # top-s sum is p-1, so a row is admissible exactly up to K_n
    fired = 0
    for t in range(1, 7):
        for s in range(1, t + 2):
            for n in range(1, 16):
                for p in range(1, pigeonhole_upper(n, t, min(s, t)) + 3):
                    got = _parity_forbids(p, n, t, s)
                    assert got == parity_forbids_reference(p, n, t, s), (p, n, t, s)
                    fired += got
    assert fired == 607


def test_parity_rule_walks_thousands_of_colors():
    # the rule reads the even split of the other parts in closed form, so
    # thousands of colors cost it no more than a few: K_5001 at t = 3000,
    # where the most even row [2]*2000 + [1]*1000 leaves the order open,
    # and t = 4000 at U_par, where the only admissible row is all ones
    assert not _parity_forbids(5001, 10, 3000, 2)
    assert _parity_forbids(4001, 2, 4000, 1)


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
                    if row.count(0) >= extra:  # one more 0 class, as a row grows, moves nothing
                        assert _reachable_k([*row, 0], extra, n) == best, (row, extra, n)
                    cases += 1
    assert cases == 16_368


def test_parity_orders_in_reach():
    # orders the parity rule settles at the root, each one search that
    # ends at once instead of a full refutation
    t0 = time.perf_counter()
    for n, want in ((6, 11), (8, 15)):
        res = ramsey_value(n, 2, 1, want)
        assert res.value == want == classify(n, 2, 1).value
    # s = t-3, outside classify: 2 and 10 are the pigeonhole order, 5 and
    # 13 one below it (parity)
    for n, want, parity in ((1, 2, False), (2, 5, True), (3, 10, False), (4, 13, True)):
        res = ramsey_value(n, 4, 1, want)
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


def test_budget_errors_are_explicit(monkeypatch):
    with pytest.raises(InvalidParameterError):
        ramsey_value(2, 2, 0, 4)                 # no budget below one color
    # no cap on edges or colors: R(6, 2, 1) = 11 and R(2, 5, 1) = 7
    assert ramsey_value(6, 2, 1, 8).value is None
    assert ramsey_value(2, 5, 1, 7).value == 7
    # NODE_BUDGET, read at the call, bounds the nodes of every search in
    # it: (5, 3, 1) spends 114 on the witness at K_13, whose 78 edges the
    # upward scan also weighs against it
    monkeypatch.setattr(oracle, "NODE_BUDGET", 114)
    assert ramsey_value(5, 3, 1, 20).value == 14
    monkeypatch.setattr(oracle, "NODE_BUDGET", 113)
    with pytest.raises(InfeasibleInstanceError,
                       match="^the search spent the budget of 113 nodes and left K_13 open$"):
        ramsey_value(5, 3, 1, 20)
    monkeypatch.setattr(oracle, "NODE_BUDGET", 77)
    with pytest.raises(InfeasibleInstanceError,
                       match="^K_13 has 78 edges, over the budget of 77 nodes$"):
        ramsey_value(5, 3, 1, 20)
    # with the root rules off, (4, 2, 1) spends 11,177 nodes refuting K_7
    # and 15 on the witness at K_6: the budget counts both searches
    monkeypatch.setattr(oracle, "_root_settles", lambda p, n, t, s: False)
    monkeypatch.setattr(oracle, "NODE_BUDGET", 11_192)
    assert ramsey_value(4, 2, 1, 7).stats.nodes == 11_192
    monkeypatch.setattr(oracle, "NODE_BUDGET", 11_191)
    with pytest.raises(InfeasibleInstanceError,
                       match="^the search spent the budget of 11191 nodes and left K_6 open$"):
        ramsey_value(4, 2, 1, 7)


def test_search_keeps_its_own_stack():
    # the root settles K_59, and the search colors all 1,653 edges of K_58
    # straight down to the witness: each an open edge on its own stack, more
    # than the interpreter's default recursion limit of 1,000 frames
    res = ramsey_value(30, 2, 1, 60)
    assert (res.value, res.stats) == (59, (1653, 1, 1))


@pytest.mark.parametrize("n, t, s, value, stats", (
    (8, 9, 7, 11, (1130, 36, 967)),
    (9, 10, 8, 11, (5588, 45, 4991)),
    (11, 12, 10, 13, (16632, 66, 15188)),
))
def test_search_backtracks_with_many_colors_open(n, t, s, value, stats):
    # s = t-2, so the paper's value holds; the witness on K_{value-1} takes
    # up to t colors, and its search returns from many children (more
    # unpruned nodes than edges), each resumed edge sorting its colors again
    res = ramsey_value(n, t, s, value + 1)
    assert res.value == value == classify(n, t, s).value
    assert res.stats == stats
    nodes, _, prunes = res.checked[-1][1].stats
    assert nodes - prunes > (value - 1) * (value - 2) // 2


def test_any_t_in_memory_bounded_by_the_order():
    # rows hold min(t, p-1) colors and grow only with the colors in use,
    # so t = 10**18 costs what a few colors cost; every color past the
    # ones allowed counts as a canonical skip
    tracemalloc.start()
    try:
        witness = ramsey_value(3, 10**18, 1, 6)
        settled = ramsey_value(2, 10**18, 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.value is None and witness.stats.nodes == 15
    assert witness.stats.canonical_skips == 15 * 10**18 - 82
    assert settled.value == 3 and settled.stats == (0, 0, 1)
    assert peak < 2**20


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


def test_oracle_matches_classifier_where_feasible():
    # every t <= 7, 1 <= s < t and n whose parity-refined pigeonhole order
    # (computed independently in conftest) is at most K_29, so that the
    # witness search runs up to K_28 within the default node budget.  For
    # s >= t-2 the oracle must equal the paper's value, and below that the
    # parity-refined order
    t0 = time.perf_counter()
    points = 0
    for t in range(2, 8):
        for s in range(1, t):
            for n in itertools.count(1):
                if parity_pigeonhole_order(n, t, s) > 29:
                    break
                res = ramsey_value(n, t, s, pigeonhole_upper(n, t, s))
                if s >= t - 2:
                    assert res.value == classify(n, t, s).value, (n, t, s)
                else:
                    assert res.value == parity_pigeonhole_order(n, t, s), (n, t, s)
                points += 1
    assert points == 305
    # about 0.8 s on a 2-vCPU VM; K_30 at t = 7 would add about 1.8 s
    assert time.perf_counter() - t0 < 5


def test_oracle_refutes_the_xm2_clause_wherever_it_reaches():
    # The audit points: s = t-2 >= 1 with t <= 40 and n <= 400, where the
    # paper's x-2 default clause, as formulas transcribes it, lies above
    # star_upper's value.  At each one the search can reach (star_upper at
    # most K_40), the oracle, searching up to one order past the clause,
    # finds R at star_upper's value, below the clause
    audit = [(n, t, _t_minus_2_case(n, t)[1]) for t in range(3, 41) for n in range(2, 401)]
    audit = [(n, t, clause) for n, t, clause in audit if clause > star_upper(n, t, t - 2)[0]]
    assert len(audit) == 1911
    reached = [(n, t, clause) for n, t, clause in audit if star_upper(n, t, t - 2)[0] <= 40]
    assert [(n, t) for n, t, _ in reached] == [(9, 5), *((n, 5) for n in range(11, 25)),
                                              (25, 7), (29, 7)]
    for n, t, clause in reached:
        assert ramsey_value(n, t, t - 2, clause + 1).value == star_upper(n, t, t - 2)[0], (n, t)
