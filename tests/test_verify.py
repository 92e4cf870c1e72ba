import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starramsey import (
    EdgeColoring,
    check_certificate,
    min_star_colors,
    regular_coloring,
    sample_upper_check,
    three_color_balanced_coloring,
    validate,
)
from starramsey import coloring as coloring_module
from starramsey import verify
from starramsey.coloring import edge_count
from starramsey.errors import InvalidParameterError
from starramsey.verify import star_minima

from .conftest import (
    all_edges,
    brute_min_star,
    brute_star_at,
    colorings,
    degree_counts,
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
    assert min_star_colors(regular_coloring(2, 2), 3) == 2
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
    # two edges of a triangle meet, so every sample passes
    res = sample_upper_check(3, 2, 2, 1, trials=256, seed=11)
    assert res.passed


def test_sample_upper_check_at_known_value():
    res = sample_upper_check(5, 2, 3, 1, trials=10_000, seed=42)
    assert res.passed


def test_sample_upper_check_finds_proper_coloring():
    res = sample_upper_check(4, 2, 3, 1, trials=10_000, seed=42)
    assert not res.passed
    assert res.trial_index == 192
    assert validate(res.counterexample) == []
    assert min_star_colors(res.counterexample, 2) == 2


def test_sample_upper_check_is_order_independent():
    a = sample_upper_check(4, 2, 3, 1, trials=10_000, seed=42)
    b = sample_upper_check(4, 2, 3, 1, trials=10_000, seed=42)
    assert (a.passed, a.trial_index) == (b.passed, b.trial_index)
    # the failing trial draws the same coloring when reached directly
    c = sample_upper_check(4, 2, 3, 1, trials=193, seed=42)
    assert c.trial_index == a.trial_index
    assert c.counterexample == a.counterexample


_MASK = (1 << 64) - 1


def _splitmix64_color(p, t, seed, i, r):
    """Color of edge rank r in trial i, in Python integers."""
    def mix(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
        return z ^ z >> 31

    z = mix(seed) + (i * edge_count(p) + r + 1) * 0x9E3779B97F4A7C15
    return mix(z & _MASK) % t + 1


@pytest.mark.parametrize("p, t, seed, trial, rank", (
    (4, 3, 42, 192, 5), (5, 7, 2**64 - 1, 12_345, 3), (2, 1, 0, 0, 0),
    (100, 1000, 7, 2**40, 4949), (5793, 3, 1, (2**64 - 1) // edge_count(5793) - 1, 0),
))
def test_sample_colors_follow_splitmix64(p, t, seed, trial, rank):
    got = verify.sample_colors(p, t, seed, [trial], [rank])
    assert got == [_splitmix64_color(p, t, seed, trial, rank)]


_LAST_TRIAL = (2**64 - 1) // edge_count(5793) - 1  # (trial + 1) * m just below 2^64


@pytest.mark.parametrize("p, t, seed, trials, ranks", (
    # t = 1000: colors past one byte, in lanes of several trials at once
    (5, 1000, 0, range(40), range(10)), (100, 1000, 2**64 - 1, [0, 7, 2**40], [0, 4949, 17, 3]),
    # the counter limit: the last trial's last rank has counter (trial + 1) * m
    (5793, 3, 2**64 - 1, [0, _LAST_TRIAL - 1, _LAST_TRIAL], [0, 1, edge_count(5793) - 1]),
    (5793, 1000, 2**64 - 1, [_LAST_TRIAL], range(edge_count(5793) - 300, edge_count(5793))),
))
def test_sample_colors_lanes_follow_splitmix64(p, t, seed, trials, ranks):
    # every lane of a packed draw, trial-major, against the scalar reference
    assert verify.sample_colors(p, t, seed, trials, ranks) == [
        _splitmix64_color(p, t, seed, i, r) for i in trials for r in ranks]


def test_trial_drawn_alone_equals_trial_in_batch():
    p, t, seed = 7, 3, 5
    m = edge_count(p)
    ranks = range(m)
    batch = verify.sample_colors(p, t, seed, range(50), ranks)
    for i in (0, 1, 31, 49):
        alone = verify.sample_colors(p, t, seed, [i], ranks)
        assert alone == batch[i * m:(i + 1) * m]
        odd = verify.sample_colors(p, t, seed, [i], ranks[1::2])
        assert odd == batch[i * m + 1:(i + 1) * m:2]


def _per_trial_sample(p, n, t, s, trials, seed):
    """Unscreened reference: every trial's full coloring from the draw
    function, judged by numpy star minima over all p vertices at once, in
    one stack: (passed, first beating trial, its colors)."""
    ranks = range(edge_count(p))
    cols = np.array(verify.sample_colors(p, t, seed, range(trials), ranks)).reshape(trials, -1)
    beats = star_minima_reference(degree_counts(p, t, cols), n).min(axis=-1) > s
    if not beats.any():
        return True, None, None
    i = int(beats.argmax())
    return False, i, cols[i]


def _assert_sampler_matches_reference(monkeypatch, p, n, t, s, trials, seed, cells):
    passed, index, cols = _per_trial_sample(p, n, t, s, trials, seed)
    for batch_cells in cells:
        monkeypatch.setattr(verify, "SAMPLE_BATCH_EDGES", batch_cells)
        res = sample_upper_check(p, n, t, s, trials, seed)
        assert (res.passed, res.trial_index) == (passed, index), batch_cells
        if passed:
            assert res.counterexample is None
        else:
            assert list(res.counterexample.array) == cols.tolist()


# trial 192 is the first counterexample of (p, n, t, s) = (4, 2, 3, 1) at
# seed 42; these batch sizes put it in the first batch, on the last trial
# of a batch, on the first trial of the next, in the 20th batch, and in a
# batch of its own, and 192 trials stop just before it.  A K_4 trial at
# t = 3 counts as max(p - 1, t + 1) = 4 cells.
@pytest.mark.parametrize("batch", (None, 193, 192, 10, 1))
def test_batched_sampler_matches_per_trial_loop_at_batch_edges(monkeypatch, batch):
    cells = verify.SAMPLE_BATCH_EDGES if batch is None else batch * 4
    for trials in (192, 193, 10_000):
        _assert_sampler_matches_reference(monkeypatch, 4, 2, 3, 1, trials, 42, (cells,))


@pytest.mark.parametrize("p, n, t, s", (
    (5, 3, 2, 1), (6, 4, 2, 1), (4, 2, 3, 1), (5, 4, 3, 2),
    (4, 3, 4, 2), (6, 5, 4, 3), (9, 5, 2, 1), (7, 3, 3, 1), (7, 6, 4, 3),
))
def test_batched_sampler_matches_per_trial_loop(monkeypatch, p, n, t, s):
    # counterexamples at varied trials, and orders where 1000 trials find
    # none.  One cell gives one trial per batch, and 2^14 cells put all
    # 1000 trials in one.  At 2^12 cells (the default) 1000 trials end
    # inside a batch, and (7, 6, 4, 3) seeds 0 and 2 first fail past the
    # first one, at trials 794 and 730 (batches of 682)
    for seed in range(4):
        _assert_sampler_matches_reference(
            monkeypatch, p, n, t, s, 1000, seed, (1, 1 << 12, 1 << 14))


def test_screened_sampler_matches_reference_on_grid(monkeypatch):
    # 2,985 points, 976 of them with a counterexample; n = p leaves no
    # n-star, and t = p and p + 1 give rows of p - 1 cells over more
    # colors than cells
    for p in range(2, 9):
        for t in range(1, max(4, p + 1) + 1):
            for s in range(1, t + 1):
                for n in range(1, p + 1):
                    for seed in range(3):
                        _assert_sampler_matches_reference(
                            monkeypatch, p, n, t, s, 300, seed, (verify.SAMPLE_BATCH_EDGES,))


def _counting_draws(monkeypatch):
    """Count every lane the finalizer mixes, _mix(seed) as one lane."""
    drawn = []
    mix = verify._mix

    def counting(z, mask=verify._U64):
        drawn.append((mask.bit_length() + 64) // 128)
        return mix(z, mask)

    monkeypatch.setattr(verify, "_mix", counting)
    return drawn


def test_screen_draws_about_one_vertex_per_trial(monkeypatch):
    # at (200, 134, 3, 2) the most even row of 199 edges, [67, 66, 66],
    # covers only 133 edges with two colors, so the row bound leaves the
    # order open; vertex 1 settles a trial unless its smallest color class
    # holds 66 edges.  An unscreened sampler draws all 19,900 edges of each
    # trial.  Every draw, streamed or built, goes through the finalizer
    drawn = _counting_draws(monkeypatch)
    assert sample_upper_check(200, 134, 3, 2, trials=1000, seed=0).passed
    assert 1000 * 199 <= sum(drawn) <= 1.2 * 1000 * 199


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
    (400, 300, 4, 3), (5, 2, 2**63 - 1, 2), (1000, 3, 2**63 - 1, 3)))
def test_row_bound_draws_nothing(monkeypatch, p, n, t, s):
    # the most even row of p - 1 edges has an n-star on s colors, so vertex
    # 1 would settle every trial; a huge t builds no t-long row
    drawn = _counting_draws(monkeypatch)
    assert sample_upper_check(p, n, t, s, trials=8000, seed=1) == (True, 8000, None, None)
    assert drawn == []


@pytest.mark.parametrize("p, n, t, s", ((13, 10, 4, 3), (13, 7, 4, 2), (11, 6, 2, 1)))
def test_parity_order_draws_nothing(monkeypatch, p, n, t, s):
    # the row bound leaves these odd orders open ([3, 3, 3, 3] covers 9 < 10
    # edges with three colors and 6 < 7 with two, [5, 5] 5 < 6 with one),
    # but every admissible row is all odd, so the oracle's parity rule
    # refutes every coloring: the check passes with nothing drawn
    drawn = _counting_draws(monkeypatch)
    assert sample_upper_check(p, n, t, s, trials=8000, seed=1) == (True, 8000, None, None)
    assert drawn == []
    # the refusals still come first
    with pytest.raises(InvalidParameterError, match="seed must be"):
        sample_upper_check(p, n, t, s, trials=8000, seed=1 << 64)


def test_open_order_draws_the_screen(monkeypatch):
    # at (11, 9, 4, 3) the most even row, [3, 3, 2, 2], covers 8 < 9 edges
    # with three colors, and it is admissible with an even part, so neither
    # the row bound nor parity decides; K_11 lies below R = 12, but no trial
    # of seed 1 is a witness
    drawn = _counting_draws(monkeypatch)
    assert sample_upper_check(11, 9, 4, 3, trials=8000, seed=1) == (True, 8000, None, None)
    assert sum(drawn) >= 8000 * 10


def test_residues_are_lane_wise_mod_t():
    rng = random.Random(0)
    noise = [rng.getrandbits(64) for _ in range(1000)]
    for t in range(1, 256):
        lanes = [0, 1, t - 1, t, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + noise
        z = int.from_bytes(b"".join(x.to_bytes(16, "little") for x in lanes), "little")
        mask = int.from_bytes(verify._LANE * len(lanes), "little")
        assert list(verify._residues(z, t, mask, len(lanes))) == [x % t for x in lanes], t


@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_streamed_vertex_one_lanes_equal_sample_colors(monkeypatch, seed):
    # (6, 3, 3, 1) is open: the most even row, [2, 2, 1], needs two colors
    # for a 3-star.  A K_6 trial at t = 3 counts as 5 cells: batches of 4
    # trials, three full and then 2, and no trial of either seed beats it
    p, t, trials = 6, 3, 14
    monkeypatch.setattr(verify, "SAMPLE_BATCH_EDGES", 20)
    mixed = []
    mix = verify._mix

    def recording(z, mask=verify._U64):
        out = mix(z, mask)
        lanes = (mask.bit_length() + 64) // 128
        mixed.append(None if mask == verify._U64 else
                     list(array("Q", out.to_bytes(16 * lanes, "little"))[::2]))
        return out

    monkeypatch.setattr(verify, "_mix", recording)
    assert sample_upper_check(p, 3, t, 1, trials, seed).passed
    monkeypatch.setattr(verify, "_mix", mix)
    # _counters mixes the seed (None) before it builds lanes: vertex 1's
    # once, ahead of batch 0, and every later vertex's each time.  A later
    # batch's vertex 1 lanes are streamed, so they follow a lane mix
    assert mixed[0] is None
    calls = mixed[1:]
    first = calls[:1] + [lanes for before, lanes in zip(calls, calls[1:])
                         if before is not None and lanes is not None]
    batches = [range(start, min(start + 4, trials)) for start in range(0, trials, 4)]
    assert len(first) == len(batches) == 4
    assert len(calls) > 4  # some trial reached vertex 2
    for lanes, batch in zip(first, batches):
        assert len(lanes) == len(batch) * (p - 1)
        # t = 2^64 keeps each raw lane, plus one
        assert [x + 1 for x in lanes] == verify.sample_colors(p, 1 << 64, seed, batch, range(p - 1))


def test_sample_upper_check_no_star_order():
    res = sample_upper_check(3, 5, 2, 1, trials=10, seed=0)
    assert not res.passed and res.trial_index == 0
    assert list(res.counterexample.array) == verify.sample_colors(3, 2, 0, [0], range(3))


def test_sampler_batch_memory_does_not_grow_with_t(monkeypatch):
    # at t = 1000 a K_40 trial counts as t + 1 cells, so a batch holds 4
    # trials, and each trial's row holds only the colors that occur.  The
    # most even row, 39 ones, needs two colors for a 2-star, so the row
    # bound leaves the order open; a vertex whose 39 edges repeat a color
    # settles a trial, and all 409 trials are drawn
    sample_upper_check(5, 2, 1000, 1, trials=1, seed=0)
    drawn = _counting_draws(monkeypatch)
    tracemalloc.start()
    try:
        result = sample_upper_check(40, 2, 1000, 1, trials=409, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and result.trials == 409
    assert sum(drawn) >= 409 * 39
    assert peak < 2 << 20


def test_sampler_color_table_limit_boundary(monkeypatch):
    # the screen builds no p x t table (a row holds only the colors that
    # occur), so a t whose 5 x t table passes the limit is sampled; only a t
    # past 2^63-1, whose colors the counterexample's int64 store cannot hold,
    # is refused
    monkeypatch.setattr(coloring_module, "MAX_COLORING_BYTES", 32 * 5 * 1000)
    res = sample_upper_check(5, 2, 2**63 - 1, 1, trials=1, seed=0)
    assert (res.passed, res.trial_index) == (False, 0)
    assert list(res.counterexample.array) == verify.sample_colors(5, 2**63 - 1, 0, [0], range(10))
    with pytest.raises(InvalidParameterError, match=r"t must be <= 2\^63-1"):
        sample_upper_check(5, 2, 2**63, 1, trials=1, seed=0)


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
