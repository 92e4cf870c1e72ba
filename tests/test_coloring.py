import numpy as np
import pytest
from hypothesis import given

from starramsey import (
    EdgeColoring,
    all_edges,
    canonical_edge,
    color_degree_profile,
    min_star_colors,
    near_one_factorization,
    one_factorization,
    regular_coloring,
)
from starramsey.coloring import (
    edge_endpoints,
    edge_rank,
    matching_centers,
    matching_indices,
)
from starramsey.errors import InvalidParameterError

from .conftest import colorings


def test_near_factorization_printed_order_x5():
    m = near_one_factorization(5)
    # eliminating the last vertex pairs 1 with x-1, then 2 with x-2
    assert m[4].edges == ((1, 4), (2, 3))
    assert m[1].edges == ((1, 3), (4, 5))


def test_near_factorization_x3_forced():
    m = near_one_factorization(3)
    assert m[2].edges == ((1, 2),)
    assert m[0].edges == ((2, 3),)
    assert m[1].edges == ((1, 3),)


@pytest.mark.parametrize("x", range(3, 52, 2))
def test_near_factorization_partitions_edges(x):
    matchings = near_one_factorization(x)
    assert len(matchings) == x
    seen = set()
    for m in matchings:
        assert len(m.edges) == (x - 1) // 2
        verts = {m.center}
        for u, v in m.edges:
            assert u < v and m.center not in (u, v)
            assert u not in verts and v not in verts
            verts.update((u, v))
            assert (u, v) not in seen
            seen.add((u, v))
    assert seen == set(all_edges(x))


@pytest.mark.parametrize("x", range(3, 52, 2))
def test_near_factorization_center_sum(x):
    # edge {a, b} sits in M_i exactly when a + b = 2i (mod x)
    for m in near_one_factorization(x):
        for a, b in m.edges:
            assert (a + b) % x == (2 * m.center) % x


def test_one_factorization_small_cases():
    assert one_factorization(2) == [[(1, 2)]]
    rounds = one_factorization(4)
    assert len(rounds) == 3 and all(len(r) == 2 for r in rounds)
    assert {e for r in rounds for e in r} == set(all_edges(4))


@pytest.mark.parametrize("p", range(2, 51, 2))
def test_one_factorization_is_valid(p):
    rounds = one_factorization(p)
    assert len(rounds) == p - 1
    seen = set()
    for r in rounds:
        covered = set()
        for u, v in r:
            covered.update((u, v))
            assert (u, v) not in seen
            seen.add((u, v))
        assert covered == set(range(1, p + 1))
    assert seen == set(all_edges(p))


@pytest.mark.parametrize("bad", [0, -2, 3, 7])
def test_one_factorization_rejects_non_even(bad):
    with pytest.raises(InvalidParameterError):
        one_factorization(bad)


@pytest.mark.parametrize("bad", [1, 2, 4, -3])
def test_near_factorization_rejects_non_odd(bad):
    with pytest.raises(InvalidParameterError):
        near_one_factorization(bad)


def test_profile_monochromatic_k4():
    colors = {e: 1 for e in all_edges(4)}
    rows = color_degree_profile(EdgeColoring(4, 2, colors))
    assert rows == [[3, 0]] * 4


def test_profile_proper_k4():
    rounds = one_factorization(4)
    colors = {e: c for c, r in enumerate(rounds, 1) for e in r}
    rows = color_degree_profile(EdgeColoring(4, 3, colors))
    assert rows == [[1, 1, 1]] * 4


def test_profile_regular_coloring_k5():
    rows = color_degree_profile(regular_coloring(2, 2))
    assert rows == [[2, 2]] * 5


@pytest.mark.parametrize("colors", [
    {(1, 2): 1, (1, 3): 2},                         # (2, 3) missing
    {(1, 3): 1, (2, 3): 2},                         # (1, 2) missing, at vertex 1
    {(1, 2): 1, (1, 3): 2, (2, 3): 3},              # color above t
    {(1, 2): 1, (1, 3): 0, (2, 3): 2},              # color 0
    {(1, 2): 1, (1, 3): -1, (2, 3): 2},             # negative color
    {(1, 2): 1, (1, 3): 2, (2, 3): 1, (3, 4): 1},   # unexpected edge
])
def test_profile_refuses_malformed_colorings(colors):
    coloring = EdgeColoring(3, 2, colors)
    with pytest.raises(InvalidParameterError):
        color_degree_profile(coloring)
    with pytest.raises(InvalidParameterError):
        min_star_colors(coloring, 2)


@given(colorings())
def test_profile_rows_sum_to_degree(coloring):
    for row in color_degree_profile(coloring):
        assert sum(row) == coloring.p - 1


def test_canonical_edge():
    assert canonical_edge(5, 2) == (2, 5)
    with pytest.raises(InvalidParameterError):
        canonical_edge(3, 3)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 8, 21])
def test_edge_rank_and_endpoints_follow_lexicographic_order(p):
    edges = all_edges(p)
    us, vs = edge_endpoints(p)
    assert list(zip(us.tolist(), vs.tolist())) == edges
    assert [edge_rank(p, u, v) for u, v in edges] == list(range(len(edges)))


@pytest.mark.parametrize("p", [*range(71), 805])
def test_edge_endpoints_are_triu_indices_in_int32(p):
    us, vs = edge_endpoints(p)
    iu, iv = np.triu_indices(p, 1)
    assert us.dtype == vs.dtype == np.int32
    assert np.array_equal(us, iu + 1) and np.array_equal(vs, iv + 1)
    for ends in (us, vs):
        assert not ends.flags.writeable
        with pytest.raises(ValueError):
            ends[:1] = 0


@pytest.mark.parametrize("x", range(3, 62, 2))
def test_matching_position_is_the_factorization_in_closed_form(x):
    us, vs = edge_endpoints(x)
    center = matching_centers(us, vs, x) + 1
    k = matching_indices(us, vs, x)
    expected = {e: (m.center, i) for m in near_one_factorization(x)
                for i, e in enumerate(m.edges, start=1)}
    assert list(zip(center.tolist(), k.tolist())) == [expected[e] for e in all_edges(x)]


def test_matching_passes_stay_exact_past_int32():
    # in int32, (a + b)(x + 1)/2 passes 2^31 past x = 46,340, and
    # (a - b)(x + 1)/2 past x = 65,535
    x, half = 70_001, 35_001
    a = np.array([1, 2, 69_999], dtype=np.int32)
    b = np.array([70_000, 70_001, 70_001], dtype=np.int32)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert matching_centers(a, b, x).tolist() == [((u + v) * half - 1) % x for u, v in pairs]
    d = [(u - v) * half % x for u, v in pairs]
    assert matching_indices(a, b, x).tolist() == [min(e, x - e) for e in d]


@given(colorings())
def test_array_and_mapping_forms_agree(coloring):
    again = EdgeColoring.from_array(coloring.p, coloring.t, coloring.array)
    assert again == coloring
    assert dict(again.colors) == dict(coloring.colors)
    assert list(again.colors) == all_edges(coloring.p)


def test_fresh_arrays_are_adopted_without_a_copy():
    # the builders, the bulk parser and the sampler hand over int64 arrays
    # they made; from_array still copies whatever it is given
    fresh = np.arange(1, 7, dtype=np.int64)
    coloring = EdgeColoring._adopt(4, 6, fresh)
    assert coloring.array is fresh and not fresh.flags.writeable
    narrow = np.arange(1, 7, dtype=np.int32)
    assert EdgeColoring._adopt(4, 6, narrow).array.dtype == np.int64
    assert narrow.flags.writeable
    given_array = np.arange(1, 7, dtype=np.int64)
    copied = EdgeColoring.from_array(4, 6, given_array)
    assert copied.array is not given_array and given_array.flags.writeable
    assert copied == coloring
    with pytest.raises(InvalidParameterError):
        EdgeColoring._adopt(5, 6, fresh)


def test_colors_view_is_read_only():
    coloring = EdgeColoring(3, 2, {(1, 2): 1, (1, 3): 2, (2, 3): 1})
    with pytest.raises(TypeError):
        coloring.colors[(1, 2)] = 2
    with pytest.raises(ValueError):
        coloring.array[0] = 2
    assert coloring.colors == {(1, 2): 1, (1, 3): 2, (2, 3): 1}
    assert coloring.color_of(3, 1) == 2


def test_mapping_colors_must_be_integers():
    with pytest.raises(InvalidParameterError):
        EdgeColoring(2, 2, {(1, 2): 1.5})
    with pytest.raises(InvalidParameterError):
        EdgeColoring(2, 2, {(1, 2): 1 << 70})
