import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from starramsey import (
    EdgeColoring,
    canonical_edge,
    color_degree_profile,
    constructions,
    cyclic_matching_coloring,
    min_star_colors,
    regular_coloring,
)
from starramsey.coloring import (
    color_store,
    edge_count,
    edge_rank,
    edges,
    join_colors,
    patch_store,
)
from starramsey.errors import InvalidParameterError

from .conftest import (
    all_edges,
    colorings,
    degree_counts,
    edge_endpoints,
    near_one_factorization,
    one_factorization,
)


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
    if set(colors) != set(all_edges(3)):
        # a malformed edge set is refused where the coloring is built
        with pytest.raises(InvalidParameterError, match="^invalid coloring: (missing|unexpected)"):
            EdgeColoring(3, 2, colors)
        return
    coloring = EdgeColoring(3, 2, colors)
    with pytest.raises(InvalidParameterError):
        color_degree_profile(coloring)
    with pytest.raises(InvalidParameterError):
        min_star_colors(coloring, 2)


@pytest.mark.parametrize("p, t, top", [
    (9, 5, 5),        # one-byte colors, one bytes.count per color
    (60, 40, 40),     # 40 one-byte colors
    (300, 255, 255),  # every one-byte color, still one bytes.count each
    (40, 300, 300),   # colors past 255: an int64 store, counted by Counter
    (12, 10**6, 10**6),  # t > p-1: only the colors that occur get a column
])
def test_degree_table_matches_reference_on_every_store(p, t, top):
    rng = np.random.default_rng(p)
    colors = rng.integers(1, top + 1, edge_count(p))
    coloring = EdgeColoring.from_array(p, t, colors)
    expected = degree_counts(p, top, colors)
    palette, rows = coloring.color_degrees
    assert np.array_equal(np.array(rows), expected[:, np.array(palette) - 1])
    assert expected[:, np.setdiff1d(np.arange(top), np.array(palette) - 1)].sum() == 0
    if t <= p - 1:
        assert color_degree_profile(coloring) == expected.tolist()


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
    expected = all_edges(p)
    us, vs = edge_endpoints(p)
    assert list(zip(us.tolist(), vs.tolist())) == expected
    assert list(edges(p)) == expected
    assert [edge_rank(p, u, v) for u, v in expected] == list(range(len(expected)))


@pytest.mark.parametrize("p", [*range(71), 805])
def test_edge_endpoints_are_triu_indices_in_int32(p):
    # the reference endpoints, and the package's edge order, are numpy's
    # upper-triangle order
    us, vs = edge_endpoints(p)
    iu, iv = np.triu_indices(p, 1)
    assert us.dtype == vs.dtype == np.int32
    assert np.array_equal(us, iu + 1) and np.array_equal(vs, iv + 1)
    for ends in (us, vs):
        assert not ends.flags.writeable
        with pytest.raises(ValueError):
            ends[:1] = 0
    assert list(edges(p)) == list(zip((iu + 1).tolist(), (iv + 1).tolist()))


@pytest.mark.parametrize("x", range(3, 62, 2))
def test_matching_position_is_the_factorization_in_closed_form(x):
    # the rotation table with color i on M_i gives each edge its matching;
    # the cyclic coloring with x >= k colors gives its index k there
    center = constructions._rotation_colors(x, list(range(1, x + 1)), {})
    k = cyclic_matching_coloring(x, x).array
    expected = {e: (m.center, i) for m in near_one_factorization(x)
                for i, e in enumerate(m.edges, start=1)}
    assert list(zip(center, k)) == [expected[e] for e in all_edges(x)]


def test_matching_passes_stay_exact_past_int32():
    # in int32, (a + b)(x + 1)/2 passes 2^31 past x = 46,340, and
    # (a - b)(x + 1)/2 past x = 65,535; the tables are Python integers
    x, half = 70_001, 35_001
    pairs = [(1, 70_000), (2, 70_001), (69_999, 70_001)]
    centers = constructions._center_table(x, 2 * x)
    assert [centers[u + v] for u, v in pairs] == [((u + v) * half - 1) % x for u, v in pairs]
    d = [(u - v) * half % x for u, v in pairs]
    index = constructions._index_table(x)
    assert [index[v - u] for u, v in pairs] == [min(e, x - e) for e in d]


@given(colorings())
def test_array_and_mapping_forms_agree(coloring):
    again = EdgeColoring.from_array(coloring.p, coloring.t, coloring.array)
    assert again == coloring
    assert dict(again.colors) == dict(coloring.colors)
    assert list(again.colors) == all_edges(coloring.p)


def test_fresh_arrays_are_adopted_without_a_copy():
    # the builders, the bulk parser and the sampler hand over stores they
    # made; from_array still copies whatever it is given
    fresh = bytes(range(1, 7))
    coloring = EdgeColoring._adopt(4, 6, fresh)
    assert coloring.array is fresh
    given = bytearray(range(1, 7))
    copied = EdgeColoring.from_array(4, 6, given)
    given[0] = 6
    assert copied.array == fresh and copied == coloring
    for array in (np.arange(1, 7, dtype=np.int32), list(range(1, 7))):
        assert EdgeColoring.from_array(4, 6, array).array == fresh
    with pytest.raises(InvalidParameterError):
        EdgeColoring._adopt(5, 6, fresh)


def test_from_array_reads_at_most_one_color_past_the_edges():
    # an overlong input is refused once K_p's edges and one more are read
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="K_3 needs 3 colors, got more"):
            EdgeColoring.from_array(3, 2, range(1, 2_000_001))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_from_array_checks_the_order_before_reading():
    def unread():
        raise AssertionError("the colors were read before the order was checked")
        yield

    with pytest.raises(InvalidParameterError, match="K_100000 has"):
        EdgeColoring.from_array(100_000, 2, unread())


@pytest.mark.parametrize("values, kind", [
    ([1, 2, 255, 0, 7, 3], bytes),
    ([1, 2, 256, 0, 7, 3], memoryview),
    ([1, -1, 2, 0, 7, 3], memoryview),
    ([1, 2, (1 << 63) - 1, -(1 << 63), 7, 3], memoryview),
])
def test_store_is_bytes_exactly_when_every_color_fits_a_byte(values, kind):
    store = EdgeColoring.from_array(4, 6, values).array
    assert type(store) is kind and list(store) == values
    if kind is memoryview:
        assert store.readonly and store.format == "q"
    with pytest.raises(TypeError):
        store[0] = 2


@pytest.mark.parametrize("values, patches, expected", [
    ([1, 2, 255], {}, [1, 2, 255]),
    ([1, 2, 255], {0: 9, 2: 0}, [9, 2, 0]),
    ([1, 2, 255], {1: 256}, [1, 256, 255]),   # a color past one byte widens the store
    ([1, 300, 4], {1: 3}, [1, 3, 4]),         # and the last one going narrows it
    ([1, 300, 4], {0: -(1 << 63)}, [-(1 << 63), 300, 4]),
])
def test_patched_stores_take_the_kind_of_their_values(values, patches, expected):
    patched = patch_store(color_store(values), patches)
    assert type(patched) is type(color_store(expected)) and list(patched) == expected


@pytest.mark.parametrize("parts, expected", [
    ([b"\x01\x02", [3, 4], b""], [1, 2, 3, 4]),
    ([b"\x01\x02", [300, 4]], [1, 2, 300, 4]),
    ([[1], [-(1 << 63)]], [1, -(1 << 63)]),
])
def test_joined_parts_take_the_kind_of_their_values(parts, expected):
    joined = join_colors(parts)
    assert type(joined) is type(color_store(expected)) and list(joined) == expected


@pytest.mark.parametrize("parts", [[b"\x01", [1 << 63]], [[1, "2"]], [[1.0]]])
def test_joined_parts_refuse_what_the_store_refuses(parts):
    with pytest.raises(InvalidParameterError, match="64-bit integers"):
        join_colors(parts)


def test_colors_view_is_read_only():
    coloring = EdgeColoring(3, 2, {(1, 2): 1, (1, 3): 2, (2, 3): 1})
    with pytest.raises(TypeError):
        coloring.colors[(1, 2)] = 2
    with pytest.raises(TypeError):
        coloring.array[0] = 2
    assert coloring.colors == {(1, 2): 1, (1, 3): 2, (2, 3): 1}
    assert coloring.color_of(3, 1) == 2


def test_mapping_colors_must_be_integers():
    with pytest.raises(InvalidParameterError):
        EdgeColoring(2, 2, {(1, 2): 1.5})
    with pytest.raises(InvalidParameterError):
        EdgeColoring(2, 2, {(1, 2): 1 << 70})
