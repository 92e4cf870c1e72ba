import ast
import hashlib
import inspect
import random
import tracemalloc
from pathlib import Path

import pytest

from starramsey import (
    EdgeColoring,
    balanced_class_sizes,
    bulkparser,
    check_certificate,
    color_degree_profile,
    constructions,
    cyclic_matching_coloring,
    min_star_colors,
    near_regular_coloring,
    parse_coloring,
    partitioned_factorization_coloring,
    sample_upper_check,
    serialize_coloring,
    witness_coloring,
)
from starramsey import coloring as coloring_module
from starramsey.coloring import (
    BYTES_PER_EDGE,
    MAX_COLORING_BYTES,
    check_order,
    edge_count,
    edge_rank,
)
from starramsey.errors import ColoringFormatError, ConstructionFailedError, InvalidParameterError
from starramsey.exact import WitnessRecipe, star_upper
from starramsey.formulas import classify

from .conftest import monochrome_build, near_one_factorization


def _matching_colors(coloring):
    """Center i -> the colors of M_i's edges of odd K_p, in edge order k."""
    return {m.center: [coloring.color_of(*e) for e in m.edges]
            for m in near_one_factorization(coloring.p)}


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("q", (2, 4, 6))
def test_regular_layout_invariants(t, q):
    # the b = 0 certificate of K_x, x = tq+1, is cyclic: edge k of every
    # M_i takes (k-1) % t + 1, so each color holds q/2 of the indices k
    x = t * q + 1
    by_center = _matching_colors(cyclic_matching_coloring(x, t))
    by_k = [(k - 1) % t + 1 for k in range(1, (x + 1) // 2)]
    assert by_center == {i: by_k for i in range(1, x + 1)}
    assert sorted(by_k) == sorted(list(range(1, t + 1)) * (q // 2))


def test_near_regular_layout_invariants():
    # M_i of each class vertex i > r is one color (i-r-1) % t + 1, q centers
    # per color; the singletons 1 and r count t, ..., 1 and 1, ..., t
    for t, q, r in ((3, 1, 2), (4, 2, 3), (5, 3, 2), (7, 2, 5)):
        x = t * q + r
        by_center = _matching_colors(near_regular_coloring(t, q, r))
        ks = range(1, (x + 1) // 2)
        colors = [(i - r - 1) % t + 1 for i in range(r + 1, x + 1)]
        assert [by_center[i] for i in range(r + 1, x + 1)] == [[c] * len(ks) for c in colors]
        assert sorted(colors) == sorted(list(range(1, t + 1)) * q)
        assert by_center[1] == [(t - k) % t + 1 for k in ks]
        assert by_center[r] == [(k - 1) % t + 1 for k in ks]


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("q", (2, 4))
def test_regular_coloring_exact_rows(t, q):
    coloring = cyclic_matching_coloring(t * q + 1, t)
    assert coloring.p == t * q + 1
    assert color_degree_profile(coloring) == [[q] * t] * coloring.p


def test_regular_coloring_rejects_odd_q():
    # odd q: at odd t the order tq+1 is even, which the cyclic coloring
    # refuses, and at even t no q-regular class on tq+1 vertices exists,
    # so the cyclic rows are uneven there
    with pytest.raises(InvalidParameterError, match="need odd p"):
        cyclic_matching_coloring(3 * 3 + 1, 3)
    assert color_degree_profile(cyclic_matching_coloring(2 * 3 + 1, 2)) == [[4, 2]] * 7


def _valid_floor_triples(max_order):
    for t in range(3, max_order):
        for q in range(1, max_order):
            for r in range(2, t):
                x = t * q + r
                if x % 2 == 1 and x <= max_order:
                    yield t, q, r


def test_near_regular_floor_over_range():
    triples = list(_valid_floor_triples(41))
    assert triples
    for t, q, r in triples:
        coloring = near_regular_coloring(t, q, r)
        assert coloring.p == t * q + r
        for row in color_degree_profile(coloring):
            assert min(row) >= q


def test_near_regular_examples():
    coloring = near_regular_coloring(3, 1, 2)
    assert coloring.p == 5
    for row in color_degree_profile(coloring):
        assert min(row) >= 1
    coloring = near_regular_coloring(4, 2, 3)
    assert coloring.p == 11
    for row in color_degree_profile(coloring):
        assert min(row) >= 2


def test_near_regular_rejects_even_order_and_bad_r():
    with pytest.raises(InvalidParameterError, match="^order tq\\+r=6 must be odd$"):
        near_regular_coloring(4, 1, 2)
    with pytest.raises(InvalidParameterError, match="^need t >= 3, got 2$"):
        near_regular_coloring(2, 1, 2)
    with pytest.raises(InvalidParameterError):
        near_regular_coloring(3, 1, 3)   # r above t-1 (order 6 is even too)
    with pytest.raises(InvalidParameterError):
        near_regular_coloring(4, 1, 1)   # r below 2
    with pytest.raises(InvalidParameterError):
        near_regular_coloring(4, 1, 4)   # r above t-1
    with pytest.raises(InvalidParameterError):
        near_regular_coloring(4, 0, 3)   # q below 1


def test_partitioned_factorization_examples():
    coloring = partitioned_factorization_coloring(6, [2, 3])
    assert color_degree_profile(coloring) == [[2, 3]] * 6
    coloring = partitioned_factorization_coloring(4, [1, 1, 1])
    assert color_degree_profile(coloring) == [[1, 1, 1]] * 4
    with pytest.raises(InvalidParameterError):
        partitioned_factorization_coloring(6, [2, 2])
    with pytest.raises(InvalidParameterError):
        partitioned_factorization_coloring(5, [2, 2])
    with pytest.raises(InvalidParameterError,
                       match=r"^class sizes must be nonnegative, got \[4, -1\]$"):
        partitioned_factorization_coloring(4, [4, -1])


def test_partitioned_factorization_random_sizes():
    rng = random.Random(20240811)
    for p in range(2, 41, 2):
        for t in (2, 3, 5):
            cuts = sorted(rng.randint(0, p - 1) for _ in range(t - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [p - 1])]
            coloring = partitioned_factorization_coloring(p, sizes)
            assert color_degree_profile(coloring) == [sizes] * p


@pytest.mark.parametrize("n", range(2, 16))
def test_three_color_balanced(n):
    # (t, s) = (3, 1) takes the general cases: every row is [n-1] * 3
    coloring, recipe = witness_coloring(n, 3, 1)
    assert coloring.p == 3 * n - 2
    assert recipe.tag == ("partitioned-factorization" if n % 2 == 0 else "cyclic")
    assert color_degree_profile(coloring) == [[n - 1] * 3] * coloring.p


def test_three_color_balanced_rejects_small_n():
    # the (3, 1) witness takes n = 1 (K_1, no color class) and refuses n = 0
    coloring, recipe = witness_coloring(1, 3, 1)
    assert (coloring.p, recipe.tag) == (1, "cyclic")
    with pytest.raises(InvalidParameterError, match="need n >= 1"):
        witness_coloring(0, 3, 1)


def test_cyclic_matching_coloring():
    empty = cyclic_matching_coloring(1, 4)
    assert empty.p == 1 and empty.colors == {}
    coloring = cyclic_matching_coloring(7, 3)
    assert len(coloring.colors) == 21
    with pytest.raises(InvalidParameterError):
        cyclic_matching_coloring(4, 3)
    with pytest.raises(InvalidParameterError, match="^need t >= 1, got 0$"):
        cyclic_matching_coloring(5, 0)


@pytest.mark.parametrize("build, p, total", [
    (partitioned_factorization_coloring, 2, 1),   # sizes sum to p-1
])
def test_builder_row_check_does_not_scale_with_declared_t(build, p, total):
    # 2^20 declared colors, at most p of them used: the row check counts
    # only the colors that occur, so the builder's peak is about its own
    # copy of the size list (8 MiB); a p x t table made it 34 MiB
    sizes = balanced_class_sizes(total, 1 << 20)
    tracemalloc.start()
    try:
        coloring = build(p, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (coloring.p, coloring.t) == (p, 1 << 20)
    assert set(coloring.array) == {c for c, size in enumerate(sizes, 1) if size}
    assert peak < 12 << 20


@pytest.mark.parametrize("unused", [0, 1 << 12])
def test_builder_row_checks_still_fire(monkeypatch, unused):
    # every matching put in class 1: the rows no longer match the class
    # sizes, whether or not colors past p-1 are declared and left unused
    monkeypatch.setattr(constructions, "_classes_in_order", lambda sizes: [1] * sum(sizes))
    with pytest.raises(ConstructionFailedError,
                       match=r"^partitioned factorization row \[5, 0"):
        partitioned_factorization_coloring(6, [2, 3] + [0] * unused)
    # an even (3, 1) witness is the partitioned factorization, whose row
    # check is exactly the balanced one
    with pytest.raises(ConstructionFailedError, match=(
            r"^partitioned factorization row \[3, 0, 0\] != \[1, 1, 1\] at vertex 1$")):
        witness_coloring(2, 3, 1)
    # one color on every edge: the rotation and cyclic colorings miss
    # their rows at the first vertex
    monkeypatch.setattr(constructions, "_rotation_colors",
                        lambda p, color_of_center, by_k: b"\x01" * edge_count(p))
    with pytest.raises(ConstructionFailedError,
                       match=r"^near-regular row \[4, 0, 0\] below \[1, 1, 1\] at vertex 1$"):
        near_regular_coloring(3, 1, 2)
    monkeypatch.setattr(constructions, "_index_table", lambda x: [0] + [1] * (x - 1))
    with pytest.raises(ConstructionFailedError, match=(
            r"^cyclic row \[6, 0, 0\] != \[2, 2, 2\] at vertex 1$")):
        witness_coloring(3, 3, 1)
    # past p colors the row is checked over the p it can use, and so named
    with pytest.raises(ConstructionFailedError, match=(
            r"^cyclic row \[6, 0, 0, 0, 0, 0, 0\] != \[2, 2, 2, 0, 0, 0, 0\] at vertex 1$")):
        cyclic_matching_coloring(7, 2**40)


def test_recipe_factorization_is_the_balanced_class_list():
    # the partitioned-factorization recipe names (p, t) and lists no t
    # sizes; its coloring is the public builder's on the balanced sizes
    # over colors 1..min(t, p-1), byte for byte, and declares t colors on
    # both sides of t = p-1
    for p in range(2, 61, 2):
        for t in range(2, p + 3):
            recipe = WitnessRecipe("partitioned-factorization", {"p": p, "t": t})
            got = constructions.build_recipe(recipe)[0]
            want = partitioned_factorization_coloring(p, balanced_class_sizes(p - 1, min(t, p - 1)))
            assert (got.p, got.t, bytes(got.array)) == (want.p, t, bytes(want.array)), (p, t)


def test_balanced_class_sizes():
    assert balanced_class_sizes(5, 2) == [2, 3]
    assert balanced_class_sizes(6, 3) == [2, 2, 2]
    assert balanced_class_sizes(1, 4) == [0, 0, 0, 1]
    for total, parts in ((5, 0), (-1, 2)):
        with pytest.raises(InvalidParameterError,
                           match=f"^bad split: total={total}, parts={parts}$"):
            balanced_class_sizes(total, parts)


def test_witness_examples():
    coloring, recipe = witness_coloring(3, 3, 1)
    assert coloring.p == 7
    assert min_star_colors(coloring, 3) >= 2
    assert recipe == WitnessRecipe("cyclic", {"p": 7, "t": 3})

    coloring, recipe = witness_coloring(5, 4, 2)
    assert coloring.p == 9
    assert recipe == WitnessRecipe("cyclic", {"p": 9, "t": 4})
    assert min_star_colors(coloring, 5) >= 3

    coloring, recipe = witness_coloring(4, 2, 1)
    assert coloring.p == 6
    assert min_star_colors(coloring, 4) == 2

    coloring, recipe = witness_coloring(1, 4, 3)
    assert coloring.p == 1 and coloring.colors == {}


def test_witness_failure_is_loud(monkeypatch):
    # a builder that hands back a coloring with a cheap n-star must not
    # get past the certificate check
    monkeypatch.setattr(constructions, "build_recipe", monochrome_build)
    with pytest.raises(ConstructionFailedError):
        witness_coloring(9, 5, 3)


@pytest.mark.parametrize("t", [*range(2, 11), 2**20 + 1, 2**64])
def test_certificate_colors_never_pass_the_order(t):
    # a certificate of K_p uses colors below p and declares all t: every
    # budget s < t at small t, and at n <= s (K_n, odd and even n) past
    # 2^20 and 2^63-1
    budgets = range(1, t) if t <= 10 else (40, 41, t - 2, t - 1)
    for s in budgets:
        for n in range(1, 41):
            coloring = witness_coloring(n, t, s)[0]
            assert coloring.t == t, (n, t, s)
            assert max(coloring.array, default=0) < coloring.p, (n, t, s)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_certificate_bytes_are_pinned_over_grid():
    # 507 certificates, t = 2..8, s in {t-1, t-2}, n = 2..40: every recipe
    # tag _witness_recipe picks there; the digest pins the file bytes
    digest = hashlib.sha256()
    count = 0
    for t in range(2, 9):
        for s in (t - 1, t - 2):
            for n in range(2, 41) if s >= 1 else ():
                digest.update(serialize_coloring(witness_coloring(n, t, s)[0]).encode())
                count += 1
    assert count == 507
    assert digest.hexdigest() == (
        "57d63d8dc83c6b72fbe063253200302398a65bf4b8ef79cc3bae00a5c3217b3d")


@pytest.mark.parametrize("n, t, s, order, tag, prefix", [
    (600, 8, 6, 798, "partitioned-factorization", "f42f0988"),
    (571, 7, 5, 799, "cyclic", "5661b6b7"),
    (669, 12, 10, 801, "near-regular", "9791b949"),
    (269, 3, 1, 805, "cyclic", "5c28b78f"),
])
def test_large_certificate_bytes_are_pinned(n, t, s, order, tag, prefix):
    coloring, recipe = witness_coloring(n, t, s)
    assert (coloring.p, recipe.tag) == (order, tag)
    assert _sha256(serialize_coloring(coloring)).startswith(prefix)


@pytest.mark.parametrize("x", range(3, 62, 2))
def test_special_matching_ranks_are_the_center_scan(x):
    # the closed form lists M_i's edges by k, as the factorization does
    for m in near_one_factorization(x):
        assert constructions._matching_ranks(x, m.center) == [
            edge_rank(x, u, v) for u, v in m.edges]


_ONE_TABLE_CASES = [
    # (n, t, s, tag, params): params None takes _witness_recipe's recipe
    (4, 2, 1, "partitioned-factorization", None),       # K_6
    (3, 2, 1, "cyclic", None),                          # K_5, b = 0
    (4, 3, 2, "near-regular", None),                    # K_5
    (2, 3, 1, "partitioned-factorization", None),       # even K_4 at (t, s) = (3, 1)
    (5, 4, 2, "cyclic", None),                          # K_9, b = 0
    # odd K_7 at (3, 1), with its recipe stated here instead of picked
    (3, 3, 1, "cyclic", {"p": 7, "t": 3}),
]


def test_builder_table_covers_every_recipe():
    # every tag classify picks on the 507-point grid names a builder whose
    # keyword arguments are the params
    recipes = [classify(n, t, s).witness
               for t in range(2, 9) for s in (t - 1, t - 2) if s >= 1 for n in range(2, 41)]
    recipes += [WitnessRecipe(tag, params) for *_, tag, params in _ONE_TABLE_CASES if params]
    assert {recipe.tag for recipe in recipes} == set(constructions.BUILDERS)
    for recipe in recipes:
        inspect.signature(constructions.BUILDERS[recipe.tag]).bind(**recipe.params)
    with pytest.raises(InvalidParameterError, match=r"^unknown recipe tag 'nope'$"):
        constructions.build_recipe(WitnessRecipe("nope", {}))


def test_benchmark_counts_every_builder_tag():
    # perfbench/tracing.py counts builds per tag in RECIPE_TAGS; a tag
    # missing there would make its constructions.recipe.<tag> counter
    # read 0 without any error.  Read without importing the benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tags = [ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["RECIPE_TAGS"]]
    assert len(tags) == 1
    # the benchmark still lists the retired "matching-classes", "regular"
    # and "three-color-balanced" tags, whose counters read 0; they go at
    # the benchmark's next change
    assert sorted(tags[0]) == sorted([*constructions.BUILDERS, "matching-classes", "regular",
                                      "three-color-balanced"])


@pytest.mark.parametrize("n, t, s, tag, params", _ONE_TABLE_CASES)
def test_witness_coloring_builds_one_degree_table(monkeypatch, n, t, s, tag, params):
    # the builder's row check and the star check share one color-degree table
    if params is not None:
        monkeypatch.setattr(constructions, "_witness_recipe",
                            lambda *args: WitnessRecipe(tag, params))
    calls = []
    degree_table = coloring_module.degree_table
    monkeypatch.setattr(coloring_module, "degree_table",
                        lambda c: calls.append((c.p, c.t)) or degree_table(c))
    coloring, recipe = witness_coloring(n, t, s)
    assert recipe.tag == tag and coloring.p - 1 >= n
    assert calls == [(coloring.p, t)]
    assert check_certificate(coloring, n, s).passed and len(calls) == 1


def test_cyclic_coloring_takes_a_color_count_past_int32():
    # edge indices stay below p, so any t >= p leaves them as they are
    assert cyclic_matching_coloring(7, 2**40).array == cyclic_matching_coloring(7, 7).array


def test_oversized_order_is_refused_before_allocating():
    # (10^6, 8, 6) asks for K_1333332, 8.9e11 edges
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="K_1333332 has 888886444446 edges"):
            witness_coloring(1_000_000, 8, 6)
        with pytest.raises(InvalidParameterError, match="K_1333332"):
            sample_upper_check(1_333_332, 2, 3, 1, trials=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wide_palette_order_is_refused_before_its_recipe():
    # (2, 2^20, 1) asks for K_1048576, refused before the recipe lists
    # 2^20 class sizes (the list made a 16 MiB peak when it came first)
    message = ("^K_1048576 has 549755289600 edges, about 67108800 MiB of arrays; "
               "the limit is 2048 MiB$")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match=message):
            witness_coloring(2, 2**20, 1)
        with pytest.raises(InvalidParameterError, match=message):
            sample_upper_check(5, 2, 2**20, 1, trials=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_builders_refuse_oversized_orders_before_allocating():
    # the library builders and build_recipe check the order themselves,
    # before any per-vertex or per-edge list
    recipe = WitnessRecipe("partitioned-factorization", {"p": 100_000, "t": 3})
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="K_100001 has"):
            cyclic_matching_coloring(100_001, 3)
        with pytest.raises(InvalidParameterError, match="K_100000 has"):
            constructions.build_recipe(recipe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_rotation_builders_refuse_oversized_orders_before_their_layouts():
    # K_100002 and K_100001: the order is checked before the per-center
    # and per-k color lists, which peak at about 1.6 MB there
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="K_100002 has"):
            partitioned_factorization_coloring(100_002, [50_000, 50_001])
        with pytest.raises(InvalidParameterError, match="K_100001 has"):
            near_regular_coloring(3, 33_333, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_three_builder_cases_certify_every_budget():
    # witness_coloring, the path construct runs, certifies K_{U_par - 1}
    # at every budget with one of the three cases, and at b = 0 (p odd)
    # every color class is a-regular
    tags, count = set(), 0
    for t in range(2, 13):
        for s in range(1, t):
            for n in range(1, 61):
                value, _ = star_upper(n, t, s)
                coloring, recipe = witness_coloring(n, t, s)
                tags.add(recipe.tag)
                count += 1
                assert coloring.p == value - 1
                assert check_certificate(coloring, n, s).passed, (n, t, s, recipe)
                a, b = divmod(n - 1, s)
                if b == 0 and coloring.p % 2:
                    assert recipe.tag == "cyclic", (n, t, s)
                    assert color_degree_profile(coloring) == [[a] * t] * coloring.p, (n, t, s)
    assert tags == {"partitioned-factorization", "cyclic", "near-regular"}
    assert count == 3960


def test_size_limit_leaves_room_for_the_largest_certificates():
    assert edge_count(805) * BYTES_PER_EDGE * 20 < MAX_COLORING_BYTES
    check_order(5793)
    with pytest.raises(InvalidParameterError):
        check_order(5794)


def test_size_limit_spares_only_the_bulk_parser(monkeypatch):
    # lower the limit to K_10: K_11 is refused by construct, by the
    # library builders, by the mapping constructor, by sample-check and by
    # the line parser (at its own bytes per edge), but a canonical K_11
    # file still parses on the bulk path and checks
    coloring = near_regular_coloring(3, 3, 2)
    mapping = dict(coloring.colors)
    monkeypatch.setattr(coloring_module, "MAX_COLORING_BYTES", edge_count(10) * BYTES_PER_EDGE)
    with pytest.raises(InvalidParameterError, match="K_11"):
        witness_coloring(8, 3, 2)
    with pytest.raises(InvalidParameterError, match="K_11"):
        near_regular_coloring(3, 3, 2)
    with pytest.raises(InvalidParameterError, match="K_11"):
        sample_upper_check(11, 2, 3, 1, trials=1, seed=0)
    with pytest.raises(InvalidParameterError, match="K_11"):
        EdgeColoring(11, 3, mapping)
    text = serialize_coloring(coloring)
    assert bulkparser._parse_canonical(text.encode()) == coloring   # bulk path
    assert parse_coloring(text) == coloring
    # an indented comment is not dropped before the bulk path
    assert bulkparser._parse_canonical(b"  # K_11\n" + text.encode()) is None
    with pytest.raises(ColoringFormatError, match="^line 2: K_11 has 55 edges"):
        parse_coloring("  # K_11\n" + text)                    # line parser
    assert check_certificate(coloring, 8, 2).passed
