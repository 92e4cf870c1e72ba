"""Builders for the explicit colorings behind each lower-bound certificate.

Every builder checks its own postcondition before returning, so a
coloring handed back from this module is always a valid certificate for
the property its recipe promises.  ``exact._witness_recipe`` picks one
of three builders (partitioned factorization, cyclic, near-regular), and
its docstring proves the pick a certificate.

Each builder joins row slices of one table per order.  Edge {a, b} of
odd K_x lies in the near-matching M_i exactly when a + b = 2i (mod x),
so in the rotation colorings an edge's color depends only on u + v: row
u of K_p is a slice of one table indexed by u + v (``_rotation_colors``),
and on even p the edge (u, p) completing M_u of K_{p-1} takes the
table's entry at 2u.  The cyclic colors use the index k of the edge
within its matching, which depends only on v - u.  The near-regular
coloring gives each matching a color that is a closed form in its center
i, and colors the edges of the matchings it patches by a closed form in
k.  One row check, ``_certified``, builds the degree table and raises
"<name> row [...] != [...] at vertex v" (``below`` for a floor);
``witness_coloring`` then asks ``verify.check_certificate``, the verdict
``verify`` prints, which reuses that table.  ``BUILDERS`` maps recipe
tags to builders.
Every builder refuses an order past ``coloring.check_order``'s limit
before it builds any per-vertex or per-edge list.
"""

from .coloring import EdgeColoring, check_order, color_store, edge_rank, join_store, patch_store
from .errors import ConstructionFailedError, InvalidParameterError
from .exact import WitnessRecipe, _check_budget, _witness_recipe, balanced_class_sizes, star_upper
from .verify import check_certificate


def _certified(coloring: EdgeColoring, name: str, expected: list[int],
               at_least: bool = False) -> EdgeColoring:
    """``coloring`` once each row of its ``color_degrees`` equals
    ``expected``, the row over colors 1..len(expected) (every color the
    coloring uses, and 0 at the others), at the palette's colors, or
    reaches it when ``at_least``.  Once t > p-1 that table counts only the
    colors that occur; every exact row here is nonnegative and sums to
    p-1, as every real row does, so rows that agree there agree on all t
    colors.  A failure shows the row over the colors ``expected`` covers.
    """
    palette, rows = coloring.color_degrees
    covered = range(1, len(expected) + 1)
    want = tuple(expected[c - 1] if c in covered else 0 for c in palette)
    if at_least:
        bad = (v for v, row in enumerate(rows) if any(map(int.__lt__, row, want)))
    else:
        bad = (v for v, row in enumerate(rows) if row != want)
    v = next(bad, None)
    if v is not None:
        got = dict(zip(palette, rows[v]))
        raise ConstructionFailedError(
            f"{name} row {[got.get(c, 0) for c in covered]} "
            f"{'below' if at_least else '!='} "
            f"{expected} at vertex {v + 1}"
        )
    return coloring


def _classes_in_order(sizes: list[int]) -> list[int]:
    """The class of each matching in order: class c takes sizes[c-1]
    consecutive matchings, and a class of size 0 takes no room."""
    return [c for c, size in enumerate(sizes, 1) if size for _ in range(size)]


def partitioned_factorization_coloring(p: int, class_sizes: list[int]) -> EdgeColoring:
    """Group the p-1 perfect matchings of even K_p into color classes.

    Round i of the circle method is M_i of K_{p-1} plus the edge (i, p);
    rounds go to colors in order, class_sizes[c-1] rounds each.  Each
    round touches every vertex once, so every vertex sees exactly
    class_sizes[c-1] edges of color c.
    """
    if p < 2 or p % 2:
        raise InvalidParameterError(f"need even p >= 2, got {p}")
    sizes = list(class_sizes)
    if not sizes or any(sz < 0 for sz in sizes):
        raise InvalidParameterError(f"class sizes must be nonnegative, got {sizes}")
    if sum(sizes) != p - 1:
        raise InvalidParameterError(
            f"class sizes must sum to p-1={p - 1}, got {sizes} (sum {sum(sizes)})"
        )
    check_order(p)
    return _factorization(p, len(sizes), sizes)


def _balanced_factorization(p: int, t: int) -> EdgeColoring:
    """K_p with its p-1 rounds split evenly over colors 1..min(t, p-1),
    small classes first, in a file that declares t colors: at t <= p-1,
    ``partitioned_factorization_coloring(p, balanced_class_sizes(p-1, t))``;
    past it, one round per color and colors p..t unused, so no color
    exceeds p-1.  The builder of a ``partitioned-factorization`` recipe."""
    if p < 2 or p % 2:
        raise InvalidParameterError(f"need even p >= 2, got {p}")
    if t < 1:
        raise InvalidParameterError(f"need t >= 1, got {t}")
    check_order(p)
    return _factorization(p, t, balanced_class_sizes(p - 1, min(t, p - 1)))


def _factorization(p: int, t: int, sizes: list[int]) -> EdgeColoring:
    """K_p with its rounds in colors 1..len(sizes), color c taking
    sizes[c-1] of them in order; its callers check the order first."""
    coloring = EdgeColoring._adopt(p, t, _rotation_colors(p, _classes_in_order(sizes), {}))
    return _certified(coloring, "partitioned factorization", sizes)


def _center_table(x: int, size: int) -> list[int]:
    """i - 1 for the near-matching M_i of odd K_x that holds the edges
    {a, b} with a + b = s, for s = 0..size-1: 2i = s (mod x)."""
    half = (x + 1) // 2  # the inverse of 2 mod x
    return [(s * half - 1) % x for s in range(size)]


def _index_table(x: int) -> list[int]:
    """k for the edges {a, b} of odd K_x with b - a = d, for d = 0..x-1
    (0 at d = 0): edge k of its matching joins i+k and i-k, so (a - b)/2
    = +-k (mod x)."""
    half = (x + 1) // 2
    return [min(k, x - k) for k in (d * half % x for d in range(x))]


def _rotation_colors(p: int, color_of_center: list[int], by_k: dict):
    """The store of K_p colored by the near-factorization of odd K_x, x = p
    or p-1: every edge of M_i gets color_of_center[i-1], except that M_i
    for i in ``by_k`` colors its edge k with by_k[i][k-1].  On even p the
    edge (i, p) completes M_i and gets color_of_center[i-1] too.

    Edge (u, v) lies in M_i for 2i = u + v (mod x), so its color is
    table[u + v], and row u is table[2u+1 : u+x+1], v = u+1..x; the edge
    (u, p) of even p is table[2u], whose center is u.  Its callers check
    the order first."""
    x = p - 1 + p % 2
    table = color_store([color_of_center[i] for i in _center_table(x, p + x + 1)])
    rows = []
    for u in range(1, p):
        rows.append(table[2 * u + 1:u + x + 1])
        if x < p:
            rows.append(table[2 * u:2 * u + 1])
    patches = {}
    for i, k_colors in by_k.items():  # at most t-1 matchings of (x-1)/2 edges
        patches.update(zip(_matching_ranks(x, i), k_colors))
    return patch_store(join_store(rows, table), patches)


def _matching_ranks(x: int, i: int) -> list[int]:
    """Edge ranks of M_i of odd K_x in edge order: edge k joins the circle
    positions i+k and i-k."""
    ranks = []
    for k in range(1, (x + 1) // 2):
        a, b = (i + k - 1) % x + 1, (i - k - 1) % x + 1
        ranks.append(edge_rank(x, min(a, b), max(a, b)))
    return ranks


def near_regular_coloring(t: int, q: int, r: int) -> EdgeColoring:
    """t-coloring of odd K_x, x = tq+r, 2 <= r <= t-1, with >= q of every
    color at every vertex.

    The matching M_i of each class vertex i > r is colored wholly with
    c(i) = (i-r-1) mod t + 1, so every color colors q of them.  The
    singletons 1..r lie in all of them, and a class vertex v in all but
    its own M_v, where it gets q-1 of c(v).  One singleton matching makes
    up for it, its edge k joining positions i+k and i-k:

    * if v - r <= (x-1)/2, the last singleton's matching (i = r) meets v
      at k = v - r, and colors that edge ((k-1) mod t) + 1 = c(v);
    * otherwise the first singleton's matching (i = 1) meets v at
      k = x - (v-1), which is at most (x-1)/2 because v >= r + (x+1)/2,
      and colors that edge (t-k) mod t + 1 = (v-1-tq) mod t + 1 = c(v).

    So every row is at least q.  The singletons in between take a cyclic
    filler, and ``_certified`` checks the floor at every build.
    """
    if t < 3:
        raise InvalidParameterError(f"need t >= 3, got {t}")
    if q < 1:
        raise InvalidParameterError(f"need q >= 1, got {q}")
    if not 2 <= r <= t - 1:
        raise InvalidParameterError(f"need 2 <= r <= t-1, got r={r}, t={t}")
    x = t * q + r
    if x % 2 == 0:
        raise InvalidParameterError(f"order tq+r={x} must be odd")
    check_order(x)
    color_of_center = [0] * r + [(i - r - 1) % t + 1 for i in range(r + 1, x + 1)]
    ks = range(1, (x + 1) // 2)
    by_k = {i: [(k + i - 1) % t + 1 for k in ks] for i in range(2, r)}
    by_k.update({1: [(t - k) % t + 1 for k in ks], r: [(k - 1) % t + 1 for k in ks]})
    coloring = EdgeColoring._adopt(x, t, _rotation_colors(x, color_of_center, by_k))
    # t < x, so the floor is checked on all t colors
    return _certified(coloring, "near-regular", [q] * t, at_least=True)


def cyclic_matching_coloring(p: int, t: int) -> EdgeColoring:
    """Color edge k of every near-matching of odd K_p with ((k-1) mod t) + 1.

    Edge k of M_i joins i+k and i-k, so an edge (u, v) has k = +-(u-v)/2
    (mod p), a function of v - u: row u is table[1 : p-u+1] of one table
    indexed by v - u.  A vertex v meets each k = 1..(p-1)/2 exactly twice,
    in M_{v-k} and M_{v+k}, so it has 2 #{k <= (p-1)/2 : k = c mod
    min(t, p)} edges of color c, which ``_certified`` checks over those
    min(t, p) colors.  When t divides (p-1)/2 every color class is
    (p-1)/t-regular; that is the certificate at b = 0, and at a = 0 the
    filler when no n-star exists at all.
    """
    if t < 1:
        raise InvalidParameterError(f"need t >= 1, got {t}")
    if p < 1 or p % 2 == 0:
        raise InvalidParameterError(f"need odd p >= 1, got {p}")
    check_order(p)
    period = min(t, p)  # k <= (p-1)/2, so any t >= p acts as p
    table = color_store([(k - 1) % period + 1 if k else 0 for k in _index_table(p)])
    coloring = EdgeColoring._adopt(p, t, join_store(
        [table[1:p - u + 1] for u in range(1, p)], table))
    q, r = divmod((p - 1) // 2, period)
    return _certified(coloring, "cyclic", [2 * (q + (c <= r)) for c in range(1, period + 1)])


# recipe tag -> builder, in the order ``_witness_recipe`` tries them; a
# recipe's params are its builder's keyword arguments
BUILDERS = {
    "partitioned-factorization": _balanced_factorization,
    "cyclic": cyclic_matching_coloring,
    "near-regular": near_regular_coloring,
}


def build_recipe(recipe: WitnessRecipe) -> tuple[EdgeColoring, WitnessRecipe]:
    """Run a witness recipe; the returned recipe records what was executed."""
    # a pair, because perfbench/tracing.py reads the coloring as result[0]
    builder = BUILDERS.get(recipe.tag)
    if builder is None:
        raise InvalidParameterError(f"unknown recipe tag {recipe.tag!r}")
    return builder(**recipe.params), recipe


def witness_coloring(n: int, t: int, s: int) -> tuple[EdgeColoring, WitnessRecipe]:
    """Certificate coloring of K_{R-1} for (n, t, s), any budget 1 <= s < t:
    R is ``star_upper``'s value and the builder ``_witness_recipe``'s,
    after ``_check_budget``.  ``check_certificate`` checks the claim (every
    n-star shows at least s+1 colors) before the coloring is returned; a
    failed check raises ``ConstructionFailedError``, naming ``star_upper``'s
    argument.  Each builder refuses an order past ``check_order``'s limit.
    """
    _check_budget(n, t, s)
    value, argument = star_upper(n, t, s)
    coloring, recipe = build_recipe(_witness_recipe(n, t, s, value))
    cert = check_certificate(coloring, n, s)
    if not cert.passed:
        raise ConstructionFailedError(
            f"recipe {recipe.describe()} for (n={n}, t={t}, s={s}) built K_{coloring.p} "
            f"with an n-star on {cert.min_colors} <= {s} colors; "
            f"the {argument} value {value} has no certificate here"
        )
    return coloring, recipe
