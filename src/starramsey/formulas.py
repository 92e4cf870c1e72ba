"""Closed forms and case analysis for star Ramsey numbers under color budgets.

R(n, t, s) is the smallest p such that every t-coloring of E(K_p)
contains an n-edge star using at most s distinct colors.  One closed
form, ``star_upper``'s U_par (the pigeonhole bound with its parity cut),
gives R for every budget 1 <= s < t, and ``_witness_recipe`` names the
builder whose certificate shows R > U_par - 1; ``witness_coloring`` reads
both.  ``classify`` gives ``compute`` and ``table`` the paper's budgets
s = t-1 and s = t-2, whose case theorems only name the case; for other
s it refers to ``general_bounds``, the paper's bracket.

All bracket expressions are floors, and every comparison is done in
exact integer arithmetic, never in floats.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameterError, UnsupportedParametersError

# A witness recipe for t colors may list t class sizes, which ``compute``
# prints and ``construct`` builds into int64 colors, so a recipe is refused
# past this many colors: at the limit the list is 8 MiB and the printed
# witness line about 3 MiB.
MAX_WITNESS_COLORS = 1 << 20


class WitnessRecipe(NamedTuple):
    """Which builder produces the lower-bound certificate, with its arguments."""

    tag: str
    params: dict

    def describe(self) -> str:
        inner = ", ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.tag}({inner})"


class CaseVerdict(NamedTuple):
    """Exact value (``star_upper``'s), the paper clause that names it, and
    the witness recipe (None only in the rows ``_case_value`` returns)."""

    value: int
    case_tag: str
    witness: WitnessRecipe | None
    x: int | None = None
    q: int | None = None
    r: int | None = None


class BoundsInterval(NamedTuple):
    """General-l bracket: lower <= R <= upper."""

    lower: int
    upper: int
    y: int
    epsilon: int
    t_prime: int


def general_bounds(n: int, t: int, l: int) -> BoundsInterval:
    """Bracket R for an arbitrary missing-color count l = t - s.

    upper is the smallest p with p > (t'n - 1)/(t' - 1) where t' = [t/l];
    lower is y - eps + 1 with y = [(t(n-l+1) - l)/(t-l)] and eps = 1 for
    odd y.  Needs t' >= 2.  lower is the paper's formula, not clamped: it
    falls below the trivial n + 1, and even below 0, when n is small next
    to l (n = 2, t = 100, l = 50 gives lower = -95, while R(2, 100, 50) = 3).
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    if l < 1 or l >= t:
        raise InvalidParameterError(f"need 1 <= l < t, got l={l}, t={t}")
    t_prime = t // l
    if t_prime < 2:
        raise UnsupportedParametersError(
            f"bounds need floor(t/l) >= 2, got t={t}, l={l}"
        )
    upper = (t_prime * n - 1) // (t_prime - 1) + 1
    y = (t * (n - l + 1) - l) // (t - l)
    epsilon = 1 if y % 2 else 0
    return BoundsInterval(lower=y - epsilon + 1, upper=upper,
                          y=y, epsilon=epsilon, t_prime=t_prime)


def pigeonhole_upper(n: int, t: int, s: int) -> int:
    """Pigeonhole upper bound U >= R(n, t, s), valid for every budget s.

    With a = [(n-1)/s], a vertex of K_U has (t-s)a + n edges.  If its s
    largest color classes held at most n-1 of them, the other t-s would
    hold at least (t-s)a + 1, so one of them, and hence each of the s
    larger ones, would have a+1, for a total of s(a+1) >= n.  So R <= U.
    """
    return (t - s) * ((n - 1) // s) + n + 1


def balanced_class_sizes(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` sizes differing by at most one, small first."""
    if parts < 1 or total < 0:
        raise InvalidParameterError(f"bad split: total={total}, parts={parts}")
    q, r = divmod(total, parts)
    return [q] * (parts - r) + [q + 1] * r


def star_upper(n: int, t: int, s: int) -> tuple[int, str]:
    """U_par >= R(n, t, s) for every budget 1 <= s < t, with the argument
    that gives it: ``"pigeonhole"`` or ``"parity"``.

    Write a, b = divmod(n-1, s) and U = ``pigeonhole_upper(n, t, s)`` =
    (t-s)a + n + 1.  Call a vertex's color-degree row admissible when its
    s largest parts sum to at most n-1 = sa + b, so that every n-star
    there shows more than s colors.  A vertex of K_{U-1} has ta + b
    edges, so an admissible row leaves at least (t-s)a to its t-s
    smallest parts.  If they held more, the largest of them, and so each
    of the s larger parts, would reach a+1, and s(a+1) > sa + b.  So the
    t-s smallest parts are exactly a, and the s largest are a + e_i with
    e_i >= 0 and sum(e_i) = b.  (K_U has one edge more per vertex and no
    admissible row, which is the pigeonhole bound.)

    Every admissible row is all odd exactly when b = 0 and a is odd: with
    a even each row has an even part a, and with a odd and b >= 1 one
    part may be a+1.  Then U-1 = ta + 1 is odd exactly when t is even,
    and a coloring of K_{U-1} with admissible rows only would give each
    of its odd number of vertices odd degree in color 1, whose degrees
    sum to the even 2|E_1|.  So U_par = U-1 when b = 0, a is odd and t is even
    (the parity cut), and U_par = U otherwise.  ``_witness_recipe``
    gives the matching certificate of K_{U_par - 1}, so R = U_par.
    """
    a, b = divmod(n - 1, s)
    upper = pigeonhole_upper(n, t, s)
    if b == 0 and a % 2 == 1 and t % 2 == 0:
        return upper - 1, "parity"
    return upper, "pigeonhole"


def _witness_recipe(n: int, t: int, s: int, value: int) -> WitnessRecipe:
    """Pick the builder for a certificate coloring of K_p, p = value - 1,
    where value is ``star_upper``'s U_par.

    With a, b = divmod(n-1, s), p = ta + b + 1, or p = ta at a parity cut
    (b = 0, a odd, t even).  The coloring certifies R > p once the s
    largest color degrees of every vertex sum to at most n-1 = sa + b,
    and every p falls in one of four cases:

    * p even: the balanced partitioned factorization of the p-1 = ta + b
      (or ta - 1) matchings into t classes gives rows of a and a+1 with
      at most b parts a+1 (of a-1 and a at a cut), so the top-s sum is at
      most sa + b.
    * a = 0 (n <= s, p = n odd): K_n has no n-star at all; ``cyclic``.
    * b = 0 (p = ta + 1 odd, so a is even: a odd would make t even, the
      cut): ``regular(t, a)``, every row a, top-s sum sa.
    * otherwise p = ta + r with 2 <= r = b+1 <= s <= t-1:
      ``near-regular(t, a, r)``, every color at least a at every vertex,
      so the top-s sum is at most (p-1) - (t-s)a = sa + b.

    Before them n = 1 takes K_1, and (t, s) = (3, 1) the balanced
    three-coloring of K_{3n-2}.  ``_check_budget`` has already refused
    more than ``MAX_WITNESS_COLORS`` colors.
    """
    p = value - 1
    if n == 1:
        return WitnessRecipe("cyclic", {"p": p, "t": t})
    if s == 1 and t == 3:
        return WitnessRecipe("three-color-balanced", {"n": n})
    a, b = divmod(n - 1, s)
    if p % 2 == 0:
        return WitnessRecipe("partitioned-factorization",
                             {"p": p, "class_sizes": balanced_class_sizes(p - 1, t)})
    if a == 0:
        return WitnessRecipe("cyclic", {"p": p, "t": t})
    if b == 0:
        return WitnessRecipe("regular", {"t": t, "q": a})
    return WitnessRecipe("near-regular", {"t": t, "q": a, "r": b + 1})


# A single edge is a 1-star with one color, so K_2 always suffices; its
# witness is K_1, which lists no color classes.
_TRIVIAL = CaseVerdict(value=2, case_tag="trivial", witness=None)


def _check_budget(n: int, t: int, s: int) -> None:
    """The check ``witness_coloring`` and ``_case_value`` share: t >= 2,
    1 <= s < t, n >= 1, and for n >= 2 at most ``MAX_WITNESS_COLORS``
    colors, since a recipe may list t class sizes.  It builds no list."""
    if t < 2:
        raise InvalidParameterError(f"need t >= 2, got {t}")
    if not 1 <= s < t:
        raise InvalidParameterError(f"need 1 <= s < t, got s={s}, t={t}")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if n > 1 and t > MAX_WITNESS_COLORS:
        raise InvalidParameterError(
            f"a witness for t = {t} colors may list t color classes; "
            f"the limit is {MAX_WITNESS_COLORS} colors")


def _t_minus_1_case(n: int, t: int) -> tuple[str, int, int, int, int]:
    """The paper's clause for budget t-1, as (tag, clause value, x, q, r)."""
    x = (n * t - 1) // (t - 1)
    q, r = divmod(x, t)
    if x % 2 == 0:
        return "xp1.even-x", x + 1, x, q, r
    if r == 1 and q % 2 == 1:
        return "x.odd-q", x, x, q, r
    return ("xp1.even-q" if r == 1 else "xp1.remainder"), x + 1, x, q, r


def _t_minus_2_clauses(x: int, t: int, q: int, r: int) -> list[tuple[str, int, bool]]:
    """All clauses of the three t-2 case theorems, as (tag, value, fired)."""
    even_x = x % 2 == 0
    even_t = t % 2 == 0
    return [
        ("xp1.a", x + 1, r == t - 1 and r > 2 * q + 4 and even_x),
        ("xp1.b", x + 1, r == t - 1 and r > 2 * q + 4 and not even_x and not even_t),
        ("xp1.c", x + 1, r == t - 1 and not even_x and even_t and (q + 1) % 2 == 0),
        ("xp1.d", x + 1, r < t - 2 and even_t and t > 2 * r + 4),
        ("xp1.e", x + 1, r < t - 2 and not even_t and t > 2 * q + 2 * r + 5),
        ("x.a", x, r == t - 1 and not even_x and (q + 1) % 2 == 1),
        ("x.b", x, r < t - 2 and even_t and t <= 2 * r + 4),
        ("x.c", x, r < t - 2 and not even_t
         and q + r + 3 < t <= 2 * q + 2 * r + 5),
        ("xm1.a", x - 1, r == 1 and not even_t and 2 * q + 9 < 3 * t
         and t <= q + 4 and even_x),
        ("xm1.b", x - 1, r == 1 and not even_t and 2 * q + 9 < 3 * t
         and t <= q + 4 and not even_x),
        ("xm1.c", x - 1, 1 < r < t - 2 and not even_t
         and 2 * q + 2 * r + 7 < 3 * t and t <= q + r + 3),
        ("xm1.d", x - 1, r == t - 2
         and (even_t or 2 * q + 2 * r + 7 < 3 * t)),
    ]


def _t_minus_2_case(n: int, t: int) -> tuple[str, int, int | None, int | None, int | None]:
    """The paper's clause for budget t-2, as (tag, clause value, x, q, r).

    On t = 2..40, n <= 400 the clause value and ``star_upper``'s differ
    only at odd t >= 5, where the x-2 default exceeds the pigeonhole bound
    U and ``classify`` tags the case ``pigeonhole``.
    """
    if t == 3:
        return "t3", 3 * n - 1, None, None, None
    t_prime = t // 2
    x = (n * t_prime - 1) // (t_prime - 1)
    q, r = divmod(x - 2, t)
    fired = [(tag, value) for tag, value, hit in _t_minus_2_clauses(x, t, q, r) if hit]
    if len(fired) > 1:
        raise AssertionError(
            f"clause exclusivity violated at n={n}, t={t}: {fired}"
        )
    tag, value = fired[0] if fired else ("xm2", x - 2)
    return tag, value, x, q, r


def classify(n: int, t: int, s: int) -> CaseVerdict:
    """``star_upper``'s value, the paper's clause that names it and the
    witness recipe, for ``compute``'s budgets s = t-1 and s = t-2; other
    budgets are referred to ``general_bounds``.  No builder reads it."""
    case = _case_value(n, t, s)
    return case._replace(witness=_witness_recipe(n, t, s, case.value))


def _case_value(n: int, t: int, s: int) -> CaseVerdict:
    """``classify`` without the witness recipe (``witness`` is None): the
    same value, case tag, x, q, r and errors, and no t-sized class list.
    The value is ``star_upper``'s; the paper's clause names the case."""
    if 1 <= s < t - 2:  # false for a t or s the check refuses, so its errors come first
        raise UnsupportedParametersError(
            f"exact values cover s in {{t-1, t-2}} only, got s={s}, t={t}; "
            "use general_bounds for other budgets"
        )
    _check_budget(n, t, s)
    if n == 1:
        return _TRIVIAL
    value, _ = star_upper(n, t, s)
    tag, clause_value, x, q, r = (_t_minus_1_case if s == t - 1 else _t_minus_2_case)(n, t)
    if clause_value > value:
        tag = "pigeonhole"
    return CaseVerdict(value=value, case_tag=tag, witness=None, x=x, q=q, r=r)
