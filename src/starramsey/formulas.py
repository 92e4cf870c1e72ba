"""Closed forms and case analysis for star Ramsey numbers under color budgets.

R(n, t, s) is the smallest p such that every t-coloring of E(K_p)
contains an n-edge star using at most s distinct colors.  One closed
form, ``star_upper``'s U_par (the pigeonhole bound with its parity cut),
gives R for every budget 1 <= s < t, and ``_witness_recipe`` names the
builder whose certificate shows R > U_par - 1; both are ``exact``'s,
which ``construct`` loads without this module.  ``classify`` gives
``compute`` and ``table`` the paper's budgets s = t-1 and s = t-2, whose
case theorems only name the case; for other s it refers to
``general_bounds``, the paper's bracket.  ``classify`` imports ``exact``
on its first call (``_exact``), so ``bounds`` compiles none of it.

All bracket expressions are floors, and every comparison is done in
exact integer arithmetic, never in floats.
"""

import functools
from collections import namedtuple

from .errors import InvalidParameterError, UnsupportedParametersError


@functools.cache
def _exact():
    """The ``exact`` module, imported on the first call, so that
    ``bounds``, which never calls for it, compiles none of it; later calls
    cost a cache hit, not an import (``table`` calls once per row)."""
    from . import exact

    return exact


class CaseVerdict(namedtuple("CaseVerdict", "value case_tag witness x q r",
                             defaults=(None, None, None))):
    """Exact value (``star_upper``'s), the paper clause that names it, and
    the witness, a ``WitnessRecipe``.  ``x``, ``q`` and ``r`` are ints, or
    None where the clause has none (n = 1, and s = t-2 at t = 3)."""

    __slots__ = ()


class BoundsInterval(namedtuple("BoundsInterval", "lower upper y epsilon t_prime")):
    """General-l bracket: lower <= R <= upper, all five fields ints."""

    __slots__ = ()


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
    exact = _exact()
    if 1 <= s < t - 2:  # false for a t or s the check refuses, so its errors come first
        raise UnsupportedParametersError(
            f"exact values cover s in {{t-1, t-2}} only, got s={s}, t={t}; "
            "use general_bounds for other budgets"
        )
    exact._check_budget(n, t, s)
    value, _ = exact.star_upper(n, t, s)
    witness = exact._witness_recipe(n, t, s, value)
    if n == 1:  # a single edge is a 1-star on one color, so K_2 suffices
        return CaseVerdict(value, "trivial", witness)
    tag, clause_value, x, q, r = (_t_minus_1_case if s == t - 1 else _t_minus_2_case)(n, t)
    if clause_value > value:
        tag = "pigeonhole"
    return CaseVerdict(value, tag, witness, x, q, r)
