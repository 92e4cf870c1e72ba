"""Closed forms and case analysis for star Ramsey numbers under color budgets.

R(n, t, s) is the smallest p such that every t-coloring of E(K_p)
contains an n-edge star using at most s distinct colors.  Exact values
are implemented for s = t-1 and s = t-2; for other s only the general
bounds are available.

All bracket expressions are floors, and every threshold comparison is
done in exact integer arithmetic (cross-multiplied), never in floats.
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
    """Exact value plus the clause that fixed it and the witness recipe."""

    value: int
    case_tag: str
    witness: WitnessRecipe
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


def threshold_predicate(l: int, t: int, q: int, r: int) -> bool:
    """Decide x - l - 2q < n for the decomposition x - 2 = tq + r.

    Evaluates t > (2r+4)/l for even t and t > 1 + (2q+2r+4)/l for odd t,
    cross-multiplied so the comparison is exact.
    """
    if l < 1:
        raise InvalidParameterError(f"l must be >= 1, got {l}")
    if r < 0 or r > t - 1:
        raise InvalidParameterError(f"need 0 <= r <= t-1, got r={r}, t={t}")
    if t % 2 == 0:
        return t * l > 2 * r + 4
    return (t - 1) * l > 2 * q + 2 * r + 4


def general_bounds(n: int, t: int, l: int) -> BoundsInterval:
    """Bracket R for an arbitrary missing-color count l = t - s.

    upper is the smallest p with p > (t'n - 1)/(t' - 1) where t' = [t/l];
    lower is y - eps + 1 with y = [(t(n-l+1) - l)/(t-l)] and eps = 1 for
    odd y.  Needs t' >= 2.
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


def _witness_recipe(n: int, t: int, s: int, value: int) -> WitnessRecipe:
    """Pick the builder for a certificate coloring of K_{value-1}.

    Even orders always use a balanced partition of a 1-factorization.
    Odd orders use the color-regular or floor-regular rotation coloring
    when the residue mod t permits, the balanced matching-class split
    otherwise, and the cyclic filler when no n-star can exist at all.
    More than ``MAX_WITNESS_COLORS`` colors are refused before any list
    of t sizes is built.
    """
    if t > MAX_WITNESS_COLORS:
        raise InvalidParameterError(
            f"a witness for t = {t} colors may list t color classes; "
            f"the limit is {MAX_WITNESS_COLORS} colors")
    p = value - 1
    if n == 1 or p == 1:
        return WitnessRecipe("cyclic", {"p": p, "t": t})
    if s == 1 and t == 3:
        return WitnessRecipe("three-color-balanced", {"n": n})
    if p % 2 == 0:
        return WitnessRecipe("partitioned-factorization",
                             {"p": p, "class_sizes": balanced_class_sizes(p - 1, t)})
    if p <= n:
        return WitnessRecipe("cyclic", {"p": p, "t": t})
    q, r = divmod(p, t)
    if r == 1 and q >= 2 and q % 2 == 0:
        return WitnessRecipe("regular", {"t": t, "q": q})
    if 2 <= r <= t - 1 and q >= 1:
        return WitnessRecipe("near-regular", {"t": t, "q": q, "r": r})
    return WitnessRecipe("matching-classes",
                         {"p": p, "class_sizes": balanced_class_sizes(p, t)})


def _trivial_verdict(t: int) -> CaseVerdict:
    # A single edge is a 1-star with one color, so K_2 always suffices.
    return CaseVerdict(value=2, case_tag="trivial",
                       witness=WitnessRecipe("cyclic", {"p": 1, "t": t}))


def ramsey_star_t_minus_1(n: int, t: int) -> CaseVerdict:
    """Exact value for budget s = t-1.

    With x = [(nt-1)/(t-1)] and q = [x/t]: the value is x exactly when
    x = tq+1 with x and q both odd, and x+1 otherwise.
    """
    if t < 2:
        raise InvalidParameterError(f"need t >= 2, got {t}")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if n == 1:
        return _trivial_verdict(t)
    s = t - 1
    x = (n * t - 1) // (t - 1)
    q, r = divmod(x, t)
    if x % 2 == 0:
        value, tag = x + 1, "xp1.even-x"
    elif r == 1 and q % 2 == 1:
        value, tag = x, "x.odd-q"
    elif r == 1:
        value, tag = x + 1, "xp1.even-q"
    else:
        value, tag = x + 1, "xp1.remainder"
    return CaseVerdict(value=value, case_tag=tag,
                       witness=_witness_recipe(n, t, s, value),
                       x=x, q=q, r=r)


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


def ramsey_star_t_minus_2(n: int, t: int) -> CaseVerdict:
    """Exact value for budget s = t-2.

    t = 3 gives 3n-1 directly.  For t >= 4, with t' = [t/2],
    x = [(nt'-1)/(t'-1)] and x-2 = tq+r, at most one clause of the
    x+1 / x / x-1 case theorems fires, giving x-2 when none does.  That
    case value is capped at the pigeonhole bound U of
    ``pigeonhole_upper``; the case tag is ``pigeonhole`` when U is
    strictly smaller.  On t = 2..12, n <= 200 the cap only cuts the x-2
    default, and only for odd t.
    """
    if t < 3:
        raise InvalidParameterError(f"need t >= 3 for budget t-2, got {t}")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if n == 1:
        return _trivial_verdict(t)
    s = t - 2
    if t == 3:
        value = 3 * n - 1
        return CaseVerdict(value=value, case_tag="t3",
                           witness=_witness_recipe(n, t, s, value))
    t_prime = t // 2
    x = (n * t_prime - 1) // (t_prime - 1)
    q, r = divmod(x - 2, t)
    clauses = _t_minus_2_clauses(x, t, q, r)
    fired = [(tag, value) for tag, value, hit in clauses if hit]
    if len(fired) > 1:
        raise AssertionError(
            f"clause exclusivity violated at n={n}, t={t}: {fired}"
        )
    if fired:
        tag, value = fired[0]
    else:
        tag, value = "xm2", x - 2
    upper = pigeonhole_upper(n, t, s)
    if upper < value:
        tag, value = "pigeonhole", upper
    return CaseVerdict(value=value, case_tag=tag,
                       witness=_witness_recipe(n, t, s, value),
                       x=x, q=q, r=r)


def classify(n: int, t: int, s: int) -> CaseVerdict:
    """Dispatch on the color budget; only s = t-1 and s = t-2 have exact values."""
    if t < 2:
        raise InvalidParameterError(f"need t >= 2, got {t}")
    if not 1 <= s < t:
        raise InvalidParameterError(f"need 1 <= s < t, got s={s}, t={t}")
    if s == t - 1:
        return ramsey_star_t_minus_1(n, t)
    if s == t - 2:
        return ramsey_star_t_minus_2(n, t)
    raise UnsupportedParametersError(
        f"exact values cover s in {{t-1, t-2}} only, got s={s}, t={t}; "
        "use general_bounds for other budgets"
    )
