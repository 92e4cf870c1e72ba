"""R(n, t, s) for every budget 1 <= s < t: ``star_upper``'s U_par, and
``_witness_recipe``, the builder of its certificate of K_{U_par - 1}.
``witness_coloring`` reads both, and ``formulas.classify`` imports
them when called.  A recipe is a tag and at most three integers, so
naming one costs the same at any t.
"""

from collections import namedtuple

from .errors import InvalidParameterError


class WitnessRecipe(namedtuple("WitnessRecipe", "tag params")):
    """Which builder produces the lower-bound certificate (``tag``, a str),
    with its arguments (``params``, a dict of at most three ints)."""

    __slots__ = ()

    def describe(self) -> str:
        inner = ", ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.tag}({inner})"


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
    and every p falls in one of three cases:

    * p even: ``partitioned-factorization(p, t)``, the balanced split of
      the p-1 = ta + b (or ta - 1) matchings over min(t, p-1) classes,
      gives rows of a and a+1 with at most b parts a+1 (of a-1 and a at a
      cut), so the top-s sum is at most sa + b.  Past t = p-1 each color
      1..p-1 takes one matching, and the colors left unused are the parts
      0: parts a at a = 0, and the one part a-1 at the cut with a = 1,
      where p = t.
    * a = 0 or b = 0: ``cyclic(p, t)``.  At a = 0 (n <= s, p = n odd, n = 1
      among them) K_n has no n-star at all.  At b = 0, p = ta + 1 is odd,
      so a is even (a odd would make t even, the cut).  Each vertex meets
      every matching index k = 1..(p-1)/2 exactly twice, and t divides
      (p-1)/2 = t(a/2), so every color has exactly a edges at every
      vertex: top-s sum sa.
    * otherwise p = ta + r with 2 <= r = b+1 <= s <= t-1:
      ``near-regular(t, a, r)``, every color at least a at every vertex,
      so the top-s sum is at most (p-1) - (t-s)a = sa + b.
    """
    p = value - 1
    a, b = divmod(n - 1, s)
    if p % 2 == 0:
        return WitnessRecipe("partitioned-factorization", {"p": p, "t": t})
    if a == 0 or b == 0:
        return WitnessRecipe("cyclic", {"p": p, "t": t})
    return WitnessRecipe("near-regular", {"t": t, "q": a, "r": b + 1})


def _check_budget(n: int, t: int, s: int) -> None:
    """The check ``witness_coloring`` and ``formulas.classify`` share:
    t >= 2, 1 <= s < t and n >= 1."""
    if t < 2:
        raise InvalidParameterError(f"need t >= 2, got {t}")
    if not 1 <= s < t:
        raise InvalidParameterError(f"need 1 <= s < t, got s={s}, t={t}")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
