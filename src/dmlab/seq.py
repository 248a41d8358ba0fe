"""Symbolic families of sequences in (0, 1) with exact-summability tooling.

A family describes all of its terms at once, so membership of (a_n) in the
class "sum of a_n^p converges" is decided by exact rational comparisons, and
tails carry certified rational upper bounds instead of sampled estimates.

Families
    Geometric(a, q)          a_n = a * q^(n-1)
    Power(a, gamma, offset)  a_n = a / (n + offset)^gamma, integer gamma >= 1
                             (first term may equal 1, later terms are < 1)
    LogFloor(base)           a_n = base^floor(log2(n+1))
    Constant(value)          a_n = value
    ExplicitFinite(terms)    a finite prefix given outright
    Scaled(c, inner)         a_n = c * inner_n

Indices start at n = 1.  All parameters are exact rationals.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .enclosure import DEFAULT_BITS, pow_end, refine
from .errors import (
    DivergentSeries,
    IndexOutOfRange,
    InvalidFamily,
    PreconditionViolated,
    Undecidable,
)
from .ratio import Value, parse_integer, parse_rational, rat_str


def _frac(x) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise InvalidFamily(f"not a rational: {x!r}") from exc


class Geometric(Value):
    __slots__ = _fields = ("a", "q")

    def __init__(self, a: Fraction, q: Fraction) -> None:
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "q", _frac(q))
        if not 0 < self.q < 1:
            raise InvalidFamily("geometric ratio must satisfy 0 < q < 1")
        if not 0 < self.a < 1:
            raise InvalidFamily("geometric scale must satisfy 0 < a < 1")


class Power(Value):
    __slots__ = _fields = ("a", "gamma", "offset")

    def __init__(self, a: Fraction, gamma: int, offset: int = 0) -> None:
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "offset", offset)
        if not isinstance(self.gamma, int) or self.gamma < 1:
            raise InvalidFamily("power exponent must be an integer >= 1")
        if not isinstance(self.offset, int) or self.offset < 0:
            raise InvalidFamily("power offset must be an integer >= 0")
        # first term may equal 1 (consumers clip or skip degenerate factors)
        if self.a <= 0 or self.a / Fraction(1 + self.offset) ** self.gamma > 1:
            raise InvalidFamily("power family needs 0 < a/(1+offset)^gamma <= 1")


class LogFloor(Value):
    __slots__ = _fields = ("base",)

    def __init__(self, base: Fraction) -> None:
        object.__setattr__(self, "base", _frac(base))
        if not 0 < self.base < 1:
            raise InvalidFamily("logfloor base must satisfy 0 < base < 1")


class Constant(Value):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction) -> None:
        object.__setattr__(self, "value", _frac(value))
        if not 0 < self.value < 1:
            raise InvalidFamily("constant value must satisfy 0 < value < 1")


class ExplicitFinite(Value):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Fraction, ...]) -> None:
        terms = tuple(_frac(t) for t in terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise InvalidFamily("explicit family needs at least one term")
        if any(not 0 < t < 1 for t in terms):
            raise InvalidFamily("explicit terms must lie in (0, 1)")


class Scaled(Value):
    __slots__ = _fields = ("c", "inner")

    def __init__(self, c: Fraction, inner: SequenceFamily) -> None:
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "inner", inner)
        if self.c <= 0:
            raise InvalidFamily("scale must be positive")
        if self.c * sup_term(self.inner) >= 1:
            raise InvalidFamily("scaled terms must stay below 1")


SequenceFamily = Union[Geometric, Power, LogFloor, Constant, ExplicitFinite, Scaled]


class Summability(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"


class Ell0Kind(enum.Enum):
    IN_ELL0 = "in_ell0"
    NOT_IN_ELL0 = "not_in_ell0"
    UNDECIDABLE = "undecidable"


class Ell0Class(NamedTuple):
    kind: Ell0Kind
    witness: Fraction | None = None  # an exponent p where the p-th power sum diverges


def logfloor_exponent(n: int) -> int:
    """floor(log2(n+1)) for n >= 1."""
    if n < 1:
        raise IndexOutOfRange("term indices start at 1")
    return (n + 1).bit_length() - 1


def term(f: SequenceFamily, n: int) -> Fraction:
    """Exact n-th term, n >= 1."""
    if isinstance(f, Scaled):
        return f.c * term(f.inner, n)
    if isinstance(f, Geometric) and n >= 1:  # Fraction(*pair) would pay a gcd the size of the term
        return f.a * f.q ** (n - 1)
    return Fraction(*next(terms(f, n, n + 1)))


def terms(f: SequenceFamily, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Terms start .. stop - 1 as (numerator, denominator) integer pairs, equal
    to term(f, n) but not always reduced; a geometric term is the one before
    times q, a power term a / (n + offset)^gamma without a Fraction, and a
    logfloor block of 2^k equal terms one pair base^k repeated."""
    if start < 1:
        raise IndexOutOfRange("term indices start at 1")
    if isinstance(f, Geometric):
        (n, d), (qn, qd) = term(f, start).as_integer_ratio(), f.q.as_integer_ratio()
        for _ in range(start, stop):
            yield n, d
            n, d = n * qn, d * qd
    elif isinstance(f, Power):
        an, ad = f.a.as_integer_ratio()
        yield from ((an, ad * (n + f.offset) ** f.gamma) for n in range(start, stop))
    elif isinstance(f, LogFloor):  # block k: base^k at the indices 2^k - 1 .. 2^(k+1) - 2
        bn, bd = f.base.as_integer_ratio()
        for k in range(logfloor_exponent(start), logfloor_exponent(max(start, stop - 1)) + 1):
            yield from itertools.repeat((bn**k, bd**k), min(stop, (2 << k) - 1) - max(start, (1 << k) - 1))
    elif isinstance(f, Constant):
        yield from itertools.repeat(f.value.as_integer_ratio(), stop - start)
    elif isinstance(f, ExplicitFinite):
        yield from (x.as_integer_ratio() for x in f.terms[start - 1:stop - 1])
        if max(start, len(f.terms) + 1) < stop:  # an index past the end
            raise IndexOutOfRange(f"finite family has {len(f.terms)} terms")
    elif isinstance(f, Scaled):
        cn, cd = f.c.as_integer_ratio()
        yield from ((cn * n, cd * d) for n, d in terms(f.inner, start, stop))
    else:
        raise InvalidFamily(f"unknown family {f!r}")


def sup_term(f: SequenceFamily) -> Fraction:
    """Exact supremum of the terms (every family here is non-increasing)."""
    if isinstance(f, ExplicitFinite):
        return max(f.terms)
    if isinstance(f, Scaled):
        return f.c * sup_term(f.inner)
    return term(f, 1)


def family_length(f: SequenceFamily) -> int | None:
    """Number of terms for finite families, None for infinite ones."""
    if isinstance(f, ExplicitFinite):
        return len(f.terms)
    if isinstance(f, Scaled):
        return family_length(f.inner)
    return None


def classify_ellp(f: SequenceFamily, p: Fraction) -> Summability:
    """Decide whether the sum of a_n^p converges, by exact comparison."""
    p = Fraction(p)
    if p <= 0:
        raise PreconditionViolated("summability exponent must be positive")
    if isinstance(f, Geometric):
        return Summability.CONVERGES
    if isinstance(f, Power):
        return Summability.CONVERGES if f.gamma * p > 1 else Summability.DIVERGES
    if isinstance(f, LogFloor):
        # block k holds 2^k equal terms base^k, so the sum is geometric with
        # ratio 2 * base^p; convergence is 2 * base^p < 1, i.e.
        # base^u * 2^v < 1 for p = u/v, an exact integer comparison.
        u, v = p.numerator, p.denominator
        lhs = f.base.numerator**u * (1 << v)
        rhs = f.base.denominator**u
        return Summability.CONVERGES if lhs < rhs else Summability.DIVERGES
    if isinstance(f, Constant):
        return Summability.DIVERGES
    if isinstance(f, ExplicitFinite):
        raise Undecidable("a finite prefix cannot decide summability")
    if isinstance(f, Scaled):
        return classify_ellp(f.inner, p)
    raise InvalidFamily(f"unknown family {f!r}")


def classify_ell0(f: SequenceFamily) -> Ell0Class:
    """Decide membership in the intersection of all p-summability classes."""
    if isinstance(f, Geometric):
        return Ell0Class(Ell0Kind.IN_ELL0)
    if isinstance(f, Power):
        return Ell0Class(Ell0Kind.NOT_IN_ELL0, witness=Fraction(1, f.gamma))
    if isinstance(f, LogFloor):
        # witness p = 2^-k with base >= 2^(-2^k), so 2 * base^p >= 1
        k = 0
        while f.base < Fraction(1, 1 << (1 << k)):
            k += 1
        return Ell0Class(Ell0Kind.NOT_IN_ELL0, witness=Fraction(1, 1 << k))
    if isinstance(f, Constant):
        return Ell0Class(Ell0Kind.NOT_IN_ELL0, witness=Fraction(1))
    if isinstance(f, ExplicitFinite):
        return Ell0Class(Ell0Kind.UNDECIDABLE)
    if isinstance(f, Scaled):
        return classify_ell0(f.inner)
    raise InvalidFamily(f"unknown family {f!r}")


def series_total(f: SequenceFamily) -> Fraction:
    """Exact value of the full sum of the terms, where a closed form exists.

    Geometric: a/(1-q).  LogFloor: blocks of 2^k copies of base^k give
    2b/(1-2b) when 2b < 1.  ExplicitFinite: plain sum.  Raises
    DivergentSeries when the sum is infinite and Undecidable when no closed
    form is available (Power sums have no rational closed form).
    """
    if isinstance(f, Geometric):
        return f.a / (1 - f.q)
    if isinstance(f, LogFloor):
        if 2 * f.base >= 1:
            raise DivergentSeries("logfloor blocks do not shrink")
        return 2 * f.base / (1 - 2 * f.base)
    if isinstance(f, Constant):
        raise DivergentSeries("constant terms never sum")
    if isinstance(f, ExplicitFinite):
        return sum(f.terms, Fraction(0))
    if isinstance(f, Scaled):
        return f.c * series_total(f.inner)
    if isinstance(f, Power):
        raise Undecidable("no exact closed form for power-law sums")
    raise InvalidFamily(f"unknown family {f!r}")


def tail_sum_upper(
    f: SequenceFamily, p: Fraction, n_from: int, bits: int = DEFAULT_BITS
) -> Fraction:
    """Exact rational B with sum_{n > n_from} a_n^p <= B.

    Closed geometric forms for Geometric and LogFloor, an integral comparison
    for Power.  Raises DivergentSeries when no finite bound exists.
    """
    p = Fraction(p)
    if p <= 0:
        raise PreconditionViolated("summability exponent must be positive")
    if n_from < 0:
        raise PreconditionViolated("tail start must be >= 0")
    if isinstance(f, ExplicitFinite):
        if n_from >= len(f.terms):
            return Fraction(0)
        raise Undecidable("a finite prefix has no certified infinite tail")
    if classify_ellp(f, p) is Summability.DIVERGES:
        raise DivergentSeries("series diverges at this exponent")

    if isinstance(f, Geometric):
        # sum_{n > N} (a q^(n-1))^p = a^p q^(pN) / (1 - q^p)
        def attempt(bits_now: int):
            a_up = pow_end(f.a, p, True, bits_now)
            q_up = pow_end(f.q, p, True, bits_now)
            if q_up >= 1:
                return None
            return a_up * pow_end(f.q, p * n_from, True, bits_now) / (1 - q_up)

        return refine(attempt, bits)

    if isinstance(f, Power):
        # sum_{n > N} (n+offset)^(-gamma p) <= integral_{N+offset}^inf x^(-gamma p) dx
        start = n_from + f.offset
        if start < 1:
            # integral comparison needs a positive lower limit; peel one term
            first_up = pow_end(term(f, n_from + 1), p, True, bits)
            return first_up + tail_sum_upper(f, p, n_from + 1, bits)
        gp = f.gamma * p
        # one rung, settled at once: the ladder refuses a start below 1 bit as for the other families
        return refine(lambda b: pow_end(f.a, p, True, b) * pow_end(start, 1 - gp, True, b) / (gp - 1), bits)

    if isinstance(f, LogFloor):
        # block k: 2^k terms base^k at indices 2^k - 1 .. 2^(k+1) - 2; bound the rest of
        # n_from's block k exactly and the later blocks geometrically, with ratio 2 base^p
        k = (n_from + 1).bit_length() - 1
        rest = (2 << k) - 2 - n_from

        def attempt(bits_now: int):
            ratio_hi = 2 * pow_end(f.base, p, True, bits_now)
            if ratio_hi >= 1:
                return None
            block = rest * pow_end(f.base, p * k, True, bits_now) if rest else 0
            return block + (2 << k) * pow_end(f.base, p * (k + 1), True, bits_now) / (1 - ratio_hi)

        return refine(attempt, bits)

    if isinstance(f, Scaled):
        return pow_end(f.c, p, True, bits) * tail_sum_upper(f.inner, p, n_from, bits)

    raise InvalidFamily(f"unknown family {f!r}")


# --- JSON specs ------------------------------------------------------------

def family_to_spec(f: SequenceFamily) -> dict:
    if isinstance(f, Geometric):
        return {"kind": "geometric", "a": rat_str(f.a), "q": rat_str(f.q)}
    if isinstance(f, Power):
        return {
            "kind": "power",
            "a": rat_str(f.a),
            "gamma": f.gamma,
            "offset": f.offset,
        }
    if isinstance(f, LogFloor):
        return {"kind": "logfloor", "base": rat_str(f.base)}
    if isinstance(f, Constant):
        return {"kind": "constant", "value": rat_str(f.value)}
    if isinstance(f, ExplicitFinite):
        return {"kind": "explicit", "terms": [rat_str(t) for t in f.terms]}
    if isinstance(f, Scaled):
        return {"kind": "scaled", "c": rat_str(f.c), "inner": family_to_spec(f.inner)}
    raise InvalidFamily(f"unknown family {f!r}")


def family_from_spec(spec: dict) -> SequenceFamily:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidFamily("family spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "geometric":
            return Geometric(parse_rational(spec["a"]), parse_rational(spec["q"]))
        if kind == "power":
            return Power(parse_rational(spec["a"]), parse_integer(spec["gamma"]),
                         parse_integer(spec.get("offset", 0)))
        if kind == "logfloor":
            return LogFloor(parse_rational(spec["base"]))
        if kind == "constant":
            return Constant(parse_rational(spec["value"]))
        if kind == "explicit":
            if not isinstance(spec["terms"], list):
                raise InvalidFamily("an explicit family spec needs \"terms\": a list")
            return ExplicitFinite(tuple(parse_rational(t) for t in spec["terms"]))
        if kind == "scaled":
            return Scaled(parse_rational(spec["c"]), family_from_spec(spec["inner"]))
    except KeyError as exc:
        raise InvalidFamily(f"family spec missing field {exc}") from exc
    raise InvalidFamily(f"unknown family kind {kind!r}")
