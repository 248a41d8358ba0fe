"""Parsing and deterministic rendering of exact rationals, and `Value`, the
base of the library's validated value types.

Rationals travel through configs and reports as "num/den" strings (plain
integers allowed).  Decimal renderings are produced by integer long division
only, so report bytes do not depend on platform float behavior.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv

from .errors import PreconditionViolated


class Value:
    """A validated, immutable value: its `__init__` checks and stores the
    fields named in `_fields`. Two values are equal, and hash alike, when they
    are of the same class and their fields are equal, so `Constant(1/2) !=
    LogFloor(1/2)`; the repr is `Name(field=value, ...)`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "num/den", "num", or pass through ints and Fractions."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise PreconditionViolated(f"cannot parse rational from {type(text).__name__}")
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionViolated(f"malformed rational {text!r}") from exc


def parse_integer(value: str | int) -> int:
    """An int or its decimal string; a bool, float, None, list or dict is
    refused rather than rounded or coerced."""
    try:
        if isinstance(value, str) or type(value) is int:
            return int(value)
    except ValueError:
        pass
    raise PreconditionViolated(f"malformed integer {value!r}")


def first_max(nums: list[int], dens: list[int]) -> int | None:
    """Index of the first largest nums[i] / dens[i] with dens[i] != 0, or None,
    for rows of integers >= 0.

    A float filter picks the candidates: int / int is correctly rounded and
    rounding is monotone, so the exact maximum, and every entry equal to it,
    has the largest float. Only those are cross-multiplied, in order; no
    float leaves here. A ratio past the float range makes all candidates."""
    try:
        fl = ([n / d if d else -1.0 for n, d in zip(nums, dens)] if 0 in dens
              else list(map(truediv, nums, dens)))
    except OverflowError:
        fl = [0.0 if d else -1.0 for d in dens]
    top = max(fl)
    if top < 0:
        return None
    best = i = fl.index(top)
    ties = fl.count(top) - 1
    # two ratios of terms below 2^25 that differ do so by more than two ulps,
    # so on such a row tied floats are equal ratios
    if not ties or max(nums) < 1 << 25 and max(dens) < 1 << 25:
        return best
    for _ in range(ties):  # the other candidates, the entries whose float equals top, in order
        i = fl.index(top, i + 1)
        if nums[i] * dens[best] > nums[best] * dens[i]:
            best = i
    return best


def randbelow(getrandbits, n: int) -> int:
    """`random.Random.randrange(n)`, n >= 1, from the generator's `getrandbits`
    as CPython draws it: n.bit_length() bits at a time until below n."""
    r = getrandbits(k := n.bit_length())
    while r >= n:
        r = getrandbits(k)
    return r


# reports print a huge rational as its outward rounding to this many decimal
# places, and a plotted value exactly only while its denominator fits these bits
SERIALIZE_PLACES = 60
PLOT_EXACT_BITS = 200


def rat_str(x: Fraction | int | str) -> str:
    """x as "num/den", or "num" when x is an integer."""
    return str(parse_rational(x))


def decimal_str(x: Fraction) -> str:
    """Render x with 12 significant digits, round-half-even, no floats.

    Uses positional notation for moderate magnitudes and e-notation outside
    [1e-4, 1e+16).  Deterministic across platforms.  Only the integers of
    x.as_integer_ratio() are compared and divided.
    """
    n, d = x.as_integer_ratio()
    if not n:
        return "0"
    sign, n = ("-", -n) if n < 0 else ("", n)
    # e = floor(log10(n/d)), first estimate from digit counts then correct
    e = len(str(n)) - len(str(d))
    if 10 ** max(e, 0) * d > n * 10 ** max(-e, 0):
        e -= 1
    # now 10^e <= n/d < 10^(e+1): q = n/d * 10^(11 - e) rounded half to even
    num, den = (n * 10 ** (11 - e), d) if e <= 11 else (n, d * 10 ** (e - 11))
    q, r = divmod(num, den)
    if 2 * r > den or 2 * r == den and q % 2:
        q += 1
    if q == 10**12:  # rounding bumped into the next decade
        q //= 10
        e += 1
    digits = str(q)  # 12 of them
    if not -4 <= e < 16:
        return f"{sign}{(digits[0] + '.' + digits[1:]).rstrip('0').rstrip('.')}e{e:+d}"
    if e >= 11:
        return sign + digits + "0" * (e - 11)
    out = digits[: e + 1] + "." + digits[e + 1 :] if e >= 0 else "0." + "0" * (-e - 1) + digits
    return sign + out.rstrip("0").rstrip(".")
