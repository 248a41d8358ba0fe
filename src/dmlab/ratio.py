"""Parsing and deterministic rendering of exact rationals, and `Value`, the
base of the library's validated value types.

Rationals travel through configs and reports as "num/den" strings (plain
integers allowed).  Decimal renderings are produced by integer long division
only, so report bytes do not depend on platform float behavior.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, islice, repeat
from math import inf
from operator import ge, lt, truediv

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


def first_max(num: list[float], den: list[float], err: int, exact) -> tuple[int, int, int] | None:
    """(i, N_i, D_i) for the first largest N_i / D_i over the entries kept,
    or None if none is, from float rows made once per scan: num[i], den[i]
    in [0, 2^53] are within err >= 1 of c N_i, c D_i for one c > 0 per row
    and 0 only where N_i, D_i are, or equal N_i, D_i if err = 0; entry i is
    dropped where num[i] = -inf or den[i] = 0, else D_i > 0; exact(idx),
    called only if err, gives the lists of N_i and D_i, integers >= 0, for
    ascending kept indices idx.

    The slack. Let r_i = num[i] / den[i] as rounded (-inf if dropped), top
    the largest, j its first entry. If top = 0, every N_i kept is 0 and j
    is the answer. If err = 0, r_i is N_i / D_i correctly rounded, so every
    maximum has r_i = top and only those are candidates; j is the answer if
    it alone has top, or if every float is below 2^25 (then N_i / D_i !=
    N_k / D_k differ by at least 1 / (D_i D_k), over 2^-50 of N_i / D_i:
    more than two ulps, so no float of both). If err >= 1, ref = (num[j] - err) / (den[j] + err), rounded down, or 0,
    is at most N_j / D_j <= M, the row's maximum. An entry at M has N_i >=
    ref D_i, so num[i] - ref den[i] >= -err (1 + ref); with den[i] >= beta
    = err (1 + ref) 2^20 / ref, rounded up, num[i] / den[i] >= ref (1 -
    2^-20) and r_i >= ref (1 - 2^-19). The candidates are the entries with
    r_i at least that and the kept ones with den[i] < beta (all if ref =
    0): ties of any size, and tiny masses a float cannot rank. They are
    cross-multiplied with the best so far in row order, which a later one
    replaces only when strictly greater."""
    try:
        fl = list(map(truediv, num, den))
    except ZeroDivisionError:
        fl = [n / d if d else -inf for n, d in zip(num, den)]
    top = max(fl)
    if top == -inf:
        return None
    j = fl.index(top)
    if not top or not err and (fl.count(top) == 1 or max(num) < 1 << 25 and max(den) < 1 << 25):
        return (j, 0, exact([j])[1][0]) if err else (j, int(num[j]), int(den[j]))
    if err:
        ref = max((num[j] - err) / (den[j] + err) * (1 - 2**-50), 0.0)
        thr, beta = ref * (1 - 2**-19), err * (1 + ref) / ref * 2**20 * (1 + 2**-40) if ref else inf
    else:
        thr, beta = top, 0
    cands = list(compress(count(), map(ge, fl, repeat(thr))))
    if beta > min(den):
        cands = sorted(set(cands).union(i for i in compress(count(), map(lt, den, repeat(beta))) if fl[i] > -inf))
    ns, ds = exact(cands) if err else ([int(num[i]) for i in cands], [int(den[i]) for i in cands])
    b, bn, bd = 0, ns[0], ds[0]
    for i, n, d in zip(count(1), islice(ns, 1, None), islice(ds, 1, None)):
        if n * bd > bn * d:
            b, bn, bd = i, n, d
    return cands[b], bn, bd


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
