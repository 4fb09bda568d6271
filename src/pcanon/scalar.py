"""Scalar fields and dense univariate polynomials.

Three coefficient domains are supported: exact rationals (Fraction-backed),
prime fields F_p with p checked for primality once, and complex double
floats. Every algebraic object downstream carries exactly one Field
instance; arithmetic between mismatched fields raises MixedFields rather
than coercing. Plain Python ints are accepted everywhere (the canonical
image of an integer exists in any field).

Exact products and divisions run on plain integers from `_lift`, and back by
`_drop`; linalg keeps a matrix's lift. A monic polynomial is lifted to
plain numbers by one pair: `_monic_lift` gives the monic q(Y) = den^d
p(Y / den), integral over Q, and `_rescaled` turns such a q and den back
into p; poly_factor and lrs both lift through it. `_check_char_poly` is
the one check that a polynomial may serve as a characteristic
polynomial: monic by `Poly.is_monic` over every field, C included, and
of degree at least 1 where the caller needs it. `_powmod` (repeated squaring of
plain coefficients modulo a polynomial, reduced by `_residue_rem`) serves
lrs over every field, the F_p root finder and the exact spectral
projections. Over Q and F_p, `_int_split` finds roots on plain integer
coefficients: Cantor-Zassenhaus over F_p, Hensel lifting over Q. Over C,
`_spectrum` takes a matrix's eigenvalues from numpy and one rank rule
decides which of them are one eigenvalue and what its index is; the
roots of a polynomial are the eigenvalues of its companion matrix, read
by the same rule. numpy is imported inside the functions that use it,
here and in linalg, pcf and matfun, so importing pcanon does not load it.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, wraps

from .errors import (
    AnswerTooLarge,
    DegreeZero,
    MixedFields,
    NonMonic,
    NumericFieldUnsupported,
    PcanonError,
    ProjectionsInaccurate,
    ZeroPolynomial,
)

#: relative tolerance used to merge nearly equal numeric roots
CLUSTER_TOL = 1e-8

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the fixed base set is exact far past 2**64)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue modulo a prime. Arithmetic insists on a matching modulus."""

    __slots__ = ("res", "p")

    def __init__(self, res: int, p: int):
        self.res = res % p
        self.p = p

    def _other(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise MixedFields(f"residues modulo {self.p} and {x.p}")
            return x.res
        if isinstance(x, int):
            return x % self.p
        raise MixedFields(f"cannot mix F_{self.p} with {type(x).__name__}")

    def __add__(self, x):
        return FpElement(self.res + self._other(x), self.p)

    __radd__ = __add__

    def __sub__(self, x):
        return FpElement(self.res - self._other(x), self.p)

    def __rsub__(self, x):
        return FpElement(self._other(x) - self.res, self.p)

    def __mul__(self, x):
        return FpElement(self.res * self._other(x), self.p)

    __rmul__ = __mul__

    def __truediv__(self, x):
        o = self._other(x)
        if o == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.res * pow(o, -1, self.p), self.p)

    def __rtruediv__(self, x):
        if self.res == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self._other(x) * pow(self.res, -1, self.p), self.p)

    def __pow__(self, e: int):
        if self.res == 0 and e < 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(pow(self.res, e % (self.p - 1) if e < 0 else e, self.p)
                         if self.res else (0 if e else 1), self.p)

    def __neg__(self):
        return FpElement(-self.res, self.p)

    def __eq__(self, x):
        if isinstance(x, FpElement):
            return self.p == x.p and self.res == x.res
        if isinstance(x, int):
            return (x - self.res) % self.p == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.res, self.p))

    def __repr__(self):
        return f"FpElement({self.res}, {self.p})"

    def __str__(self):
        return str(self.res)


class Field:
    """Interface shared by the three scalar domains."""

    char: int = 0
    exact: bool = True
    label: str = "?"

    def coerce(self, x):
        raise NotImplementedError

    def from_int(self, n: int):
        return self.coerce(n)

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def is_zero(self, x) -> bool:
        return x == self.zero

    def sort_key(self, x):
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.label


class RationalField(Field):
    char = 0
    exact = True
    label = "Q"

    def coerce(self, x):
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        raise MixedFields(f"cannot place {type(x).__name__} in Q")

    def from_fraction(self, q: Fraction):
        return q

    def sort_key(self, x: Fraction):
        return (x.numerator, x.denominator)

    def format(self, x: Fraction) -> str:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    exact = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise PcanonError(f"{p} is not prime")
        self.char = p
        self.label = f"F{p}"

    @property
    def p(self) -> int:
        return self.char

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.char:
                raise MixedFields(f"residue modulo {x.p} in F_{self.char}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.char)
        raise MixedFields(f"cannot place {type(x).__name__} in F_{self.char}")

    def from_fraction(self, q: Fraction):
        if q.denominator % self.char == 0:
            raise ZeroDivisionError(f"{q} has no image in F_{self.char}")
        return FpElement(q.numerator * pow(q.denominator, -1, self.char), self.char)

    def sort_key(self, x: FpElement):
        return x.res

    def format(self, x: FpElement) -> str:
        return str(x.res)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("Fp", self.char))


class ComplexField(Field):
    char = 0
    exact = False
    label = "C"

    def coerce(self, x):
        if isinstance(x, (int, float, complex)):
            try:
                finite = cmath.isfinite(x)
            except OverflowError:
                raise AnswerTooLarge(f"an integer of {x.bit_length()} bits "
                                     "is past the double range") from None
            if not finite:
                raise AnswerTooLarge(f"{x} is not a finite complex double")
            return x if isinstance(x, complex) else complex(x)
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        raise MixedFields(f"cannot place {type(x).__name__} in C")

    def from_fraction(self, q: Fraction):
        # int / int is correctly rounded, as float(q) is, without its detour
        try:
            return complex(q.numerator / q.denominator)
        except OverflowError:
            raise AnswerTooLarge("a rational past the double range "
                                 "has no complex double") from None

    def sort_key(self, x: complex):
        return (x.real, x.imag)

    def format(self, x: complex) -> str:
        return format_complex(x)

    def __eq__(self, other):
        return isinstance(other, ComplexField)

    def __hash__(self):
        return hash("C")


QQ = RationalField()
CC = ComplexField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field with p elements (instances are cached per prime)."""
    f = _GF_CACHE.get(p)
    if f is None:
        f = PrimeField(p)
        _GF_CACHE[p] = f
    return f


def _fmt_float(x: float) -> str:
    if x == 0:
        x = 0.0  # normalise -0.0
    s = f"{x:.12g}"
    return "0" if s == "-0" else s


def format_complex(z: complex) -> str:
    """ASCII rendering like 1.5+2i, -3i, 2, 0."""
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_float(re)
    ims = _fmt_float(abs(im)) + "i"
    if re == 0:
        return ("-" if im < 0 else "") + ims
    return _fmt_float(re) + ("-" if im < 0 else "+") + ims


def _lift(field: Field, rows):
    """(plain rows, denominator): integers over one common denominator over
    Q, residues over F_p, the entries themselves over C."""
    if isinstance(field, RationalField):
        # a numerator already over den is passed on as the same object, so
        # a coefficient times itself in a square takes int's squaring path
        den = math.lcm(*(e.denominator for row in rows for e in row))
        return [[e.numerator if e.denominator == den
                 else e.numerator * (den // e.denominator) for e in row]
                for row in rows], den
    if isinstance(field, PrimeField):
        return [[e.res for e in row] for row in rows], 1
    return rows, 1


def _drop(field: Field, rows, den: int):
    """Field rows from plain rows over den; the inverse of `_lift`."""
    if isinstance(field, RationalField):  # Fraction(x) skips the gcd when den is 1
        return [[Fraction(x, den) if den != 1 else Fraction(x) for x in row]
                for row in rows]
    if isinstance(field, PrimeField):
        inv = pow(den, -1, field.char)
        return [[FpElement(x * inv, field.char) for x in row] for row in rows]
    return rows


def _convolve(a: list, b: list) -> list:
    """Product of two plain ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _long_division(rem: list, b: list, divide) -> list:
    """Quotient of plain coefficients by b, divide(c) giving the quotient
    coefficient for a leading c; rem keeps the remainder in rem[:len(b)-1]."""
    n = len(b) - 1
    quot = [0] * (len(rem) - n)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = c = divide(rem[k + n])
        if c:
            for j, y in enumerate(b, k):
                rem[j] -= c * y
    return quot


class Poly:
    """Dense univariate polynomial over one Field, coefficients ascending.

    The zero polynomial is the empty coefficient tuple and reports degree -1.
    Construction strips trailing zeros, so the leading coefficient of any
    nonzero Poly is nonzero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def from_roots(cls, field: Field, roots) -> "Poly":
        return _times_powers(cls.one(field), [(r, 1) for r in roots])

    # -- structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise MixedFields(f"polynomials over {self.field} and {other.field}")

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            f = self.field
            if self.is_zero or other.is_zero:
                return Poly.zero(f)
            # over C the lifted entries are the coefficients themselves
            (a, b), den = _lift(f, (self.coeffs, other.coeffs))
            return Poly(f, _drop(f, (_convolve(a, b),), den * den)[0])
        c = self.field.coerce(other)
        return Poly(self.field, [c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        r = Poly.one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f, p = self.field, self.field.char
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(f), self
        # over Q, pseudo-division db lc^(dq+1) a = q b + r divides by lc
        # exactly at every step; over F_p the remainder is reduced at the end
        ((a,), da), ((b,), db) = _lift(f, (self.coeffs,)), _lift(f, (other.coeffs,))
        lead, n = b[-1], len(b) - 1
        scale = db * lead ** (dq + 1) if f.exact and not p else 1
        rem = [x * scale for x in a] if scale != 1 else list(a)
        if p:
            inv = pow(lead, -1, p)
            quot = _long_division(rem, b, lambda c: c * inv % p)
        elif f.exact:
            quot = _long_division(rem, b, lambda c: c // lead)
        else:
            quot = _long_division(rem, b, lambda c: c / lead)
        return (Poly(f, _drop(f, (quot,), da * scale // db)[0]),
                Poly(f, _drop(f, (rem[:n],), da * scale)[0]))

    def __floordiv__(self, other: "Poly"):
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly"):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- operations ---------------------------------------------------
    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalise the zero polynomial")
        if self.is_monic:
            return self
        lead = self.coeffs[-1]
        return Poly(self.field, [c / lead for c in self.coeffs])

    def evaluate(self, x):
        x = self.field.coerce(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(self.field,
                    [self.field.from_int(i) * c for i, c in enumerate(self.coeffs)][1:])

    def format(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if self.field.is_zero(c):
                continue
            cs = self.field.format(c)
            if i == 0:
                term = cs
            else:
                xs = "X" if i == 1 else f"X^{i}"
                if cs == "1":
                    term = xs
                elif cs == "-1":
                    term = f"-{xs}"
                elif "+" in cs[1:] or "-" in cs[1:] or "i" in cs or "/" in cs:
                    term = f"({cs}){xs}"
                else:
                    term = f"{cs}{xs}"
            parts.append(term)
        text = parts[0]
        for t in parts[1:]:
            text += " - " + t[1:] if t.startswith("-") else " + " + t
        return text

    def __repr__(self):
        return f"Poly[{self.field}]({self.format()})"


def _powmod(base: list, n: int, mod: list, rem) -> list:
    """base**n modulo mod for n >= 1, by repeated squaring of plain
    coefficient lists, rem(a, mod) giving the remainder."""
    r = base
    for bit in bin(n)[3:]:
        r = _convolve(r, r)
        if bit == "1":
            r = _convolve(r, base)
        r = rem(r, mod)
    return rem(r, mod)


def _residue_rem(a: list, m: list, p: int) -> list:
    """Residues of a modulo a monic residue polynomial m, trimmed; at p = 0
    the remainder by a monic m of integers or complex doubles, or by one
    whose lead divides each quotient coefficient, as after pseudo-division."""
    a = list(a)
    _long_division(a, m, (lambda c: c % p) if p else (lambda c: c) if m[-1] == 1
                   else (lambda c: c // m[-1]))
    a = [x % p for x in a[:len(m) - 1]] if p else a[:len(m) - 1]
    while a and not a[-1]:
        a.pop()
    return a


def _residue_gcd(a: list, b: list, p: int) -> list:
    """gcd of residue polynomials by Euclid, monic unless b is zero ([]).
    At p = 0, the primitive gcd of integral a and b by a primitive
    pseudo-remainder sequence, with a positive lead: monic when a is, as by
    Gauss's lemma the primitive gcd divides a in Z[X]."""
    while b:
        if p:
            inv = pow(b[-1], -1, p)
            b = [x * inv % p for x in b]
        else:
            content = math.gcd(*b)
            b = [x // content for x in b]
            a = [x * b[-1] ** max(len(a) - len(b) + 1, 0) for x in a]
        a, b = b, _residue_rem(a, b, p)
    return [-x for x in a] if a and a[-1] < 0 else a


def _times_powers(p: Poly, pairs) -> Poly:
    """p times the product of (X - mu)^e over the (mu, e) pairs, one linear
    factor bX - a at a time on plain numbers: integers for mu = a/b over Q
    and residues over F_p, complex doubles with b = 1 over C."""
    f, q = p.field, p.field.char
    cs, den = [1], 1
    for mu, e in pairs:
        mu = f.coerce(mu)
        a, b = ((mu, 1) if not f.exact else (mu.res, 1) if q
                else (mu.numerator, mu.denominator))
        den *= b ** e
        for _ in range(e):
            cs = [b * x - a * y for x, y in zip([0] + cs, cs + [0])]
            if q:
                cs = [x % q for x in cs]
    return p * Poly(f, _drop(f, (cs,), den)[0])


def _monic_lift(f: Field, coeffs) -> tuple[list, int]:
    """(q, den) of the monic p with field coefficients coeffs: the plain
    monic q(Y) = den^d p(Y / den), integral over Q with den the common
    denominator of the coefficients; over F_p and C den is 1 and q the
    residues or complex doubles themselves. `_rescaled` is its inverse."""
    (cs,), den = _lift(f, (coeffs,))
    d = len(cs) - 1
    lower = [c * den ** (d - 1 - i) for i, c in enumerate(cs[:-1])] if den != 1 else cs[:-1]
    return [*lower, 1], den


def _rescaled(f: Field, cs: list, den: int) -> Poly:
    """den^-e c(den X) over Q or F_p of the monic plain polynomial c of
    degree e: the monic polynomial whose roots are those of c over den.
    The inverse of `_monic_lift`."""
    e = len(cs) - 1
    return Poly(f, [Fraction(x, den ** (e - i)) for i, x in enumerate(cs)]
                if den != 1 else cs)


def _check_char_poly(p: Poly, noun: str, least: int = 1) -> None:
    """The one check of a characteristic polynomial: NonMonic unless p is
    monic by `Poly.is_monic`, its lead exactly 1 over every field, C
    included (so the zero polynomial too); DegreeZero when its degree is
    below least. Both messages name the caller's noun."""
    if not p.is_monic:
        raise NonMonic(f"{noun} must be monic")
    if p.degree < least:
        raise DegreeZero(f"{noun} must have degree >= {least}")


@dataclass(frozen=True)
class FactoredPoly:
    """Linear factors split off a monic polynomial, plus what would not split.

    roots holds (root, multiplicity) pairs in the field's canonical order;
    remainder is monic of degree >= 0 and has no roots in the field. Over C
    every polynomial splits, so the remainder is always 1.
    """

    roots: tuple
    remainder: Poly


#: seed of the random shifts in Cantor-Zassenhaus
_ROOT_SEED = 0x5EED


def _cz_roots(f: list, p: int) -> list[int]:
    """Distinct roots of a monic residue polynomial mod p, by
    Cantor-Zassenhaus (Math. Comp. 1981): g = gcd(f, X^p - X) is the
    product of X - r over them, and gcd(h, (X + a)^((p-1)/2) - 1) with a
    seeded random a splits a factor h of g about half the time. For p = 2
    the roots 0 and 1 are tested directly."""
    rem = partial(_residue_rem, p=p)
    xp = _powmod([0, 1], p, f, rem) + [0, 0]
    xp[1] -= 1
    g = _residue_gcd(f, rem(xp, f), p)
    if p == 2:
        return [r for r in (0, 1) if sum(c * r ** i for i, c in enumerate(g)) % 2 == 0]
    rng = random.Random(_ROOT_SEED)
    roots, todo = [], [g]
    while todo:
        h = todo.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            t = _powmod([rng.randrange(p), 1], (p - 1) // 2, h, rem) + [0]
            t[0] -= 1
            s = _residue_gcd(h, rem(t, h), p)
            if 1 < len(s) < len(h):
                todo += [s, _long_division(list(h), s, lambda c: c % p)]
            else:
                todo.append(h)
    return roots


def _hensel_roots(w: list):
    """Candidates including every rational root of a monic integral
    polynomial w, plain ascending coefficients, by Hensel lifting (Loos,
    SIAM J. Comput. 1983); callers confirm each by exact division. As w is
    monic, every rational root is an integer, so every candidate is one.
    The squarefree part h = w / gcd(w, w') stays squarefree mod the first
    prime q. Newton's step lifts each root r mod q to a modulus M > 2B,
    B = 1 + max |h_i| bounding every root, which is then the symmetric
    residue of r mod M."""
    h = _long_division(list(w), _residue_gcd(w, [i * c for i, c in enumerate(w)][1:], 0),
                       lambda c: c)
    dh = [i * c for i, c in enumerate(h)][1:]
    q = 2
    while not is_prime(q) or len(_residue_gcd(h, _residue_rem(dh, h, q), q)) > 1:
        q += 1
    bound = 2 * (1 + max(abs(c) for c in h))
    for r in _cz_roots([c % q for c in h], q):
        m = q
        while m <= bound:
            m *= m
            slope = pow(sum(c * r ** i for i, c in enumerate(dh)), -1, m)
            r = (r - sum(c * r ** i for i, c in enumerate(h)) * slope) % m
        yield r - m if 2 * r > m else r


def _int_split(f: Field, m: list, den: int):
    """(multiplicity of 0, [(root, multiplicity), ...] of the others in the
    field's order, rest) over Q or F_p of the monic polynomial whose roots
    are those of m over den, m plain coefficients: monic integral over Q,
    residues over F_p. Roots of m come from Cantor-Zassenhaus over F_p and
    `_hensel_roots` over Q; synthetic division by X - r confirms each and
    counts its multiplicity. rest, m's quotient by them, has no root."""
    p = f.char
    divide = (lambda c: c % p) if p else (lambda c: c)
    zeros = next(i for i, c in enumerate(m) if c)
    rest, roots = m[zeros:], []
    for r in _cz_roots(rest, p) if p else _hensel_roots(rest):
        mult = 0
        while not _residue_rem(rest, [-r, 1], p):
            rest, mult = _long_division(list(rest), [-r, 1], divide), mult + 1
        if mult:
            roots.append((f.coerce(r) if p else Fraction(r, den), mult))
    return zeros, sorted(roots, key=lambda t: f.sort_key(t[0])), rest


def _linked(values: list[complex], dist: float, scale: float = 1.0,
            least: float = 0.0) -> list[list[complex]]:
    """Groups of values under single linkage, v and w linked when
    |v - w| <= dist * max(scale, |v|, |w|) or least * max(1, |v|, |w|):
    each group in input order, so that the means of conjugate groups are
    exact conjugates, and the groups in order of their first member. No
    link is longer than reach, the rule at the largest modulus, so with the
    values sorted by real part each is compared only with those whose real
    part lies within reach above its own; a union-find merges."""
    re = [v.real for v in values]
    mods = [abs(v) for v in values]
    top = max(mods, default=0.0)
    reach = max(dist * max(scale, top), least * max(1.0, top))
    order = sorted(range(len(values)), key=re.__getitem__)
    root = list(range(len(values)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for k, i in enumerate(order):
        v, r, m = values[i], re[i], mods[i]
        for j in order[k + 1:]:
            if re[j] - r > reach:
                break
            big = max(m, mods[j])
            if abs(v - values[j]) <= max(dist * max(scale, big), least * max(1.0, big)):
                root[find(j)] = find(i)
    groups: dict[int, list[complex]] = {}
    for i, v in enumerate(values):
        groups.setdefault(find(i), []).append(v)
    return list(groups.values())


#: distance, relative to max(1, largest entry, |value|), at which computed
#: eigenvalues are first linked: a defective block of size m spreads them
#: over about (eps ||A|| condition)^(1/m). Blocks of size 2 to 5 at 1 beside
#: 1e2 to 1e6 spread over up to 0.066 of |value| but 3.6e-6 of that scale,
#: the most in 1121 multiple groups (those, and the benchmark's log-refusal,
#: rational_spectrum_matrix and n = 16 Jordan inputs).
_LINK_DISTANCE = 1e-2

#: a staircase step of A - mu I counts a singular value as zero when it is
#: at most _RANK_SLACK * n * eps * ||A - mu I||_2. In those groups the most
#: counted was 14.5 n eps ||A - mu I||, the least left 2.0e5. Values 1 and
#: 1 + d beside 10 to 1e6 gave about d / (2 n eps ||A||), so they stay
#: apart once d exceeds about 2 * _RANK_SLACK * n * eps * ||A||;
#: [[l, 1], [0, l (1 + 1e-5)]], l in [0.8, 1.25], gave at least 3.6e4.
_RANK_SLACK = 100


def _numpy_refusal(fn):
    """fn with numpy's LinAlgError, no PcanonError, as NumericFieldUnsupported."""
    @wraps(fn)
    def refusing(*args, **kwargs):
        import numpy as np
        try:
            return fn(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise NumericFieldUnsupported(f"numpy failed: {exc}") from None
    return refusing


@_numpy_refusal
def _spectrum(rows, tol: float) -> list[tuple[complex, int, int, tuple | None]]:
    """(eigenvalue, algebraic multiplicity, index, staircase) of a complex
    matrix, sorted; staircase is `_staircase`'s (counts, basis) of
    A - eigenvalue I when a group ran one, else None.

    The computed eigenvalues come from numpy.linalg.eigvals, on the real
    array when every entry is real, so that conjugate pairs come out
    exactly conjugate. One rank rule then decides both which of them are
    one eigenvalue and its index. Values linked at _LINK_DISTANCE form
    groups; a group of m with mean mu is one eigenvalue when the staircase
    of A - mu I holds m null vectors, and its number of steps is the
    index. A group that 0 would join at the same distance tries mu = 0
    first, so the eigenvalue 0 is decided by the staircase of A itself,
    at the same floor as any other; a value is never rounded to 0 by its
    size. A group that fails is linked again at a tenth of the distance,
    down to tol / max(1, largest entry), and last at tol relative to
    max(1, |value|), where the staircase counts at a floor of tol *
    max(1, |mu|); a group that fails there raises ProjectionsInaccurate,
    as no index is confirmed. Values within relative distance tol are
    linked at every distance, so they are always one eigenvalue.
    """
    import numpy as np

    a = np.asarray(rows, dtype=complex)
    if not a.imag.any():
        a = a.real
    n = len(a)
    scale = max(1.0, float(abs(a).max()))
    values = [complex(v) for v in np.linalg.eigvals(a)]
    out, todo = [], [(values, max(_LINK_DISTANCE, tol))]
    while todo:
        values, dist = todo.pop()
        last = dist <= tol / scale
        dist, reach = (tol, 1.0) if last else (dist, scale)
        for group in _linked(values, dist, reach, tol):
            m = len(group)
            mean = sum(group) / m
            # 0 would join the group under the same link rule
            near_zero = min(map(abs, group)) <= max(dist * reach, tol)
            for mu in (0j, mean) if near_zero else (mean,):
                if m == 1 and mu:
                    out.append((mu, 1, 1, None))
                    break
                least = tol * max(1.0, abs(mu)) if last else 0.0
                stairs = _staircase(a - mu * np.eye(n), m, least)
                if sum(stairs[0]) == m:
                    out.append((mu, m, len(stairs[0]), stairs))
                    break
            else:
                if last:
                    raise ProjectionsInaccurate(
                        f"no staircase confirms {m} eigenvalues near {mean!r} "
                        f"as one at tol {tol:g}")
                todo.append((group, max(dist / 10, tol / scale)))
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))


def _staircase(b, m: int, least: float = 0.0, counts=None):
    """Kublanovskaya's staircase of the numpy array b (Golub & Wilkinson,
    SIAM Rev. 1976): (counts, basis), where step k + 1 found counts[k] null
    vectors and the orthonormal columns of basis span null(b^len(counts)).

    A step counts the singular values at most max(least, _RANK_SLACK * n *
    eps * ||b||_2), at most m in all, maps their right singular vectors
    back through the earlier compressions into the basis, and compresses b
    to the others; then dim null(b^(k+1)) = dim null(b) + dim
    null(compression^k). It stops once m are found or when a step finds
    none. Given counts, step k + 1 takes counts[k] vectors instead: the
    staircase of b^H following the counts of b's gives the left basis.
    No power of b is formed, so no other eigenvalue's power can swamp a
    small gap.
    """
    import numpy as np

    _, sigma, vh = np.linalg.svd(b)
    floor = max(least, _RANK_SLACK * len(b) * np.finfo(float).eps * sigma[0])
    taken, cols, back = [], [], None
    while sum(taken) < m:
        null = (counts[len(taken)] if counts
                else min(int((sigma <= floor).sum()), m - sum(taken)))
        if not null:
            break
        keep, vecs = vh[:len(sigma) - null], vh[len(sigma) - null:].conj().T
        cols.append(vecs if back is None else back @ vecs)
        taken.append(null)
        if sum(taken) < m:
            b = keep @ b @ keep.conj().T
            back = keep.conj().T if back is None else back @ keep.conj().T
            _, sigma, vh = np.linalg.svd(b)
    return taken, (np.hstack(cols) if cols else None)


def poly_factor(p: Poly, tol: float = CLUSTER_TOL) -> FactoredPoly:
    """Split linear factors off a nonzero monic polynomial: ZeroPolynomial
    for 0, and `_check_char_poly`'s NonMonic unless the lead is exactly 1,
    over C as over Q and F_p; degree 0 gives no roots.

    p is lifted once by `_monic_lift` to q(X) = den^d p(X / den), monic
    integral over Q with den the common denominator of its coefficients,
    and den = 1 over F_p and C. Over Q and F_p q is split by `_int_split`:
    Cantor-Zassenhaus over F_p finds the distinct roots of the whole
    polynomial, keeping a root whose multiplicity is a multiple of p,
    Hensel lifting over Q those of the squarefree part; what has no root
    in the field stays in the remainder. Over C the roots are the spectrum
    of the companion matrix of q, as `_spectrum` reads any matrix's at
    relative tolerance tol: so 0 is a root only when the staircase of that
    matrix finds it, and each multiplicity is a group's size. The
    remainder is always 1.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    _check_char_poly(p, "a factorised polynomial", least=0)
    f = p.field
    q, den = _monic_lift(f, p.coeffs)
    if f.exact:
        zeros, roots, rest = _int_split(f, q, den)
        roots = ([(f.zero, zeros)] if zeros else []) + roots
        roots.sort(key=lambda t: f.sort_key(t[0]))
        return FactoredPoly(tuple(roots), _rescaled(f, rest, den))
    rows = [[float(j == i - 1) for j in range(len(q) - 2)] + [-c]
            for i, c in enumerate(q[:-1])]
    roots = tuple((mu, m) for mu, m, *_ in _spectrum(rows, tol)) if rows else ()
    return FactoredPoly(roots, Poly.one(f))


@lru_cache(maxsize=None)
def _stirling_row(kind: int, n: int) -> tuple[int, ...]:
    """Row n, entries k = 0..n, of the signed Stirling numbers of the first
    kind s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k) (kind 1) or of the second
    kind S(n, k) = S(n-1, k-1) + k S(n-1, k) (kind 2), built up from row 0."""
    row = (1,)
    for m in range(1, n + 1):
        row = tuple(a + (1 - m if kind == 1 else k) * b
                    for k, (a, b) in enumerate(zip((0, *row), (*row, 0))))
    return row


def _stirling(kind: int, n: int, k: int) -> int:
    if n < 0:
        raise ValueError("negative row index")
    return _stirling_row(kind, n)[k] if 0 <= k <= n else 0


def stirling_first(i: int, m: int) -> int:
    """Signed Stirling number of the first kind s(i, m)."""
    return _stirling(1, i, m)


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    return _stirling(2, n, k)
