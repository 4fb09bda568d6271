"""Scalar fields and dense univariate polynomials.

Three coefficient domains are supported: exact rationals (Fraction-backed),
prime fields F_p with p checked for primality once, and complex double
floats. Every algebraic object downstream carries exactly one Field
instance; arithmetic between mismatched fields raises MixedFields rather
than coercing. Plain Python ints are accepted everywhere (the canonical
image of an integer exists in any field).

Exact products, and division of polynomials, run on plain integers converted
once per operation by `_lift` and `_drop`. `_powmod` (repeated squaring
modulo a polynomial) serves lrs and the F_p root finder. Roots come from
Cantor-Zassenhaus over F_p and Hensel lifting over Q. Over C, `_spectrum`
takes a matrix's eigenvalues from numpy and one rank rule decides which of
them are one eigenvalue and what its index is; the roots of a polynomial
are the eigenvalues of its companion matrix. numpy is imported there only.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import (
    MixedFields,
    NonMonic,
    NumericFieldUnsupported,
    PcanonError,
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
        if isinstance(x, complex):
            return x
        if isinstance(x, (int, float)):
            return complex(x)
        if isinstance(x, Fraction):
            return complex(float(x))
        raise MixedFields(f"cannot place {type(x).__name__} in C")

    def from_fraction(self, q: Fraction):
        return complex(float(q))

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
        return [[FpElement(x, field.char) for x in row] for row in rows]
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
    def constant(cls, field: Field, c) -> "Poly":
        return cls(field, (c,))

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
    def lead(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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

    def shifted(self, c) -> "Poly":
        """The polynomial p(X + c)."""
        c = self.field.coerce(c)
        out: list = []
        for a in reversed(self.coeffs):
            # out <- out * (X + c) + a
            nxt = [self.field.zero] * (len(out) + 1)
            for i, v in enumerate(out):
                nxt[i + 1] = nxt[i + 1] + v
                nxt[i] = nxt[i] + c * v
            nxt[0] = nxt[0] + a
            out = nxt
        return Poly(self.field, out)

    def to_field(self, field: Field) -> "Poly":
        return Poly(field, [field.coerce(c) for c in self.coeffs])

    def format(self, var: str = "X") -> str:
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
                xs = var if i == 1 else f"{var}^{i}"
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


def series_inverse(p: Poly, order: int) -> Poly:
    """Power series inverse of p modulo X**order (needs p(0) != 0)."""
    f = p.field
    c0 = p.coeff(0)
    if f.is_zero(c0):
        raise ZeroDivisionError("series inverse needs a nonzero constant term")
    inv0 = f.one / c0
    out = [inv0]
    for k in range(1, order):
        s = f.zero
        for i in range(1, k + 1):
            s = s + p.coeff(i) * out[k - i]
        out.append(-inv0 * s)
    return Poly(f, out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over an exact field by the Euclidean algorithm."""
    if a.field != b.field:
        raise MixedFields(f"gcd over {a.field} and {b.field}")
    if not a.field.exact:
        raise NumericFieldUnsupported("gcd is only defined over exact fields")
    if a.is_zero and b.is_zero:
        raise ZeroPolynomial("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        raise ZeroPolynomial("lcm with the zero polynomial")
    return ((a * b) // poly_gcd(a, b)).monic()


def _powmod(base, n: int, mod, mul=operator.mul, rem=operator.mod):
    """base**n modulo mod for n >= 1, by repeated squaring in F[X]/(mod):
    on Poly, or on another representation given its mul and rem."""
    r = base
    for bit in bin(n)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, base)
        r = rem(r, mod)
    return rem(r, mod)


def _residue_rem(a: list, m: list, p: int) -> list:
    """Residues of a modulo a monic residue polynomial m, trimmed."""
    a = list(a)
    _long_division(a, m, lambda c: c % p)
    a = [x % p for x in a[:len(m) - 1]]
    while a and not a[-1]:
        a.pop()
    return a


def _residue_gcd(a: list, b: list, p: int) -> list:
    """gcd of residue polynomials by Euclid, monic unless b is zero ([])."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _residue_rem(a, b, p)
    return a


def _times_powers(p: Poly, pairs) -> Poly:
    """p times the product of (X - mu)^e over the (mu, e) pairs. Exact
    fields multiply by one linear factor at a time on plain integers, bX - a
    for mu = a/b over Q; over C it is one Poly product per pair."""
    f, q = p.field, p.field.char
    if not f.exact:
        for mu, e in pairs:
            p = p * Poly(f, (-mu, 1)) ** e
        return p
    cs, den = [1], 1
    for mu, e in pairs:
        mu = f.coerce(mu)
        a, b = (mu.res, 1) if q else (mu.numerator, mu.denominator)
        den *= b ** e
        for _ in range(e):
            cs = [b * x - a * y for x, y in zip([0] + cs, cs + [0])]
            if q:
                cs = [x % q for x in cs]
    return p * Poly(f, _drop(f, (cs,), den)[0])


@dataclass(frozen=True)
class FactoredPoly:
    """Linear factors split off a monic polynomial, plus what would not split.

    roots holds (root, multiplicity) pairs in the field's canonical order;
    remainder is monic of degree >= 0 and has no roots in the field. Over C
    every polynomial splits, so the remainder is always 1.
    """

    roots: tuple
    remainder: Poly

    def reassemble(self) -> Poly:
        return _times_powers(self.remainder, self.roots)


#: seed of the random shifts in Cantor-Zassenhaus
_ROOT_SEED = 0x5EED


def _cz_roots(f: list, p: int) -> list[int]:
    """Distinct roots of a monic residue polynomial mod p, by
    Cantor-Zassenhaus (Math. Comp. 1981): g = gcd(f, X^p - X) is the
    product of X - r over them, and gcd(h, (X + a)^((p-1)/2) - 1) with a
    seeded random a splits a factor h of g about half the time. For p = 2
    the roots 0 and 1 are tested directly."""
    rem = partial(_residue_rem, p=p)
    xp = _powmod([0, 1], p, f, _convolve, rem) + [0, 0]
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
            t = _powmod([rng.randrange(p), 1], (p - 1) // 2, h, _convolve, rem) + [0]
            t[0] -= 1
            s = _residue_gcd(h, rem(t, h), p)
            if 1 < len(s) < len(h):
                todo += [s, _long_division(list(h), s, lambda c: c % p)]
            else:
                todo.append(h)
    return roots


def _hensel_roots(p: Poly):
    """Candidates including every rational root of a nonzero polynomial over
    Q, by Hensel lifting (Loos, SIAM J. Comput. 1983); callers confirm each
    by exact division. The squarefree part, lifted to integers h, stays
    squarefree mod the first prime q not dividing lc = lc(h). Newton's step
    lifts each root r mod q to a modulus M > 2 |lc| B, B = 1 + max |h_i/lc|
    bounding every root. A root a/b has b | lc, so lc a/b is the symmetric
    residue of lc r mod M."""
    (h,), _ = _lift(QQ, ((p // poly_gcd(p, p.derivative())).coeffs,))
    lead = h[-1]
    dh = [i * c for i, c in enumerate(h)][1:]
    q = 2
    while (not is_prime(q) or lead % q == 0
           or poly_gcd(Poly(GF(q), h), Poly(GF(q), dh)).degree):
        q += 1
    bound = 2 * (lead + max(abs(c) for c in h))
    for r in _cz_roots([c * pow(lead, -1, q) % q for c in h], q):
        m = q
        while m <= bound:
            m *= m
            slope = pow(sum(c * r ** i for i, c in enumerate(dh)), -1, m)
            r = (r - sum(c * r ** i for i, c in enumerate(h)) * slope) % m
        v = lead * r % m
        yield Fraction(v - m if 2 * v > m else v, lead)


def _linked(values: list[complex], dist: float, scale: float = 1.0) -> list[list[complex]]:
    """Groups of values under single linkage, v and w linked when
    |v - w| <= dist * max(scale, |v|, |w|): each group in input order, so
    that the means of conjugate groups are exact conjugates, and the groups
    in order of their first member."""
    label = list(range(len(values)))
    for i, v in enumerate(values):
        for j, w in enumerate(values[:i]):
            if label[i] != label[j] and abs(v - w) <= dist * max(scale, abs(v), abs(w)):
                old, new = label[i], label[j]
                label = [new if x == old else x for x in label]
    groups: dict[int, list[complex]] = {}
    for x, v in zip(label, values):
        groups.setdefault(x, []).append(v)
    return list(groups.values())


def cluster_complex(values: list[complex], tol: float = CLUSTER_TOL) -> list[tuple[complex, int]]:
    """Merge nearly equal complex values by single linkage at relative
    distance tol; returns (mean, count) per group, sorted."""
    return sorted(((sum(g) / len(g), len(g)) for g in _linked(values, tol)),
                  key=lambda t: (t[0].real, t[0].imag))


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


def _spectrum(rows, tol: float) -> list[tuple[complex, int, int]]:
    """(eigenvalue, algebraic multiplicity, index) triples of a complex
    matrix, sorted; eigenvalues of modulus <= tol * max(1, largest entry)
    are reported as exactly 0.

    The computed eigenvalues come from numpy.linalg.eigvals, on the real
    array when every entry is real, so that conjugate pairs come out
    exactly conjugate. One rank rule then decides both which of them are
    one eigenvalue and its index. Values linked at _LINK_DISTANCE form
    groups; a group of m with mean mu is one eigenvalue when the staircase
    of A - mu I (`_index`) holds m null vectors, and its number of steps
    is the index. A group that fails is linked again at a tenth of the
    distance, and last at tol relative to max(1, |value|), where it is
    accepted, with index m if the staircase fails even at a floor of
    tol * max(1, |mu|): values within relative distance tol are always one
    eigenvalue.
    """
    import numpy as np

    a = np.array(rows, dtype=complex)
    if not a.imag.any():
        a = a.real
    n = len(a)
    scale = max(1.0, float(abs(a).max()))
    zero = tol * scale
    values = [0j if abs(v) <= zero else complex(v) for v in np.linalg.eigvals(a)]
    out, todo = [], [(values, max(_LINK_DISTANCE, tol))]
    while todo:
        values, dist = todo.pop()
        last = dist <= tol
        for group in _linked(values, dist, 1.0 if last else scale):
            m = len(group)
            mu = sum(group) / m
            if abs(mu) <= zero:
                mu = 0j
            least = tol * max(1.0, abs(mu)) if last else 0.0
            index = 1 if m == 1 else _index(a - mu * np.eye(n), m, least)
            if index or last:
                out.append((mu, m, index or m))
            else:
                todo.append((group, max(dist / 10, tol)))
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))


def _index(b, m: int, least: float) -> int | None:
    """Steps after which the staircase of the numpy array b holds m null
    vectors, or None if a step finds none first (Kublanovskaya's reading
    of Jordan structure; Golub & Wilkinson, SIAM Rev. 1976). A step counts
    the singular values at most max(least, _RANK_SLACK * n * eps * ||b||_2)
    and compresses b to the right singular vectors of the others; then
    dim null(b^(k+1)) = dim null(b) + dim null(compression^k). No power of
    b is formed, so no other eigenvalue's power can swamp a small gap."""
    import numpy as np

    _, sigma, vh = np.linalg.svd(b)
    floor = max(least, _RANK_SLACK * len(b) * np.finfo(float).eps * sigma[0])
    found = 0
    for k in range(1, m + 1):
        null = int((sigma <= floor).sum())
        if not null:
            return None
        found += null
        if found >= m:
            return k
        keep = vh[:len(sigma) - null]
        b = keep @ b @ keep.conj().T
        _, sigma, vh = np.linalg.svd(b)
    return None


def poly_factor(p: Poly, tol: float = CLUSTER_TOL) -> FactoredPoly:
    """Split linear factors off a nonzero monic polynomial.

    Over F_p, for any p, Cantor-Zassenhaus finds the distinct roots of the
    whole polynomial, keeping a root whose multiplicity is a multiple of p.
    Over Q, Hensel lifting from one prime finds those of the squarefree
    part. Both confirm each root and take its multiplicity by repeated
    division; what has no root in the field stays in the remainder. Over C
    the exactly zero low coefficients give the root 0, and the roots of the
    rest are the eigenvalues of its companion matrix, as numpy.roots takes
    them, grouped by `_spectrum` at relative tolerance tol; the remainder is
    always 1.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    f = p.field
    if not f.exact:
        if abs(p.lead - 1) > 1e-9 * max(1.0, max(abs(c) for c in p.coeffs)):
            raise NonMonic("complex factorisation expects a monic polynomial")
        p = p.monic()
    elif not p.is_monic:
        raise NonMonic("factorisation expects a monic polynomial")

    zeros = next(i for i, c in enumerate(p.coeffs) if c != 0)
    work = Poly(f, p.coeffs[zeros:])
    if not f.exact:
        cs = work.coeffs
        rows = [[float(j == i - 1) for j in range(len(cs) - 2)] + [-c]
                for i, c in enumerate(cs[:-1])]
        # a root of the rest within tol of 0 joins the stripped zeros
        found = {f.zero: zeros}
        for mu, m, _ in _spectrum(rows, tol) if rows else ():
            found[mu] = found.get(mu, 0) + m
        roots = [(mu, m) for mu, m in found.items() if m]
        work = Poly.one(f)
    else:
        roots = [(f.zero, zeros)] if zeros else []
        candidates = (_cz_roots([c.res for c in work.coeffs], f.char) if f.char
                      else _hensel_roots(work))
        for r in map(f.coerce, candidates):
            lin = Poly(f, (-r, 1))
            mult = 0
            q, rem = divmod(work, lin)
            while rem.is_zero:
                work, mult = q, mult + 1
                q, rem = divmod(work, lin)
            if mult:
                roots.append((r, mult))
    roots.sort(key=lambda t: f.sort_key(t[0]))
    return FactoredPoly(tuple(roots), work)


@lru_cache(maxsize=None)
def _stirling1_row(i: int) -> tuple[int, ...]:
    # row i holds s(i, 0..i) for the signed first kind:
    # s(i+1, m) = s(i, m-1) - i * s(i, m)
    if i == 0:
        return (1,)
    prev = _stirling1_row(i - 1)

    def at(m):
        return prev[m] if 0 <= m < len(prev) else 0

    return tuple(at(m - 1) - (i - 1) * at(m) for m in range(i + 1))


def stirling_first(i: int, m: int) -> int:
    """Signed Stirling number of the first kind s(i, m)."""
    if i < 0:
        raise ValueError("negative row index")
    if m < 0 or m > i:
        return 0
    return _stirling1_row(i)[m]


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)

    def at(k):
        return prev[k] if 0 <= k < len(prev) else 0

    return tuple(k * at(k) + at(k - 1) for k in range(n + 1))


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n < 0:
        raise ValueError("negative row index")
    if k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]
