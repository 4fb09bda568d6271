"""Linear recurrence (C-finite) sequences over exact or complex fields.

A sequence is a monic characteristic polynomial P of degree d plus its
first d terms; everything later is forced by the recurrence. Each function
lifts its input to plain numbers once (integers over Q, residues over F_p,
complex doubles over C), runs its loop on them and drops the result back
to field elements once. The module evaluates a term from X^n mod P (by
the `_powmod` the F_p root finder and the spectral projections also use),
forms termwise products carrying an explicit annihilator (verified on a
window long enough to prove it), and recovers the minimal annihilator
of a raw prefix by Berlekamp-Massey, fraction-free over Q: the
independent minimality oracle for the product closure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import AnnihilatorMismatch, InsufficientData, MixedFields
from .scalar import (CC, GF, QQ, Field, FpElement, Poly, _check_char_poly, _drop, _lift,
                     _monic_lift, _powmod, _residue_rem)


@dataclass(frozen=True)
class LinRecSeq:
    """char: monic polynomial X^d + sum c_i X^i; initial: the d first terms.
    Term n >= d satisfies a_n = -sum_i c_i a_(n-d+i)."""

    char: Poly
    initial: tuple

    def __post_init__(self):
        p = self.char
        _check_char_poly(p, "a recurrence's characteristic polynomial")
        coerced = tuple(p.field.coerce(x) for x in self.initial)
        if len(coerced) != p.degree:
            raise ValueError(
                f"need exactly {p.degree} initial terms, got {len(coerced)}")
        object.__setattr__(self, "initial", coerced)

    @property
    def field(self) -> Field:
        return self.char.field


def _plain(seq: LinRecSeq, count: int):
    """(q, b, da, dp): the first count terms of seq as plain numbers b_n =
    da dp^n a_n under the monic plain q. Over Q, da is the initial terms'
    denominator and q(Y) = dp^d P(Y/dp) is integral, scalar's
    `_monic_lift`; da = dp = 1 over F_p and C."""
    f, d = seq.field, seq.char.degree
    q, dp = _monic_lift(f, seq.char.coeffs)
    (b,), da = _lift(f, (seq.initial[:count],))
    b = [x * dp ** i for i, x in enumerate(b)]
    while len(b) < count:
        x = -sum(c * y for c, y in zip(q, b[-d:]))
        b.append(x % f.char if f.char else x)
    return q, b, da, dp


def _terms(f: Field, b: list, da: int, dp: int) -> list:
    """Field terms b_n / (da dp^n), the inverse of `_plain`; over C each
    is checked finite."""
    return [f.coerce(x) if da == dp == 1 else Fraction(x, da * dp ** n)
            for n, x in enumerate(b)]


def lrs_prefix(seq: LinRecSeq, count: int) -> list:
    """First count terms by unrolling the recurrence (exact, O(count*d))."""
    if count < 0:
        raise ValueError("term count must be nonnegative")
    _, b, da, dp = _plain(seq, count)
    return _terms(seq.field, b, da, dp)


def lrs_eval(seq: LinRecSeq, n: int):
    """The n-th term, sum_i r_i b_i / (da dp^n) with r = X^n mod q by
    repeated squaring: O(d^2 log n) plain operations, O(d) memory."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    if n < seq.char.degree:
        return seq.initial[n]
    q, b, da, dp = _plain(seq, seq.char.degree)
    r = _powmod([0, 1], n, q, partial(_residue_rem, p=seq.field.char))
    return _terms(seq.field, [sum(c * y for c, y in zip(r, b))], da * dp ** n, 1)[0]


def lrs_mul(factors, p: Poly) -> LinRecSeq:
    """Termwise product of sequences, packaged under the annihilator p.

    p must annihilate the product (e.g. the product-closure polynomial of
    the factor characteristic polynomials), else AnnihilatorMismatch. p
    applied to the product lies in L(Q), deg Q <= D = prod_i deg char_i, so
    it is checked at max(2 deg p, D) offsets: zero there, zero everywhere.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor sequence")
    f = p.field
    for s in factors:
        if s.field != f:
            raise MixedFields(f"sequences over {s.field} with polynomial over {f}")
    _check_char_poly(p, "an annihilator")
    d = p.degree
    offsets = max(2 * d, math.prod(s.char.degree for s in factors))
    plain = [_plain(s, offsets + d) for s in factors]
    prod = [math.prod(t) for t in zip(*(b for _, b, _, _ in plain))]
    da, dp = math.prod(t[2] for t in plain), math.prod(t[3] for t in plain)
    # prod_n = da dp^n a_n: p annihilates a iff sum_i p_i dp^(d-i) prod_(n+i) = 0
    (cs,), _ = _lift(f, (p.coeffs,))
    weights = [c * dp ** (d - i) for i, c in enumerate(cs)]
    tol = 0 if f.exact else 1e-8 * max(1.0, *(abs(f.coerce(x)) for x in prod))
    for n in range(offsets):
        resid = sum(c * x for c, x in zip(weights, prod[n:]))
        if abs(resid % f.char if f.char else resid) > tol:
            raise AnnihilatorMismatch(
                f"{p.format()} fails on the product at offset {n}")
    return LinRecSeq(char=p, initial=tuple(_terms(f, prod[:d], da, dp)))


def _infer_field(values) -> Field:
    for v in values:
        if isinstance(v, FpElement):
            return GF(v.p)
        if isinstance(v, (complex, float)):
            return CC
        if isinstance(v, Fraction):
            return QQ
    return QQ


def lrs_min_annihilator(prefix, field: Field | None = None) -> Poly:
    """Minimal monic polynomial annihilating every window of the prefix.

    Berlekamp-Massey (Massey, IEEE Trans. IT 1969): one pass over the N
    terms keeps the shortest recurrence that fits the terms read so far,
    in O(N*L) plain operations for a recurrence of length L; over Q and
    F_p fraction-free, made monic once at the end. Lengths past N//2 - 1
    raise InsufficientData, since only 2L < N makes the answer unique; an
    all-zero prefix gives X. Over C a discrepancy counts as zero when it is
    at most 1e-8 times the largest of 1 and the terms summed into it, so
    the small early terms of a fast-growing sequence still count.
    """
    values = list(prefix)
    if field is None:
        field = _infer_field(values)
    values = [field.coerce(v) for v in values]
    dmax = len(values) // 2 - 1
    if dmax < 1:
        raise InsufficientData(
            f"prefix of length {len(values)} supports no candidate degree")
    p = field.char
    (seq,), _ = _lift(field, (values,))
    # c: connection polynomial (ascending) of the current recurrence, up to
    # a factor c[0] over Q and F_p; b: the one before the last length
    # change, whose discrepancy was last, shift terms ago
    c, b, length, last, shift = [1], [1], 0, 1, 1
    for k, a in enumerate(seq):
        terms = [ci * seq[k - i] for i, ci in enumerate(c)]
        d = sum(terms) % p if p else sum(terms)
        if (d == 0) if field.exact else abs(d) <= 1e-8 * max(1.0, *map(abs, terms)):
            shift += 1
            continue
        # exact: last c - d X^shift b, fraction-free; C: c - (d/last) X^shift b
        new, coef = ([last * x for x in c], d) if field.exact else (list(c), d / last)
        new += [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b, shift):
            new[i] -= coef * bi
        if field.exact:  # reduced mod p, or made primitive over Q
            content = 1 if p else math.gcd(*new)
            new = [x % p if p else x // content for x in new]
        if 2 * length <= k:
            b, length, last, shift = c, k + 1 - length, d, 1
        else:
            shift += 1
        c = new
        if length > dmax:  # a length never falls, so refuse at once
            raise InsufficientData(
                f"no annihilator of degree <= {dmax} fits a prefix of length {len(values)}")
    if length == 0:
        return Poly.x(field)
    c += [0] * (length + 1 - len(c))
    return Poly(field, _drop(field, (c[::-1],), c[0])[0])
