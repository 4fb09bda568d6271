"""Linear recurrence (C-finite) sequences over exact or complex fields.

A sequence is a monic characteristic polynomial P of degree d plus its
first d terms; everything later is forced by the recurrence. The module
evaluates a term from X^n mod P (repeated squaring in F[X]/(P), by the
`_powmod` that scalar's F_p root finder also uses), forms termwise
products carrying an explicit annihilator (verified on a window, so a
wrong annihilator fails fast), and recovers the minimal annihilator of a
raw prefix by Berlekamp-Massey — the independent minimality oracle for
the product closure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AnnihilatorMismatch,
    DegreeZero,
    InsufficientData,
    MixedFields,
    NonMonic,
)
from .scalar import CC, QQ, GF, Field, FpElement, Poly, _powmod


@dataclass(frozen=True)
class LinRecSeq:
    """char: monic polynomial X^d + sum c_i X^i; initial: the d first terms.
    Term n >= d satisfies a_n = -sum_i c_i a_(n-d+i)."""

    char: Poly
    initial: tuple

    def __post_init__(self):
        p = self.char
        if p.is_zero or not p.is_monic:
            raise NonMonic("recurrence needs a monic characteristic polynomial")
        if p.degree < 1:
            raise DegreeZero("recurrence needs degree >= 1")
        coerced = tuple(p.field.coerce(x) for x in self.initial)
        if len(coerced) != p.degree:
            raise ValueError(
                f"need exactly {p.degree} initial terms, got {len(coerced)}")
        object.__setattr__(self, "initial", coerced)

    @property
    def field(self) -> Field:
        return self.char.field


def lrs_prefix(seq: LinRecSeq, count: int) -> list:
    """First count terms by unrolling the recurrence (exact, O(count*d))."""
    f = seq.field
    d = seq.char.degree
    out = list(seq.initial[:count])
    window = list(seq.initial)
    coeffs = seq.char.coeffs[:-1]
    while len(out) < count:
        nxt = f.zero
        for c, a in zip(coeffs, window):
            nxt = nxt - c * a
        out.append(f.coerce(nxt))
        window = window[1:] + [nxt]
    return out


def lrs_eval(seq: LinRecSeq, n: int):
    """The n-th term, sum_i r_i a_i with r = X^n mod char, by repeated
    squaring in F[X]/(char): O(d^2 log n) field operations, O(d) memory."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    p = seq.char
    if n < p.degree:
        return seq.initial[n]
    r = _powmod(Poly.x(seq.field), n, p)
    return seq.field.coerce(sum((c * a for c, a in zip(r.coeffs, seq.initial)),
                                seq.field.zero))


def lrs_mul(factors, p: Poly) -> LinRecSeq:
    """Termwise product of sequences, packaged under the annihilator p.

    p must annihilate the product (e.g. the product-closure polynomial of
    the factor characteristic polynomials); this is re-verified on a
    3*deg(p) window and AnnihilatorMismatch raised otherwise.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor sequence")
    f = p.field
    for s in factors:
        if s.field != f:
            raise MixedFields(f"sequences over {s.field} with polynomial over {f}")
    if p.is_zero or not p.is_monic:
        raise NonMonic("annihilator must be monic")
    d = p.degree
    if d < 1:
        raise DegreeZero("annihilator must have degree >= 1")
    horizon = 3 * d
    prefixes = [lrs_prefix(s, horizon) for s in factors]
    prod = []
    for k in range(horizon):
        term = f.one
        for pref in prefixes:
            term = term * pref[k]
        prod.append(term)
    scale = 1.0
    if not f.exact:
        scale = max(1.0, max(abs(x) for x in prod))
    for n in range(horizon - d):
        resid = f.zero
        for i, c in enumerate(p.coeffs):
            resid = resid + c * prod[n + i]
        bad = (not f.is_zero(resid)) if f.exact else abs(resid) > 1e-8 * scale
        if bad:
            raise AnnihilatorMismatch(
                f"{p.format()} fails on the product at offset {n}")
    return LinRecSeq(char=p, initial=tuple(prod[:d]))


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
    in O(N*L) field operations for a recurrence of length L (on plain
    residues over F_p). Lengths past N//2 - 1 raise InsufficientData,
    since only 2L < N makes the answer unique; an all-zero prefix gives
    X. Over C a discrepancy counts as zero when it is at most 1e-8 times
    the largest of 1 and the terms summed into it, so the small early
    terms of a fast-growing sequence still count.
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
    seq = [v.res for v in values] if p else values
    # c: connection polynomial (ascending, c[0] = 1) of the current
    # recurrence; b: the one before the last length change, whose
    # discrepancy was last, shift terms ago
    c, b, length, last, shift = [1], [1], 0, 1, 1
    for k, a in enumerate(seq):
        terms = [a] + [ci * seq[k - i] for i, ci in enumerate(c[1:], 1)]
        d = sum(terms) % p if p else sum(terms)
        if (d == 0) if field.exact else abs(d) <= 1e-8 * max(1.0, *map(abs, terms)):
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p if p else d / last
        new = c + [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b, shift):
            new[i] = (new[i] - coef * bi) % p if p else new[i] - coef * bi
        if 2 * length <= k:
            b, length, last, shift = c, k + 1 - length, d, 1
        else:
            shift += 1
        c = new
    if length > dmax:
        raise InsufficientData(
            f"no annihilator of degree <= {dmax} fits a prefix of length {len(values)}")
    if length == 0:
        return Poly.x(field)
    c += [0] * (length + 1 - len(c))
    return Poly(field, [field.coerce(x) for x in reversed(c)])
