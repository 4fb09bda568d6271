"""Closed forms for the full power sequence of a square matrix.

The power sequence k -> A^k of a matrix whose minimal polynomial splits
decomposes uniquely as a finitely supported part (one matrix per power
below the index of the eigenvalue zero) plus, per nonzero eigenvalue, a
polynomial-times-geometric part. Its coefficients are the chains A^i pi_0
and lambda^(-i) (A - lambda I)^i pi, taken as they are from linalg's
`_chains` over every field; matfun reweights the complex ones into
e^(tA) and log A. Two scalar bases are supported for
the polynomial factor: binomial coefficients binom(k, i) (any field) and
pure powers k^i (characteristic zero only), with one exact Stirling
conversion between them. The Stirling conversion is one weighted sum of
the stored matrices through linalg's `_combine`, and so is every closed
form at a point: `_eval_at` sums g w(i) M_i over (g, ((i, M_i), ...))
groups, for the forms here and the exponentials of matfun alike. Complex
forms of real matrices can be rewritten over the reals with r^k cos(k
theta) / r^k sin(k theta) spirals by the conjugate-pair merger that
e^(tA) shares. The Stirling weights are real, so a real form in the power
basis is the merger of the complex form in that basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import chain

from .errors import AnswerTooLarge, CharPositive, NotConjugateSymmetric, PcanonError
from .linalg import Matrix, _chains, _combine, _ints, _of_ints
from .scalar import CC, Field, Poly, _times_powers, stirling_first, stirling_second


class Basis(Enum):
    """Scalar basis carried by the polynomial factor of each term."""

    LAMBDA = "binomial"   # binom(k, i)
    GAMMA = "power"       # k^i


@dataclass(frozen=True)
class PCanonicalForm:
    """Exact closed form for A^k.

    nilpotent_terms lists (i, V_i) with V_i = A^i pi_0, contributing V_k
    only at k = i; geometric_terms lists (eigenvalue, coefficient
    matrices) in the field's canonical eigenvalue order, contributing
    sum_i C_i * lambda^k * binom(k, i) (or lambda^k * k^i in the power
    basis). Each coefficient list is as long as its eigenvalue's index,
    which the spectrum decides.
    """

    field: Field
    order: int
    basis: Basis
    nilpotent_terms: tuple
    geometric_terms: tuple

    @property
    def t0(self) -> int:
        return 1 + max((i for i, _ in self.nilpotent_terms), default=-1)


@dataclass(frozen=True)
class RealTerm:
    """Real eigenvalue contribution: value^k times binomial polynomials."""

    value: float
    coeffs: tuple


@dataclass(frozen=True)
class SpiralTerm:
    """Merged conjugate pair: r^k cos(k*angle) and r^k sin(k*angle) parts."""

    modulus: float
    angle: float
    cos_coeffs: tuple
    sin_coeffs: tuple


@dataclass(frozen=True)
class RealPCF:
    """Real-coefficient closed form for A^k of a real matrix."""

    order: int
    basis: Basis
    nilpotent_terms: tuple
    terms: tuple


def pcf_build(a: Matrix, tol: float = 1e-8) -> PCanonicalForm:
    """Closed form of the power sequence from the spectral projections.

    V_i = A^i pi_0 for i below the index of zero; for each nonzero
    eigenvalue with index t, C_i = lambda^(-i) (A - lambda I)^i pi for
    i < t. Raises NonSplitField when the spectrum does not live in the
    coefficient field.
    """
    _, nz, nil, chains = _chains(a, tol)
    return PCanonicalForm(field=a.field, order=a.n, basis=Basis.LAMBDA,
                          nilpotent_terms=tuple(enumerate(nil)),
                          geometric_terms=tuple((mu, tuple(chain)) for (mu, _), chain
                                                in zip(nz, chains)))


def _eval_at(field: Field, n: int, groups, weight) -> Matrix:
    """sum of g weight(i) M_i over every (g, ((i, M_i), ...)) in groups, as
    one weighted sum through linalg's `_combine`: the one evaluator of the
    closed forms of pcf and matfun. Callers pass groups lazily, so that a
    complex weight that overflows, as g or as weight(i), raises
    AnswerTooLarge here."""
    weights, mats = [], []
    try:
        for g, coeffs in groups:
            for i, m in coeffs:
                weights.append(g * weight(i))
                mats.append(m)
    except OverflowError:
        raise AnswerTooLarge("a closed-form weight overflows a complex double") from None
    return _combine(field, n, [weights], mats)[0]


def _power_at(form, field: Field, k: int, scaled) -> Matrix:
    """A power-sequence form at k: the nilpotent slot at k plus g binom(k,
    i) C_i (g k^i C_i in the power basis, 0^0 = 1) for every (g, [C_0, C_1,
    ...]) in scaled."""
    if k < 0:
        raise ValueError("power index must be nonnegative")
    gamma = form.basis is Basis.GAMMA
    nil = [(0, v) for i, v in form.nilpotent_terms if i == k]
    groups = chain([(field.one, nil)], ((g, enumerate(coeffs)) for g, coeffs in scaled))
    return _eval_at(field, form.order, groups,
                    lambda i: field.from_int(k ** i if gamma else math.comb(k, i)))


def pcf_eval(form: PCanonicalForm, k: int) -> Matrix:
    """The k-th power of the underlying matrix, evaluated from the form."""
    return _power_at(form, form.field, k,
                     ((lam ** k, coeffs) for lam, coeffs in form.geometric_terms))


def _rebase(field: Field, n: int, coeffs, to_gamma: bool) -> list:
    """Stirling change of basis of one coefficient list: the
    identities of pcf_to_gamma (to_gamma) and pcf_to_lambda, with the
    Stirling weights as the rows of one weighted sum. C_0 carries over,
    since binom(k, 0) = k^0 = 1."""
    weights = [[field.from_fraction(
        Fraction(stirling_first(i, m), math.factorial(i)) if to_gamma
        else Fraction(stirling_second(i, m) * math.factorial(m)))
        for i in range(len(coeffs))] for m in range(1, len(coeffs))]
    return [*coeffs[:1], *_combine(field, n, weights, coeffs)]


def _rebase_pcf(form: PCanonicalForm, basis: Basis) -> PCanonicalForm:
    if form.field.char != 0:
        raise CharPositive("basis conversion needs characteristic zero")
    if form.basis is basis:
        return form
    geo = tuple((lam, tuple(_rebase(form.field, form.order, coeffs, basis is Basis.GAMMA)))
                for lam, coeffs in form.geometric_terms)
    return replace(form, basis=basis, geometric_terms=geo)


def pcf_to_gamma(form: PCanonicalForm) -> PCanonicalForm:
    """Rewrite binomial-basis polynomial factors over pure powers k^i.

    Uses binom(k, i) = sum_m (s(i, m) / i!) k^m with signed Stirling
    numbers of the first kind; characteristic zero only. Idempotent on
    forms already in the power basis.
    """
    return _rebase_pcf(form, Basis.GAMMA)


def pcf_to_lambda(form: PCanonicalForm) -> PCanonicalForm:
    """Inverse of pcf_to_gamma: k^m = sum_i S(m, i) i! binom(k, i)."""
    return _rebase_pcf(form, Basis.LAMBDA)


def pcf_minpoly(form: PCanonicalForm) -> Poly:
    """Minimal polynomial read directly off the form: X^t0 times the
    product of (X - lambda)^(number of coefficient matrices)."""
    return _times_powers(Poly.x(form.field) ** form.t0,
                         [(lam, len(coeffs)) for lam, coeffs in form.geometric_terms])


def _real_of(x) -> Matrix:
    return _of_ints(CC, x.astype(complex), 1)


def _real_matrix(m, tol: float, scale: float, error: type,
                 what: str = "coefficient") -> Matrix:
    """Real part of array m; raises error when an imaginary part exceeds tol * scale."""
    worst = float(abs(m.imag).max())
    if worst > tol * scale:
        raise error(f"{what} has imaginary residue {worst:.3g}")
    return _real_of(m.real)


def _merge_conjugates(singles, terms, tol: float, scale: float | None, error: type,
                      what: str = "coefficient"):
    """Split the matrices of a real source's closed form, each taken to
    numpy once, at tol * scale (scale None: their largest entry, at least 1).

    Returns the (i, matrix) singles as (i, real part), named what.format(i)
    in a refusal, the real (eigenvalue, matrices) terms as (value, real
    parts) and the merged conjugate pairs as (mu with Im mu > 0, 2 Re C,
    -2 Im C), where C are the matrices of mu and conj(C) those of conj(mu),
    both in input order. Raises error when an imaginary part is too large
    or the eigenvalues or the matrices fail to pair up.
    """
    import numpy as np

    stack = np.array([_ints(m)[0] for _, m in singles]
                     + [_ints(c)[0] for _, cs in terms for c in cs], dtype=complex)
    if scale is None:
        scale = max(1.0, float(abs(stack).max(initial=0.0)))
    arrs = iter(stack)
    singles = tuple((i, _real_matrix(next(arrs), tol, scale, error, what.format(i)))
                    for i, _ in singles)
    reals, pairs = [], []
    pending = dict(enumerate((lam, [next(arrs) for _ in cs]) for lam, cs in terms))
    while pending:
        lam, coeffs = pending.pop(min(pending))
        lam_scale = max(1.0, abs(lam))
        if abs(lam.imag) <= tol * lam_scale:
            reals.append((lam.real, tuple(_real_matrix(c, tol, scale, error)
                                          for c in coeffs)))
            continue
        partner = next((j for j, (mu, _) in pending.items()
                        if abs(mu - lam.conjugate()) <= tol * lam_scale), None)
        if partner is None:
            raise error(f"eigenvalue {lam!r} has no conjugate partner")
        mu, mcoeffs = pending.pop(partner)
        if len(mcoeffs) != len(coeffs):
            raise error(f"conjugate eigenvalues {lam!r}, {mu!r} have different indices")
        if lam.imag < 0:
            lam, coeffs, mcoeffs = mu, mcoeffs, coeffs
        for c, mc in zip(coeffs, mcoeffs):
            diff = float(abs(c - mc.conj()).max())
            if diff > tol * scale:
                raise error(f"coefficients of {lam!r} are not conjugate "
                            f"(residue {diff:.3g})")
        pairs.append((lam, tuple(_real_of(2 * c.real) for c in coeffs),
                      tuple(_real_of(-2 * c.imag) for c in coeffs)))
    return singles, reals, pairs


def pcf_realify(form: PCanonicalForm, tol: float = 1e-8) -> RealPCF:
    """Merge conjugate eigenvalue pairs of a complex form into real spirals.

    A pair mu = r e^(i theta), conj(mu) with conjugate coefficient
    matrices C, conj(C) becomes modulus r, angle theta in (0, pi),
    cos coefficients 2 Re(C) and sin coefficients -2 Im(C). Raises
    NotConjugateSymmetric when the spectrum or the coefficients fail to
    pair up, i.e. when the source matrix was not real.
    """
    if form.field != CC:
        raise PcanonError("realification applies to complex-double forms")
    nil, reals, pairs = _merge_conjugates(form.nilpotent_terms, form.geometric_terms,
                                          tol, None, NotConjugateSymmetric)
    real_terms = sorted((RealTerm(v, cs) for v, cs in reals), key=lambda t: t.value)
    spiral_terms = sorted((SpiralTerm(abs(mu), math.atan2(mu.imag, mu.real), cos, sin)
                           for mu, cos, sin in pairs),
                          key=lambda t: (t.modulus, t.angle))
    return RealPCF(order=form.order, basis=form.basis,
                   nilpotent_terms=nil, terms=(*real_terms, *spiral_terms))


def realpcf_eval(form: RealPCF, k: int) -> Matrix:
    """Evaluate a real closed form at integer k (entries stay real)."""
    def scaled():
        for term in form.terms:
            if isinstance(term, RealTerm):
                yield term.value ** k, term.coeffs
            else:
                rk = term.modulus ** k
                yield rk * math.cos(k * term.angle), term.cos_coeffs
                yield rk * math.sin(k * term.angle), term.sin_coeffs

    return _power_at(form, CC, k, scaled())
