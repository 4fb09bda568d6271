"""Closed-form matrix exponentials and logarithms read off the P-canonical form.

The complex P-canonical form of A, read off linalg's `_chains`, holds
C_i = lambda_j^(-i) (A - lambda_j I)^i pi_j per eigenvalue and V_i = A^i pi_0
for the eigenvalue zero; both functions reweight those coefficients
(Higham, Functions of Matrices, ch. 1). e^(tA) is a polynomial in t times
e^(lambda t) per eigenvalue: V_i / i! on t^i and lambda^i C_i / i! on
e^(lambda t) t^i. log A is sum_j z_j pi_j plus the terminating series
((-1)^(i-1) / i) C_i, i >= 1. A branch, None for the principal one or one
winding integer k_j per eigenvalue, fixes z_j = log|lambda_j| +
i(Arg lambda_j + 2 pi k_j). The logarithm also exists at the level of
closed forms for the full power sequence (`log_pcf`). log A is one
weighted sum of the stored matrices through linalg's `_combine`, and
e^(tA) at a given t is one through pcf's `_eval_at`, the evaluator of
the power-sequence forms. All arithmetic here is on complex doubles;
exact inputs are converted once at the boundary.
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import (
    NotReal,
    NumericFieldUnsupported,
    PcanonError,
    PrincipalUndefined,
    SingularMatrix,
    ZeroLogClash,
)
from .linalg import Matrix, _combine, _complex_chains, _ints, _numeric_spectrum
from .pcf import (
    Basis,
    PCanonicalForm,
    _eval_at,
    _merge_conjugates,
    _real_matrix,
    pcf_build,
    pcf_to_gamma,
)
from .scalar import CC, _linked


@dataclass(frozen=True)
class ClosedFormExp:
    """e^(tA) = sum_i M_i t^i + sum_j e^(lambda_j t) sum_i M_(j,i) t^i.

    polynomial_part holds (i, M_i); exponential_terms holds
    (lambda_j, ((i, M_(j,i)), ...)). Evaluation at t = 0 gives the
    identity; the derivative at 0 gives the source matrix.
    """

    order: int
    polynomial_part: tuple
    exponential_terms: tuple


@dataclass(frozen=True)
class RealExpTerm:
    """e^(value * t) times a real matrix polynomial in t."""

    value: float
    coeffs: tuple  # ((i, Matrix), ...)


@dataclass(frozen=True)
class SpiralExpTerm:
    """Merged conjugate pair mu = growth + i*frequency (frequency > 0):
    e^(growth t) [cos(frequency t) * P(t) + sin(frequency t) * Q(t)]."""

    growth: float
    frequency: float
    cos_coeffs: tuple
    sin_coeffs: tuple


@dataclass(frozen=True)
class RealClosedForm:
    """Real-arithmetic e^(tA) for a real source matrix."""

    order: int
    polynomial_part: tuple
    terms: tuple


def _to_cc(a: Matrix) -> Matrix:
    if a.field == CC:
        return a
    if a.field.char != 0:
        raise NumericFieldUnsupported(
            f"exp/log need a characteristic-zero field, got {a.field}")
    return a.to_field(CC)


def _exp_weights(lam, coeffs) -> tuple:
    """(i, lambda^i C_i / i!) for the coefficients C_i of one term; lambda
    is 1 for the polynomial part."""
    return tuple((i, c * (lam ** i / math.factorial(i)) if i else c)
                 for i, c in enumerate(coeffs))


def expm_closed(a: Matrix, tol: float = 1e-8) -> ClosedFormExp:
    """Exact-form matrix exponential, reweighted from the complex
    P-canonical form of A."""
    form = pcf_build(_to_cc(a), tol)
    nil = [v for _, v in form.nilpotent_terms]
    return ClosedFormExp(order=form.order, polynomial_part=_exp_weights(1.0, nil),
                         exponential_terms=tuple((lam, _exp_weights(lam, coeffs))
                                                 for lam, coeffs in form.geometric_terms))


def closedform_eval(form: ClosedFormExp, t) -> Matrix:
    """Evaluate e^(tA) at a real or complex time."""
    t = complex(t)
    return _eval_at(CC, form.order, itertools.chain(
        [(1.0, form.polynomial_part)],
        ((cmath.exp(lam * t), coeffs) for lam, coeffs in form.exponential_terms)),
        lambda i: t ** i)


def expm_real(a: Matrix, tol: float = 1e-8) -> RealClosedForm:
    """Real-arithmetic closed form of e^(tA) for a real matrix: conjugate
    exponential terms merge into growth/oscillation spirals."""
    src = _ints(_to_cc(a))[0]
    scale = max(1.0, float(abs(src).max()))
    form = expm_closed(_real_matrix(src, 1e-12, scale, NotReal, "source matrix"), tol)
    poly_part, reals, pairs = _merge_conjugates(
        form.polynomial_part,
        [(lam, [m for _, m in coeffs]) for lam, coeffs in form.exponential_terms],
        tol, scale, NotReal, "t^{} coefficient")
    real_terms = sorted((RealExpTerm(v, tuple(enumerate(cs))) for v, cs in reals),
                        key=lambda trm: trm.value)
    spiral_terms = sorted((SpiralExpTerm(mu.real, mu.imag, tuple(enumerate(cos)),
                                         tuple(enumerate(sin)))
                           for mu, cos, sin in pairs),
                          key=lambda trm: (trm.growth, trm.frequency))
    return RealClosedForm(order=form.order, polynomial_part=poly_part,
                          terms=(*real_terms, *spiral_terms))


def realclosedform_eval(form: RealClosedForm, t: float) -> Matrix:
    """Evaluate a real closed form at real time (entries stay real)."""
    t = float(t)

    def scaled():
        yield 1.0, form.polynomial_part
        for term in form.terms:
            if isinstance(term, RealExpTerm):
                yield math.exp(term.value * t), term.coeffs
            else:
                g = math.exp(term.growth * t)
                yield g * math.cos(term.frequency * t), term.cos_coeffs
                yield g * math.sin(term.frequency * t), term.sin_coeffs

    return _eval_at(CC, form.order, scaled(), lambda i: t ** i)


def _branch_logs(values, branch, tol: float) -> list[complex]:
    """One log per eigenvalue, in canonical order. branch None is the
    principal branch, defined only when no eigenvalue lies on the closed
    negative real axis; otherwise it lists one winding integer k per
    eigenvalue (PcanonError names an entry that is not an integer), and
    z = log|lambda| + i(Arg lambda + 2 pi k), Arg in (-pi, pi]."""
    if branch is None:
        ks = [0] * len(values)
        for lam in values:
            if lam.real < 0 and abs(lam.imag) <= tol * abs(lam):
                raise PrincipalUndefined(
                    f"eigenvalue {lam!r} lies on the closed negative real axis")
    else:
        ks = []
        for k in branch:
            try:
                ks.append(operator.index(k))
            except TypeError:
                raise PcanonError(f"winding numbers are integers, got {k!r}") from None
        if len(ks) != len(values):
            raise PcanonError(
                f"branch list has {len(ks)} entries for {len(values)} eigenvalues")
    out = []
    for lam, k in zip(values, ks):
        out.append(complex(math.log(abs(lam)),
                           math.atan2(lam.imag, lam.real) + 2 * math.pi * k))
    return out


def logm(a: Matrix, branch=None, tol: float = 1e-8) -> Matrix:
    """A matrix logarithm: exp of the result is the input.

    Built from the complex P-canonical form of A as sum_j z_j C_0 plus
    the terminating alternating series sum_j sum_(i>=1) ((-1)^(i-1)/i) C_i,
    with C_i = lambda_j^(-i) (A - lambda_j I)^i pi_j. The eigenvalues of
    the result are exactly the chosen z_j. branch is None (principal) or
    one winding integer per eigenvalue, as in `_branch_logs`.
    """
    a = _to_cc(a)
    arr, spectrum = _numeric_spectrum(a, tol)
    values = [mu for mu, *_ in spectrum]
    # refuse from the eigenvalues alone, before any projection is built
    if not all(values):
        raise SingularMatrix("singular matrices have no logarithm")
    zs = _branch_logs(values, branch, tol)
    weights, mats = [], []
    *_, chains = _complex_chains(arr, spectrum, tol)
    for z, coeffs in zip(zs, chains):
        weights += [z] + [(-1) ** (i - 1) / i for i in range(1, len(coeffs))]
        mats += coeffs
    return _combine(CC, a.n, [weights], mats)[0]


def log_pcf(form: PCanonicalForm, branch=None, tol: float = 1e-8) -> PCanonicalForm:
    """Closed form of the full power sequence of the logarithm.

    Takes the power-basis closed form of A (binomial-basis input is
    converted); each coefficient of lambda_j^k k^i becomes i! z_j^(-i)
    times a binomial-basis coefficient at eigenvalue z_j, except that a
    z_j = 0 (eigenvalue exactly 1, principal branch) routes to the
    finitely supported slots with the same i! weight. Raises ZeroLogClash
    when two of the z lie within tol max(1, |z_i|, |z_j|) of each other.
    """
    if form.field != CC:
        raise PcanonError("logarithm closed forms work on complex-double forms")
    if form.nilpotent_terms:
        raise SingularMatrix("singular matrices have no logarithm")
    if form.basis is Basis.LAMBDA:
        form = pcf_to_gamma(form)
    zs = _branch_logs([lam for lam, _ in form.geometric_terms], branch, tol)
    clash = next((g for g in _linked(zs, tol) if len(g) > 1), None)
    if clash:
        raise ZeroLogClash(
            f"branch maps two eigenvalues to the same logarithm {clash[0]!r}")
    nil, geo = (), []
    for z, (_, coeffs) in zip(zs, form.geometric_terms):
        zinv = 1.0 / z if z else 1.0   # z = 0 keeps the bare i! weight
        new, factor = [], 1.0 + 0j
        for i, c in enumerate(coeffs):  # C_0's weight is exactly 1
            new.append(c * (factor * math.factorial(i)) if i else c)
            factor = factor * zinv
        if z:
            geo.append((z, tuple(new)))
        else:   # at most one z is 0: two would clash
            nil = tuple(enumerate(new))
    geo.sort(key=lambda t: (t[0].real, t[0].imag))
    return PCanonicalForm(field=CC, order=form.order, basis=Basis.LAMBDA,
                          nilpotent_terms=nil, geometric_terms=tuple(geo))
