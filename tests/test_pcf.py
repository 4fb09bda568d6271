"""Closed forms of matrix power sequences and their basis conversions."""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import spiral_3x3_powers
from helpers import (
    clustered_real,
    conjugated_jordan,
    dense_conjugated_jordan,
    jordan_assembly,
    max_diff,
    pcf_build_by_products,
    projections,
    rational_spectrum_matrix,
    real_with_spectrum,
)
from pcanon.errors import (
    CharPositive,
    NonSplitField,
    NotConjugateSymmetric,
    PcanonError,
)
from pcanon.linalg import Matrix, minpoly
from pcanon.pcf import (
    Basis,
    PCanonicalForm,
    RealTerm,
    pcf_build,
    pcf_eval,
    pcf_minpoly,
    pcf_realify,
    pcf_to_gamma,
    pcf_to_lambda,
    realpcf_eval,
)
from pcanon.scalar import CC, GF, QQ


def test_semicirculant_binomial_coefficients(semicirculant_4x4):
    form = pcf_build(semicirculant_4x4)
    assert form.basis is Basis.LAMBDA
    assert form.nilpotent_terms == ()
    ((lam, coeffs),) = form.geometric_terms
    assert lam == 2
    # first-row closed form: top-right entry carries 8, 4, 3/2 on
    # 2^k C(k,3), C(k,2), C(k,1).
    assert coeffs[3].rows[0][3] == 8
    assert coeffs[2].rows[0][3] == 4
    assert coeffs[1].rows[0][3] == Fraction(3, 2)
    assert coeffs[0] == Matrix.identity(QQ, 4)


def test_semicirculant_power_basis(semicirculant_4x4):
    form = pcf_to_gamma(pcf_build(semicirculant_4x4))
    ((_, coeffs),) = form.geometric_terms
    assert coeffs[3].rows[0][3] == Fraction(4, 3)
    assert coeffs[2].rows[0][3] == -2
    assert coeffs[1].rows[0][3] == Fraction(13, 6)


def test_eval_reproduces_powers_exactly(semicirculant_4x4):
    form = pcf_build(semicirculant_4x4)
    power = Matrix.identity(QQ, 4)
    for k in range(17):
        assert pcf_eval(form, k) == power, k
        power = power * semicirculant_4x4


def test_mixed_spectrum_delta_part(mixed_spectrum_4x4, mixed_delta_golden):
    form = pcf_build(mixed_spectrum_4x4)
    v0, v1 = mixed_delta_golden
    assert dict(form.nilpotent_terms) == {0: v0, 1: v1}
    assert form.t0 == 2
    values = sorted(lam for lam, _ in form.geometric_terms)
    assert values == [-2, 2]
    power = Matrix.identity(QQ, 4)
    for k in range(9):
        assert pcf_eval(form, k) == power, k
        power = power * mixed_spectrum_4x4


def test_gamma_roundtrip_exact():
    for seed in range(8):
        a, _ = rational_spectrum_matrix(random.Random(40 + seed),
                                        [1, 2, -1, Fraction(1, 2), 0])
        form = pcf_build(a)
        gamma = pcf_to_gamma(form)
        assert gamma.basis is Basis.GAMMA
        back = pcf_to_lambda(gamma)
        assert back == form
        power = Matrix.identity(QQ, a.n)
        for k in range(7):
            assert pcf_eval(gamma, k) == power
            power = power * a


def test_gamma_conversion_is_idempotent(semicirculant_4x4):
    g = pcf_to_gamma(pcf_build(semicirculant_4x4))
    assert pcf_to_gamma(g) == g
    lam = pcf_to_lambda(g)
    assert pcf_to_lambda(lam) == lam


def test_gamma_needs_characteristic_zero():
    f5 = GF(5)
    a = Matrix.diagonal(f5, [f5.coerce(1), f5.coerce(2)])
    with pytest.raises(CharPositive):
        pcf_to_gamma(pcf_build(a))


def test_prime_field_powers():
    f5 = GF(5)
    a = Matrix(f5, [[f5.coerce(x) for x in row]
                    for row in [[1, 1], [0, 2]]])
    form = pcf_build(a)
    power = Matrix.identity(f5, 2)
    for k in range(12):
        assert pcf_eval(form, k) == power
        power = power * a


def test_prime_field_block_of_size_p():
    # (X - 1)(X - 2)^3 over F_3: the eigenvalue 2 has multiplicity p
    f3 = GF(3)
    a = jordan_assembly(f3, [(1, f3.coerce(1)), (3, f3.coerce(2))])
    form = pcf_build(a)
    for k in range(11):
        assert pcf_eval(form, k) == a ** k, k


def test_minpoly_recovered_from_form():
    for seed in range(8):
        a, _ = rational_spectrum_matrix(random.Random(60 + seed),
                                        [0, 1, 2, -1])
        assert pcf_minpoly(pcf_build(a)) == minpoly(a)
    # the scaled chain underflows to a zero matrix; the index stays 2
    a = Matrix(CC, [[1e150, 1e-180], [0, 1e150]])
    assert pcf_minpoly(pcf_build(a)) == minpoly(a)
    assert minpoly(a).degree == 2


def test_nonsplit_spectrum_rejected():
    with pytest.raises(NonSplitField):
        pcf_build(Matrix(QQ, [[0, -1], [1, 0]]))


def test_nonsplit_refusal_with_a_huge_determinant():
    # |det| is about 4.5e24, past any scan of the constant term's divisors
    rng = random.Random(3)
    a = Matrix(QQ, [[rng.randint(-99, 99) for _ in range(12)] for _ in range(12)])
    with pytest.raises(NonSplitField):
        pcf_build(a)


def test_numeric_build_matches_exact_on_rational_input(semicirculant_4x4):
    exact = pcf_build(semicirculant_4x4)
    approx = pcf_build(semicirculant_4x4.to_field(CC))
    ((le, ce),) = exact.geometric_terms
    ((ln, cn),) = approx.geometric_terms
    assert abs(ln - complex(le)) < 1e-9
    assert all(max_diff(a.to_field(CC), b) < 1e-9 for a, b in zip(ce, cn))


# -- real forms ---------------------------------------------------------------


def test_realify_rotation_is_pure_spiral():
    rot = Matrix(CC, [[0.0, -1.0], [1.0, 0.0]])
    rf = pcf_realify(pcf_build(rot))
    (spiral,) = rf.terms
    assert abs(spiral.modulus - 1) < 1e-12
    assert abs(spiral.angle - math.pi / 2) < 1e-12
    for k in range(8):
        got = realpcf_eval(rf, k)
        c, s = math.cos(k * math.pi / 2), math.sin(k * math.pi / 2)
        want = Matrix(CC, [[c, -s], [s, c]])
        assert max_diff(got, want) < 1e-12
        assert all(e.imag == 0 for row in got.rows for e in row)


def test_realify_spiral_matrix_golden(spiral_3x3):
    rf = pcf_realify(pcf_build(spiral_3x3))
    spirals = [t for t in rf.terms if hasattr(t, "angle")]
    (spiral,) = spirals
    assert abs(spiral.modulus - 2) < 1e-9
    assert abs(spiral.angle - math.pi / 6) < 1e-9
    for k in range(1, 13):
        got = realpcf_eval(rf, k)
        assert max_diff(got, spiral_3x3_powers(k)) < 1e-9 * 2.0 ** k, k


def test_realify_rejects_unpaired_spectrum():
    a = Matrix.diagonal(CC, [complex(0, 1), complex(2)])
    with pytest.raises(NotConjugateSymmetric):
        pcf_realify(pcf_build(a))


def test_realify_refuses_exact_forms():
    with pytest.raises(PcanonError, match="complex-double"):
        pcf_realify(pcf_build(Matrix(QQ, [[1, 1], [0, 2]])))


def _rotation_form():
    return pcf_build(Matrix(CC, [[0.0, -1.0], [1.0, 0.0]]))


def test_realify_rejects_pair_with_different_indices():
    form = _rotation_form()
    (lam, (c,)), (mu, (d,)) = form.geometric_terms
    bent = PCanonicalForm(CC, 2, Basis.LAMBDA, (),
                          ((lam, (c, Matrix.identity(CC, 2))), (mu, (d,))))
    with pytest.raises(NotConjugateSymmetric):
        pcf_realify(bent)


def test_realify_rejects_pair_with_unconjugate_coefficients():
    form = _rotation_form()
    (lam, (c,)), (mu, _) = form.geometric_terms
    assert max(abs(e.imag) for row in c.rows for e in row) > 0.1
    # the partner carries C itself instead of conj(C)
    bent = PCanonicalForm(CC, 2, Basis.LAMBDA, (), ((lam, (c,)), (mu, (c,))))
    with pytest.raises(NotConjugateSymmetric):
        pcf_realify(bent)


def test_realify_holds_the_exact_real_and_imaginary_parts():
    # entrywise reference: Re C for a real eigenvalue and the nilpotent
    # part, 2 Re C and -2 Im C for the pair member with Im > 0
    np = pytest.importorskip("numpy")
    g = real_with_spectrum(np.random.default_rng(23), (0.0, 0.5, -0.8),
                           ((0.9, 1.0), (0.6, 2.5)))
    form = pcf_build(Matrix(CC, g.tolist()))
    real = pcf_realify(form)

    def part(coeffs, f):
        return tuple(tuple(tuple(complex(f(e), 0.0) for e in row) for row in c.rows)
                     for c in coeffs)

    assert form.t0 == 1
    assert [(i, v.rows) for i, v in real.nilpotent_terms] == [
        (i, part([v], lambda e: e.real)[0]) for i, v in form.nilpotent_terms]
    want = {(lam.real, part(cs, lambda e: e.real)) if not lam.imag
            else (abs(lam), math.atan2(lam.imag, lam.real),
                  part(cs, lambda e: 2 * e.real), part(cs, lambda e: -2 * e.imag))
            for lam, cs in form.geometric_terms if lam.imag >= 0}
    got = {(t.value, tuple(c.rows for c in t.coeffs)) if isinstance(t, RealTerm)
           else (t.modulus, t.angle, tuple(c.rows for c in t.cos_coeffs),
                 tuple(c.rows for c in t.sin_coeffs)) for t in real.terms}
    assert got == want and len(real.terms) == 4


def test_real_basis_conversions_roundtrip(spiral_3x3):
    # the Stirling weights are real: a real form's power basis is the
    # merger of the complex form in that basis
    form = pcf_build(spiral_3x3)
    rf = pcf_realify(form)
    gamma = pcf_realify(pcf_to_gamma(form))
    back = pcf_realify(pcf_to_lambda(pcf_to_gamma(form)))
    assert gamma.basis is Basis.GAMMA and back.basis is Basis.LAMBDA
    for k in range(1, 9):
        want = realpcf_eval(rf, k)
        assert max_diff(realpcf_eval(gamma, k), want) < 1e-9 * 2.0 ** k
        assert max_diff(realpcf_eval(back, k), want) < 1e-9 * 2.0 ** k


def test_realify_real_spectrum_has_no_spirals():
    a = Matrix.diagonal(QQ, [1, 2]).to_field(CC)
    rf = pcf_realify(pcf_build(a))
    assert all(not hasattr(t, "angle") for t in rf.terms)
    assert [t.value for t in rf.terms] == [1, 2]


def test_eval_of_negative_eigenvalue_is_real():
    a = Matrix(QQ, [[1, 3], [-3, -5]]).to_field(CC)
    rf = pcf_realify(pcf_build(a))
    for k in range(7):
        want = (-2.0) ** k
        got = realpcf_eval(rf, k)
        assert abs(got.rows[0][0] - ((-1.5 * k + 1) * want)) < 1e-9
        assert abs(got.rows[1][0] - (1.5 * k * want)) < 1e-9


def test_spiral_powers_match_complex_eval(spiral_3x3):
    form = pcf_build(spiral_3x3)
    for k in range(1, 10):
        want = spiral_3x3_powers(k)
        assert max_diff(pcf_eval(form, k), want) < 1e-9 * 2.0 ** k
    # powers computed through the complex pair explicitly
    mu = 2 * cmath.exp(1j * math.pi / 6)
    terms = {lam: cs for lam, cs in form.geometric_terms}
    close = [lam for lam in terms if abs(lam - mu) < 1e-8]
    assert len(close) == 1


def _exact_inputs():
    rng = random.Random(29)
    for _ in range(12):
        yield rational_spectrum_matrix(rng, (0, 1, -1, 2, Fraction(1, 2), -3),
                                       max_order=6)[0]
    for p in (2, 3, 101):
        for _ in range(4):
            blocks = [(rng.randint(1, 3), rng.randrange(p))
                      for _ in range(rng.randint(1, 3))]
            yield conjugated_jordan(rng, GF(p), blocks)
    for n in (3, 5, 7):  # a dense rational conjugator with entries up to 10^6
        yield dense_conjugated_jordan(rng, n, 10 ** 6)


def test_eval_matches_repeated_products_in_both_bases():
    # every k below the index of zero, the index itself and a large k
    for a in _exact_inputs():
        form = pcf_build(a)
        forms = [form]
        if a.field == QQ:
            gamma = pcf_to_gamma(form)
            assert pcf_to_lambda(gamma) == form
            forms.append(gamma)
        big = 97 if a.field == QQ else 10**12 + 3
        for k in sorted({0, *range(form.t0 + 1), big}):
            want = a ** k
            assert all(pcf_eval(f, k) == want for f in forms), (a, k)


@pytest.mark.parametrize("p", [0, 2, 3, 101, 65537])
def test_build_and_projections_match_the_product_route(p):
    # over Q the entries have denominators 1, 2, 3 and 6 (from the values
    # and a scaling by 1/2, 1/3 or 1/6), where den * lambda orders the
    # eigenvalues differently from lambda (1/3 beside 1 over 3); the fixed
    # cases are nilpotent, have t0 > 0, or one eigenvalue of index n
    field = GF(p) if p else QQ
    values = ([0, 1, -1, 2, Fraction(1, 3), Fraction(1, 2), Fraction(-5, 6)] if not p
              else sorted({0, 1, 2 % p, 5 % p, p - 1}))
    rng = random.Random(1600 + p)
    cases = [[(4, 0)], [(3, 0), (2, 0), (1, 0)], [(5, values[-1])],
             [(2, 0), (3, values[1]), (1, values[-1])]]
    if not p:
        cases += [[(2, Fraction(1, 3)), (2, 1)], [(1, Fraction(1, 3)), (3, 1), (1, 0)]]
    cases += [[(rng.randint(1, 4), rng.choice(values)) for _ in range(rng.randint(1, 4))]
              for _ in range(10)]
    inputs = []
    for k, blocks in enumerate(cases):
        a = conjugated_jordan(rng, field, blocks)
        if not p and k % 2:
            a = a * Fraction(1, rng.choice([2, 3, 6]))
        inputs.append((a, blocks))
    if not p:  # a dense rational conjugator with entries up to 10^6
        inputs += [(dense_conjugated_jordan(rng, n, 10 ** 6), n) for n in (2, 4, 6, 8)]
    for a, label in inputs:
        want, form = pcf_build_by_products(a)
        built = pcf_build(a)
        assert built == form, label
        assert [pi for *_, pi in projections(built)] == want, label


def test_large_entry_rational_build_is_quick():
    # a dense conjugator with entries up to 10^6 gives A a denominator of
    # 300-odd bits, so the powers of S = den A would grow by that much per
    # step (15,527 bits at S^15); the chains are sums of A's reduced powers
    a = dense_conjugated_jordan(random.Random(16), 16, 10 ** 6)
    start = time.process_time()
    form = pcf_build(a)
    assert time.process_time() - start < 1.5
    assert pcf_eval(form, 1) == a and pcf_eval(form, 0) == Matrix.identity(QQ, 16)


def test_negative_power_index_is_refused():
    form = pcf_build(Matrix(QQ, [[1, 3], [-3, -5]]).to_field(CC))
    for call, f in ((pcf_eval, form), (realpcf_eval, pcf_realify(form))):
        with pytest.raises(ValueError):
            call(f, -1)


def test_nilpotent_form_vanishes_from_its_index_on():
    for field in (QQ, GF(3)):
        a = conjugated_jordan(random.Random(4), field, [(3, 0), (2, 0), (1, 0)])
        form = pcf_build(a)
        assert (form.t0, form.geometric_terms) == (3, ())
        assert pcf_eval(form, 2) == a ** 2 != Matrix.zeros(field, 6)
        for k in (3, 4, 50):
            assert pcf_eval(form, k) == Matrix.zeros(field, 6)


def test_real_eval_matches_numpy_powers():
    np = pytest.importorskip("numpy")
    gen = np.random.default_rng(17)
    for reals, pairs in (((0.5,), ((0.9, 1.0),)),
                         ((-0.8, 0.3, 1.0), ((0.9, 1.0), (0.6, 2.5))),
                         ((-0.9, -0.4, 0.6), ((1.0, 0.4), (0.8, 1.6), (0.5, 2.8)))):
        g = real_with_spectrum(gen, reals, pairs)
        real = pcf_realify(pcf_build(Matrix(CC, g.tolist())))
        for k in (0, 1, 2, 7, 30):
            want = np.linalg.matrix_power(g, k)
            got = np.array(realpcf_eval(real, k).rows)
            assert not got.imag.any()
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), (reals, k)


@pytest.mark.parametrize("seed", [2033, 2016, 7, 8])
def test_clustered_real_form_reproduces_the_matrix(seed):
    # the form at k = 1 once missed A by up to 5.1e-5 here, with no warning
    np = pytest.importorskip("numpy")
    g = clustered_real(np.random.default_rng(seed))
    form = pcf_build(Matrix(CC, g.tolist()))
    got = np.array(pcf_eval(form, 1).rows)
    assert np.linalg.norm(got - g) <= 1e-8 * np.linalg.norm(g)
    real = np.array(realpcf_eval(pcf_realify(form), 1).rows)
    assert np.linalg.norm(real - g) <= 1e-8 * np.linalg.norm(g)
