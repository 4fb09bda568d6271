"""Closed-form matrix exponentials and logarithms with branch control."""

from __future__ import annotations

import cmath
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import spiral_3x3_at
from helpers import (
    chains_by_products,
    char_poly,
    conjugated_jordan,
    expm_series,
    max_diff,
    projections,
    rational_spectrum_matrix,
    real_with_spectrum,
)
from pcanon.errors import (
    AnswerTooLarge,
    NotReal,
    NumericFieldUnsupported,
    PcanonError,
    PrincipalUndefined,
    SingularMatrix,
    ZeroLogClash,
)
from pcanon.linalg import Matrix
from pcanon.matfun import (
    closedform_eval,
    expm_closed,
    expm_real,
    log_pcf,
    logm,
    realclosedform_eval,
)
from pcanon.pcf import (
    Basis,
    PCanonicalForm,
    pcf_build,
    pcf_eval,
    pcf_realify,
    realpcf_eval,
)
from pcanon.scalar import CC, GF, QQ, Poly

# -- exponentials -------------------------------------------------------------


def test_nilpotent_exponential_is_polynomial():
    j = Matrix.jordan_block(QQ, 3, 0)
    e = expm_closed(j)
    assert e.exponential_terms == ()
    assert [i for i, _ in e.polynomial_part] == [0, 1, 2]
    got = closedform_eval(e, 2.0)
    want = Matrix(CC, [[1, 2, 2], [0, 1, 2], [0, 0, 1]])
    assert max_diff(got, want) < 1e-12


def test_eval_at_zero_is_identity(semicirculant_4x4, mixed_spectrum_4x4):
    for a in (semicirculant_4x4, mixed_spectrum_4x4):
        e = expm_closed(a)
        assert max_diff(closedform_eval(e, 0.0),
                        Matrix.identity(CC, a.n)) < 1e-14


def test_constant_coefficients_are_the_projections():
    # 0 of index 2, 2 defective, -1 simple; then a dense complex input
    defective = [conjugated_jordan(random.Random(seed), QQ,
                                   [(2, 0), (3, 2), (1, -1)]) for seed in (1, 2)]
    gen = random.Random(7)
    dense = Matrix(CC, [[complex(gen.gauss(0, 1), gen.gauss(0, 1)) for _ in range(6)]
                        for _ in range(6)])
    for a in defective + [dense]:
        form, built = expm_closed(a), pcf_build(a.to_field(CC))
        assert [lam for lam, _ in form.exponential_terms] == [
            lam for lam, _ in built.geometric_terms]
        for (_, coeffs), (_, cs) in zip(form.exponential_terms, built.geometric_terms):
            assert coeffs[0] == (0, cs[0])
        if built.t0:
            assert form.polynomial_part[0] == built.nilpotent_terms[0]
        assert max_diff(closedform_eval(form, 0), Matrix.identity(CC, a.n)) < 1e-12


def test_semicirculant_exponential_coefficients(semicirculant_4x4):
    e = expm_closed(semicirculant_4x4)
    ((lam, coeffs),) = e.exponential_terms
    assert abs(lam - 2) < 1e-12
    cmap = {i: m for i, m in coeffs}
    # top-right strip of e^(tA): (2t + 8t^2) e^(2t) in the (0,2) slot
    assert abs(cmap[1].rows[0][2] - 2) < 1e-12
    assert abs(cmap[2].rows[0][2] - 8) < 1e-12
    for k in (1, 2, 3):
        got = closedform_eval(e, k).rows[0][2]
        want = (8 * k * k + 2 * k) * math.exp(2 * k)
        assert abs(got - want) < 1e-9 * abs(want)


def test_exponential_matches_series_oracle(semicirculant_4x4,
                                           mixed_spectrum_4x4, spiral_3x3):
    for a in (semicirculant_4x4, mixed_spectrum_4x4, spiral_3x3):
        e = expm_closed(a)
        for t in (0.3, 0.5, 1.0):
            want = expm_series(a, t)
            got = closedform_eval(e, t)
            assert max_diff(got, want) < 1e-9 * max(1.0, want.maxnorm())


def test_mixed_spectrum_exponential_entries(mixed_spectrum_4x4):
    e = expm_closed(mixed_spectrum_4x4)
    for k, t in itertools.product((1, 2), (0.3, 1.0)):
        got = closedform_eval(e, k * t)
        kt = k * t
        want00 = (math.exp(2 * kt) + 1) / 2
        want02 = (5 * math.exp(2 * kt) - math.exp(-2 * kt) + 4 * kt - 4) / 16
        assert abs(got.rows[0][0] - want00) < 1e-9
        assert abs(got.rows[0][2] - want02) < 1e-9
        assert max_diff(got, expm_series(mixed_spectrum_4x4, kt)) < 1e-9 * max(
            1.0, got.maxnorm())


def test_mixed_spectrum_polynomial_part_is_delta_part(mixed_spectrum_4x4,
                                                      mixed_delta_golden):
    e = expm_closed(mixed_spectrum_4x4)
    v0, v1 = mixed_delta_golden
    parts = {i: m for i, m in e.polynomial_part}
    assert max_diff(parts[0], v0.to_field(CC)) < 1e-12
    assert max_diff(parts[1], v1.to_field(CC)) < 1e-12


def test_semigroup_property(semicirculant_4x4, mixed_spectrum_4x4, spiral_3x3):
    rng = random.Random(17)
    for a in (semicirculant_4x4, mixed_spectrum_4x4, spiral_3x3):
        e = expm_closed(a)
        for _ in range(10):
            s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
            lhs = closedform_eval(e, s + t)
            rhs = closedform_eval(e, s) * closedform_eval(e, t)
            assert max_diff(lhs, rhs) < 1e-9 * max(1.0, lhs.maxnorm())


def test_derivative_at_zero_is_the_matrix(mixed_spectrum_4x4):
    e = expm_closed(mixed_spectrum_4x4)
    a = mixed_spectrum_4x4.to_field(CC)
    ident = Matrix.identity(CC, 4)
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        diff = (closedform_eval(e, h) - ident) * (1.0 / h)
        errs.append(max_diff(diff, a))
    assert errs[0] < 1e-2
    # first-order convergence: each decade of h buys about a decade of error
    assert errs[1] < errs[0] * 0.2
    assert errs[2] < errs[1] * 0.2


def _random_complex(seed: int, n: int) -> Matrix:
    rng = random.Random(seed)
    return Matrix(CC, [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                       for _ in range(n)])


def test_exponential_is_deduced_from_canonical_form(
        semicirculant_4x4, mixed_spectrum_4x4, jordan5_at_3, spiral_3x3):
    # e^(tA) from the P-canonical form of A: M_i = V_i / i! and
    # M_(j,i) = lambda_j^i C_(j,i) / i!, zero beyond the trimmed list
    def close(got, want):
        return max_diff(got, want) <= 1e-12 * max(1.0, want.maxnorm())

    for a in (semicirculant_4x4, mixed_spectrum_4x4, jordan5_at_3, spiral_3x3,
              _random_complex(5, 4), _random_complex(6, 5)):
        e = expm_closed(a)
        form = pcf_build(a.to_field(CC))
        assert [i for i, _ in e.polynomial_part] == [i for i, _ in form.nilpotent_terms]
        for (_, m), (i, v) in zip(e.polynomial_part, form.nilpotent_terms):
            assert close(m, v * (1 / math.factorial(i)))
        assert len(e.exponential_terms) == len(form.geometric_terms)
        for (lam, ms), (mu, cs) in zip(e.exponential_terms, form.geometric_terms):
            assert lam == mu
            assert [i for i, _ in ms] == list(range(len(ms)))
            assert len(ms) >= len(cs)
            for i, m in ms:
                if i < len(cs):
                    assert close(m, cs[i] * (lam ** i / math.factorial(i)))
                else:
                    assert m.maxnorm() <= 1e-12 * max(1.0, ms[0][1].maxnorm())


def _reference_inputs():
    """Complex Gaussians (n <= 20), conjugated Jordan assemblies with
    indices up to 4 (some with the eigenvalue 0) and real matrices of a
    known spectrum, all over C."""
    np = pytest.importorskip("numpy")
    for n in (2, 5, 9, 14, 20):
        gen = np.random.default_rng([n, 17])
        x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        yield Matrix(CC, x.tolist())
    rng = random.Random(23)
    for blocks in ([(4, 2), (2, 0.5)], [(4, 1 + 1j), (1, 1 - 1j), (2, 3)],
                   [(3, -1 + 2j), (4, 0.5j), (1, 2)], [(3, 0), (4, 2), (1, 1)],
                   [(2, 0), (3, 1.5), (2, -2j)]):
        yield conjugated_jordan(rng, CC, blocks)
    gen = np.random.default_rng(41)
    for reals, pairs in (((0.5, 2.0), ((1.2, 1.0),)),
                         ((-1.5, 0.3, 2.0), ((1.0, 1.0), (0.6, 2.5))),
                         ((0.4, 1.1, 3.0), ((1.8, 0.5), (1.0, 1.6), (0.6, 2.6)))):
        yield Matrix(CC, real_with_spectrum(gen, reals, pairs).tolist())


def test_forms_reweight_the_reference_chains():
    # pcf_build, expm_closed and logm against the chains (A - lambda I)^i pi
    # built by Matrix products on the same spectral resolution
    def close(got, want):
        return max_diff(got, want) <= 1e-13 * max(1.0, want.maxnorm())

    for a in _reference_inputs():
        form, e = pcf_build(a), expm_closed(a)
        nil, chains = chains_by_products(a, projections(form))
        assert [v for _, v in form.nilpotent_terms] == nil
        for (i, m), v in zip(e.polynomial_part, nil, strict=True):
            assert close(m, v * (1 / math.factorial(i)))
        assert [lam for lam, _ in form.geometric_terms] == [lam for lam, _ in chains]
        for (lam, cs), (_, ms), (_, ch) in zip(form.geometric_terms, e.exponential_terms,
                                               chains, strict=True):
            assert len(cs) == len(ms) <= len(ch)
            assert all(m.is_zero for m in ch[len(cs):])
            for i, (c, (_, m), r) in enumerate(zip(cs, ms, ch)):
                assert close(c, r * lam ** -i)
                assert close(m, r * (1 / math.factorial(i)))
        if nil or any(lam.real < 0 and not lam.imag for lam, _ in chains):
            with pytest.raises(SingularMatrix if nil else PrincipalUndefined):
                logm(a)
            continue
        want = Matrix.zeros(CC, a.n)
        for lam, ch in chains:
            want = want + ch[0] * cmath.log(lam)
            for i, r in enumerate(ch[1:], 1):
                want = want + r * ((-1) ** (i - 1) / (i * lam ** i))
        assert close(logm(a), want)


def test_exp_needs_complex_embedding():
    f5 = GF(5)
    with pytest.raises(NumericFieldUnsupported):
        expm_closed(Matrix.identity(f5, 2))


# -- real exponentials ---------------------------------------------------------


def test_real_rotation_exponential():
    rot = Matrix(QQ, [[0, -1], [1, 0]])
    er = expm_real(rot)
    for t in (0.25, 1.0, 2.0):
        got = realclosedform_eval(er, t)
        want = Matrix(CC, [[math.cos(t), -math.sin(t)],
                           [math.sin(t), math.cos(t)]])
        assert max_diff(got, want) < 1e-12
        assert all(e.imag == 0 for row in got.rows for e in row)


def test_real_form_agrees_with_complex_form(spiral_3x3, mixed_spectrum_4x4):
    for a in (spiral_3x3, mixed_spectrum_4x4):
        er = expm_real(a)
        ec = expm_closed(a)
        for t in (0.3, 0.9, 1.7):
            assert max_diff(realclosedform_eval(er, t),
                            closedform_eval(ec, t)) < 1e-9


def test_spiral_exponential_entry_formula(spiral_3x3):
    # entry (2,1): 4 Im(e^(2 t e^(i pi/6))) for the conjugate-pair matrix
    er = expm_real(spiral_3x3)
    mu = 2 * cmath.exp(1j * math.pi / 6)
    for t in (0.2, 0.7, 1.3):
        got = realclosedform_eval(er, t).rows[1][0]
        want = 4 * cmath.exp(mu * t).imag
        assert abs(got - want) < 1e-9


def test_real_spectrum_exponential_has_no_spiral_terms(semicirculant_4x4):
    er = expm_real(semicirculant_4x4)
    assert all(not hasattr(term, "frequency") for term in er.terms)


def test_real_exponential_rejects_complex_input():
    with pytest.raises(NotReal):
        expm_real(Matrix.diagonal(CC, [1j, -1j + 1]))


# -- logarithms -----------------------------------------------------------------


def test_log_refuses_before_building_projections(monkeypatch, negative_pair_2x2):
    import pcanon.matfun

    def unreachable(*args):
        raise AssertionError("projections built for a refused logarithm")

    monkeypatch.setattr(pcanon.matfun, "_complex_chains", unreachable)
    for a, branch, error in ((negative_pair_2x2, None, PrincipalUndefined),
                             (Matrix.jordan_block(QQ, 2, 0), None, SingularMatrix),
                             (Matrix.identity(QQ, 2), [0, 1], PcanonError)):
        with pytest.raises(error):
            logm(a, branch)


def test_principal_log_of_positive_diagonal():
    a = Matrix(CC, [[1.0, 0], [0, math.e]])
    got = logm(a)
    assert max_diff(got, Matrix(CC, [[0, 0], [0, 1.0]])) < 1e-9


def test_jordan_log_first_row(jordan5_at_3):
    got = logm(jordan5_at_3)
    want = [math.log(3), Fraction(1, 3), Fraction(-1, 18), Fraction(1, 81),
            Fraction(-1, 324)]
    for j, w in enumerate(want):
        assert abs(got.rows[0][j] - float(w)) < 1e-10
    back = closedform_eval(expm_closed(got), 1.0)
    assert max_diff(back, jordan5_at_3.to_field(CC)) < 1e-8


def test_semicirculant_log_is_semicirculant(semicirculant_4x4):
    got = logm(semicirculant_4x4)
    first = [math.log(2), 2.0, -1.0, 13 / 6]
    for r in range(4):
        for c in range(4):
            want = first[c - r] if c >= r else 0.0
            assert abs(got.rows[r][c] - want) < 1e-10, (r, c)


def test_branch_log_of_negative_pair(negative_pair_2x2):
    with pytest.raises(PrincipalUndefined):
        logm(negative_pair_2x2)
    got = logm(negative_pair_2x2, [0])
    z = complex(math.log(2), math.pi)
    want = Matrix(CC, [[-1.5 + z, -1.5], [1.5, 1.5 + z]])
    assert max_diff(got, want) < 1e-12
    back = closedform_eval(expm_closed(got), 1.0)
    assert max_diff(back, negative_pair_2x2.to_field(CC)) < 1e-8


def test_log_rejects_singular_input():
    with pytest.raises(SingularMatrix):
        logm(Matrix(QQ, [[0, 1], [0, 0]]))


def test_log_branch_count_must_match_spectrum():
    a = Matrix.diagonal(QQ, [1, 2])
    with pytest.raises(PcanonError):
        logm(a, [0, 0, 0])


def test_exp_log_roundtrip_on_random_positive_spectrum():
    for seed in range(20):
        a, _ = rational_spectrum_matrix(random.Random(300 + seed), [1, 2, 3])
        el = logm(a)
        back = closedform_eval(expm_closed(el), 1.0)
        assert max_diff(back, a.to_field(CC)) < 1e-8 * max(1.0, a.maxnorm())


def test_log_exp_characteristic_polynomial_identity(jordan5_at_3,
                                                    negative_pair_2x2):
    cases = [
        (jordan5_at_3, None,
         [complex(math.log(3))] * 5),
        (negative_pair_2x2, [0],
         [complex(math.log(2), math.pi)] * 2),
        (negative_pair_2x2, [-1],
         [complex(math.log(2), -math.pi)] * 2),
    ]
    for a, branch, zs in cases:
        got = char_poly(logm(a, branch))
        want = Poly.from_roots(CC, zs)
        assert all(abs(got.coeff(i) - want.coeff(i)) < 1e-8
                   for i in range(got.degree + 1))


def test_nonprincipal_branches_still_invert(negative_pair_2x2):
    for k in (-1, 1):
        el = logm(negative_pair_2x2, [k])
        back = closedform_eval(expm_closed(el), 1.0)
        assert max_diff(back, negative_pair_2x2.to_field(CC)) < 1e-8


# -- log of the canonical form ---------------------------------------------------


def test_log_pcf_matches_log_powers(negative_pair_2x2):
    lf = log_pcf(pcf_build(negative_pair_2x2.to_field(CC)), [0])
    el = logm(negative_pair_2x2, [0])
    z = complex(math.log(2), math.pi)
    power = Matrix.identity(CC, 2)
    for k in range(1, 9):
        power = power * el
        got = pcf_eval(lf, k)
        assert max_diff(got, power) < 1e-9 * max(1.0, power.maxnorm())
        want = Matrix(CC, [[-1.5 * k + z, -1.5 * k],
                           [1.5 * k, 1.5 * k + z]]) * z ** (k - 1)
        assert max_diff(got, want) < 1e-9 * max(1.0, want.maxnorm())


def test_log_pcf_of_identity_is_plain_zero():
    f = pcf_build(Matrix.identity(CC, 2))
    lf = log_pcf(f)
    assert lf.geometric_terms == ()
    ((i, v),) = lf.nilpotent_terms
    assert i == 0
    assert max_diff(v, Matrix.identity(CC, 2)) < 1e-14
    assert max_diff(pcf_eval(lf, 0), Matrix.identity(CC, 2)) < 1e-14
    assert pcf_eval(lf, 1).is_zero


def _clashing_form():
    # -1 -+ 1e-12 i on branches 1 and 0 both have log about i pi
    one = Matrix.identity(CC, 2)
    return PCanonicalForm(CC, 2, Basis.LAMBDA, (), ((complex(-1, -1e-12), (one,)),
                                                    (complex(-1, 1e-12), (one,))))


@pytest.mark.parametrize("form, branch, error, match", [
    (_clashing_form, [1, 0], ZeroLogClash, "same logarithm"),
    (lambda: pcf_build(Matrix(QQ, [[1, 1], [0, 2]])), None, PcanonError, "complex-double"),
], ids=["zero-log-clash", "exact-form"])
def test_log_pcf_named_refusals(form, branch, error, match):
    with pytest.raises(error, match=match):
        log_pcf(form(), branch)


def test_log_pcf_decides_clashes_at_its_tol():
    # the logarithms of e and e (1 + 1e-7) are 1e-7 apart
    form = PCanonicalForm(CC, 2, Basis.LAMBDA, (), (
        (complex(math.e), (Matrix(CC, [[1, 0], [0, 0]]),)),
        (complex(math.e * (1 + 1e-7)), (Matrix(CC, [[0, 0], [0, 1]]),))))
    with pytest.raises(ZeroLogClash):
        log_pcf(form, tol=1e-6)
    assert len(log_pcf(form).geometric_terms) == 2


@pytest.mark.parametrize("factor, clashes", [(1 + 1e-9, True), (1 - 1e-9, False)],
                         ids=["just-inside", "just-outside"])
def test_log_pcf_clash_rule_at_the_edge(factor, clashes):
    # tol sits just above or below |z_i - z_j| / max(1, |z_i|, |z_j|) for
    # z = ln 3, ln 5, the closest pair by that measure; ln 2, ln 3 sit further
    lams = [2, 3, 5]
    form = PCanonicalForm(CC, 3, Basis.LAMBDA, (), tuple(
        (complex(lam), (Matrix.diagonal(CC, [int(i == j) for j in range(3)]),))
        for i, lam in enumerate(lams)))
    zs = [complex(math.log(lam)) for lam in lams]
    tol = abs(zs[1] - zs[2]) / abs(zs[2]) * factor
    pairs = [(zi, zj) for zi, zj in itertools.combinations(zs, 2)
             if abs(zi - zj) <= tol * max(1.0, abs(zi), abs(zj))]
    assert [zi for zi, _ in pairs] == ([zs[1]] if clashes else [])
    if clashes:
        with pytest.raises(ZeroLogClash, match=re.escape(repr(zs[1]))):
            log_pcf(form, tol=tol)
    else:
        assert [z for z, _ in log_pcf(form, tol=tol).geometric_terms] == zs


def test_log_pcf_rejects_singular_source(spiral_3x3):
    with pytest.raises(SingularMatrix):
        log_pcf(pcf_build(spiral_3x3))


def test_branch_coherence_eval_at_one(jordan5_at_3, negative_pair_2x2,
                                      semicirculant_4x4):
    singles = [(jordan5_at_3, 1), (negative_pair_2x2, 1),
               (semicirculant_4x4, 1), (Matrix.diagonal(QQ, [1, 2]), 2)]
    for a, nvals in singles:
        f = pcf_build(a.to_field(CC))
        for ks in itertools.product((-1, 0, 1), repeat=nvals):
            el = logm(a, ks)
            lf = log_pcf(f, ks)
            assert max_diff(pcf_eval(lf, 1), el) < 1e-9 * max(
                1.0, el.maxnorm()), (ks,)


# -- real source logs -------------------------------------------------------------


def _spectrum_order(z: complex):
    # stable order for spectra with conjugate pairs: noise in the real part
    # must not flip which partner comes first
    return (round(z.real, 6), z.imag)


def test_family_log_eigenvalues_and_roundtrip():
    e = spiral_3x3_at(3.0)
    el = logm(e)
    got = sorted((z for z, _ in _eig_with_mult(el)), key=_spectrum_order)
    want = sorted([complex(math.log(2), -math.pi / 6),
                   complex(math.log(2), math.pi / 6),
                   complex(math.log(3))], key=_spectrum_order)
    assert all(abs(g - w) < 1e-8 for g, w in zip(got, want))
    back = closedform_eval(expm_closed(el), 1.0)
    assert max_diff(back, e) < 1e-8 * max(1.0, e.maxnorm())


def _eig_with_mult(m: Matrix):
    from pcanon.scalar import poly_factor

    f = poly_factor(char_poly(m).monic())
    return [(complex(r), mult) for r, mult in f.roots]


def test_real_pcf_log_unmerges_conjugate_pairs():
    # the log of a real matrix's form keeps the conjugate pair unmerged:
    # its powers are those of logm, and its logs are conjugate
    e = spiral_3x3_at(3.0)
    lf = log_pcf(pcf_build(e))
    el = logm(e)
    for k in range(1, 7):
        got = pcf_eval(lf, k)
        want = el ** k
        assert max_diff(got, want) < 1e-9 * max(1.0, want.maxnorm()), k
    # log eigenvalues carried by the form
    vals = sorted((z for z, _ in lf.geometric_terms), key=_spectrum_order)
    want_vals = sorted([complex(math.log(2), -math.pi / 6),
                        complex(math.log(2), math.pi / 6),
                        complex(math.log(3))], key=_spectrum_order)
    assert all(abs(g - w) < 1e-8 for g, w in zip(vals, want_vals))


def test_real_pcf_log_sequences_are_real():
    e = spiral_3x3_at(3.0)
    lf = log_pcf(pcf_build(e))
    w = complex(math.log(2), math.pi / 6)
    for k in range(1, 7):
        got = pcf_eval(lf, k)
        # entry (1,0) is -2i w^k + 2i conj(w)^k, a real sequence
        want = (-2j * w ** k + 2j * w.conjugate() ** k).real
        assert abs(got.rows[1][0] - want) < 1e-9
        assert abs(got.rows[1][0].imag) < 1e-9


def test_real_pcf_log_refuses_negative_real_eigenvalue(negative_pair_2x2):
    form = pcf_build(negative_pair_2x2.to_field(CC))
    with pytest.raises(PrincipalUndefined):
        log_pcf(form)


def test_real_exponential_and_log_match_scipy():
    np = pytest.importorskip("numpy")
    sla = pytest.importorskip("scipy.linalg")
    gen = np.random.default_rng(29)
    for reals, pairs in (((0.5,), ((1.2, 1.0),)),
                         ((-1.5, 0.3, 2.0), ((1.0, 1.0), (0.6, 2.5))),
                         ((-2.0, -0.5, 1.0), ((1.5, 0.4), (0.8, 1.6), (0.5, 2.8)))):
        g = real_with_spectrum(gen, reals, pairs)
        form = expm_real(Matrix(CC, g.tolist()))
        for t in (0.0, 0.5, -1.0, 3.0):
            want = sla.expm(t * g)
            got = np.array(realclosedform_eval(form, t).rows)
            assert not got.imag.any()
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), (reals, t)
    # spectra off the closed negative real axis, for the principal log
    for reals, pairs in (((0.5, 2.0), ((1.2, 1.0),)),
                         ((0.3, 1.0, 2.5), ((1.5, 0.8), (0.7, 2.2))),
                         ((0.4, 1.1, 3.0), ((1.8, 0.5), (1.0, 1.6), (0.6, 2.6)))):
        b = real_with_spectrum(gen, reals, pairs)
        want = sla.logm(b)
        got = np.array(logm(Matrix(CC, b.tolist())).rows)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), reals
    # a defective input: Jordan blocks of sizes 3 and 2
    j = conjugated_jordan(random.Random(5), CC, [(3, 2), (2, 0.5)])
    want = sla.logm(np.array(j.rows))
    got = np.array(logm(j).rows)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


_UPPER = Matrix(CC, [[2, 1], [0, 3]])


@pytest.mark.parametrize("call", [
    lambda: pcf_eval(pcf_build(_UPPER), 10 ** 4),
    lambda: realpcf_eval(pcf_realify(pcf_build(_UPPER)), 10 ** 4),
    lambda: closedform_eval(expm_closed(_UPPER), 1e4),
    lambda: realclosedform_eval(expm_real(_UPPER), 1e4),
    # 10^300 times binom(10^4, 3) is inf, and inf times 0 is nan
    lambda: pcf_eval(pcf_build(Matrix.jordan_block(CC, 4, 10 ** 0.03)), 10 ** 4),
], ids=["pcf", "realpcf", "closedform", "realclosedform", "jordan-nan"])
def test_evaluators_refuse_overflow_by_name(call):
    with pytest.raises(AnswerTooLarge):
        call()


_PAST_A_DOUBLE = Matrix(QQ, [[10 ** 400]])


@pytest.mark.parametrize("call", [
    lambda: Matrix(CC, [[10 ** 400]]),
    lambda: Poly(CC, [10 ** 400, 1]),
    lambda: _PAST_A_DOUBLE.to_field(CC),
    lambda: expm_closed(_PAST_A_DOUBLE),
    lambda: expm_real(_PAST_A_DOUBLE),
    lambda: logm(_PAST_A_DOUBLE),
], ids=["matrix", "poly", "to_field", "expm_closed", "expm_real", "logm"])
def test_numbers_past_a_double_are_refused_by_name(call):
    # each raised a bare OverflowError
    with pytest.raises(AnswerTooLarge):
        call()


@pytest.mark.parametrize("branch", [[0.7, 0], ["1", 0]], ids=["float", "str"])
def test_winding_numbers_must_be_integers(branch):
    # int() once read these as the branches [0, 0] and [1, 0]
    a = Matrix(QQ, [[-1, 0], [0, 2]])
    named = f"winding numbers are integers, got {branch[0]!r}"
    for call in (lambda: logm(a, branch),
                 lambda: log_pcf(pcf_build(a.to_field(CC)), branch)):
        with pytest.raises(PcanonError, match=named):
            call()
    np = pytest.importorskip("numpy")
    assert logm(a, [np.int64(1), 0]) == logm(a, [1, 0])
