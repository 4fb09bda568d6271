"""Acceptance gate: the ten headline results, one test per criterion.

Each test ends by recording a PASS line that the terminal summary prints;
a criterion that fails or errors is reported as FAIL there.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import record_acceptance, spiral_3x3_at
from helpers import (
    binom_span_bruteforce,
    expm_series,
    max_diff,
    projections,
    rational_spectrum_matrix,
    wedge_oracle_dim,
)
from pcanon.kronmin import (
    eig_spec_of_matrix,
    kron_minpoly_direct,
    kron_minpoly_symbolic,
    lrs_product_poly,
)
from pcanon.linalg import Matrix, minpoly
from pcanon.lrs import LinRecSeq, lrs_min_annihilator, lrs_mul, lrs_prefix
from pcanon.matfun import (
    closedform_eval,
    expm_closed,
    log_pcf,
    logm,
)
from pcanon.pcf import (
    Basis,
    pcf_build,
    pcf_eval,
    pcf_realify,
    pcf_to_gamma,
    pcf_to_lambda,
    realpcf_eval,
)
from pcanon.scalar import CC, GF, QQ, Poly, stirling_first, stirling_second
from pcanon.wedge import WedgeContext, wedge


def test_criterion_01_semicirculant_canonical_form(semicirculant_4x4):
    t_start = time.perf_counter()
    form = pcf_build(semicirculant_4x4)
    assert form.nilpotent_terms == ()
    ((lam, coeffs),) = form.geometric_terms
    assert lam == Fraction(2)
    assert coeffs[0] == Matrix.identity(QQ, 4)
    # top-right entries of the C(k,1), C(k,2), C(k,3) coefficients
    assert coeffs[1].rows[0][3] == Fraction(3, 2)
    assert coeffs[2].rows[0][3] == Fraction(4)
    assert coeffs[3].rows[0][3] == Fraction(8)
    power = Matrix.identity(QQ, 4)
    for k in range(17):
        assert pcf_eval(form, k) == power
        power = power * semicirculant_4x4
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    record_acceptance(
        1, "semicirculant form coefficients (8, 4, 3/2) exact; "
           f"A^k exact for k=0..16 in {elapsed * 1000:.0f} ms")


def test_criterion_02_semicirculant_exp_and_log(semicirculant_4x4):
    a = semicirculant_4x4
    e = expm_closed(a)
    ((lam, coeffs),) = e.exponential_terms
    cmap = {i: m for i, m in coeffs}
    # entry (0,2) of e^(tA) is (8 t^2 + 2 t) e^(2t): coefficients exact
    assert lam == 2 and cmap[1].rows[0][2] == 2 and cmap[2].rows[0][2] == 8
    ell = logm(a)
    z = math.log(2)
    # principal log is the semicirculant [z, 2, -1, 13/6]
    first = [z, 2.0, -1.0, Fraction(13, 6)]
    for r in range(4):
        for c in range(4):
            want = float(first[c - r]) if c >= r else 0.0
            assert abs(ell.rows[r][c] - want) < 1e-12
    # powers of the log at entry (0,3):
    #   L^k[0,3] = c1 z^(k-1) C(k,1) + c2 z^(k-2) C(k,2) + c3 z^(k-3) C(k,3).
    # The nilpotent part M = L - z I has M[0,3] = 13/6, (M^2)[0,3] = -4,
    # (M^3)[0,3] = 8, so (c1, c2, c3) = (13/6, -4, 8): each c_i is i! times
    # the k^i-basis coefficient of the source form (4/3, -2, 13/6 at i =
    # 3, 2, 1), because the binomial basis carries the 1/i! inside C(k,i).
    gamma = pcf_to_gamma(pcf_build(a))
    ((_, gcoeffs),) = gamma.geometric_terms
    assert [gcoeffs[i].rows[0][3] for i in (1, 2, 3)] == [
        Fraction(13, 6), Fraction(-2), Fraction(4, 3)]
    m = ell - Matrix.identity(CC, 4) * z
    want_c = {1: Fraction(13, 6), 2: Fraction(-4), 3: Fraction(8)}
    power = Matrix.identity(CC, 4)
    for i in (1, 2, 3):
        power = power * m
        assert abs(power.rows[0][3] - float(want_c[i])) < 1e-12
    # A = 2 e^M, so A^k = sum_m 2^k k^m (M^m / m!): the k^m-basis
    # coefficient matrices are exactly M^m / m!
    for i in (1, 2, 3):
        assert want_c[i] == gcoeffs[i].rows[0][3] * math.factorial(i)
    # verify the closed form L^k[0,3] against repeated multiplication
    power = Matrix.identity(CC, 4)
    for k in range(1, 9):
        power = power * ell
        closed = sum(
            float(want_c[i]) * z ** (k - i) * math.comb(k, i)
            for i in (1, 2, 3) if i <= k)
        assert abs(power.rows[0][3] - closed) < 1e-9 * max(1.0, abs(closed))
    back = closedform_eval(expm_closed(ell), 1.0)
    assert max_diff(back, a.to_field(CC)) < 1e-9
    record_acceptance(
        2, "exp coefficients (8k^2+2k)e^(2k) exact; log powers carry "
           "(13/6, -4, 8) = i! * (13/6, -2, 4/3); exp(log A) = A at 1e-9")


def test_criterion_03_unipotent_jordan_kronecker():
    t_start = time.perf_counter()
    checked = 0
    for s in range(1, 7):
        for t in range(1, 7):
            js = Matrix.jordan_block(QQ, s, 1)
            jt = Matrix.jordan_block(QQ, t, 1)
            sym = kron_minpoly_symbolic(
                [eig_spec_of_matrix(js), eig_spec_of_matrix(jt)])
            want = Poly.from_roots(QQ, [Fraction(1)] * (s + t - 1))
            assert sym == want, (s, t)
            assert kron_minpoly_direct([js, jt]) == want, (s, t)
            checked += 1
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    record_acceptance(
        3, f"min poly of J_s(1) (x) J_t(1) = (X-1)^(s+t-1), both routes, "
           f"{checked} pairs s,t<=6 in {elapsed:.2f} s")


def test_criterion_04_wedge_in_characteristic_p():
    for p in (2, 3, 5):
        f = GF(p)
        for s in range(1, 7):
            for t in range(1, 7):
                js = Matrix.jordan_block(f, s, 1)
                jt = Matrix.jordan_block(f, t, 1)
                sym = kron_minpoly_symbolic(
                    [eig_spec_of_matrix(js), eig_spec_of_matrix(jt)])
                assert sym == kron_minpoly_direct([js, jt]), (p, s, t)
    triples = 0
    for p in (2, 3, 5):
        ctx = WedgeContext(p)
        for s in range(1, 13):
            for t in range(1, 13):
                d = wedge(s, t, ctx)
                assert d == wedge_oracle_dim(s, t, ctx, horizon=32), (p, s, t)
                assert d == binom_span_bruteforce(s, t, p), (p, s, t)
                triples += 1
    record_acceptance(
        4, "symbolic = direct Kronecker min poly over F_p, p in {2,3,5}, "
           f"s,t<=6; wedge = rank oracle = binomial scan on {triples} "
           "triples s,t<=12")


def test_criterion_05_recurrence_product_closure():
    fib_poly = Poly(QQ, [-1, -1, 1])
    closure = lrs_product_poly([fib_poly, fib_poly])
    want = Poly(QQ, [1, -2, -2, 1])
    assert closure == want
    fib = LinRecSeq(fib_poly, (Fraction(0), Fraction(1)))
    squares = lrs_mul([fib, fib], closure)
    prefix = lrs_prefix(squares, 30)
    plain = lrs_prefix(fib, 30)
    assert prefix == [v * v for v in plain]
    # the 30-term prefix satisfies the closure recurrence
    c = closure.coeffs
    for n in range(len(prefix) - 3):
        assert sum(c[i] * prefix[n + i] for i in range(4)) == 0
    assert lrs_min_annihilator(prefix) == want
    # second pair: Fibonacci times 2^n
    geo = Poly(QQ, [-2, 1])
    closure2 = lrs_product_poly([fib_poly, geo])
    assert closure2 == Poly(QQ, [-4, -2, 1])
    doubled = lrs_mul([fib, LinRecSeq(geo, (Fraction(1),))], closure2)
    assert lrs_prefix(doubled, 5) == [0, 2, 4, 16, 48]
    record_acceptance(
        5, "Fibonacci^2 closure X^3-2X^2-2X+1 = min annihilator of its "
           "30-term prefix; Fibonacci x 2^n -> X^2-2X-4, prefix 0,2,4,16,48")


def test_criterion_06_mixed_spectrum_delta_part(mixed_spectrum_4x4,
                                                mixed_delta_golden):
    form = pcf_build(mixed_spectrum_4x4)
    v0, v1 = mixed_delta_golden
    parts = dict(form.nilpotent_terms)
    assert parts[0] == v0 and parts[1] == v1
    e = expm_closed(mixed_spectrum_4x4)
    for k, t in itertools.product((1, 2), (0.3, 1.0)):
        kt = k * t
        got = closedform_eval(e, kt)
        assert abs(got.rows[0][0] - (math.exp(2 * kt) + 1) / 2) < 1e-9
        want02 = (5 * math.exp(2 * kt) - math.exp(-2 * kt) + 4 * kt - 4) / 16
        assert abs(got.rows[0][2] - want02) < 1e-9
        assert max_diff(got, expm_series(mixed_spectrum_4x4, kt)) < 1e-9
    record_acceptance(
        6, "delta-part matrices of the mixed-spectrum example exact; "
           "e^(ktA) entries match closed forms and series oracle at 1e-9")


def test_criterion_07_conjugate_pair_spectrum(spiral_3x3):
    rf = pcf_realify(pcf_build(spiral_3x3))
    spirals = [t for t in rf.terms if hasattr(t, "angle")]
    ((r, theta),) = [(s.modulus, s.angle) for s in spirals]
    assert abs(r - 2) < 1e-9 and abs(theta - math.pi / 6) < 1e-9
    for k in range(1, 13):
        got = realpcf_eval(rf, k).rows[1][0]
        want = 2 ** (k + 2) * math.sin(k * math.pi / 6)
        assert abs(got - want) < 1e-9, k
    e = spiral_3x3_at(3.0)
    ell = logm(e)
    got_vals = sorted((complex(lam) for lam, _ in pcf_build(ell).geometric_terms),
                      key=lambda v: (round(v.real, 6), v.imag))
    want_vals = sorted(
        [complex(math.log(2), -math.pi / 6),
         complex(math.log(2), math.pi / 6), complex(math.log(3))],
        key=lambda v: (round(v.real, 6), v.imag))
    assert all(abs(g - w) < 1e-8 for g, w in zip(got_vals, want_vals))
    back = closedform_eval(expm_closed(ell), 1.0)
    assert max_diff(back, e) < 1e-8
    record_acceptance(
        7, "real form recovers spiral (r=2, angle pi/6), entry (2,1) = "
           "2^(k+2) sin(k pi/6) at 1e-9; family log eigenvalues "
           "{ln2 +/- i pi/6, ln3} at 1e-8, exp(log) = E at 1e-8")


def test_criterion_08_branch_logarithm(negative_pair_2x2):
    z = complex(math.log(2), math.pi)
    ell = logm(negative_pair_2x2, [0])
    want = Matrix(CC, [[-1.5 + z, -1.5], [1.5, 1.5 + z]])
    assert max_diff(ell, want) < 1e-12
    lf = log_pcf(pcf_build(negative_pair_2x2.to_field(CC)), [0])
    power = Matrix.identity(CC, 2)
    for k in range(1, 9):
        power = power * ell
        got = pcf_eval(lf, k)
        assert max_diff(got, power) < 1e-9 * max(1.0, power.maxnorm()), k
        closed = Matrix(CC, [[-1.5 * k + z, -1.5 * k],
                             [1.5 * k, 1.5 * k + z]]) * z ** (k - 1)
        assert max_diff(got, closed) < 1e-9 * max(1.0, closed.maxnorm()), k
    record_acceptance(
        8, "branch log at z = ln2 + i pi matches the closed 2x2 form at "
           "1e-12; its canonical-form powers match multiplication for "
           "k=1..8 at 1e-9")


def test_criterion_09_jordan_block_logarithm(jordan5_at_3):
    ell = logm(jordan5_at_3)
    want = [math.log(3), Fraction(1, 3), Fraction(-1, 18), Fraction(1, 81),
            Fraction(-1, 324)]
    for j, w in enumerate(want):
        assert abs(ell.rows[0][j] - float(w)) < 1e-10
        # Toeplitz: every diagonal carries the first-row value
        for r in range(5 - j):
            assert abs(ell.rows[r][r + j] - float(w)) < 1e-10
    back = closedform_eval(expm_closed(ell), 1.0)
    assert max_diff(back, jordan5_at_3.to_field(CC)) < 1e-8
    record_acceptance(
        9, "log J_5(3) first row [ln3, 1/3, -1/18, 1/81, -1/324] at 1e-10; "
           "exp(log) = J_5(3) at 1e-8")


def test_criterion_10_property_suites(semicirculant_4x4, mixed_spectrum_4x4,
                                      spiral_3x3):
    # spectral projection invariants, exact, on 50 constructed matrices
    pools = ([0, 1, 2], [1, 2, 3], [-1, 2], [Fraction(1, 2), 3],
             [-2, 0, 1])
    for seed in range(50):
        rng = random.Random(1000 + seed)
        a, _ = rational_spectrum_matrix(rng, list(pools[seed % len(pools)]))
        form = pcf_build(a)
        pis = [pi for *_, pi in projections(form)]
        ident = Matrix.identity(QQ, a.n)
        total = Matrix.zeros(QQ, a.n)
        for i, pi in enumerate(pis):
            total = total + pi
            assert a * pi == pi * a
            for j, pj in enumerate(pis):
                assert pi * pj == (pi if i == j else
                                   Matrix.zeros(QQ, a.n))
        assert total == ident
        assert pcf_minpoly_equals(form, a)
    # semigroup and first-order-derivative checks of the exponential
    rng = random.Random(99)
    for a in (semicirculant_4x4, mixed_spectrum_4x4, spiral_3x3):
        e = expm_closed(a)
        for _ in range(10):
            s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
            lhs = closedform_eval(e, s + t)
            rhs = closedform_eval(e, s) * closedform_eval(e, t)
            assert max_diff(lhs, rhs) < 1e-9 * max(1.0, lhs.maxnorm())
        ident = Matrix.identity(CC, a.n)
        errs = [max_diff((closedform_eval(e, h) - ident) * (1.0 / h),
                         a.to_field(CC)) for h in (1e-3, 1e-4, 1e-5)]
        # first-order error ~ h ||A^2||/2: each decade of h buys a decade
        assert errs[0] < 0.1
        assert errs[1] < errs[0] * 0.2 and errs[2] < errs[1] * 0.2
    # Stirling orthogonality and basis round-trips for indices <= 8
    for n in range(9):
        for m in range(9):
            total = sum(stirling_first(n, k) * stirling_second(k, m)
                        for k in range(min(n, 8) + 1))
            assert total == (1 if n == m else 0)
    for seed in (3, 7):
        a, _ = rational_spectrum_matrix(random.Random(seed), [1, 2, -1])
        form = pcf_build(a)
        again = pcf_to_lambda(pcf_to_gamma(form))
        assert again.basis is Basis.LAMBDA and again == form
    record_acceptance(
        10, "projection invariants exact on 50 rational-spectrum builds; "
            "canonical-form min poly = min poly; semigroup, derivative, "
            "Stirling and basis round-trips all pass")


def pcf_minpoly_equals(form, a) -> bool:
    from pcanon.pcf import pcf_minpoly

    return pcf_minpoly(form) == minpoly(a)
