"""Exact matrix arithmetic, characteristic/minimal polynomials, projections."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    blocks_minpoly_exponents,
    conjugated_jordan,
    jordan_assembly,
    max_diff,
    naive_matmul,
    rational_spectrum_matrix,
    unimodular,
)
from pcanon.errors import (
    DegreeZero,
    EmptyInput,
    MixedFields,
    NonMonic,
    NonSplitField,
    SingularMatrix,
)
from pcanon.linalg import (
    Matrix,
    char_poly,
    companion,
    kron,
    matrix_poly,
    minpoly,
    spectral_data,
    spectral_projections,
)
from pcanon.pcf import pcf_build, pcf_eval
from pcanon.scalar import CC, GF, QQ, Poly, series_inverse

# -- strategies ---------------------------------------------------------------

_small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _sq_matrix(n):
    return st.lists(st.lists(_small_fraction, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rs: Matrix(QQ, rs))


_m3 = _sq_matrix(3)


def _det(m: Matrix):
    """Independent determinant: Gaussian elimination in the matrix's field."""
    f, n = m.field, m.n
    rows = [list(r) for r in m.rows]
    det = f.one
    for c in range(n):
        piv = next((r for r in range(c, n) if not f.is_zero(rows[r][c])), None)
        if piv is None:
            return f.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = f.one / rows[c][c]
        for r in range(c + 1, n):
            g = rows[r][c] * inv
            if not f.is_zero(g):
                rows[r] = [x - g * y for x, y in zip(rows[r], rows[c])]
    return det


# -- construction and arithmetic ----------------------------------------------


def test_constructors_golden():
    assert Matrix.identity(QQ, 2).rows == ((Fraction(1), Fraction(0)),
                                           (Fraction(0), Fraction(1)))
    assert Matrix.jordan_block(QQ, 3, 5).rows == (
        (5, 1, 0), (0, 5, 1), (0, 0, 5))
    assert Matrix.upper_toeplitz(QQ, [2, 4, 2, 3]).rows[1] == (0, 2, 4, 2)
    assert Matrix.diagonal(QQ, [1, 2]).trace == 3
    with pytest.raises(EmptyInput):
        Matrix(QQ, [])
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2]])


def test_mixed_field_operands_rejected():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(MixedFields):
        _ = a + b


@given(_m3, _m3, _m3)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert (a * b).transpose() == b.transpose() * a.transpose()


@given(_m3)
@example(Matrix(GF(5), [[1, 2], [3, 1]]))  # det 5: invertible over Z, not mod 5
@example(Matrix(GF(5), [[2, 1], [4, 4]]))
@example(Matrix(CC, [[0, 2], [1j, 3]]))  # zero (0,0) entry: pivot from below
@example(Matrix(CC, [[1, 2j], [2, 4j]]))  # singular: row 2 is twice row 1
def test_inverse_exact(a):
    if a.field.is_zero(_det(a)):
        with pytest.raises(SingularMatrix):
            a.inverse()
        return
    ident = Matrix.identity(a.field, a.n)
    if not a.field.exact:
        assert max_diff(a * a.inverse(), ident) < 1e-12
        assert max_diff(a.inverse() * a, ident) < 1e-12
        return
    assert a * a.inverse() == ident
    assert a.inverse() * a == ident
    assert a ** -2 == a.inverse() * a.inverse()


@pytest.mark.parametrize("rows", [
    [[0.1, 0.3], [1, 3]],
    [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]],
])
def test_inverse_refuses_numerically_singular_complex(rows):
    a = Matrix(CC, rows)
    for call in (a.inverse, lambda: a ** -1, lambda: a ** -2):
        with pytest.raises(SingularMatrix):
            call()


def test_inverse_tolerance_is_relative_to_the_entries():
    ident = Matrix.identity(CC, 3)
    tiny = ident * 1e-9
    assert max_diff(tiny.inverse() * tiny, ident) < 1e-12
    assert max_diff(tiny ** -1 * tiny, ident) < 1e-12


def test_product_matches_schoolbook_over_q():
    rng = random.Random(41)
    big = 10 ** 30
    dens = (1, 2, 3, 7, 12, 10 ** 18 + 9, big + 1)

    def dense(n):
        return Matrix(QQ, [[Fraction(rng.randint(-big, big), rng.choice(dens))
                            for _ in range(n)] for _ in range(n)])

    cases = [(dense(n), dense(n)) for n in (1, 3, 5)]
    cases.append((Matrix.zeros(QQ, 4), dense(4)))
    cases.append((dense(4), Matrix.zeros(QQ, 4)))
    cases.append((Matrix(QQ, [[Fraction(-7, 10 ** 20)]]),
                  Matrix(QQ, [[Fraction(10 ** 20, 3)]])))
    for a, b in cases:
        assert a * b == Matrix(QQ, naive_matmul(a.rows, b.rows))


@pytest.mark.parametrize("p", [2, 65537])
def test_product_matches_integer_matmul_mod_p(p):
    rng = random.Random(p)
    for n in (1, 4, 7):
        xs = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        ys = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        for left in (xs, [[0] * n for _ in range(n)]):
            got = Matrix(GF(p), left) * Matrix(GF(p), ys)
            want = [[x % p for x in row] for row in naive_matmul(left, ys)]
            assert [[e.res for e in row] for row in got.rows] == want


def test_power_binary_and_identity():
    a = Matrix(QQ, [[1, 1], [0, 1]])
    assert a ** 0 == Matrix.identity(QQ, 2)
    assert a ** 13 == Matrix(QQ, [[1, 13], [0, 1]])


def test_kron_mixed_product_identity():
    rng = random.Random(3)
    for _ in range(5):
        a = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        b = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        c = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        d = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
    assert kron(a, b).n == 6


# -- companion matrices --------------------------------------------------------


def test_companion_shape_and_polynomials():
    p = Poly(QQ, [2, -3, 1])  # X^2 - 3X + 2
    c = companion(p)
    assert c.rows == ((0, -2), (1, 3))
    assert char_poly(c) == p
    assert minpoly(c) == p
    with pytest.raises(NonMonic):
        companion(Poly(QQ, [1, 2]))
    with pytest.raises(DegreeZero):
        companion(Poly.one(QQ))


def test_companion_first_column_contracts_sequence():
    # a_n = sum_i (C^n)[i][0] * initials[i] reproduces the recurrence.
    p = Poly(QQ, [-1, -1, 1])  # X^2 - X - 1
    c = companion(p)
    fib = [0, 1]
    for n in range(2, 12):
        fib.append(fib[-1] + fib[-2])
    for n in range(12):
        cn = c ** n
        got = sum(cn.rows[i][0] * fib[i] for i in range(2))
        assert got == fib[n], n


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_companion_minimal_polynomial_is_characteristic(lower):
    p = Poly(QQ, lower + [1])
    if p.degree < 1:
        return
    c = companion(p)
    assert minpoly(c) == p == char_poly(c)


# -- characteristic polynomial --------------------------------------------------


def test_char_poly_golden():
    assert char_poly(Matrix.diagonal(QQ, [1, 2])) == Poly(QQ, [2, -3, 1])
    assert char_poly(Matrix.jordan_block(QQ, 2, 0)) == Poly(QQ, [0, 0, 1])
    assert char_poly(Matrix(QQ, [[0, -1], [1, 0]])) == Poly(QQ, [1, 0, 1])


@given(_m3, _small_fraction)
def test_char_poly_evaluates_to_shifted_determinant(a, x):
    # p(x) = det(xI - A), checked against an independent elimination.
    p = char_poly(a)
    shifted = Matrix.diagonal(QQ, [x] * a.n) - a
    assert p.evaluate(x) == _det(shifted)


def test_char_poly_prime_field():
    f5 = GF(5)
    a = Matrix.diagonal(f5, [f5.coerce(1), f5.coerce(2)])
    assert char_poly(a) == Poly(f5, [f5.coerce(2), f5.coerce(2), f5.one])


# -- minimal polynomial ----------------------------------------------------------


def test_minpoly_knows_jordan_structure():
    rng = random.Random(11)
    for seed in range(12):
        a, blocks = rational_spectrum_matrix(
            random.Random(seed), [0, 1, 2, -1, Fraction(1, 2)])
        want = Poly.one(QQ)
        for lam, idx in sorted(blocks_minpoly_exponents(blocks).items()):
            want = want * Poly.from_roots(QQ, [lam]) ** idx
        assert minpoly(a) == want, seed
    _ = rng


def test_minpoly_with_denominators():
    a = Matrix.diagonal(QQ, [Fraction(1, 6), Fraction(1, 3)])
    assert minpoly(a) == (Poly.from_roots(QQ, [Fraction(1, 6)])
                          * Poly.from_roots(QQ, [Fraction(1, 3)]))


def test_minpoly_annihilates_and_divides_charpoly():
    for seed in range(8):
        a, _ = rational_spectrum_matrix(random.Random(100 + seed), [1, 2, 0])
        mp = minpoly(a)
        assert matrix_poly(mp, a).is_zero
        q, r = divmod(char_poly(a), mp)
        assert r.is_zero
        _ = q


def test_minpoly_prime_field():
    f2 = GF(2)
    p = Poly(f2, [f2.one, f2.one, f2.one])  # X^2 + X + 1
    assert minpoly(companion(p)) == p


def test_minpoly_numeric_rotation_and_defective():
    rot = Matrix(CC, [[0, -1], [1, 0]])
    mp = minpoly(rot)
    assert mp.degree == 2
    assert abs(mp.coeff(0) - 1) < 1e-10 and abs(mp.coeff(1)) < 1e-10
    j = Matrix.jordan_block(QQ, 3, 2).to_field(CC)
    mpj = minpoly(j)
    want = Poly.from_roots(CC, [2.0, 2.0, 2.0])
    assert all(abs(mpj.coeff(i) - want.coeff(i)) < 1e-7 for i in range(4))


# -- spectral projections ---------------------------------------------------------


def _check_projection_invariants(a: Matrix) -> None:
    sd = spectral_data(a)
    projs = sd.all_projections
    n = a.n
    total = Matrix.zeros(a.field, n)
    for p in projs:
        total = total + p
        assert p * p == p
        assert a * p == p * a
    assert total == Matrix.identity(a.field, n)
    for i, p in enumerate(projs):
        for q in projs[i + 1:]:
            assert (p * q).is_zero and (q * p).is_zero
    if sd.t0:
        assert (a ** sd.t0 * sd.zero_projection).is_zero
    for comp in sd.components:
        shifted = a - Matrix.diagonal(a.field, [comp.value] * n)
        assert (shifted ** comp.index * comp.projection).is_zero


def test_spectral_invariants_exact_rational():
    for seed in range(10):
        a, _ = rational_spectrum_matrix(
            random.Random(200 + seed), [0, 1, 2, -1])
        _check_projection_invariants(a)


def test_spectral_data_structure_golden():
    a = jordan_assembly(QQ, [(2, Fraction(0)), (1, Fraction(2)),
                             (2, Fraction(2))])
    sd = spectral_data(a)
    assert sd.t0 == 2
    assert [(c.value, c.index) for c in sd.components] == [(Fraction(2), 2)]
    assert sd.minimal_polynomial == (Poly.x(QQ) ** 2
                                     * Poly.from_roots(QQ, [2, 2]))


def test_spectral_projections_from_pairs():
    a = Matrix.diagonal(QQ, [1, 2, 2])
    pi1, pi2 = spectral_projections(a, [(Fraction(1), 1), (Fraction(2), 1)])
    assert pi1 == Matrix.diagonal(QQ, [1, 0, 0])
    assert pi2 == Matrix.diagonal(QQ, [0, 1, 1])


def _horner_projections(a: Matrix, pairs) -> list[Matrix]:
    """Oracle: each projection's partial-fraction polynomial evaluated at
    the matrix on its own, by Horner's rule."""
    f = a.field
    mp = Poly.one(f)
    for mu, t in pairs:
        mp = mp * Poly(f, (-mu, 1)) ** t
    out = []
    for mu, t in pairs:
        cofactor = mp // Poly(f, (-mu, 1)) ** t
        inv = series_inverse(cofactor.shifted(mu), t).shifted(-mu)
        out.append(matrix_poly((inv * cofactor) % mp, a))
    return out


def _seeded_resolutions(field, values, seed, count=6):
    rng = random.Random(seed)
    for _ in range(count):
        blocks = [(rng.randint(1, 3), field.coerce(rng.choice(values)))
                  for _ in range(rng.randint(1, 4))]
        a = conjugated_jordan(rng, field, blocks)
        pairs = list(blocks_minpoly_exponents(blocks).items())
        yield a, pairs, spectral_projections(a, pairs)


@pytest.mark.parametrize("field, values", [
    (QQ, (0, 1, -2, 3, Fraction(1, 2))),
    (GF(2), (0, 1)),
    (GF(3), (0, 1, 2)),
    (GF(101), (0, 1, 5, 50, 100)),
], ids=str)
def test_projections_match_horner_oracle(field, values):
    for a, pairs, projs in _seeded_resolutions(field, values, field.char + 7):
        assert projs == _horner_projections(a, pairs)
        total = Matrix.zeros(field, a.n)
        for p in projs:
            total = total + p
        assert total == Matrix.identity(field, a.n)


def test_projections_match_horner_oracle_complex():
    values = (0, 2, -1, 1 + 2j, 0.5j)
    for a, pairs, projs in _seeded_resolutions(CC, values, 11):
        for got, want in zip(projs, _horner_projections(a, pairs)):
            assert max_diff(got, want) < 1e-10
        total = Matrix.zeros(CC, a.n)
        for p in projs:
            total = total + p
        assert max_diff(total, Matrix.identity(CC, a.n)) < 1e-10


def test_spectral_projections_share_one_power_table(monkeypatch):
    blocks = [(2, Fraction(1)), (1, Fraction(2)), (2, Fraction(-1)),
              (1, Fraction(3)), (1, Fraction(0))]
    a = conjugated_jordan(random.Random(5), QQ, blocks)
    pairs = list(blocks_minpoly_exponents(blocks).items())
    degree = sum(t for _, t in pairs)
    calls = []
    real_mul = Matrix.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    spectral_projections(a, pairs)
    assert len(pairs) >= 4
    assert len(calls) <= degree - 1


def test_spectral_data_raises_when_spectrum_is_not_rational():
    with pytest.raises(NonSplitField):
        spectral_data(Matrix(QQ, [[0, -1], [1, 0]]))


def test_numeric_spectrum_conjugate_pair(spiral_3x3):
    sd = spectral_data(spiral_3x3)
    assert sd.t0 == 1
    vals = sorted((c.value for c in sd.components),
                  key=lambda z: (z.real, z.imag))
    want = sorted((2 * complex(math.cos(math.pi / 6), -math.sin(math.pi / 6)),
                   2 * complex(math.cos(math.pi / 6), math.sin(math.pi / 6))),
                  key=lambda z: (z.real, z.imag))
    assert all(abs(g - w) < 1e-8 for g, w in zip(vals, want))
    ident = Matrix.identity(CC, 3)
    total = sd.zero_projection
    for c in sd.components:
        total = total + c.projection
    assert max_diff(total, ident) < 1e-9


def test_numeric_nilpotent_index():
    j = Matrix.jordan_block(QQ, 4, 0).to_field(CC)
    sd = spectral_data(j)
    assert sd.t0 == 4 and not sd.components


def test_numeric_near_defective_splits_and_defective_merges():
    near = spectral_data(Matrix(CC, [[1, 1], [0, 1 + 1e-5]]))
    assert [c.index for c in near.components] == [1, 1]
    assert [round(c.value.real, 6) for c in near.components] == [1, 1.00001]
    defective = spectral_data(Matrix(CC, [[1, 3], [-3, -5]]))
    [comp] = defective.components
    assert abs(comp.value + 2) < 1e-8 and comp.index == 2
    # values within relative distance tol are one eigenvalue at any scale,
    # and a diagonal matrix has index 1
    close = spectral_data(Matrix.diagonal(CC, [1e6, 1e6 * (1 + 1e-9)]))
    assert [c.index for c in close.components] == [1]
    # close values beside a much larger one stay apart: powers of A - mu I
    # would let the large eigenvalue swamp the gap between them
    for values in ([1, 1.001, 1e4], [1, 1.001, 1.002, 100]):
        data = spectral_data(Matrix.diagonal(CC, values))
        assert [c.value for c in data.components] == values
        assert [c.index for c in data.components] == [1] * len(values)
    # the computed eigenvalues of J_4(1) beside 10^6 spread over about
    # 10^-2 of the eigenvalue, but over much less than the matrix's scale
    for size in (3, 4):
        for seed in range(6):
            a = conjugated_jordan(random.Random(seed), CC, [(size, 1), (1, 10 ** 6)])
            small, large = spectral_data(a).components
            assert abs(small.value - 1) < 1e-6 and small.index == size, (size, seed)
            assert abs(large.value - 10 ** 6) < 1e-3 and large.index == 1, (size, seed)


def _frobenius(m: Matrix) -> float:
    return math.sqrt(sum(abs(e) ** 2 for row in m.rows for e in row))


def test_natural_scale_complex_gaussian_builds():
    for seed in range(10):
        rng = random.Random(seed)
        a = Matrix(CC, [[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                         for _ in range(20)] for _ in range(20)])
        form = pcf_build(a)
        want = a
        for k in range(1, 21):
            if k in (1, 20):
                got = pcf_eval(form, k)
                assert _frobenius(got - want) <= 1e-10 * _frobenius(want), (seed, k)
            want = want * a


_SWEEP_VALUES = (-2, -1, 0, 1, 2, 3)


def _sweep_inputs():
    rng = random.Random(2024)
    for _ in range(200):
        yield rational_spectrum_matrix(rng, _SWEEP_VALUES)[0]
    for _ in range(80):
        blocks, order = [], 0
        while order < 2 or (order < 6 and rng.random() < 0.7):
            size = rng.choice((1, 2, 3))
            blocks.append((size, Fraction(rng.choice(_SWEEP_VALUES))))
            order += size
        yield conjugated_jordan(rng, QQ, blocks)


def test_numeric_spectra_match_exact_route():
    for a in _sweep_inputs():
        exact = spectral_data(a)
        numeric = spectral_data(a.to_field(CC))
        assert numeric.t0 == exact.t0, a
        assert len(numeric.components) == len(exact.components), a
        for got, want in zip(numeric.components, exact.components):
            assert abs(got.value - float(want.value)) < 1e-6, a
            assert got.index == want.index, a


def test_real_spectrum_is_closed_under_conjugation():
    rng = random.Random(8)
    a = Matrix(CC, [[rng.gauss(0, 1) for _ in range(8)] for _ in range(8)])
    values = {c.value for c in spectral_data(a).components}
    assert any(v.imag for v in values)
    assert {v.conjugate() for v in values} == values


def test_unimodular_builder_has_unit_determinant():
    for seed in range(6):
        m = unimodular(random.Random(seed), 4)
        assert _det(m) in (1, -1)
