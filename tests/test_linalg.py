"""Exact matrix arithmetic, characteristic/minimal polynomials, projections."""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    blocks_minpoly_exponents,
    char_poly,
    clustered_real,
    conjugated_jordan,
    factor_by_poly_division,
    jordan_assembly,
    matrix_poly,
    max_diff,
    minpoly_by_poly_lcm,
    naive_matmul,
    projections,
    rational_spectrum_matrix,
    real_with_spectrum,
    unimodular,
)
from pcanon import linalg
from pcanon.errors import (
    AnswerTooLarge,
    DegreeZero,
    EmptyInput,
    MixedFields,
    NonMonic,
    NonSplitField,
    PrincipalUndefined,
    ProjectionsInaccurate,
    SingularMatrix,
)
from pcanon.kronmin import eig_spec_of_matrix, eig_spec_of_poly, kron_minpoly_direct
from pcanon.linalg import (
    Matrix,
    _combine,
    _int_minpoly,
    _ints,
    _of_ints,
    _product,
    _projectors,
    companion,
    kron,
    minpoly,
)
from pcanon.matfun import closedform_eval, expm_closed, expm_real, logm, realclosedform_eval
from pcanon.pcf import (
    pcf_build,
    pcf_eval,
    pcf_minpoly,
    pcf_realify,
    pcf_to_gamma,
    pcf_to_lambda,
    realpcf_eval,
)
from pcanon.scalar import CC, GF, QQ, FpElement, Poly, _lift, poly_factor

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


def test_inverse_on_seeded_matrices():
    # Q with integer and with fractional entries, F_2, F_3 and F_101, of
    # order up to 24; every third one has a row that combines two others
    rng = random.Random(20)
    fields = (QQ, QQ, GF(2), GF(3), GF(101))
    for k in range(60):
        f, n = fields[k % 5], rng.randint(1, 24)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if k % 5 == 1
                 else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if k % 3 == 0 and n > 1:
            i = rng.randrange(n)
            others = rng.sample([r for r in range(n) if r != i], min(2, n - 1))
            rows[i] = [sum(rng.randint(-3, 3) * rows[r][j] for r in others)
                       for j in range(n)]
        a = Matrix(f, rows)
        if f.is_zero(_det(a)):
            with pytest.raises(SingularMatrix):
                a.inverse()
            continue
        inv, ident = a.inverse(), Matrix.identity(f, n)
        assert a * inv == ident and inv * a == ident


def test_complex_inverse_is_one_svd():
    np = pytest.importorskip("numpy")

    rng = np.random.default_rng(5)
    for n in rng.integers(1, 21, size=20).tolist():
        a = Matrix(CC, (rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n))).tolist())
        assert max_diff(a * a.inverse(), Matrix.identity(CC, n)) <= 1e-10
    # I - 2N, N the unit shift, has condition about 2^n: past the rank
    # tolerance sigma_min <= n eps sigma_max from order 46 on
    shift = Matrix(CC, (np.eye(50) - 2 * np.eye(50, k=1)).tolist())
    with pytest.raises(SingularMatrix):
        shift.inverse()
    # well conditioned, but 1 / 1e-310 is past a double
    with pytest.raises(AnswerTooLarge):
        (Matrix.identity(CC, 2) * 1e-310).inverse()


def test_complex_sums_and_multiples_refuse_overflow():
    # each returned a matrix with an inf entry; exact fields have no bound
    with pytest.raises(AnswerTooLarge):
        Matrix(CC, [[1e200, 0], [0, 1]]) * 1e200
    big = Matrix(CC, [[1e308, 0], [0, 1]])
    with pytest.raises(AnswerTooLarge):
        big + big
    with pytest.raises(AnswerTooLarge):
        big - (-big)
    with pytest.raises(AnswerTooLarge):
        -big * 1e10
    half = big * 0.5
    assert half + half == big and big - half == half
    assert (Matrix(QQ, [[10 ** 400]]) * 10 ** 400).rows == ((10 ** 800,),)


def test_complex_entries_from_fractions_are_rounded_or_refused():
    assert Matrix(CC, [[Fraction(1, 3)]]).rows == ((1 / 3 + 0j,),)
    with pytest.raises(AnswerTooLarge):
        Matrix(CC, [[Fraction(10 ** 400, 3)]])
    # finite parts, but a modulus past the double range: abs() overflows
    with pytest.raises(AnswerTooLarge, match="modulus"):
        Matrix(CC, [[1, complex(1.5e308, 1.5e308)], [0, 2]])
    assert CC.coerce(complex(1.2e308, 1e308)) == complex(1.2e308, 1e308)


def test_complex_chain_products_refuse_overflow():
    # each returned inf or nan entries, with numpy overflow warnings
    for lam in (0, 1):
        a = Matrix(CC, [[lam, 1e300, 0], [0, lam, 1e300], [0, 0, lam]])
        with pytest.raises(AnswerTooLarge):
            pcf_build(a)
        with pytest.raises(AnswerTooLarge):
            expm_closed(a)


def test_complex_kronecker_products_refuse_overflow():
    # kron returned an inf entry, and the direct route failed inside numpy
    with pytest.raises(AnswerTooLarge):
        kron(Matrix(CC, [[1e200]]), Matrix(CC, [[1e200]]))
    a = Matrix(CC, [[1e200, 1], [0, 1]])
    with pytest.raises(AnswerTooLarge):
        kron_minpoly_direct([a, a])


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


def test_complex_product_matches_triple_loop_on_every_shape():
    np = pytest.importorskip("numpy")
    rng = random.Random(17)

    def block(r, c):
        return [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(c)]
                for _ in range(r)]

    shapes = [(3, 4, 5), (1, 7, 1), (6, 1, 2), (5, 5, 5), (2, 12, 9),
              (0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)]
    for m, k, c in shapes:
        xs, ys = block(m, k), block(k, c)
        # as naive_matmul reads blocks of rows, an empty ys has no columns
        got = _product(CC, (np.array(xs, dtype=complex).reshape(m, k), 1),
                       (np.array(ys, dtype=complex).reshape(k, c if k else 0), 1))[0].tolist()
        want = naive_matmul(xs, ys)
        assert [len(row) for row in got] == [0 if k == 0 else c] * m
        scale = max((abs(e) for row in want for e in row), default=1.0)
        assert all(abs(x - y) <= 1e-14 * scale
                   for rg, rw in zip(got, want) for x, y in zip(rg, rw))


def test_complex_matrix_products_match_numpy():
    np = pytest.importorskip("numpy")
    gen = np.random.default_rng(5)
    for n in (1, 4, 13):
        x, y = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
                for _ in range(2))
        a, b = Matrix(CC, x.tolist()), Matrix(CC, y.tolist())
        for got, want in ((a * b, x @ y), (a ** 7, np.linalg.matrix_power(x, 7))):
            got = np.array(got.rows)
            assert abs(got - want).max() <= 1e-13 * abs(want).max()


@pytest.mark.parametrize("field", [QQ, GF(101), CC], ids=str)
def test_returned_matrices_hold_field_elements(field):
    # matrices the library computes skip the constructor's coercion, so
    # every operation must hand back entries of the field's own type
    kind = {QQ: Fraction, CC: complex}.get(field, FpElement)
    rng = random.Random(29)
    a, _ = rational_spectrum_matrix(rng, [-2, 1, 3], max_order=6)
    a = a.to_field(field)
    b = Matrix(field, [[rng.randint(-4, 4) for _ in range(a.n)] for _ in range(a.n)])
    out = [a + b, a - b, -a, a * b, a * 3, 2 * a, a ** 5, a ** 0]
    form = pcf_build(a)
    out += [pi for *_, pi in projections(form)]
    out += [pcf_eval(form, k) for k in (0, 1, 6)]
    if field.char == 0:
        out += [c for _, cs in pcf_to_gamma(form).geometric_terms for c in cs]
    if field is CC:
        out += [closedform_eval(expm_closed(a), t) for t in (0, 0.5, 1j)]
        out.append(logm(a + Matrix.identity(CC, a.n) * 5))
    for m in out:
        assert {type(e) for row in m.rows for e in row} == {kind}
        assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)


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


# -- the lift an exact matrix keeps --------------------------------------------

_LIFT_FIELDS = [(QQ, [0, Fraction(1, 2), Fraction(-2, 3), 3]), (GF(2), [0, 1]),
                (GF(3), [0, 1, 2]), (GF(101), [0, 1, 5, 100])]


def _with_denominators(rng, field, a: Matrix) -> Matrix:
    """D A D^-1 for a diagonal D of fractions over Q, else a itself."""
    if field.char:
        return a
    d = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(a.n)]
    return Matrix(QQ, [[e * d[i] / d[j] for j, e in enumerate(row)]
                       for i, row in enumerate(a.rows)])


def _seeded_exact_inputs(field, values, seed):
    rng = random.Random(seed)
    for _ in range(3):
        blocks = [(rng.randint(1, 3), lam) for lam in rng.sample(values, min(3, len(values)))]
        yield _with_denominators(rng, field, conjugated_jordan(rng, field, blocks))


def _fresh(form):
    """form with every matrix rebuilt by the public constructor: no lift kept."""
    f = form.field
    return replace(form, nilpotent_terms=tuple((i, Matrix(f, v.rows))
                                               for i, v in form.nilpotent_terms),
                   geometric_terms=tuple((lam, tuple(Matrix(f, c.rows) for c in cs))
                                         for lam, cs in form.geometric_terms))


@pytest.mark.parametrize("field, values", _LIFT_FIELDS, ids=lambda x: str(x)[:12])
def test_exact_results_keep_the_lift_of_their_entries(field, values):
    def kept(*ms):
        for m in ms:
            assert _ints(m) == _lift(field, m.rows)

    for a in _seeded_exact_inputs(field, values, 27):
        a = Matrix(field, a.rows)
        b = Matrix(field, [[(i * 7 + j * 3) % 5 - 2 for j in range(a.n)] for i in range(a.n)])
        kept(a * b, b * a, a ** 5, kron(a, b), kron(b, a) * kron(a, b))
        kept(a + b, a - b, -a, a * field.coerce(3), a * a.rows[0][0])
        if _det(a) != 0:
            kept(a.inverse(), a ** -2)
        form = pcf_build(a)
        kept(*(v for _, v in form.nilpotent_terms),
             *(c for _, cs in form.geometric_terms for c in cs))
        for k in (0, 1, 2, 7, 40):
            want = a ** k
            kept(want)
            for got in (pcf_eval(form, k), pcf_eval(_fresh(form), k)):
                kept(got)
                assert got == want
        if field.char == 0:
            gamma = pcf_to_gamma(form)
            back = pcf_to_lambda(gamma)
            kept(*(c for f in (gamma, back) for _, cs in f.geometric_terms for c in cs))
            assert back.geometric_terms == form.geometric_terms
            assert pcf_eval(gamma, 7) == pcf_eval(_fresh(gamma), 7) == a ** 7


def test_evaluating_a_form_lifts_only_its_weights(monkeypatch):
    # the coefficient matrices of a built form keep the integers they were
    # computed on, so an evaluation lifts one weight per matrix it sums
    rng = random.Random(10)
    blocks = [(3, 2), (2, Fraction(1, 2)), (2, 0), (1, -1), (2, 3)]
    a = _with_denominators(rng, QQ, conjugated_jordan(rng, QQ, blocks))
    form = pcf_build(Matrix(QQ, a.rows))
    counts = []

    def counting_lift(field, rows):
        rows = [list(r) for r in rows]
        counts.append(sum(map(len, rows)))
        return _lift(field, rows)

    monkeypatch.setattr(linalg, "_lift", counting_lift)
    mats = sum(len(cs) for _, cs in form.geometric_terms)
    for k in (1, 7, 40):
        pcf_eval(form, k)
        assert counts == [mats + (k < form.t0)]
        counts.clear()
    pcf_to_gamma(form)
    assert sorted(counts) == sorted((len(cs) - 1) * len(cs)
                                    for _, cs in form.geometric_terms if len(cs) > 1)


def _complex_inputs():
    """A complex Gaussian, a defective matrix and a real one with a conjugate pair."""
    np = pytest.importorskip("numpy")
    gen = np.random.default_rng(31)
    z = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
    yield Matrix(CC, (z / abs(np.linalg.eigvals(z)).max()).tolist())
    rng = random.Random(31)
    yield conjugated_jordan(rng, QQ, [(3, 2), (2, 3), (1, Fraction(1, 2))]).to_field(CC)
    yield Matrix(CC, real_with_spectrum(gen, [0.5, 1.2], [(1.1, 0.7)]).tolist())


def test_complex_results_keep_the_array_of_their_entries():
    np = pytest.importorskip("numpy")

    def kept(*ms):
        for m in ms:
            arr, den = _ints(m)
            want = np.array(m.rows, dtype=complex)
            assert den == 1 and arr.dtype == complex and arr.shape == (m.n, m.n)
            assert not arr.flags.writeable and arr.tobytes() == want.tobytes()

    for a in _complex_inputs():
        b = Matrix(CC, [[complex((i * 7 + j * 3) % 5 - 2, j - i) for j in range(a.n)]
                        for i in range(a.n)])
        kept(a * b, a ** 5, a.inverse(), a ** -2, a + b, a - b, -a, a * (0.5 - 2j), kron(a, b))
        form = pcf_build(a)
        kept(*(v for _, v in form.nilpotent_terms),
             *(c for _, cs in form.geometric_terms for c in cs))
        kept(*(pcf_eval(form, k) for k in (0, 1, 7, 100)))
        exp = expm_closed(a)
        kept(*(closedform_eval(exp, t) for t in (0, 0.5, 1 + 2j)), logm(a))
        if not any(e.imag for row in a.rows for e in row):
            real = pcf_realify(form)
            kept(*(c for term in real.terms for cs in vars(term).values()
                   if isinstance(cs, tuple) for c in cs))
            kept(*(realpcf_eval(real, k) for k in (0, 1, 7)))
            rexp = expm_real(a)
            kept(*(m for _, m in rexp.polynomial_part),
                 *(m for term in rexp.terms for cs in vars(term).values()
                   if isinstance(cs, tuple) for _, m in cs))
            kept(*(realclosedform_eval(rexp, t) for t in (0, 0.5, -1.5)))
        with pytest.raises(ValueError):  # the immutable matrix stays so
            _ints(a)[0][0, 0] = 1


def test_evaluating_a_complex_form_reads_no_rows(monkeypatch):
    # the coefficient matrices of a built form keep the arrays they were
    # computed as, so an evaluation builds no array from Python rows
    np = pytest.importorskip("numpy")
    gen = np.random.default_rng(12)
    z = gen.standard_normal((12, 12)) + 1j * gen.standard_normal((12, 12))
    a = Matrix(CC, (z / abs(np.linalg.eigvals(z)).max()).tolist())
    form, exp = pcf_build(a), expm_closed(a)
    slot, reads = Matrix.rows, []
    monkeypatch.setattr(Matrix, "rows", property(lambda m: reads.append(m) or slot.fget(m)))
    for k in (0, 1, 7, 1000):
        pcf_eval(form, k)
    for t in (0, 0.5, 1 + 2j):
        closedform_eval(exp, t)
    assert reads == []


def _count_row_builds(monkeypatch) -> list:
    """The list that every later read of a Matrix's `.rows`, and every
    matrix made from Python rows by `Matrix._of`, appends to."""
    rows, of, seen = Matrix.rows, Matrix._of.__func__, []
    monkeypatch.setattr(Matrix, "rows", property(lambda m: seen.append(m) or rows.fget(m)))
    monkeypatch.setattr(Matrix, "_of", classmethod(
        lambda cls, field, rs: seen.append(rs) or of(cls, field, rs)))
    return seen


def test_complex_builds_read_no_rows_of_what_they_compute(monkeypatch):
    # a complex result is its kept array: forms, exponentials and logarithms
    # convert none of the matrices they compute, returned or thrown away; an
    # exact build keeps the lifts of its power table and of its chains
    inputs = [(a, not any(e.imag for row in a.rows for e in row)) for a in _complex_inputs()]
    exact = [a for field, values in _LIFT_FIELDS for a in _seeded_exact_inputs(field, values, 43)]
    for a in [a for a, _ in inputs] + exact:
        _ints(a)  # the input's own lift, taken from its rows
    seen = _count_row_builds(monkeypatch)
    for a, real in inputs:
        form = pcf_build(a)
        expm_closed(a)
        logm(a)
        if real:
            expm_real(a)
            pcf_realify(form)
    for a in exact:
        pcf_build(a)
    assert seen == []


def test_defective_complex_chains_read_no_rows(monkeypatch):
    # the unscaled (A - lambda I)^i pi of a nonzero eigenvalue of index 3
    # are replaced by their scaled sums without being converted
    a = conjugated_jordan(random.Random(5), QQ, [(3, 2), (2, -1), (1, 0)]).to_field(CC)
    _ints(a)
    seen = _count_row_builds(monkeypatch)
    form = pcf_build(a)
    assert seen == []
    assert [len(cs) for _, cs in form.geometric_terms] == [2, 3]


def test_complex_rows_are_built_once_from_the_kept_array():
    # every computed matrix keeps its lift and builds its rows from it on
    # first read: one tolist over C, the entries over den over Q and F_p
    np = pytest.importorskip("numpy")
    exact = [a for field, values in (_LIFT_FIELDS[0], _LIFT_FIELDS[3])
             for a in _seeded_exact_inputs(field, values, 41)]
    dens = []
    for a in [*_complex_inputs(), *exact]:
        f, form = a.field, pcf_build(a)
        computed = [a * a, a + a, pcf_eval(form, 3),
                    *(c for _, cs in form.geometric_terms for c in cs),
                    *(v for _, v in form.nilpotent_terms)]
        if _det(a) != 0:
            computed.append(a.inverse())
        for m in computed:
            assert m._rows is None
            lifted, den = _ints(m)
            rows = m.rows
            if f.exact:
                want = tuple(tuple(f.from_fraction(Fraction(x, den)) for x in r) for r in lifted)
                assert all(type(x) is type(f.one) for r in rows for x in r)
                copy = [list(r) for r in lifted]
            else:
                want = tuple(map(tuple, lifted.tolist()))
                assert all(np.array(x).tobytes() == np.array(y).tobytes()
                           for r, w in zip(rows, want) for x, y in zip(r, w))
                copy = lifted.copy()
            assert rows == want and m.rows is rows
            dens.append(den)
            eager = Matrix(f, want)
            lazy = _of_ints(f, copy, den)
            assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
            assert repr(lazy) == repr(eager) and lazy.format() == eager.format()
        with pytest.raises(AttributeError):
            a.rows = ()
    assert max(dens) > 1


def test_complex_maxnorm_reads_the_kept_array(monkeypatch):
    np = pytest.importorskip("numpy")
    gen = np.random.default_rng(8)
    ms = [m for a in _complex_inputs() for m in (a, a ** 3, a.inverse(), -a)]
    ms += [Matrix(CC, (gen.standard_normal((n, n)) * 10.0 ** gen.integers(-300, 300, (n, n))
                       + 1j * gen.standard_normal((n, n))).tolist()) for n in (1, 5)]
    ms += [Matrix(CC, (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))).tolist())
           for n in range(1, 31)]
    ms.append(Matrix(CC, [[-0.0, complex(-0.0, -0.0)], [0, 0]]))
    want = [max(abs(e) for row in m.rows for e in row) for m in ms]
    for m in ms:
        _ints(m)
    seen = _count_row_builds(monkeypatch)
    got = [m.maxnorm() for m in ms]
    assert seen == [] and all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_repeated_squaring_keeps_the_lift_reduced():
    # the product of two lifts is over dx * dy; kept unreduced, the integers
    # of an idempotent with denominators would double in size per squaring
    half = Matrix(QQ, [[Fraction(1, 2)] * 2] * 2)
    square = half
    for _ in range(64):  # fails at the first bloated square, before it grows
        square = square * square
        assert _ints(square) == ([[1, 1], [1, 1]], 2)
    start = time.process_time()
    power = half ** 10 ** 18
    assert time.process_time() - start < 1.0
    assert power == half
    assert _ints(power) == ([[1, 1], [1, 1]], 2)


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


@pytest.mark.parametrize("field, values, scale", [
    (QQ, (0, 1, -1, 2, 3), 1),
    (QQ, (0, 1, -1, 2, 3), Fraction(1, 3)),
    (GF(2), (0, 1), 1),
    (GF(3), (0, 1, 2), 1),
    (GF(101), (0, 1, 5, 50, 100), 1),
], ids=["Q", "Q/3", "F2", "F3", "F101"])
def test_int_minpoly_matches_the_poly_lcm_oracle(field, values, scale):
    # Kronecker products of conjugated Jordan matrices: their start vectors'
    # annihilators share factors without dividing one another
    rng = random.Random(f"{field}/{scale}")
    for k in range(10):
        factors = [conjugated_jordan(rng, field, [
            (rng.randint(1, 3), rng.choice(values)) for _ in range(rng.randint(1, 3))])
            for _ in range(1 if k < 3 else 2)]
        a = factors[0] if k < 3 else kron(*factors)
        rows, _ = _lift(field, (a * scale).rows)
        want = minpoly_by_poly_lcm(rows, field.char or None)
        got = _int_minpoly(rows, field.char or None)
        assert got == [c.res if field.char else int(c) for c in want.coeffs], k
        assert all(type(c) is int for c in got)


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
    resolution = projections(pcf_build(a))
    projs = [pi for *_, pi in resolution]
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
    for mu, t, pi in resolution:
        shifted = a - Matrix.diagonal(a.field, [mu] * n)
        assert (shifted ** t * pi).is_zero


def test_spectral_invariants_exact_rational():
    for seed in range(10):
        a, _ = rational_spectrum_matrix(
            random.Random(200 + seed), [0, 1, 2, -1])
        _check_projection_invariants(a)


def test_spectral_resolution_structure_golden():
    a = jordan_assembly(QQ, [(2, Fraction(0)), (1, Fraction(2)),
                             (2, Fraction(2))])
    form = pcf_build(a)
    assert form.t0 == 2
    assert [(lam, len(cs)) for lam, cs in form.geometric_terms] == [(Fraction(2), 2)]
    assert pcf_minpoly(form) == (Poly.x(QQ) ** 2
                                 * Poly.from_roots(QQ, [2, 2]))


@pytest.mark.parametrize("field", [QQ, GF(101), CC], ids=str)
def test_derived_minimal_polynomial_is_minpoly(field):
    # zero of index 2 beside a simple zero, 2 defective with index 3
    blocks = [(2, 0), (1, 0), (3, 2), (1, 2), (1, -1)]
    want = Poly.x(field) ** 2 * Poly.from_roots(field, [2, 2, 2, -1])
    for seed in range(4):
        a = conjugated_jordan(random.Random(seed), field, blocks)
        form = pcf_build(a)
        derived = pcf_minpoly(form)
        assert derived == minpoly(a)
        assert form.t0 == 2 and sorted(len(cs) for _, cs in form.geometric_terms) == [1, 3]
        if field.exact:
            assert derived == want
        else:
            assert all(abs(x - y) < 1e-8 for x, y in
                       zip(derived.coeffs, want.coeffs, strict=True))


def test_spectral_projections_from_pairs():
    (_, _, pi1), (_, _, pi2) = resolution = projections(
        pcf_build(Matrix.diagonal(QQ, [1, 2, 2])))
    assert [(mu, t) for mu, t, _ in resolution] == [(1, 1), (2, 1)]
    assert pi1 == Matrix.diagonal(QQ, [1, 0, 0])
    assert pi2 == Matrix.diagonal(QQ, [0, 1, 1])


def _seeded_resolutions(field, values, seed, count=6, largest=3):
    """(S J S^-1, {eigenvalue: index}, {eigenvalue: S E S^-1}) for random
    Jordan assemblies J and unimodular S, E the identity on that
    eigenvalue's blocks and zero elsewhere: the spectral projections by
    construction, with no polynomial in the matrix formed."""
    rng = random.Random(seed)
    for _ in range(count):
        blocks = [(rng.randint(1, largest), field.coerce(rng.choice(values)))
                  for _ in range(rng.randint(1, 4))]
        s = unimodular(rng, sum(size for size, _ in blocks))
        s, si = s.to_field(field), s.inverse().to_field(field)
        diagonal = [lam for size, lam in blocks for _ in range(size)]
        projections = {mu: s * Matrix.diagonal(field, [int(lam == mu) for lam in diagonal])
                       * si for mu in diagonal}
        yield (s * jordan_assembly(field, blocks) * si,
               blocks_minpoly_exponents(blocks), projections)


def _resolution(a: Matrix) -> tuple[dict, dict]:
    """{eigenvalue: index} and {eigenvalue: projection} of A's form."""
    comps = projections(pcf_build(a))
    return {mu: t for mu, t, _ in comps}, {mu: p for mu, _, p in comps}


@pytest.mark.parametrize("field, values", [
    (QQ, (0, 1, -2, 3, Fraction(1, 2))),
    (GF(2), (0, 1)),
    (GF(3), (0, 1, 2)),
    (GF(101), (0, 1, 5, 50, 100)),
], ids=str)
def test_projections_match_the_jordan_oracle(field, values):
    # blocks up to 5 long, so that over F_2 and F_3 indices pass p
    indices = set()
    for a, index, want in _seeded_resolutions(field, values, field.char + 7,
                                              count=8, largest=5):
        assert _resolution(a) == (index, want)
        indices.update(index.values())
    assert max(indices) == 5


def test_complex_projections_match_the_jordan_oracle():
    values = (0, 2, -1, 1 + 2j, 0.5j)
    for a, index, want in _seeded_resolutions(CC, values, 11):
        got_index, got = _resolution(a)
        assert len(got) == len(want)
        for mu, p in got.items():
            near = min(want, key=lambda v: abs(v - mu))
            assert abs(near - mu) < 1e-8 and got_index[mu] == index[near]
            assert max_diff(p, want[near]) < 1e-10


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
    pcf_build(a)
    assert len(pairs) >= 4
    assert len(calls) <= degree - 1


_REFUSAL_BAND_CONSTANT = 3 * 10 ** 12 + 7


def test_split_refuses_a_constant_term_in_the_band_quickly():
    # (X - 2)(X^7 + X + c), c in the exact benchmark's refusal band: Hensel
    # lifting needs no divisor of c
    p = Poly.from_roots(QQ, [2]) * Poly(QQ, [_REFUSAL_BAND_CONSTANT, 1] + [0] * 5 + [1])
    s = unimodular(random.Random(3), 8)
    a = s * companion(p) * s.inverse()
    start = time.perf_counter()
    got = poly_factor(p)
    for call in (lambda: eig_spec_of_poly(p), lambda: pcf_build(a),
                 lambda: pcf_build(a * Fraction(1, 3))):
        with pytest.raises(NonSplitField):
            call()
    assert time.perf_counter() - start < 0.5
    assert got == factor_by_poly_division(p)
    assert got.roots == ((Fraction(2), 1),)


@pytest.mark.parametrize("field, rows, message", [
    (QQ, [[0, -1], [1, Fraction(1, 2)]], "X^2 + (-1/2)X + 1 does not split over Q"),
    (QQ, [[0, -4], [1, 1]], "X^2 - X + 4 does not split over Q"),
    (QQ, [[0, Fraction(-4, 9)], [1, Fraction(1, 3)]],
     "X^2 + (-1/3)X + 4/9 does not split over Q"),
    (GF(3), [[0, -1], [1, 0]], "X^2 + 1 does not split over F3"),
], ids=["half", "integral", "thirds", "F3"])
def test_refusal_names_the_matrix_minimal_polynomial(field, rows, message):
    for call in (pcf_build, eig_spec_of_matrix):
        with pytest.raises(NonSplitField) as err:
            call(Matrix(field, rows))
        assert str(err.value) == message


def test_spectral_resolution_raises_when_spectrum_is_not_rational():
    with pytest.raises(NonSplitField):
        pcf_build(Matrix(QQ, [[0, -1], [1, 0]]))


def test_numeric_spectrum_conjugate_pair(spiral_3x3):
    form = pcf_build(spiral_3x3)
    assert form.t0 == 1
    vals = sorted((lam for lam, _ in form.geometric_terms),
                  key=lambda z: (z.real, z.imag))
    want = sorted((2 * complex(math.cos(math.pi / 6), -math.sin(math.pi / 6)),
                   2 * complex(math.cos(math.pi / 6), math.sin(math.pi / 6))),
                  key=lambda z: (z.real, z.imag))
    assert all(abs(g - w) < 1e-8 for g, w in zip(vals, want))
    ident = Matrix.identity(CC, 3)
    total = Matrix.zeros(CC, 3)
    for *_, pi in projections(form):
        total = total + pi
    assert max_diff(total, ident) < 1e-9


def test_numeric_nilpotent_index():
    j = Matrix.jordan_block(QQ, 4, 0).to_field(CC)
    form = pcf_build(j)
    assert form.t0 == 4 and not form.geometric_terms


def test_numeric_near_defective_splits_and_defective_merges():
    near = pcf_build(Matrix(CC, [[1, 1], [0, 1 + 1e-5]])).geometric_terms
    assert [len(cs) for _, cs in near] == [1, 1]
    assert [round(lam.real, 6) for lam, _ in near] == [1, 1.00001]
    [(lam, cs)] = pcf_build(Matrix(CC, [[1, 3], [-3, -5]])).geometric_terms
    assert abs(lam + 2) < 1e-8 and len(cs) == 2
    # values within relative distance tol are one eigenvalue at any scale,
    # and a diagonal matrix has index 1
    close = pcf_build(Matrix.diagonal(CC, [1e6, 1e6 * (1 + 1e-9)])).geometric_terms
    assert [len(cs) for _, cs in close] == [1]
    # close values beside a much larger one stay apart: powers of A - mu I
    # would let the large eigenvalue swamp the gap between them
    for values in ([1, 1.001, 1e4], [1, 1.001, 1.002, 100]):
        data = pcf_build(Matrix.diagonal(CC, values)).geometric_terms
        assert [lam for lam, _ in data] == values
        assert [len(cs) for _, cs in data] == [1] * len(values)
    # the computed eigenvalues of J_4(1) beside 10^6 spread over about
    # 10^-2 of the eigenvalue, but over much less than the matrix's scale
    for size in (3, 4):
        for seed in range(6):
            a = conjugated_jordan(random.Random(seed), CC, [(size, 1), (1, 10 ** 6)])
            (small, cs), (large, cl) = pcf_build(a).geometric_terms
            assert abs(small - 1) < 1e-6 and len(cs) == size, (size, seed)
            assert abs(large - 10 ** 6) < 1e-3 and len(cl) == 1, (size, seed)


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
        exact = pcf_build(a)
        numeric = pcf_build(a.to_field(CC))
        assert numeric.t0 == exact.t0, a
        assert len(numeric.geometric_terms) == len(exact.geometric_terms), a
        for (got, cg), (want, cw) in zip(numeric.geometric_terms, exact.geometric_terms):
            assert abs(got - float(want)) < 1e-6, a
            assert len(cg) == len(cw), a


def test_real_spectrum_is_closed_under_conjugation():
    rng = random.Random(8)
    a = Matrix(CC, [[rng.gauss(0, 1) for _ in range(8)] for _ in range(8)])
    values = {lam for lam, _ in pcf_build(a).geometric_terms}
    assert any(v.imag for v in values)
    assert {v.conjugate() for v in values} == values


def test_unimodular_builder_has_unit_determinant():
    for seed in range(6):
        m = unimodular(random.Random(seed), 4)
        assert _det(m) in (1, -1)


def test_combine_matches_termwise_sums():
    rng = random.Random(3)
    for field in (QQ, GF(101), CC):
        def entry():
            return field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

        mats = [Matrix(field, [[entry() for _ in range(4)] for _ in range(4)])
                for _ in range(5)]
        weights = [[entry() for _ in mats] for _ in range(3)]
        want = [Matrix.zeros(field, 4) for _ in weights]
        for r, row in enumerate(weights):
            for w, m in zip(row, mats):
                want[r] = want[r] + m * w
        got = _combine(field, 4, weights, mats)
        if field.exact:
            assert got == want
        else:
            assert all(max_diff(x, y) <= 1e-12 for x, y in zip(got, want))
    assert _combine(QQ, 3, [[]], []) == [Matrix.zeros(QQ, 3)]
    assert _combine(QQ, 3, [], [Matrix.identity(QQ, 3)]) == []


def test_projections_of_an_offset_spectrum_resolve_the_identity():
    np = pytest.importorskip("numpy")
    g = real_with_spectrum(np.random.default_rng(31), (-2.0, -0.5, 1.0),
                           ((1.5, 0.4), (0.8, 1.6), (0.5, 2.8)))
    # the same matrix unshifted resolves the identity to about 2e-13
    form = pcf_build(Matrix(CC, (g + 3 * np.eye(9)).tolist()))
    total = sum(np.array(pi.rows) for *_, pi in projections(form))
    assert np.linalg.norm(total - np.eye(9)) <= 1e-10


@pytest.mark.parametrize("seed", [2033, 2016, 7, 8])
def test_projections_of_a_clustered_spectrum_resolve_the_identity(seed):
    # partial fractions on the powers of A lost up to 2.6e-4 here, silently
    np = pytest.importorskip("numpy")
    g = clustered_real(np.random.default_rng(seed))
    form = pcf_build(Matrix(CC, g.tolist()))
    total = sum(np.array(pi.rows) for *_, pi in projections(form))
    assert np.linalg.norm(total - np.eye(20)) <= 1e-8


def test_defective_projections_come_from_the_staircase():
    np = pytest.importorskip("numpy")
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((7, 7)))
    blocks = ((0, 4, 1.0), (4, 2, 2.0), (6, 1, 5.0))  # J_4(1) + J_2(2) + (5)
    j = np.zeros((7, 7))
    for at, size, lam in blocks:
        j[at:at + size, at:at + size] = lam * np.eye(size) + np.eye(size, k=1)
    form = pcf_build(Matrix(CC, (q @ j @ q.T).tolist()))
    assert form.t0 == 0
    assert [len(cs) for _, cs in form.geometric_terms] == [4, 2, 1]
    for (at, size, lam), (mu, cs) in zip(blocks, form.geometric_terms):
        assert abs(mu - lam) < 1e-3
        e = np.zeros((7, 7))
        e[at:at + size, at:at + size] = np.eye(size)
        assert abs(np.array(cs[0].rows) - q @ e @ q.T).max() <= 1e-10


def _large_entry_matrix():
    """J_3(1) + (10^6) + (-5 10^5) + J_2(3) under a unimodular conjugation
    whose largest entry is 2.6e8."""
    blocks = [(3, 1), (1, 10 ** 6), (1, -5 * 10 ** 5), (2, 3)]
    return conjugated_jordan(random.Random(1575), CC, blocks)


def test_large_entries_keep_an_eigenvalue_of_modulus_one():
    # a threshold of tol times the largest entry (2.6) once turned the
    # block at 1 into the eigenvalue 0
    a = _large_entry_matrix()
    want = Poly.from_roots(CC, [1, 1, 1, 3, 3, 10 ** 6, -5 * 10 ** 5])
    got = minpoly(a)
    assert got.degree == 7
    top = max(abs(c) for c in want.coeffs)
    assert max(abs(x - y) for x, y in zip(got.coeffs, want.coeffs)) <= 1e-6 * top
    form = pcf_build(a, tol=1e-4)
    assert form.t0 == 0
    assert [(round(lam.real, 4), len(cs)) for lam, cs in form.geometric_terms] == [
        (-5e5, 1), (1, 3), (3, 2), (1e6, 1)]


def test_inaccurate_projections_are_refused_by_name():
    # the eigenvalues of the blocks at 1 and 3 carry errors of about
    # 1e-7 (machine epsilon times the entries), and so do their
    # projections: at tol 1e-8 the resolution misses the identity
    with pytest.raises(ProjectionsInaccurate, match=r"\|\|sum pi - I\|\| / max "
                       r"\|\|pi\|\| = .*\|\|pi\^2 - pi\|\| / \|\|pi\|\| = "):
        pcf_build(_large_entry_matrix())


def test_a_group_no_staircase_confirms_is_refused(monkeypatch):
    # a repeated eigenvalue is one only when its staircase holds it; with
    # every staircase empty, the last link level refuses, guessing no index
    monkeypatch.setattr("pcanon.scalar._staircase", lambda *args, **kwargs: ([], None))
    with pytest.raises(ProjectionsInaccurate, match="no staircase confirms 2 eigenvalues"):
        pcf_build(Matrix(CC, [[2, 1], [0, 2]]))


def test_log_refuses_from_the_eigenvalues_before_any_projection():
    # the projections of this matrix fail their check, so only a refusal
    # taken from the spectrum alone can name the negative eigenvalues
    with pytest.raises(PrincipalUndefined, match="closed negative real axis"):
        logm(_large_entry_matrix() * -1)


def test_conjugate_projections_of_a_real_matrix_are_exact_conjugates():
    np = pytest.importorskip("numpy")
    form = pcf_build(Matrix(CC, clustered_real(np.random.default_rng(2033)).tolist()))
    by_value = {lam: cs[0] for lam, cs in form.geometric_terms}
    pairs = [lam for lam in by_value if lam.imag > 0]
    assert len(pairs) == 6
    for lam in pairs:
        partner = by_value[lam.conjugate()]
        assert partner.rows == tuple(tuple(e.conjugate() for e in row)
                                     for row in by_value[lam].rows)


@pytest.mark.parametrize("n", [4, 8, 16, 24, 32])
def test_simple_projections_match_the_eigenvector_basis(n):
    # A = X D X^-1 with distinct D: the projection of d_i is X e_i e_i^H X^-1
    np = pytest.importorskip("numpy")
    for seed in range(3):
        gen = np.random.default_rng([n, seed])
        x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        d = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        xi = np.linalg.inv(x)
        form = pcf_build(Matrix(CC, (x * d @ xi).tolist()))
        assert form.t0 == 0 and len(form.geometric_terms) == n
        for lam, cs in form.geometric_terms:
            i = abs(d - lam).argmin()
            want = np.outer(x[:, i], xi[i])
            err = np.linalg.norm(np.array(cs[0].rows) - want)
            assert err <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", [28, 2016])
def test_simple_projections_match_a_40_digit_reference(seed):
    np = pytest.importorskip("numpy")
    mpmath = pytest.importorskip("mpmath")
    g = clustered_real(np.random.default_rng(seed))
    form = pcf_build(Matrix(CC, g.tolist()))
    with mpmath.workdps(40):
        e, el, er = mpmath.eig(mpmath.matrix(g.tolist()), left=True, right=True)
        ref = [(complex(e[i]), np.array(
            (er[:, i] * el[i, :] / (el[i, :] * er[:, i])[0]).tolist(), dtype=complex))
            for i in range(len(g))]
    assert len(form.geometric_terms) == len(g)
    for lam, cs in form.geometric_terms:
        _, want = min(ref, key=lambda r: abs(r[0] - lam))
        err = np.linalg.norm(np.array(cs[0].rows) - want)
        assert err <= 1e-9 * np.linalg.norm(want)


def test_simple_groups_nearest_one_eigenvalue_are_refused():
    np = pytest.importorskip("numpy")
    groups = [(1 + 0j, 1, 1, None), (1.1 + 0j, 1, 1, None), (3 + 0j, 1, 1, None)]
    with pytest.raises(ProjectionsInaccurate, match="share an eigenvector"):
        _projectors(np.diag([1.0, 2.0, 3.0]).astype(complex), groups, 1e-8)


def test_triangular_input_resolves_like_the_exact_route():
    # eig returns the diagonal exactly, and for the transpose in reverse
    # order: vectors are paired by eigenvalue, not by position
    np = pytest.importorskip("numpy")
    t = np.triu(np.random.default_rng(3).integers(-4, 5, (6, 6))).astype(float)
    np.fill_diagonal(t, [3, -1, 2, 0.5, 5, -2])
    assert sorted(np.linalg.eigvals(t).real) == sorted(np.diag(t))
    form = pcf_build(Matrix(CC, t.tolist()))
    exact = pcf_build(Matrix(QQ, [[Fraction(e) for e in row] for row in t.tolist()]))
    assert [lam for lam, _ in form.geometric_terms] == [complex(mu) for mu, _
                                                        in exact.geometric_terms]
    for (_, cs), (_, ce) in zip(form.geometric_terms, exact.geometric_terms):
        want = np.array([[float(v) for v in row] for row in ce[0].rows])
        assert abs(np.array(cs[0].rows) - want).max() <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: eigenvalues are linked "
                   "relative to the largest entry, so distinct ones beside a huge "
                   "entry merge, and the merged projections pass their check")
def test_distinct_eigenvalues_beside_a_huge_entry_stay_apart():
    # 2 and 3 are read as one eigenvalue 2.5 of index 2: A^3 reads 6.25 for 8
    a = Matrix(CC, [[2, 1e10], [0, 3]])
    cube = a * a * a
    assert max_diff(pcf_eval(pcf_build(a), 3), cube) <= 1e-8 * cube.maxnorm()
    # the unipotent [[1, c], [0, 1]] is read as nilpotent; e^A = e [[1, c], [0, 1]]
    b = Matrix(CC, [[1, 1e14], [0, 1]])
    want = b * math.e
    assert max_diff(closedform_eval(expm_closed(b), 1), want) <= 1e-8 * want.maxnorm()
