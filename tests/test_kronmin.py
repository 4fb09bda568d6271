"""Minimal polynomials of Kronecker products: symbolic route vs direct."""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from helpers import class_table_enumerated, conjugated_jordan, jordan_assembly, kron_by_blocks
from pcanon.errors import (
    DegreeZero,
    EmptyInput,
    MixedFields,
    NonMonic,
    NonSplitField,
    OrderTooLarge,
    PcanonError,
)
from pcanon.kronmin import (
    EigSpec,
    eig_spec_of_matrix,
    eig_spec_of_poly,
    kron_minpoly_direct,
    kron_minpoly_symbolic,
    lrs_product_poly,
    product_class_table,
)
from pcanon.linalg import Matrix, companion, kron, minpoly
from pcanon.pcf import pcf_build
from pcanon.scalar import CC, CLUSTER_TOL, GF, QQ, Poly, _linked
from pcanon.wedge import WedgeContext


def _jordan(field, size, lam):
    return Matrix.jordan_block(field, size, lam)


def test_unipotent_pair_is_additive_over_q():
    for s in range(1, 7):
        for t in range(1, 7):
            a, b = _jordan(QQ, s, 1), _jordan(QQ, t, 1)
            p = kron_minpoly_symbolic([eig_spec_of_matrix(a),
                                       eig_spec_of_matrix(b)])
            assert p == Poly.from_roots(QQ, [1] * (s + t - 1)), (s, t)
            assert p == kron_minpoly_direct([a, b]), (s, t)


def test_prime_characteristic_pairs_match_direct():
    for p in (2, 3, 5):
        f = GF(p)
        one = f.one
        for s in range(1, 7):
            for t in range(1, 7):
                a, b = _jordan(f, s, one), _jordan(f, t, one)
                sym = kron_minpoly_symbolic([eig_spec_of_matrix(a),
                                             eig_spec_of_matrix(b)])
                assert sym == kron_minpoly_direct([a, b]), (p, s, t)


def test_nilpotent_factor_annihilates_product():
    a = _jordan(QQ, 2, 0)       # nilpotent of index 2
    b = _jordan(QQ, 3, 0)       # nilpotent of index 3
    sym = kron_minpoly_symbolic([eig_spec_of_matrix(a), eig_spec_of_matrix(b)])
    assert sym == Poly.x(QQ) ** 2
    assert sym == kron_minpoly_direct([a, b])
    c = _jordan(QQ, 3, 1)
    sym2 = kron_minpoly_symbolic([eig_spec_of_matrix(a), eig_spec_of_matrix(c)])
    assert sym2 == Poly.x(QQ) ** 2 == kron_minpoly_direct([a, c])


def test_singular_non_nilpotent_keeps_zero_block():
    a = jordan_assembly(QQ, [(2, Fraction(0)), (2, Fraction(1))])
    b = _jordan(QQ, 3, 1)
    sym = kron_minpoly_symbolic([eig_spec_of_matrix(a), eig_spec_of_matrix(b)])
    assert sym == kron_minpoly_direct([a, b])
    # zero eigenvalue keeps index 2; unipotent part wedges to 2+3-1
    assert sym == Poly.x(QQ) ** 2 * Poly.from_roots(QQ, [1] * 4)


def test_mixed_spectra_sweep_matches_direct():
    rng = random.Random(5)
    pool = [Fraction(1), Fraction(2), Fraction(-1), Fraction(0)]
    for _ in range(12):
        blocks_a = [(rng.randint(1, 2), rng.choice(pool))]
        if rng.random() < 0.5:
            blocks_a.append((rng.randint(1, 2), rng.choice(pool)))
        blocks_b = [(rng.randint(1, 3), rng.choice(pool))]
        a = jordan_assembly(QQ, blocks_a)
        b = jordan_assembly(QQ, blocks_b)
        sym = kron_minpoly_symbolic([eig_spec_of_matrix(a),
                                     eig_spec_of_matrix(b)])
        assert sym == kron_minpoly_direct([a, b]), (blocks_a, blocks_b)


def test_three_factor_product():
    mats = [_jordan(QQ, 2, 1), _jordan(QQ, 2, 2), _jordan(QQ, 2, 1)]
    sym = kron_minpoly_symbolic([eig_spec_of_matrix(m) for m in mats])
    assert sym == kron_minpoly_direct(mats)
    assert sym == Poly.from_roots(QQ, [2] * 4)


def test_direct_route_is_a_real_kronecker_minpoly():
    # entries over Q with denominators up to 6 (one per factor), and
    # residues over F_p, with two and three factors
    rng = random.Random(1606)
    cases = [[_jordan(QQ, 2, 1), _jordan(QQ, 3, 2)]]
    for field, values in ((QQ, [0, 1, -2, Fraction(1, 2), Fraction(-2, 3)]),
                          (GF(2), [0, 1]), (GF(3), [0, 1, 2]), (GF(101), [0, 1, 3, 100])):
        for count in (2, 2, 3):
            mats = []
            for _ in range(count):
                blocks = [(rng.randint(1, 2), rng.choice(values))
                          for _ in range(rng.randint(1, 2))]
                a = conjugated_jordan(rng, field, blocks)
                mats.append(a * Fraction(1, rng.choice([1, 2, 3])) if field == QQ else a)
            cases.append(mats)
    for mats in cases:
        big = reduce(kron_by_blocks, mats)
        assert reduce(kron, mats) == big
        assert kron_minpoly_direct(mats) == minpoly(big)


def test_complex_clustering_route(spiral_3x3):
    b = Matrix.diagonal(QQ, [1, 2]).to_field(CC)
    sym = kron_minpoly_symbolic([eig_spec_of_matrix(spiral_3x3),
                                 eig_spec_of_matrix(b)])
    direct = kron_minpoly_direct([spiral_3x3, b])
    assert sym.degree == direct.degree
    assert all(abs(sym.coeff(i) - direct.coeff(i)) < 1e-6
               for i in range(sym.degree + 1))


def test_complex_matrix_spectrum_is_read_off_the_matrix():
    # eig_spec_of_matrix reads the spectrum pcf_build resolves. Blocks
    # up to size 5 make the roots of a minimal polynomial rebuilt from it
    # drift by up to 6e-10, past the 1e-10 asked for here
    values = [1, -2, 3j, 1 + 2j, -1 - 1j, 0.5, 2, 0, -1j]
    for seed in range(40):
        rng = random.Random(seed)
        blocks = [(rng.randint(1, 5), v) for v in rng.sample(values, 4)]
        a = conjugated_jordan(rng, CC, blocks)
        spec = eig_spec_of_matrix(a)
        form = pcf_build(a)
        assert spec.zero_index == form.t0
        assert spec.nonzero == tuple((lam, len(cs)) for lam, cs in form.geometric_terms)
        index = {}
        for size, v in blocks:
            index[v] = max(index.get(v, 0), size)
        assert spec.zero_index == index.pop(0, 0), seed
        assert len(spec.nonzero) == len(index), seed
        for mu, t in spec.nonzero:
            v = min(index, key=lambda w: abs(w - mu))
            assert abs(mu - v) <= 1e-10 * abs(v) and t == index[v], (seed, mu, v)


@pytest.mark.parametrize("p", [
    Poly.from_roots(CC, [1e-10, 2e-10]),
    Poly.from_roots(CC, [0, 0, 1e-12]),
    Poly.from_roots(CC, [0, -1e-9]),
    *(Poly.x(CC) ** k * Poly(CC, [-1, 1]) for k in range(1, 31)),
])
def test_complex_poly_spectrum_is_its_companion_spectrum(p):
    # roots near 0 are decided by the one rank rule of every matrix
    assert eig_spec_of_poly(p) == eig_spec_of_matrix(companion(p))


def test_seeded_complex_poly_spectra_are_their_companion_spectra():
    for seed in range(120):
        rng = random.Random(seed)
        cs = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
              for _ in range(rng.randint(1, 10))]
        if seed % 3 == 0:
            cs[0] = 0j
        p = Poly(CC, [*cs, 1])
        assert eig_spec_of_poly(p) == eig_spec_of_matrix(companion(p)), seed


def _exact_poly_case(field, rng):
    """X^z (X - r_1)^m_1 ... times a random monic rest of degree 0-3 over
    an exact field: repeated roots, the root 0 and a rest that may not
    split."""
    if field.char:
        values = [field.coerce(rng.randrange(field.char)) for _ in range(3)]
    else:
        values = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(3)]
    pairs = [(v, rng.randint(1, 3)) for v in values[:rng.randint(0, 3)]]
    rest = Poly(field, [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))] + [1])
    p = Poly.x(field) ** rng.randint(0, 2)
    for v, m in pairs:
        p = p * Poly(field, [-v, 1]) ** m
    return p * rest


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_exact_poly_spectrum_is_its_companion_spectrum(field):
    rng = random.Random(field.char + 7)
    seen = set()
    for case in range(150):
        p = _exact_poly_case(field, rng)
        if p.degree < 1:
            continue
        try:
            want = eig_spec_of_poly(p)
        except NonSplitField:
            with pytest.raises(NonSplitField):
                eig_spec_of_matrix(companion(p))
            seen.add("non-split")
            continue
        assert want == eig_spec_of_matrix(companion(p)), (case, p)
        seen.update({"zero"} if want.zero_index else set())
        seen.update({"repeated"} if any(m > 1 for _, m in want.nonzero) else set())
    assert seen == {"non-split", "zero", "repeated"}


def test_kron_minpoly_merges_products_at_the_tol_the_spectra_were_read_at():
    # the products 2 * 1 and 1.00001 * 2 lie 1e-5 apart: one class when the
    # spectra are read at 1e-3, as `pcanon kron-minpoly --tol 1e-3` reads them
    a = Matrix(CC, [[1, 0], [0, 2]])
    b = Matrix(CC, [[2, 0], [0, 1.00001]])
    assert eig_spec_of_matrix(a).tol == eig_spec_of_poly(Poly.x(CC)).tol == CLUSTER_TOL
    assert kron_minpoly_symbolic([eig_spec_of_matrix(a), eig_spec_of_matrix(b)]).degree == 4
    loose = [eig_spec_of_matrix(a, 1e-3), eig_spec_of_matrix(b, 1e-3)]
    assert loose[0].tol == 1e-3
    assert kron_minpoly_symbolic(loose).degree == 3
    # the largest recorded tol decides, whichever factor carries it
    assert kron_minpoly_symbolic([eig_spec_of_matrix(a), loose[1]]).degree == 3
    assert product_class_table(loose[::-1]).entries == product_class_table(loose).entries


def test_eig_spec_validation():
    with pytest.raises(NonSplitField):
        eig_spec_of_poly(Poly(QQ, [1, 0, 1]))
    with pytest.raises(NonMonic):
        eig_spec_of_poly(Poly(QQ, [1, 2]))
    spec = eig_spec_of_poly(Poly(QQ, [0, -1, 1]) * Poly.x(QQ))  # X^2(X-1)
    assert spec.zero_index == 2
    assert spec.nonzero == ((Fraction(1), 1),)
    assert not spec.is_nilpotent
    nil = eig_spec_of_poly(Poly.x(QQ) ** 3)
    assert nil.is_nilpotent


def test_eig_spec_roundtrips_to_poly():
    p = Poly.x(QQ) ** 2 * Poly.from_roots(QQ, [1, 1, 2])
    assert kron_minpoly_symbolic([eig_spec_of_poly(p)]) == p


def test_symbolic_guards():
    with pytest.raises(EmptyInput):
        kron_minpoly_symbolic([])
    f5 = GF(5)
    a = EigSpec(QQ, 0, ((Fraction(1), 1),))
    b = EigSpec(f5, 0, ((f5.one, 1),))
    with pytest.raises(MixedFields):
        kron_minpoly_symbolic([a, b])


@pytest.mark.parametrize("field", [QQ, GF(5), CC], ids=["Q", "F5", "C"])
def test_class_table_fold_matches_enumeration(field):
    rng = random.Random(11)
    if field is CC:
        # sixth roots of unity times 3^j: distinct tuples collide only up
        # to rounding, so the clustering has classes to merge
        pool = [cmath.rect(r, k * math.pi / 3) for r in (1 / 3, 1, 3) for k in range(6)]
    elif field is QQ:
        pool = [Fraction(v) for v in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3))]
    else:
        pool = [field.coerce(v) for v in range(1, 5)]
    ctx = WedgeContext(field.char)
    for _ in range(25):
        specs = [EigSpec(field, 0, tuple((v, rng.randint(1, 6))
                                         for v in rng.sample(pool, rng.randint(1, 4))))
                 for _ in range(rng.randint(1, 4))]
        got = product_class_table(specs, ctx).entries
        want = class_table_enumerated(specs, ctx).entries
        assert [e for _, e in got] == [e for _, e in want]
        if field.exact:
            assert got == want
        else:
            assert all(abs(u - v) <= 1e-12 * max(1.0, abs(v))
                       for (u, _), (v, _) in zip(got, want))


def test_class_table_links_a_chain_of_near_values():
    # each value is within the clustering tolerance of the next but not
    # of the far end: single linkage makes one class, as `_linked` groups
    values = [1 + 0j, 1 + 0.9e-8, 1 + 1.8e-8]
    (group,) = _linked(values, CLUSTER_TOL)
    mean = sum(group) / len(group)
    chain = EigSpec(CC, 0, tuple(zip(values, (1, 3, 2))))
    for specs in ([chain], [chain, EigSpec(CC, 0, ((1 + 0j, 1),))]):
        ((value, e),) = product_class_table(specs, WedgeContext(0)).entries
        assert abs(value - mean) <= 1e-15
        assert e == 3


def test_class_table_refuses_empty_input():
    with pytest.raises(EmptyInput):
        product_class_table([], WedgeContext(0))


def test_class_table_refuses_mixed_fields():
    f5 = GF(5)
    with pytest.raises(MixedFields):
        product_class_table([EigSpec(QQ, 0, ((Fraction(1), 1),)),
                             EigSpec(f5, 0, ((f5.one, 1),))], WedgeContext(0))


def test_class_table_refuses_a_foreign_characteristic():
    # over F_5 the Kronecker square of a block with minimal polynomial
    # (X - 2)^5 has index wedge(5, 5) = 5; the characteristic-0 wedge
    # would give 9
    f5 = GF(5)
    spec = EigSpec(f5, 0, ((f5.coerce(2), 5),))
    with pytest.raises(PcanonError):
        product_class_table([spec, spec], WedgeContext(0))
    assert product_class_table([spec, spec], WedgeContext(5)).entries == ((f5.coerce(4), 5),)


def test_direct_order_cap():
    mats = [Matrix.identity(QQ, 8) for _ in range(5)]
    with pytest.raises(OrderTooLarge):
        kron_minpoly_direct(mats)


# -- product closures of recurrence characteristic polynomials ----------------


def test_fibonacci_square_closure():
    fib = Poly(QQ, [-1, -1, 1])
    assert lrs_product_poly([fib, fib]) == Poly(QQ, [1, -2, -2, 1])


def test_fibonacci_times_geometric():
    fib = Poly(QQ, [-1, -1, 1])
    geo = Poly(QQ, [-2, 1])
    assert lrs_product_poly([fib, geo]) == Poly(QQ, [-4, -2, 1])


def test_product_closure_falls_back_when_spectrum_is_irrational():
    p = Poly(QQ, [1, 0, 1])  # X^2 + 1, no rational roots
    q = Poly(QQ, [-1, 1])
    got = lrs_product_poly([p, q])
    assert got == minpoly(kron(companion(p), companion(q)))
    assert got == Poly(QQ, [1, 0, 1])


def test_product_closure_with_a_huge_constant_term():
    # no rational roots, and a constant term far past a divisor scan
    p = Poly(QQ, [-(10 ** 24 + 7), -1, 1])
    assert lrs_product_poly([p, p]) == kron_minpoly_direct([companion(p)] * 2)


def test_product_closure_refuses_a_direct_order_past_the_limit():
    # X^65 - 2 does not split over Q, so the closure takes the direct route,
    # whose Kronecker order 65 * 65 = 4225 exceeds DIRECT_ORDER_LIMIT
    p = Poly.x(QQ) ** 65 - Poly(QQ, [2])
    start = time.perf_counter()
    with pytest.raises(OrderTooLarge):
        lrs_product_poly([p, p])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("call, error", [
    (lambda: kron_minpoly_direct([]), EmptyInput),
    (lambda: lrs_product_poly([Poly(QQ, [-1, 1]), Poly(GF(5), [-1, 1])]), MixedFields),
    (lambda: lrs_product_poly([Poly(QQ, [1])]), DegreeZero),
    (lambda: eig_spec_of_poly(Poly(QQ, [1])), DegreeZero),
], ids=["direct-empty", "closure-mixed-fields", "closure-constant", "spec-constant"])
def test_named_refusals(call, error):
    with pytest.raises(error):
        call()


def test_product_closure_validates_input():
    with pytest.raises(EmptyInput):
        lrs_product_poly([])
    with pytest.raises(NonMonic):
        lrs_product_poly([Poly(QQ, [1, 2])])


def test_product_closure_prime_field():
    f5 = GF(5)
    fib5 = Poly(f5, [f5.coerce(-1), f5.coerce(-1), f5.one])
    got = lrs_product_poly([fib5, fib5])
    assert got == minpoly(kron(companion(fib5), companion(fib5)))


def test_exhaustive_jordan_sweep_multiway():
    # every unordered pair drawn from small Jordan blocks over Q and F_5
    for field, vals in ((QQ, [Fraction(0), Fraction(1), Fraction(2)]),
                        (GF(5), [GF(5).coerce(0), GF(5).coerce(1)])):
        sizes = [1, 2, 3]
        cases = [(s, v) for s in sizes for v in vals]
        for (s, u), (t, v) in itertools.combinations_with_replacement(cases, 2):
            a, b = _jordan(field, s, u), _jordan(field, t, v)
            sym = kron_minpoly_symbolic([eig_spec_of_matrix(a),
                                         eig_spec_of_matrix(b)])
            assert sym == kron_minpoly_direct([a, b]), (field, s, u, t, v)
