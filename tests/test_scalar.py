"""Field elements, polynomial ring arithmetic, factorisation, Stirling."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import naive_poly_mul, rational_roots_by_divisors, roots_by_scan
from pcanon.errors import (
    MixedFields,
    NonMonic,
    NumericFieldUnsupported,
    ZeroPolynomial,
)
from pcanon.scalar import (
    CC,
    GF,
    QQ,
    FpElement,
    Poly,
    _times_powers,
    cluster_complex,
    format_complex,
    is_prime,
    poly_factor,
    poly_gcd,
    poly_lcm,
    series_inverse,
    stirling_first,
    stirling_second,
)

# -- primality ---------------------------------------------------------------


def test_is_prime_matches_trial_division_below_2000():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    for n in (341, 561, 2047, 8911, 25326001, 3215031751):
        assert not is_prime(n)
    for n in (10 ** 9 + 7, 2 ** 61 - 1, 999999937):
        assert is_prime(n)


# -- prime field elements ----------------------------------------------------


@given(st.integers(), st.integers(), st.integers())
def test_fp_ring_axioms(a, b, c):
    f = GF(13)
    x, y, z = f.from_int(a), f.from_int(b), f.from_int(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == f.zero
    assert x - y == x + (-y)


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_fp_inverse_and_negative_powers(a):
    f = GF(101)
    x = f.from_int(a)
    if x == f.zero:
        return
    assert x * x ** -1 == f.one
    assert x ** -3 == (x ** 3) ** -1


def test_fp_rejects_mixed_moduli():
    with pytest.raises(MixedFields):
        FpElement(1, 5) + FpElement(1, 7)


def test_gf_requires_prime():
    with pytest.raises(Exception):
        GF(6)


def test_gf_is_cached():
    assert GF(17) is GF(17)


# -- polynomial ring ---------------------------------------------------------


def _polys(field, elems, max_deg=5):
    return st.lists(elems, min_size=0, max_size=max_deg + 1).map(
        lambda cs: Poly(field, cs))


_q_polys = _polys(QQ, st.fractions(min_value=-20, max_value=20, max_denominator=8))
_f5_polys = _polys(GF(5), st.integers(0, 4).map(GF(5).from_int))


@given(_q_polys, _q_polys, _q_polys)
def test_poly_ring_axioms_rational(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero
    assert a * Poly.one(QQ) == a


@given(_f5_polys, _f5_polys)
def test_poly_divmod_roundtrip_prime_field(a, b):
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(_q_polys, _q_polys)
def test_poly_divmod_roundtrip_rational(a, b):
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(_q_polys, st.fractions(min_value=-9, max_value=9, max_denominator=4),
       st.fractions(min_value=-9, max_value=9, max_denominator=4))
def test_poly_shift_is_composition(p, c, x):
    assert p.shifted(c).evaluate(x) == p.evaluate(x + c)


def _elements(field):
    if field == QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return st.integers(0, field.char - 1).map(field.from_int)


_exact_fields = pytest.mark.parametrize("field", [QQ, GF(5), GF(101)], ids=repr)


@_exact_fields
@given(data=st.data())
def test_plain_kernel_matches_field_arithmetic(field, data):
    polys = st.lists(_elements(field), min_size=1, max_size=7)
    a, b = data.draw(polys), data.draw(polys)
    pa, pb = Poly(field, a), Poly(field, b)
    assert pa * pb == Poly(field, naive_poly_mul(a, b))
    if not pb.is_zero:
        q, r = divmod(pa, pb)
        assert q * pb + r == pa and r.degree < pb.degree
    c, x = data.draw(_elements(field)), data.draw(_elements(field))
    assert pa.shifted(c).evaluate(x) == pa.evaluate(x + c)


@_exact_fields
@given(data=st.data())
def test_times_powers_is_the_factor_by_factor_product(field, data):
    start = data.draw(st.lists(_elements(field), min_size=1, max_size=4))
    pairs = data.draw(st.lists(st.tuples(_elements(field), st.integers(0, 4)),
                               max_size=5))
    want = start
    for mu, e in pairs:
        for _ in range(e):
            want = naive_poly_mul(want, [-mu, field.one])
    assert _times_powers(Poly(field, start), pairs) == Poly(field, want)


def test_poly_zero_degree_convention():
    assert Poly(QQ, []).degree == -1
    assert Poly(QQ, [0, 0]).is_zero
    assert Poly.x(QQ).degree == 1


def test_from_roots_vanishes_on_roots():
    roots = [Fraction(1), Fraction(-2), Fraction(1, 3)]
    p = Poly.from_roots(QQ, roots)
    assert p.is_monic and p.degree == 3
    for r in roots:
        assert p.evaluate(r) == 0


@given(_q_polys)
def test_derivative_of_product_rule(p):
    q = Poly(QQ, [1, 1])
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


def test_series_inverse_is_multiplicative_inverse():
    p = Poly(QQ, [1, 3, Fraction(-1, 2), 5])
    for order in range(1, 7):
        inv = series_inverse(p, order)
        prod = p * inv
        assert prod.coeff(0) == 1
        for i in range(1, order):
            assert prod.coeff(i) == 0


def test_poly_gcd_and_lcm():
    a = Poly.from_roots(QQ, [1, 2])
    b = Poly.from_roots(QQ, [1, 3])
    g = poly_gcd(a, b)
    assert g == Poly.from_roots(QQ, [1])
    assert poly_lcm(a, b) == Poly.from_roots(QQ, [1, 2, 3])
    with pytest.raises(NumericFieldUnsupported):
        poly_gcd(Poly(CC, [1, 1]), Poly(CC, [1]))


def test_poly_format_golden():
    assert Poly(QQ, [1, -2, -2, 1]).format() == "X^3 - 2X^2 - 2X + 1"
    assert Poly(QQ, [Fraction(1, 2), 1]).format() == "X + 1/2"
    assert Poly(QQ, []).format() == "0"
    assert Poly(QQ, [0, Fraction(1, 2)]).format() == "(1/2)X"


# -- factorisation -----------------------------------------------------------


def test_factor_rational_roots_with_multiplicity():
    p = (Poly.from_roots(QQ, [1]) ** 2
         * Poly.from_roots(QQ, [-2])
         * Poly.from_roots(QQ, [Fraction(3, 2)]))
    f = poly_factor(p)
    assert dict(f.roots) == {Fraction(1): 2, Fraction(-2): 1, Fraction(3, 2): 1}
    assert f.remainder == Poly.one(QQ)


def test_factor_keeps_irreducible_remainder():
    p = Poly(QQ, [1, 0, 1]) * Poly.from_roots(QQ, [2])
    f = poly_factor(p)
    assert dict(f.roots) == {Fraction(2): 1}
    assert f.remainder == Poly(QQ, [1, 0, 1])


def test_factor_prime_field_by_residue_scan():
    f5 = GF(5)
    p = Poly(f5, [f5.from_int(1), f5.from_int(0), f5.from_int(1)])  # X^2+1
    f = poly_factor(p)
    assert sorted(r.res for r, _ in f.roots) == [2, 3]
    q = Poly(f5, [f5.from_int(1), f5.from_int(1), f5.from_int(1)])  # X^2+X+1
    assert poly_factor(q).remainder == q


def _residue_roots(factored):
    return [(r.res, m) for r, m in factored.roots]


@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.dictionaries(
        st.integers(0, p - 1), st.integers(1, 2 * p), min_size=1, max_size=4))))
# (X - 2)^3 has zero derivative over F_3, so it is missing from the
# squarefree part of (X - 1)(X - 2)^3; likewise (X - 2)^5 over F_5
@example((3, {1: 1, 2: 3}))
@example((5, {1: 1, 2: 5, 3: 1}))
@example((5, {1: 1, 2: 10, 3: 1}))
def test_factor_prime_field_recovers_root_multiset(case):
    p, mults = case
    roots = [r for r, m in mults.items() for _ in range(m)]
    got = poly_factor(Poly.from_roots(GF(p), roots))
    assert _residue_roots(got) == sorted(mults.items())
    assert got.remainder == Poly.one(GF(p))


@pytest.mark.parametrize("mult", [2, 4])
def test_factor_prime_field_multiplicity_p_beside_irreducible(mult):
    f2 = GF(2)
    quad = Poly(f2, [1, 1, 1])  # X^2 + X + 1, irreducible, keeps f' != 0
    got = poly_factor(Poly.from_roots(f2, [0] + [1] * mult) * quad)
    assert _residue_roots(got) == [(0, 1), (1, mult)]
    assert got.remainder == quad


@given(st.sampled_from([2, 3, 5, 101]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), max_size=8),
    st.lists(st.integers(0, p - 1), max_size=4))))
@example((5, list(range(5)), []))  # X^5 - X itself
@example((101, list(range(101)), []))  # X^101 - X itself
@example((2, [0, 1], [1, 1]))  # X(X - 1) beside the irreducible X^2 + X + 1
@example((3, [2] * 6 + [0], [2]))  # a root of multiplicity 2p
def test_factor_prime_field_matches_residue_scan(case):
    p, roots, rest = case
    f = Poly.from_roots(GF(p), roots) * Poly(GF(p), rest + [1])
    got = poly_factor(f)
    assert [r for r, _ in _residue_roots(got)] == roots_by_scan(f, p)
    assert roots_by_scan(got.remainder, p) == []
    assert got.reassemble() == f


_small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@given(st.lists(_small_q, max_size=5), st.lists(_small_q, max_size=3))
# these roots collide mod 2, 3 and 5, so the lifting prime is 7
@example([Fraction(r) for r in (1, -1, 2, -2, 3)], [])
def test_factor_rational_matches_divisor_scan(roots, rest):
    f = Poly.from_roots(QQ, roots) * Poly(QQ, rest + [1])
    got = poly_factor(f)
    assert sorted(r for r, _ in got.roots) == rational_roots_by_divisors(f)
    assert rational_roots_by_divisors(got.remainder) == []
    assert got.reassemble() == f


def test_factor_large_prime_field():
    p = 10 ** 9 + 7
    f = GF(p)
    r = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    quad = Poly(f, [-r, 0, 1])  # irreducible: r is not a square mod p
    got = poly_factor(Poly.from_roots(f, [1, 2, 2, 2]) * quad)
    assert _residue_roots(got) == [(1, 1), (2, 3)]
    assert got.remainder == quad


def test_factor_requires_monic_nonzero():
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly(QQ, []))
    with pytest.raises(NonMonic):
        poly_factor(Poly(QQ, [1, 2]))


def test_factor_complex_multiple_roots():
    p = Poly.from_roots(CC, [1.0, 1.0, complex(1, 2)])
    f = poly_factor(p)
    assert f.remainder.degree <= 0
    # the expected roots share a real part, so pair by distance, not order
    (r1, m1), (r2, m2) = sorted(f.roots, key=lambda rm: abs(rm[0] - 1))
    assert abs(r1 - 1) < 1e-8 and m1 == 2
    assert abs(r2 - complex(1, 2)) < 1e-8 and m2 == 1


def test_factor_complex_zero_root_is_exact():
    p = Poly(CC, [0, 0, complex(-2), 1.0])  # X^2 (X - 2)
    f = poly_factor(p)
    rootmap = {complex(r): m for r, m in f.roots}
    assert rootmap[0j] == 2
    assert any(abs(r - 2) < 1e-10 for r in rootmap)
    # a root within tol of 0 joins the exactly zero ones
    assert poly_factor(Poly(CC, [0, 0, -1e-12, 1.0])).roots == ((0j, 3),)


def test_factor_complex_integer_and_repeated_roots():
    cases = [
        {complex(k): 1 for k in range(1, 9)},
        {1: 3, 2: 1},
        {2j: 2, -1: 3, 3: 1},
    ]
    for want in cases:
        p = Poly.from_roots(CC, [r for r, m in want.items() for _ in range(m)])
        f = poly_factor(p)
        assert f.remainder == Poly.one(CC)
        assert len(f.roots) == len(want)
        for r, m in f.roots:
            nearest = min(want, key=lambda w: abs(r - w))
            assert abs(r - nearest) < 1e-6 and m == want[nearest]


def test_cluster_complex_merges_near_duplicates():
    got = cluster_complex([1 + 0j, 1 + 1e-12j, 5 + 0j])
    assert [(round(z.real), m) for z, m in got] == [(1, 2), (5, 1)]


# -- Stirling numbers --------------------------------------------------------


def test_stirling_orthogonality():
    for n in range(9):
        for m in range(9):
            tot = sum(stirling_first(k, m) * stirling_second(n, k)
                      for k in range(9))
            assert tot == (1 if n == m else 0)


def test_stirling_second_expands_powers_in_binomials():
    for n in range(9):
        for k in range(9):
            lhs = k ** n if (n or k) else 1
            rhs = sum(stirling_second(n, i) * math.factorial(i)
                      * math.comb(k, i) for i in range(n + 1))
            assert lhs == rhs


def test_stirling_first_expands_falling_factorials():
    for i in range(9):
        for k in range(9):
            falling = math.comb(k, i) * math.factorial(i)
            rhs = sum(stirling_first(i, m) * k ** m if (k or not m) else 0
                      for m in range(i + 1))
            if k == 0:
                rhs = stirling_first(i, 0)
            assert falling == rhs, (i, k)


# -- complex formatting ------------------------------------------------------


def test_format_complex_ascii():
    assert format_complex(complex(1.5, -2)) == "1.5-2i"
    assert format_complex(complex(3, 0)) == "3"
    assert format_complex(complex(0, 1)) == "1i"
    assert format_complex(complex(0, 0)) == "0"
