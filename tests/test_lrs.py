"""Linear recurrence sequences: evaluation, products, minimal annihilators."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import fibonacci, matrix_poly, min_annihilator_hankel

from pcanon.errors import (
    AnnihilatorMismatch,
    AnswerTooLarge,
    DegreeZero,
    InsufficientData,
    MixedFields,
    NonMonic,
)
from pcanon.kronmin import lrs_product_poly
from pcanon.linalg import companion
from pcanon.lrs import (
    LinRecSeq,
    lrs_eval,
    lrs_min_annihilator,
    lrs_mul,
    lrs_prefix,
)
from pcanon.scalar import CC, GF, QQ, Poly

_FIB_POLY = Poly(QQ, [-1, -1, 1])


def _fib() -> LinRecSeq:
    return LinRecSeq(_FIB_POLY, (0, 1))


def _window(seq: LinRecSeq, count: int) -> list:
    """The first count terms by the recurrence in field arithmetic, one
    window step at a time: the oracle for the plain-number routes."""
    p, d = seq.char, seq.char.degree
    out = list(seq.initial[:count])
    while len(out) < count:
        out.append(-sum((p.coeff(i) * out[i - d] for i in range(d)), p.field.zero))
    return out


def _rational_seq(rng, d: int, top: int = 9) -> LinRecSeq:
    """Non-integral coefficients and initial terms: the rescaled Q route."""
    def q():
        return Fraction(rng.randint(-top, top), rng.randint(2, 7))
    return LinRecSeq(Poly(QQ, [q() for _ in range(d)] + [1]), tuple(q() for _ in range(d)))


def test_prefix_and_eval_agree():
    seq = _fib()
    prefix = lrs_prefix(seq, 15)
    assert prefix[:8] == [0, 1, 1, 2, 3, 5, 8, 13]
    for n in (0, 1, 5, 14):
        assert lrs_eval(seq, n) == prefix[n]
    assert lrs_eval(seq, 30) == 832040


_FIELDS = (QQ, GF(2), GF(3), GF(65537))


@given(st.sampled_from(_FIELDS),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4))
@example(QQ, [0], [3, 0, 0, 0])            # d = 1, P = X
@example(GF(2), [0, 1, 1], [1, 0, 1, 0])   # X divides P
@example(GF(3), [0, 0, 2, 1], [1, 2, 0, 1])
@example(GF(65537), [-2], [5, 0, 0, 0])    # d = 1, geometric
@example(QQ, [0, 0, 0, -1], [1, -2, 3, 4])
def test_eval_matches_unrolled_recurrence(field, lower, initials):
    # X^n mod P route and prefix unrolling vs a direct window oracle
    p = Poly(field, lower + [1])
    d = p.degree
    seq = LinRecSeq(p, tuple(initials[:d]))
    prefix = lrs_prefix(seq, 201)
    window = [field.coerce(x) for x in initials[:d]]
    for n in range(d, 201):
        nxt = -sum((p.coeff(i) * window[i] for i in range(d)), field.zero)
        window = window[1:] + [nxt]
        assert prefix[n] == nxt
    for n in sorted({0, d - 1, d, d + 1, 37, 200}):
        assert lrs_eval(seq, n) == prefix[n], n


def test_eval_over_complex_matches_prefix():
    rng = random.Random(7)
    for _ in range(20):
        roots = [cmath.rect(rng.uniform(0.3, 1.0), rng.uniform(-math.pi, math.pi))
                 for _ in range(rng.randint(1, 5))]
        p = Poly.from_roots(CC, roots)
        seq = LinRecSeq(p, tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                 for _ in range(p.degree)))
        prefix = lrs_prefix(seq, 600)
        for n in (p.degree, 37, 200, 599):
            want = prefix[n]
            assert abs(lrs_eval(seq, n) - want) <= 1e-9 * max(1.0, abs(want)), n


def test_rational_sequences_match_the_fraction_window():
    # b_n = da dp^n a_n under q(Y) = dp^d P(Y/dp) must drop back exactly
    rng = random.Random(23)
    for _ in range(40):
        seq = _rational_seq(rng, rng.randint(1, 4))
        want = _window(seq, 201)
        assert lrs_prefix(seq, 201) == want
        for n in sorted({0, seq.char.degree - 1, seq.char.degree, 37, 200}):
            assert lrs_eval(seq, n) == want[n], n
    seq = LinRecSeq(Poly(QQ, [Fraction(-1, 4), Fraction(1, 2), 1]),
                    (Fraction(1, 5), Fraction(-2, 7)))
    assert lrs_eval(seq, 10**4) == _window(seq, 10**4 + 1)[-1]


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_exact_sequences_do_no_polynomial_arithmetic(monkeypatch, field):
    # over Q and F_p every loop runs on plain numbers, lifted once
    lower = [Fraction(-1, 3), Fraction(-1, 2)] if field == QQ else [5, 7]
    seq = LinRecSeq(Poly(field, lower + [1]), (field.coerce(2), field.coerce(3)))
    closure = lrs_product_poly([seq.char, seq.char])
    want = _window(seq, 1001)
    square = [x * x for x in want[:3 * closure.degree]]

    def poly_arithmetic(*_):
        raise AssertionError("an lrs function ran Poly arithmetic")

    for name in ("__mul__", "__rmul__", "__divmod__"):
        monkeypatch.setattr(Poly, name, poly_arithmetic)
    assert lrs_prefix(seq, 40) == want[:40]
    assert lrs_eval(seq, 1000) == want[1000]
    assert lrs_min_annihilator(want[:12], field) == seq.char
    assert list(lrs_mul([seq, seq], closure).initial) == square[:closure.degree]


def test_eval_never_unrolls(monkeypatch):
    def unrolled(*_):
        raise AssertionError("lrs_eval unrolled the recurrence")

    monkeypatch.setattr("pcanon.lrs.lrs_prefix", unrolled)
    assert lrs_eval(_fib(), 10**6) == fibonacci(10**6)


def test_validation():
    with pytest.raises(NonMonic):
        LinRecSeq(Poly(QQ, [1, 2]), (1,))
    with pytest.raises(DegreeZero):
        LinRecSeq(Poly.one(QQ), ())
    with pytest.raises(ValueError):
        LinRecSeq(_FIB_POLY, (1,))


@pytest.mark.parametrize("call, error", [
    (lambda: lrs_mul([], _FIB_POLY), ValueError),
    (lambda: lrs_mul([_fib()], Poly(GF(5), [-1, -1, 1])), MixedFields),
    (lambda: lrs_mul([_fib()], Poly(QQ, [-1, -1, 2])), NonMonic),
    (lambda: lrs_mul([_fib()], Poly(QQ, [1])), DegreeZero),
    (lambda: lrs_eval(_fib(), -1), ValueError),
    (lambda: lrs_prefix(_fib(), -1), ValueError),
    (lambda: lrs_eval(LinRecSeq(Poly(CC, [-1e150, 1]), (1e200,)), 1), AnswerTooLarge),
    (lambda: lrs_prefix(LinRecSeq(Poly(CC, [-1e200, 1]), (1e200,)), 3), AnswerTooLarge),
    # finite factor terms whose product overflows must not pass any check
    (lambda: lrs_mul([LinRecSeq(Poly(CC, [-1e120, 1]), (1,))] * 2, Poly(CC, [-5, 1])),
     AnswerTooLarge),
], ids=["no-factors", "mixed-fields", "non-monic", "constant", "negative-index",
        "negative-count", "complex-eval-overflow", "complex-prefix-overflow",
        "complex-product-overflow"])
def test_named_refusals(call, error):
    with pytest.raises(error):
        call()


def test_product_sequence_squares_fibonacci():
    sq = lrs_mul([_fib(), _fib()], lrs_product_poly([_FIB_POLY, _FIB_POLY]))
    assert lrs_prefix(sq, 6) == [0, 1, 1, 4, 9, 25]
    fib = lrs_prefix(_fib(), 40)
    assert lrs_prefix(sq, 40) == [x * x for x in fib]


def test_product_check_reads_as_far_as_the_product_space():
    # a = 0, 0, 0, 1, ... lies in L(X^4 - 1), so a times 1 has an annihilator of
    # degree up to 4; X passes the first 2 deg X = 2 offsets but fails at the third
    a = LinRecSeq(Poly(QQ, [-1, 0, 0, 0, 1]), (0, 0, 0, 1))
    one = LinRecSeq(Poly(QQ, [-1, 1]), (1,))
    with pytest.raises(AnnihilatorMismatch, match="offset 2"):
        lrs_mul([a, one], Poly(QQ, [0, 1]))
    prod = lrs_mul([a, one], Poly(QQ, [-1, 0, 0, 0, 1]))
    assert lrs_prefix(prod, 9) == [0, 0, 0, 1, 0, 0, 0, 1, 0]


def test_product_with_geometric():
    two = LinRecSeq(Poly(QQ, [-2, 1]), (1,))
    prod = lrs_mul([_fib(), two], lrs_product_poly([_FIB_POLY, Poly(QQ, [-2, 1])]))
    assert lrs_prefix(prod, 5) == [0, 2, 4, 16, 48]


def test_product_of_rational_sequences():
    rng = random.Random(31)
    for _ in range(6):
        s1, s2 = _rational_seq(rng, 2), _rational_seq(rng, rng.randint(1, 2))
        closure = lrs_product_poly([s1.char, s2.char])
        want = [x * y for x, y in zip(_window(s1, 40), _window(s2, 40))]
        prod = lrs_mul([s1, s2], closure)
        assert prod.char == closure and _window(prod, 40) == want
        bogus = Poly(QQ, [closure.coeff(0) + Fraction(1, 7), *closure.coeffs[1:]])
        with pytest.raises(AnnihilatorMismatch):
            lrs_mul([s1, s2], bogus)


def test_product_rejects_non_annihilator():
    bogus = Poly(QQ, [5, 1, 1])  # monic but wrong
    with pytest.raises(AnnihilatorMismatch):
        lrs_mul([_fib(), _fib()], bogus)


def test_product_of_complex_sequences():
    # (2i + (1 - i) 2^n) * i^n: roots i and 2i among the closure's +-i, +-2i
    s1 = LinRecSeq(Poly(CC, [2, -3, 1]), (1 + 1j, 2))
    s2 = LinRecSeq(Poly(CC, [1, 0, 1]), (1, 1j))
    closure = lrs_product_poly([s1.char, s2.char])
    assert closure.format() == "X^4 + 5X^2 + 4"
    prod = lrs_prefix(lrs_mul([s1, s2], closure), 20)
    want = [x * y for x, y in zip(lrs_prefix(s1, 20), lrs_prefix(s2, 20))]
    assert max(abs(x - y) for x, y in zip(prod, want)) <= 1e-12 * max(map(abs, want))
    least = lrs_min_annihilator(prod[:12])
    assert least.field == CC and least.format() == "X^2 + (-3i)X - 2"
    assert max(map(abs, (closure % least).coeffs), default=0.0) < 1e-12
    with pytest.raises(AnnihilatorMismatch):
        lrs_mul([s1, s2], Poly(CC, [4, 0, 5, 1e-3, 1]))


def test_min_annihilator_of_fibonacci_square():
    sq = lrs_mul([_fib(), _fib()], lrs_product_poly([_FIB_POLY, _FIB_POLY]))
    prefix = lrs_prefix(sq, 30)
    got = lrs_min_annihilator(prefix)
    assert got == Poly(QQ, [1, -2, -2, 1])


def test_min_annihilator_finds_smaller_degree():
    # the closure polynomial can be non-minimal: constant sequence from
    # a degree-2 recurrence
    seq = LinRecSeq(Poly(QQ, [1, -2, 1]), (3, 3))  # (X-1)^2, constant start
    prefix = lrs_prefix(seq, 20)
    assert lrs_min_annihilator(prefix) == Poly(QQ, [-1, 1])


def test_min_annihilator_needs_data():
    # six terms cap the searchable degree at 2, but the true minimal
    # annihilator of the squared sequence has degree 3
    with pytest.raises(InsufficientData):
        lrs_min_annihilator([0, 1, 1, 4, 9, 25])
    with pytest.raises(InsufficientData):
        lrs_min_annihilator([0, 1, 1, 4, 9, 25], CC)
    assert lrs_min_annihilator([1, 2, 4, 8, 16, 32, 64]) == Poly(QQ, [-2, 1])


def test_min_annihilator_prime_field():
    f5 = GF(5)
    fib5 = LinRecSeq(Poly(f5, [f5.coerce(-1), f5.coerce(-1), f5.one]),
                     (f5.coerce(0), f5.one))
    prefix = lrs_prefix(fib5, 24)
    got = lrs_min_annihilator(prefix)
    rem = [x for x in prefix]
    # verify annihilation over the whole prefix window
    d = got.degree
    for n in range(d, len(rem)):
        acc = f5.zero
        for i in range(d + 1):
            acc = acc + got.coeff(i) * rem[n - d + i]
        assert acc == f5.zero
    assert d <= 2


@given(st.sampled_from((QQ, GF(2), GF(3), GF(101))),
       st.lists(st.integers(-3, 3), min_size=1, max_size=6),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.integers(0, 20))
@example(QQ, [0], [0] * 6, 12)                   # all-zero prefix: X
@example(GF(3), [0, 1], [1, 1, 0, 0, 0, 0], 11)  # X divides P = X^2 + X
@example(GF(101), [2, -1, 3], [1, 0, 4, 0, 0, 0], 9)  # odd length
@example(QQ, [1, -2, -2], [0, 1, 1, 0, 0, 0], 6)  # L = dmax + 1 refuses
@example(GF(2), [1, 1, 0, 0], [1, 0, 0, 0, 0, 0], 9)  # L = dmax + 1 refuses
def test_min_annihilator_matches_hankel_oracle(field, lower, initials, count):
    # Berlekamp-Massey against one Hankel solve per candidate degree
    p = Poly(field, lower + [1])
    prefix = lrs_prefix(LinRecSeq(p, tuple(initials[:p.degree])), count)
    want = min_annihilator_hankel(prefix, field)
    if want is None:
        with pytest.raises(InsufficientData):
            lrs_min_annihilator(prefix, field)
    else:
        assert lrs_min_annihilator(prefix, field) == want


def test_min_annihilator_of_rational_terms_matches_hankel_oracle():
    # fraction-free Berlekamp-Massey on terms over one common denominator
    rng = random.Random(29)
    for _ in range(40):
        seq = _rational_seq(rng, rng.randint(1, 4), top=5)
        junk = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(10)]
        for prefix in (_window(seq, 2 * seq.char.degree + 1), _window(seq, 12), junk):
            want = min_annihilator_hankel(prefix, QQ)
            if want is None:
                with pytest.raises(InsufficientData):
                    lrs_min_annihilator(prefix)
            else:
                assert lrs_min_annihilator(prefix) == want


def test_numeric_sequence_annihilator():
    seq = [complex(2) ** n + complex(3) ** n for n in range(16)]
    got = lrs_min_annihilator(seq, CC)
    assert got.degree == 2
    want = Poly(CC, [6, -5, 1])
    assert all(abs(got.coeff(i) - want.coeff(i)) < 1e-7 for i in range(3))
    # 10^n + 1: the constant part is 1e-29 of the last term, far below a
    # tolerance taken from the largest term, but not below its own
    seq = [complex(10) ** n + 1 for n in range(30)]
    got = lrs_min_annihilator(seq, CC)
    want = Poly(CC, [10, -11, 1])
    assert got.degree == 2
    assert all(abs(got.coeff(i) - want.coeff(i)) < 1e-7 for i in range(3))


def test_prime_field_product_closure_sequence():
    f5 = GF(5)
    p5 = Poly(f5, [f5.coerce(-1), f5.coerce(-1), f5.one])
    fib5 = LinRecSeq(p5, (f5.coerce(0), f5.one))
    closure = lrs_product_poly([p5, p5])
    sq = lrs_mul([fib5, fib5], closure)
    fib = lrs_prefix(fib5, 20)
    assert lrs_prefix(sq, 20) == [x * x for x in fib]


def test_closure_polynomial_annihilates_companion_kron():
    # structural dual of the sequence check: the closure polynomial kills
    # the Kronecker product of the companion matrices
    p = lrs_product_poly([_FIB_POLY, _FIB_POLY])
    from pcanon.linalg import kron

    big = kron(companion(_FIB_POLY), companion(_FIB_POLY))
    assert matrix_poly(p, big).is_zero
