"""Dimension of products of unipotent binomial spans, three ways.

Every value is checked against two independent routes: a direct scan of
binomial coefficients in the target characteristic, and the exact rank
of the sampled product-sequence matrix.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import HorizonTooSmall, binom_span_bruteforce, wedge_lambda, wedge_oracle_dim
from pcanon.errors import PcanonError
from pcanon.wedge import WedgeContext, wedge, wedge_fold

_CHAR0 = WedgeContext(0)


def test_characteristic_zero_is_additive():
    for s in range(1, 13):
        for t in range(1, 13):
            assert wedge(s, t, _CHAR0) == s + t - 1
    assert wedge(0, 7, _CHAR0) == 0
    assert wedge(7, 0, _CHAR0) == 0


def test_exhaustive_triple_agreement_small_characteristics():
    for p in (2, 3, 5):
        ctx = WedgeContext(p)
        for s in range(1, 13):
            for t in range(1, 13):
                w = wedge(s, t, ctx)
                assert w == binom_span_bruteforce(s, t, p), (p, s, t)
                assert w == wedge_oracle_dim(s, t, ctx), (p, s, t)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_rule_matches_binomial_scan(p):
    ctx = WedgeContext(p)
    for s in range(41):
        for t in range(41):
            assert wedge(s, t, ctx) == binom_span_bruteforce(s, t, p), (s, t)


def test_digit_rule_at_large_orders():
    # 1999 = 11111001111 in base 2: the top digit carries, so every digit
    # reads 1 and the span is 2^11
    assert wedge(2000, 2000, WedgeContext(2)) == 2048
    assert wedge(10**12, 10**12, WedgeContext(2)) == 2**40


def test_oracle_matches_in_characteristic_zero():
    for s in range(1, 13):
        for t in range(1, 13):
            assert wedge_oracle_dim(s, t, _CHAR0) == s + t - 1


def test_characteristic_two_golden():
    ctx = WedgeContext(2)
    # no-carry additions only: 3 wedge 4 keeps i+j in {0,1,2,4,5}
    assert wedge(3, 4, ctx) == 4
    assert wedge(2, 2, ctx) == 2
    assert wedge(4, 4, ctx) == 4
    assert wedge(5, 5, ctx) == 8


@given(st.integers(0, 12), st.integers(0, 12),
       st.sampled_from([0, 2, 3, 5, 7]))
def test_wedge_is_commutative_and_bounded(s, t, p):
    ctx = WedgeContext(p)
    assert wedge(s, t, ctx) == wedge(t, s, ctx)
    if s and t:
        assert max(s, t) <= wedge(s, t, ctx) <= s + t - 1


def test_wedge_lambda_cases():
    assert wedge_lambda(3, 5, lambda_is_zero=True) == 3
    assert wedge_lambda(7, 2, lambda_is_zero=True) == 2
    assert wedge_lambda(3, 5, lambda_is_zero=False) == 3
    assert wedge_lambda(3, 0, lambda_is_zero=False) == 0
    assert wedge_lambda(0, 5, lambda_is_zero=True) == 0


def test_fold_is_left_associated():
    ctx = _CHAR0
    assert wedge_fold([2, 3, 4], ctx) == wedge(wedge(2, 3, ctx), 4, ctx) == 7
    assert wedge_fold([6], ctx) == 6
    ctx2 = WedgeContext(2)
    assert wedge_fold([3, 3, 3], ctx2) == wedge(wedge(3, 3, ctx2), 3, ctx2)


def test_oracle_needs_enough_horizon():
    with pytest.raises(HorizonTooSmall):
        wedge_oracle_dim(8, 8, _CHAR0, horizon=12)


@pytest.mark.parametrize("call", [lambda: wedge(-1, 2), lambda: wedge_fold([])],
                         ids=["negative-order", "fold-empty"])
def test_named_refusals(call):
    with pytest.raises(ValueError):
        call()


def test_context_validates_characteristic():
    with pytest.raises(PcanonError):
        WedgeContext(4)
    assert WedgeContext(7).characteristic == 7


def test_oracle_survives_large_binomials_mod_p():
    # binomial products overflow int64 well before s = t = 12; the rank
    # reduction must happen in the prime field, not in floating point.
    ctx = WedgeContext(3)
    assert wedge_oracle_dim(12, 12, ctx) == wedge(12, 12, ctx)
