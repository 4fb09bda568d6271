"""Nilpotency-order arithmetic for termwise products of binomial sequences.

The sequences Lambda_i(k) = binom(k, i) for i < s span an s-dimensional
space closed under the shift; multiplying two such spaces termwise yields
another, whose dimension depends only on s, t, and the characteristic.
wedge computes that dimension combinatorially (no-carry base-p addition,
per Kummer's criterion for binom(i+j, i) mod p); wedge_oracle_dim
recomputes it independently as the rank of an explicit value matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .errors import HorizonTooSmall, PcanonError
from .linalg import _rank_int
from .scalar import is_prime


@dataclass(frozen=True)
class WedgeContext:
    """Carries the only field datum the wedge needs: the characteristic."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not is_prime(c):
            raise PcanonError(f"characteristic must be 0 or prime, got {c}")


def _no_carry(i: int, j: int, p: int) -> bool:
    while i or j:
        if i % p + j % p >= p:
            return False
        i //= p
        j //= p
    return True


def wedge(s: int, t: int, ctx: WedgeContext = WedgeContext(0)) -> int:
    """Dimension of the termwise product of binomial spaces of dims s, t.

    Zero absorbs: s or t zero gives 0. In characteristic 0 the answer is
    s + t - 1; in characteristic p it is the largest i + j + 1 over i < s,
    j < t whose base-p addition carries nowhere.
    """
    if s < 0 or t < 0:
        raise ValueError("wedge arguments must be nonnegative")
    if s == 0 or t == 0:
        return 0
    p = ctx.characteristic
    if p == 0:
        return s + t - 1
    best = 0
    for i in range(s):
        for j in range(t):
            if i + j + 1 > best and _no_carry(i, j, p):
                best = i + j + 1
    return best


def wedge_lambda(t: int, s: int, lambda_is_zero: bool) -> int:
    """Dimension rule for multiplying a pure-shift space of dimension t by
    a geometric-times-binomial space of dimension s with ratio lambda:
    min(t, s) when lambda = 0, else t when s > 0, else 0."""
    if t < 0 or s < 0:
        raise ValueError("wedge_lambda arguments must be nonnegative")
    if lambda_is_zero:
        return min(t, s)
    return t if s != 0 else 0


def wedge_fold(orders, ctx: WedgeContext = WedgeContext(0)) -> int:
    """Left-to-right fold of wedge over a nonempty sequence of orders."""
    items = list(orders)
    if not items:
        raise ValueError("wedge_fold needs at least one order")
    return reduce(lambda a, b: wedge(a, b, ctx), items)


def wedge_oracle_dim(s: int, t: int, ctx: WedgeContext = WedgeContext(0),
                     horizon: int = 32) -> int:
    """Independent recomputation of wedge(s, t) as a matrix rank.

    Builds the (s*t) x horizon matrix whose rows sample the termwise
    products binom(k, a) * binom(k, b) for a < s, b < t, k < horizon, and
    returns its exact rank over Q or F_p. The horizon must be at least
    s + t + 2 so no dimension is truncated away.
    """
    if s < 0 or t < 0:
        raise ValueError("oracle arguments must be nonnegative")
    if horizon < s + t + 2:
        raise HorizonTooSmall(
            f"horizon {horizon} < s + t + 2 = {s + t + 2}")
    if s == 0 or t == 0:
        return 0
    rows = [[math.comb(k, a) * math.comb(k, b) for k in range(horizon)]
            for a in range(s) for b in range(t)]
    return _rank_int(rows, ctx.characteristic or None)
