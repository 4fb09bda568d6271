"""Nilpotency-order arithmetic for termwise products of binomial sequences.

The sequences Lambda_i(k) = binom(k, i) for i < s span an s-dimensional
space closed under the shift; multiplying two such spaces termwise yields
another, whose dimension depends only on s, t, and the characteristic.
wedge computes that dimension from the base-p digits of s - 1 and t - 1
(by Kummer's criterion binom(i+j, i) is nonzero mod p exactly when adding
i and j carries nowhere), in O(log_p max(s, t)) steps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import PcanonError
from .scalar import is_prime


@dataclass(frozen=True)
class WedgeContext:
    """Carries the only field datum the wedge needs: the characteristic."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not is_prime(c):
            raise PcanonError(f"characteristic must be 0 or prime, got {c}")


def wedge(s: int, t: int, ctx: WedgeContext = WedgeContext(0)) -> int:
    """Dimension of the termwise product of binomial spaces of dims s, t.

    Zero absorbs: s or t zero gives 0. In characteristic 0 the answer is
    s + t - 1; in characteristic p it is the largest i + j + 1 over i < s,
    j < t whose base-p addition carries nowhere. Walking the digits of
    a = s - 1 and b = t - 1 upwards, a digit with a_k + b_k < p reads
    a_k + b_k, and one with a_k + b_k >= p makes it and every digit below
    read p - 1 (there one of i, j drops below its bound, so it can top
    up every lower digit of i + j to p - 1).
    """
    if s < 0 or t < 0:
        raise ValueError("wedge arguments must be nonnegative")
    if s == 0 or t == 0:
        return 0
    p = ctx.characteristic
    if p == 0:
        return s + t - 1
    a, b, unit, best = s - 1, t - 1, 1, 0
    while a or b:
        digit = a % p + b % p
        best = unit * p - 1 if digit >= p else best + digit * unit
        a, b, unit = a // p, b // p, unit * p
    return best + 1


def wedge_fold(orders, ctx: WedgeContext = WedgeContext(0)) -> int:
    """Left-to-right fold of wedge over a nonempty sequence of orders."""
    items = list(orders)
    if not items:
        raise ValueError("wedge_fold needs at least one order")
    return reduce(lambda a, b: wedge(a, b, ctx), items)

