"""Minimal polynomials of Kronecker products, computed two ways.

The symbolic route works purely on eigenvalue data: each factor is
reduced to its spectrum-with-indices (linalg's `_eigendata`), and the
nonzero eigenvalues are folded in one factor at a time into a table from
product value to the largest iterated wedge of the indices; each class
contributes (X - product) raised to that exponent, and a separate rule
gives the exponent of X from the zero eigenvalues. The direct route
takes the minimal polynomial of the Kronecker product, up to order
DIRECT_ORDER_LIMIT, over Q and F_p from the factors' lifted integer rows
with no Matrix built; it is the oracle the symbolic route is tested
against, and the fallback when a factor's spectrum does not split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .errors import EmptyInput, MixedFields, NonSplitField, OrderTooLarge, PcanonError
from .linalg import (Matrix, _eigendata, _ints, _kron_rows, _minpoly_exact, companion,
                     kron, minpoly)
from .scalar import (CLUSTER_TOL, Field, Poly, _check_char_poly, _linked, _times_powers,
                     poly_factor)
from .wedge import WedgeContext, wedge

#: Kronecker orders past this are rejected rather than ground through
DIRECT_ORDER_LIMIT = 4096


@dataclass(frozen=True)
class EigSpec:
    """Spectrum of one factor: index of zero plus (eigenvalue, index) pairs.

    Equivalent to the factorisation of a minimal polynomial as
    X^zero_index * product of (X - value)^index with distinct nonzero
    values, i.e. it forgets everything about a matrix except what the
    Kronecker composition rules consume. tol is the relative tolerance the
    spectrum was read at; over C products of eigenvalues merge at the
    largest tol of the factors (`product_class_table`), over Q and F_p it
    is not read.
    """

    field: Field
    zero_index: int
    nonzero: tuple
    tol: float = CLUSTER_TOL

    @property
    def is_nilpotent(self) -> bool:
        return not self.nonzero


def eig_spec_of_poly(p: Poly, tol: float = CLUSTER_TOL) -> EigSpec:
    """Spectrum of a monic polynomial; NonSplitField when linear factors
    do not exhaust it over an exact field."""
    _check_char_poly(p, "an eigenvalue spectrum's polynomial")
    f = p.field
    fact = poly_factor(p, tol)
    if fact.remainder.degree > 0:
        raise NonSplitField(f"{p.format()} does not split over {f}")
    return EigSpec(field=f,
                   zero_index=next((m for r, m in fact.roots if f.is_zero(r)), 0),
                   nonzero=tuple((r, m) for r, m in fact.roots if not f.is_zero(r)),
                   tol=tol)


def eig_spec_of_matrix(a: Matrix, tol: float = CLUSTER_TOL) -> EigSpec:
    """Spectrum of a matrix, as `pcf_build` finds it: over Q and F_p
    from its minimal polynomial, NonSplitField when that does not split;
    over C from its eigenvalues, with no polynomial formed."""
    zero, nonzero, _ = _eigendata(a, tol)
    return EigSpec(field=a.field, zero_index=zero, nonzero=tuple(nonzero), tol=tol)


@dataclass(frozen=True)
class ProductClassTable:
    """Products of eigenvalue tuples grouped by value, with the exponent
    each class contributes: the maximum left-folded wedge of the indices."""

    field: Field
    entries: tuple  # ((product value, exponent), ...) in canonical order

    def poly(self) -> Poly:
        return _times_powers(Poly.one(self.field), self.entries)


def _merge_classes(items, f: Field, tol: float) -> list:
    """(value, exponent) pairs with equal values merged, keeping the larger
    exponent: exact equality, or over complex doubles single linkage at
    relative tolerance tol (scalar's `_linked`), where a class takes the
    mean of its members."""
    top: dict = {}
    for value, e in items:
        if e > top.get(value, 0):
            top[value] = e
    if f.exact:
        return list(top.items())
    return [(sum(g) / len(g), max(top.get(v, 0) for v in g))
            for g in _linked([v for v, _ in items], tol)]


def product_class_table(specs, ctx: WedgeContext | None = None) -> ProductClassTable:
    """Products of nonzero eigenvalues across the factors, grouped by value,
    with the largest left-folded wedge of the indices per class.

    Folds one factor at a time: each class (value, e) of the factors so
    far meets each (eigenvalue, index) of the next as (value * eigenvalue,
    wedge(e, index)), and equal products merge. wedge is monotone in each
    argument, so this keeps the maximum over every tuple of eigenvalues
    while each step costs classes x spectrum size. Over C products are
    equal when linked at the largest tol the spectra were read at. ctx
    defaults to the field's characteristic and must match it.
    """
    specs = list(specs)
    if not specs:
        raise EmptyInput("need at least one spectrum")
    f = specs[0].field
    for s in specs:
        if s.field != f:
            raise MixedFields(f"spectra over {f} and {s.field}")
    if ctx is None:
        ctx = WedgeContext(f.char)
    elif ctx.characteristic != f.char:
        raise PcanonError(
            f"wedge characteristic {ctx.characteristic} does not match field {f}")
    tol = max(s.tol for s in specs)
    acc = _merge_classes(specs[0].nonzero, f, tol)
    for spec in specs[1:]:
        acc = _merge_classes([(value * v, wedge(e, index, ctx))
                              for value, e in acc for v, index in spec.nonzero], f, tol)
    acc.sort(key=lambda t: f.sort_key(t[0]))
    return ProductClassTable(field=f, entries=tuple(acc))


def kron_minpoly_symbolic(specs) -> Poly:
    """Minimal polynomial of a Kronecker product from factor spectra alone.

    X^rho times the product-class polynomial, wedges in the field's
    characteristic, where rho is: the smallest zero index among
    pure-nilpotent factors if any factor is nilpotent (such a factor
    annihilates the whole product, and leaves the class table empty);
    otherwise 0 when no factor is singular; otherwise the largest zero
    index across factors (a singular factor's zero block, paired with any
    nonzero eigenvalue elsewhere, keeps its full nilpotency order).
    """
    specs = list(specs)
    table = product_class_table(specs)
    nilpotent = [s.zero_index for s in specs if s.is_nilpotent]
    rho = min(nilpotent) if nilpotent else max(s.zero_index for s in specs)
    return Poly.x(table.field) ** rho * table.poly()


def kron_minpoly_direct(mats) -> Poly:
    """Oracle: minimal polynomial of the actual Kronecker product matrix,
    over Q and F_p of the factors' lifted integer rows, no Matrix built."""
    mats = list(mats)
    if not mats:
        raise EmptyInput("need at least one matrix")
    total = 1
    for m in mats:
        total *= m.n
    if total > DIRECT_ORDER_LIMIT:
        raise OrderTooLarge(
            f"Kronecker order {total} exceeds {DIRECT_ORDER_LIMIT}")
    f = mats[0].field
    if not f.exact or any(m.field != f for m in mats):
        return minpoly(reduce(kron, mats))  # kron refuses mixed fields
    rows, dens = zip(*(_ints(m) for m in mats))
    return _minpoly_exact(f, reduce(_kron_rows, rows), math.prod(dens))


def lrs_product_poly(polys) -> Poly:
    """Characteristic polynomial closing termwise products of recurrence
    sequences: every product of sequences annihilated by the given monic
    polynomials is annihilated by the result.

    Uses the symbolic spectrum route, with wedges in the field's
    characteristic, when every factor splits over its field; otherwise
    computes the minimal polynomial of the Kronecker product of the
    companion matrices directly, which raises OrderTooLarge when the
    product of the degrees exceeds DIRECT_ORDER_LIMIT.
    """
    polys = list(polys)
    if not polys:
        raise EmptyInput("need at least one polynomial")
    f = polys[0].field
    for p in polys:
        if p.field != f:
            raise MixedFields(f"polynomials over {f} and {p.field}")
        _check_char_poly(p, "a product-closure factor")
    try:
        specs = [eig_spec_of_poly(p) for p in polys]
    except NonSplitField:
        return kron_minpoly_direct([companion(p) for p in polys])
    return kron_minpoly_symbolic(specs)
