"""Square matrices over a scalar field and their spectral structure.

Provides exact matrix arithmetic, a division-free characteristic
polynomial, minimal polynomials by integer Krylov chains (exact fields)
or from scalar's `_spectrum`, which merges numpy's eigenvalues and finds
their indices by one rank rule (complex doubles), and the spectral
projections: the unique family of commuting idempotents that resolves
the identity and block-diagonalises the matrix by generalised
eigenspace.

Products run on lifted rows: scalar's `_lift` turns entries into plain
numbers (integers over one common denominator over Q, residues over F_p,
the entries themselves over C) and `_drop` turns results back; only these
two know the field, and `Poly` arithmetic uses them too.
`spectral_projections` builds one power table A^0 ... A^(d-1) per call
and combines every projection from it.

Row reduction has two implementations, one per row storage. Rows of field
elements go through `_row_reduce`, the Gauss-Jordan elimination behind
`Matrix.inverse`. Rows of plain integers, over Q or F_p, go through the
Krylov echelon `_eliminate`, used by the minimal polynomial and by
`_rank_int` for the wedge oracle. `_eliminate` stays separate: it is
fraction-free, carries a tracking polynomial and does no back
substitution, so folding it into `_row_reduce` would make the shared
code branch on its caller.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    EmptyInput,
    DegreeZero,
    MixedFields,
    NonMonic,
    NonSplitField,
    SingularMatrix,
)
from .scalar import (
    CC,
    GF,
    QQ,
    Field,
    Poly,
    PrimeField,
    _convolve,
    _drop,
    _lift,
    _spectrum,
    _times_powers,
    poly_factor,
    poly_lcm,
    series_inverse,
)


class Matrix:
    """Immutable square matrix over one Field; rows is a tuple of tuples."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows):
        rs = tuple(tuple(field.coerce(e) for e in row) for row in rows)
        if not rs:
            raise EmptyInput("matrix needs at least one row")
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        self.field = field
        self.n = n
        self.rows = rs

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, field: Field, values) -> "Matrix":
        vs = list(values)
        n = len(vs)
        return cls(field, [[vs[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def jordan_block(cls, field: Field, size: int, value) -> "Matrix":
        v = field.coerce(value)
        return cls(field, [[v if i == j else (1 if j == i + 1 else 0)
                            for j in range(size)] for i in range(size)])

    @classmethod
    def upper_toeplitz(cls, field: Field, first_row) -> "Matrix":
        """Upper-triangular Toeplitz matrix: entry (i, j) = first_row[j - i]."""
        fr = [field.coerce(e) for e in first_row]
        n = len(fr)
        return cls(field, [[fr[j - i] if j >= i else 0 for j in range(n)]
                           for i in range(n)])

    # -- structure ----------------------------------------------------
    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise MixedFields(f"matrices over {self.field} and {other.field}")
        if self.n != other.n:
            raise ValueError(f"matrix orders {self.n} and {other.n} differ")

    @property
    def is_zero(self) -> bool:
        return all(self.field.is_zero(e) for row in self.rows for e in row)

    @property
    def trace(self):
        t = self.field.zero
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def maxnorm(self):
        """Largest absolute value of an entry (characteristic-zero fields)."""
        return max(abs(e) for row in self.rows for e in row)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)))

    def to_field(self, field: Field) -> "Matrix":
        def conv(e):
            if isinstance(e, Fraction):
                return field.from_fraction(e)
            return field.coerce(e)

        return Matrix(field, [[conv(e) for e in row] for row in self.rows])

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        return Matrix(self.field, [[a + b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        return Matrix(self.field, [[a - b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-e for e in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            return Matrix(self.field,
                          _product(self.field, self.rows, other.rows))
        c = self.field.coerce(other)
        return Matrix(self.field, [[c * e for e in row] for row in self.rows])

    def __rmul__(self, other):
        c = self.field.coerce(other)
        return Matrix(self.field, [[c * e for e in row] for row in self.rows])

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse() ** (-k)
        r = Matrix.identity(self.field, self.n)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def inverse(self) -> "Matrix":
        f, n = self.field, self.n
        aug = [list(row) + [f.one if i == j else f.zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        # over C a pivot below n * machine epsilon * the largest entry is
        # rounding noise, the rank tolerance numpy's matrix_rank uses
        eps = 0.0 if f.exact else n * sys.float_info.epsilon * self.maxnorm()
        rows, pivots = _row_reduce(aug, n, f, eps)
        if len(pivots) < n:
            raise SingularMatrix("matrix is not invertible")
        return Matrix(f, [row[n:] for row in rows])

    # -- display ------------------------------------------------------
    def format(self) -> str:
        cells = [[self.field.format(e) for e in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]"
                         for row in cells)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(e) for e in row)
                         for row in self.rows)
        return f"Matrix[{self.field}]({body})"


def _row_reduce(rows, ncols: int, field: Field, eps: float = 0.0):
    """Gauss-Jordan elimination of field rows on their first ncols columns.

    Returns (rows, pivots): the reduced copy of the rows, whose row i has a
    leading one in column pivots[i] and zeros above and below it, and the
    pivot columns in increasing order. Exact fields pivot on the first
    nonzero entry. Over C the entry of largest modulus is the pivot, and a
    column whose largest entry is <= eps gets none.
    """
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if field.exact:
            piv = next((i for i in range(r, len(work))
                        if not field.is_zero(work[i][c])), None)
        else:
            piv = max(range(r, len(work)), key=lambda i: abs(work[i][c]),
                      default=None)
            if piv is not None and abs(work[piv][c]) <= eps:
                piv = None
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.one / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and not field.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def _product(field: Field, xs, ys):
    """Product of two rectangular blocks of field rows, on lifted rows."""
    xs, dx = _lift(field, xs)
    ys, dy = _lift(field, ys)
    cols = list(zip(*ys))
    return _drop(field, [[sum(map(mul, r, c)) for c in cols] for r in xs],
                 dx * dy)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major block layout."""
    if a.field != b.field:
        raise MixedFields(f"Kronecker factors over {a.field} and {b.field}")
    m = b.n
    out = []
    for i in range(a.n):
        for k in range(m):
            row = []
            for j in range(a.n):
                aij = a.rows[i][j]
                row.extend(aij * b.rows[k][l] for l in range(m))
            out.append(row)
    return Matrix(a.field, out)


def companion(p: Poly) -> Matrix:
    """Companion matrix of a monic polynomial of degree >= 1.

    Convention: ones on the subdiagonal, negated coefficients down the
    last column, so the matrix represents multiplication by X on the
    quotient ring F[X]/(p) in the power basis. Its minimal and
    characteristic polynomials both equal p.
    """
    if p.is_zero or not p.is_monic:
        raise NonMonic("companion matrix needs a monic polynomial")
    d = p.degree
    if d == 0:
        raise DegreeZero("companion matrix needs degree >= 1")
    f = p.field
    rows = [[f.zero] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = f.one
    for i in range(d):
        rows[i][d - 1] = rows[i][d - 1] - p.coeff(i)
    return Matrix(f, rows)


def matrix_poly(p: Poly, a: Matrix) -> Matrix:
    """Evaluate a polynomial at a matrix (Horner)."""
    if p.field != a.field:
        raise MixedFields(f"polynomial over {p.field}, matrix over {a.field}")
    acc = Matrix.zeros(a.field, a.n)
    ident = Matrix.identity(a.field, a.n)
    for c in reversed(p.coeffs):
        acc = acc * a + ident * c
    return acc


def char_poly(a: Matrix) -> Poly:
    """Characteristic polynomial det(X*I - A), monic, by the division-free
    Samuelson-Berkowitz recursion (exact over any field, no pivoting)."""
    f, n = a.field, a.n
    c = [f.one]  # descending coefficients for the leading r x r block
    for r in range(1, n + 1):
        corner = a.rows[r - 1][r - 1]
        rowv = a.rows[r - 1][:r - 1]
        colv = [a.rows[i][r - 1] for i in range(r - 1)]
        q = [f.one, -corner]
        w = colv
        for k in range(r - 1):
            q.append(-sum(map(mul, rowv, w), f.zero))
            if k < r - 2:
                w = [sum(map(mul, a.rows[i][:r - 1], w), f.zero)
                     for i in range(r - 1)]
        c = _convolve(q, c)[:r + 1]
    return Poly(f, list(reversed(c)))


# ---------------------------------------------------------------------
# minimal polynomial, exact fields: integer Krylov chains
# ---------------------------------------------------------------------

def _first_nonzero(vec: list[int]) -> int | None:
    for i, x in enumerate(vec):
        if x:
            return i
    return None


def _content_normalize(vec: list[int], pol: list[int]) -> None:
    """Divide vector and tracking polynomial jointly by their gcd, in place."""
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    for x in pol:
        g = math.gcd(g, x)
    if g > 1:
        for i, x in enumerate(vec):
            vec[i] = x // g
        for i, x in enumerate(pol):
            pol[i] = x // g


def _eliminate(vec: list[int], pol: list[int] | None,
               rows: list, mod: int | None) -> None:
    """Reduce vec (and its tracking polynomial) against echelon rows in
    increasing pivot order, in place. Rows are (pivot, vec[, pol]) tuples."""
    for entry in rows:
        piv, u = entry[0], entry[1]
        b = vec[piv]
        if not b:
            continue
        r = entry[2] if pol is not None else None
        if mod is None:
            aa = u[piv]
            for i, x in enumerate(vec):
                vec[i] = aa * x - b * u[i]
            if pol is not None:
                if len(pol) < len(r):
                    pol.extend([0] * (len(r) - len(pol)))
                for i in range(len(pol)):
                    pol[i] = aa * pol[i] - b * (r[i] if i < len(r) else 0)
            _content_normalize(vec, pol if pol is not None else [])
        else:
            c = b * pow(u[piv], -1, mod) % mod
            for i, x in enumerate(vec):
                vec[i] = (x - c * u[i]) % mod
            if pol is not None:
                if len(pol) < len(r):
                    pol.extend([0] * (len(r) - len(pol)))
                for i in range(len(pol)):
                    pol[i] = (pol[i] - c * (r[i] if i < len(r) else 0)) % mod


def _insert_row(rows: list, entry) -> None:
    piv = entry[0]
    at = next((k for k, e in enumerate(rows) if e[0] > piv), len(rows))
    rows.insert(at, entry)


def _rank_int(rows: list[list[int]], mod: int | None) -> int:
    """Rank of an integer matrix over Q (mod None) or over F_mod."""
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        vec = list(row) if mod is None else [x % mod for x in row]
        _eliminate(vec, None, echelon, mod)
        piv = _first_nonzero(vec)
        if piv is not None:
            _insert_row(echelon, (piv, vec))
    return len(echelon)


def _int_minpoly(int_rows: list[list[int]], mod: int | None) -> Poly:
    """Minimal polynomial of an integer matrix, exact over Z (mod None,
    result over Q with integer coefficients) or over F_mod.

    Per starting basis vector, a Krylov chain is reduced against a local
    echelon basis while a companion polynomial records the combination;
    the first dependency yields that vector's exact annihilator, and the
    answer is the least common multiple across starting vectors. Basis
    vectors already inside the span swept so far are skipped, since their
    annihilators divide the running lcm.
    """
    n = len(int_rows)
    field = QQ if mod is None else GF(mod)
    glob: list[tuple[int, list[int]]] = []
    acc = Poly.one(field)
    rank = 0
    for start in range(n):
        if acc.degree == n or rank == n:
            break
        probe = [0] * n
        probe[start] = 1
        _eliminate(probe, None, glob, mod)
        if _first_nonzero(probe) is None:
            continue
        local: list[tuple[int, list[int], list[int]]] = []
        vec = [0] * n
        vec[start] = 1
        pol = [1]
        while True:
            _eliminate(vec, pol, local, mod)
            piv = _first_nonzero(vec)
            if piv is None:
                break
            _insert_row(local, (piv, vec, pol))
            nxt = [sum(map(mul, row, vec)) for row in int_rows]
            if mod is not None:
                nxt = [x % mod for x in nxt]
            vec, pol = nxt, [0] + pol
        local_min = Poly(field, pol).monic()
        acc = poly_lcm(acc, local_min)
        for _, v, _p in local:
            w = list(v)
            _eliminate(w, None, glob, mod)
            piv = _first_nonzero(w)
            if piv is not None:
                if mod is None:
                    _content_normalize(w, [])
                _insert_row(glob, (piv, w))
                rank += 1
    return acc


def _minpoly_exact(a: Matrix) -> Poly:
    f = a.field
    if not f.exact:
        raise MixedFields(f"exact minimal polynomial over {f} is not supported")
    scaled, den = _lift(f, a.rows)
    if isinstance(f, PrimeField):
        return _int_minpoly(scaled, f.char)
    mb = _int_minpoly(scaled, None)
    if den == 1:
        return mb
    d = mb.degree
    # minpoly of A recovered from minpoly of den*A by X -> den*X rescaling
    return Poly(QQ, [mb.coeff(i) / Fraction(den) ** (d - i) for i in range(d + 1)])


# ---------------------------------------------------------------------
# numeric spectra: eigenvalues and indices from scalar's `_spectrum`
# ---------------------------------------------------------------------

def _numeric_eigendata(a: Matrix, tol: float):
    """(t0, [(eigenvalue, index), ...], minimal polynomial) over C."""
    spectrum = _spectrum(a.rows, tol)
    t0 = next((t for mu, _, t in spectrum if not mu), 0)
    nz = [(mu, t) for mu, _, t in spectrum if mu]
    return t0, nz, _times_powers(Poly.x(CC) ** t0, nz)


def minpoly(a: Matrix, tol: float = 1e-8) -> Poly:
    """Minimal polynomial: exact Krylov chains over Q and F_p; over C the
    product of (X - eigenvalue)^index, both read off the computed
    eigenvalues and the null-space staircase of A - mu I by scalar's
    `_spectrum`."""
    if a.field.exact:
        return _minpoly_exact(a)
    return _numeric_eigendata(a, tol)[2]


# ---------------------------------------------------------------------
# spectral projections
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class EigenComponent:
    """One nonzero eigenvalue with its index and spectral projection."""

    value: object
    index: int
    projection: Matrix


@dataclass(frozen=True)
class SpectralData:
    """Resolution of a matrix into commuting spectral projections.

    t0 is the index of the eigenvalue zero (0 when the matrix is
    invertible), zero_projection the projection onto its generalised
    eigenspace (the zero matrix when t0 == 0), and components lists the
    nonzero eigenvalues in the field's canonical order. The projections
    together with the zero one sum to the identity, are pairwise
    annihilating idempotents, and commute with the matrix.
    """

    field: Field
    order: int
    minimal_polynomial: Poly
    t0: int
    zero_projection: Matrix
    components: tuple[EigenComponent, ...]

    @property
    def all_projections(self) -> list[Matrix]:
        out = [self.zero_projection] if self.t0 else []
        out.extend(c.projection for c in self.components)
        return out


def spectral_projections(a: Matrix, pairs) -> list[Matrix]:
    """Projections onto generalised eigenspaces, one per (eigenvalue,
    exponent) pair; the pairs must cover the minimal polynomial exactly.

    Each projection is a polynomial in the matrix, produced by partial
    fractions: invert the complementary factor as a power series around
    the eigenvalue, truncate at the exponent, and reduce modulo the
    minimal polynomial. The powers A^0 ... A^(d-1) are computed once and
    every projection is combined from them, the last one included:
    taking it as I minus the others loses accuracy over C.
    """
    f, n = a.field, a.n
    pairs = [(f.coerce(mu), t) for mu, t in pairs]
    mp = _times_powers(Poly.one(f), pairs)
    d = mp.degree
    powers = [Matrix.identity(f, n), a][:d]
    while len(powers) < d:
        powers.append(powers[-1] * a)
    coeffs = []
    for mu, t in pairs:
        cofactor = mp // Poly(f, (-mu, 1)) ** t
        inv = series_inverse(cofactor.shifted(mu), t).shifted(-mu)
        reduced = (inv * cofactor) % mp
        coeffs.append([reduced.coeff(i) for i in range(d)])
    table = [[e for row in p.rows for e in row] for p in powers]
    return [Matrix(f, [flat[i:i + n] for i in range(0, n * n, n)])
            for flat in _product(f, coeffs, table)]


def spectral_data(a: Matrix, tol: float = 1e-8) -> SpectralData:
    """Full spectral resolution; raises NonSplitField when the minimal
    polynomial has an irreducible factor of degree > 1 over an exact field."""
    f = a.field
    if f.exact:
        mp = _minpoly_exact(a)
        fact = poly_factor(mp)
        if fact.remainder.degree > 0:
            raise NonSplitField(
                f"minimal polynomial {mp.format()} does not split over {f}")
        t0 = 0
        nz = []
        for root, mult in fact.roots:
            if f.is_zero(root):
                t0 = mult
            else:
                nz.append((root, mult))
    else:
        t0, nz, mp = _numeric_eigendata(a, tol)
    pairs = ([(f.zero, t0)] if t0 else []) + nz
    projs = spectral_projections(a, pairs)
    if t0:
        zero_proj, rest = projs[0], projs[1:]
    else:
        zero_proj, rest = Matrix.zeros(f, a.n), projs
    comps = tuple(EigenComponent(mu, t, pi)
                  for (mu, t), pi in zip(nz, rest))
    return SpectralData(field=f, order=a.n, minimal_polynomial=mp, t0=t0,
                        zero_projection=zero_proj, components=comps)
