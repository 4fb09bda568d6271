"""Square matrices over a scalar field and their spectral structure.

Provides exact matrix arithmetic, minimal polynomials by integer Krylov
chains (exact fields) or from scalar's `_spectrum`, which merges numpy's
eigenvalues and finds their indices by one rank rule (complex doubles),
and the spectral projections: the unique family of commuting idempotents
that resolves the identity and block-diagonalises the matrix by
generalised eigenspace, which pcf's `pcf_build` returns as the i = 0
coefficients of its P-canonical form. Over Q and F_p they are polynomials
in the matrix. Over C they are the oblique projectors onto invariant
subspaces, built in numpy from the eigenvectors of A and A^T (simple
eigenvalues) or the staircases of A - mu I, and checked before they are
returned: a resolution that misses the identity or idempotence by more
than tol, relative to the projections' size, raises ProjectionsInaccurate.

One function, `_eigendata`, gives a matrix's spectrum, t0 and the
(eigenvalue, index) pairs of the nonzero eigenvalues. Over Q and F_p it
runs on the plain integer coefficients of the monic minimal polynomial M
of S = den A (residues over F_p): the Krylov lcm of `_int_minpoly`, then
scalar's `_int_split` (squarefree part, Hensel or Cantor-Zassenhaus roots
nu, multiplicities by synthetic division), eigenvalues nu / den. Over C
it reads `_spectrum` directly.

Every matrix product goes through one kernel, `_product`, on the lifts
`_ints` of its factors: scalar's `_lift` (integers over one common
denominator over Q, residues over F_p), and over C the read-only complex
numpy array of the entries over 1. A matrix keeps its lift, taken on
first use unless `_of_ints` built the matrix from the lift of a product,
a weighted sum or an inverse, reduced; such a matrix builds its `.rows`
once, on first read, which no product, sum or evaluation makes (scalar's
`_drop` over Q and F_p, one `tolist` over C). Over Q and F_p `_product`
runs `_dots`, the one product loop on plain numbers, shared with the
Krylov step; over C one numpy complex matmul of the kept arrays, in
BLAS, through `_matmul`, as the chain products of `_complex_chains` do.
`_combine` forms every weighted sum sum_j W[r][j] M_j, `+`, `-` and
scalar `*` included, as one product of the weight rows, each M_j's
denominator folded in, with the flattened `_ints` of the M_j (over C
the stacked arrays); every closed-form evaluation in pcf and matfun is
one call of it. So every complex product, inverse and weighted sum
passes `_matmul`, the one refusal of an entry that is not finite, with
AnswerTooLarge.

The projections and the chains A^i pi_0, lambda^(-i) (A - lambda I)^i pi
of pcf and matfun have one entry, `_chains`, with one return shape for
every field: over Q and F_p one `_combine` of A's reduced powers A^0 ...
A^(d-1), over C numpy products (`_complex_chains`).

Row reduction has one implementation, the fraction-free echelon
`_eliminate` on plain integer rows (residues over F_p), shared by the
Krylov chains of the minimal polynomial and the exact `Matrix.inverse`.
It has one row format: an echelon is a list of (pivot, row) pairs, and a
row carries its combination after its first n entries, as [S | den I]
in the inverse and S^k e_j followed by the coefficients of its
combination of e_j, ..., S^k e_j in a Krylov chain.
"""
from __future__ import annotations

import itertools
import math
import sys
from bisect import insort
from fractions import Fraction
from functools import partial
from operator import mul

from .errors import (
    AnswerTooLarge,
    EmptyInput,
    MixedFields,
    NonSplitField,
    ProjectionsInaccurate,
    SingularMatrix,
)
from .scalar import (
    CC,
    Field,
    Poly,
    _check_char_poly,
    _convolve,
    _drop,
    _int_split,
    _lift,
    _long_division,
    _numpy_refusal,
    _powmod,
    _rescaled,
    _residue_gcd,
    _residue_rem,
    _spectrum,
    _staircase,
    _times_powers,
)


class Matrix:
    """Immutable square matrix over one Field; rows is a tuple of tuples."""

    __slots__ = ("field", "n", "_rows", "_lifted")

    def __init__(self, field: Field, rows):
        rs = tuple(tuple(field.coerce(e) for e in row) for row in rows)
        if not rs:
            raise EmptyInput("matrix needs at least one row")
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        self.field = field
        self.n = n
        self._rows = rs
        self._lifted = None  # `_ints` of the matrix

    @classmethod
    def _of(cls, field: Field, rows) -> "Matrix":
        """Matrix of rows of field elements the library computed itself:
        no coercion, no shape check."""
        m = cls.__new__(cls)
        m.field, m.n, m._rows, m._lifted = field, len(rows), tuple(map(tuple, rows)), None
        return m

    @property
    def rows(self) -> tuple:
        if self._rows is None:  # made by `_of_ints`: built once from the kept lift
            rows, den = self._lifted
            self._rows = tuple(map(tuple, _drop(self.field, rows, den) if self.field.exact
                                   else rows.tolist()))
        return self._rows

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
        if self.field.exact:
            return max(abs(e) for row in self.rows for e in row)
        import numpy as np  # on the kept array; hypot is Python's complex abs

        arr = _ints(self)[0]
        return float(np.hypot(arr.real, arr.imag).max())

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)))

    def to_field(self, field: Field) -> "Matrix":
        return Matrix._of(field, [[field.from_fraction(e) if isinstance(e, Fraction)
                                   else field.coerce(e) for e in row] for row in self.rows])

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        return _combine(self.field, self.n, [[self.field.one] * 2], [self, other])[0]

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        one = self.field.one
        return _combine(self.field, self.n, [[one, -one]], [self, other])[0]

    def __neg__(self) -> "Matrix":
        return _combine(self.field, self.n, [[-self.field.one]], [self])[0]

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            return _of_ints(self.field, *_product(self.field, _ints(self), _ints(other)))
        return _combine(self.field, self.n, [[self.field.coerce(other)]], [self])[0]

    __rmul__ = __mul__  # a scalar on the left: fields commute

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
        """A^-1, or SingularMatrix. Over Q and F_p the rows of [S | den I],
        S = den A from `_ints` (residues, den 1, over F_p), pass `_eliminate`
        forward, then back against later pivots: the row of pivot c ends as
        a e_c | B, B / a is row c of A^-1; over F_p each row is scaled to a = 1
        on its way into the echelon. Over C, `_complex_inverse`."""
        f, n = self.field, self.n
        if not f.exact:
            return _of_ints(f, _complex_inverse(_ints(self)[0]), 1)
        mod = f.char or None
        rows, den = _ints(self)
        echelon: list[tuple[int, list[int]]] = []
        for i, row in enumerate(rows):
            vec = row + [den if j == i else 0 for j in range(n)]
            _eliminate(vec, echelon, mod)
            piv = _first_nonzero(vec[:n])
            if piv is None:
                raise SingularMatrix("matrix is not invertible")
            if mod:
                inv = pow(vec[piv], -1, mod)
                vec = [x * inv % mod for x in vec]
            insort(echelon, (piv, vec))
        for c in range(n - 2, -1, -1):  # back substitution, last pivot first
            _eliminate(echelon[c][1], echelon[c + 1:], mod)
        common = math.lcm(*(vec[c] for c, vec in echelon))
        return _of_ints(f, [[x * (common // vec[c]) for x in vec[n:]]
                            for c, vec in echelon], common)

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


@_numpy_refusal
def _complex_inverse(arr):
    """Complex array of the inverse of the complex array arr from one SVD;
    SingularMatrix when sigma_min <= n eps sigma_max, the rank tolerance of
    numpy's matrix_rank."""
    import numpy as np

    u, sigma, vh = np.linalg.svd(arr)
    if sigma[-1] <= len(arr) * sys.float_info.epsilon * sigma[0]:
        raise SingularMatrix("matrix is numerically singular")
    with np.errstate(all="ignore"):
        scaled = vh.conj().T / sigma
    return _matmul(scaled, u.conj().T)


def _ints(m: Matrix):
    """(plain rows, den) of a matrix, kept on it; read-only: `_lift`'s over
    Q and F_p, over C the read-only complex array of the entries over 1."""
    if m._lifted is None:
        if m.field.exact:
            m._lifted = _lift(m.field, m.rows)
        else:
            import numpy as np

            arr = np.array(m.rows, dtype=complex)
            arr.flags.writeable = False
            m._lifted = arr, 1
    return m._lifted


def _of_ints(field: Field, rows, den: int) -> Matrix:
    """Matrix of plain rows over den, keeping them as its `_ints`, whose
    `.rows` are built on first read: over Q reduced by the gcd of den and
    the entries, den > 0; residues over 1 over F_p; over C an n x n complex
    array over 1, made read-only."""
    if not field.exact:
        rows.flags.writeable = False
    elif not field.char:
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        g = g if den > 0 else -g
        if g != 1:
            rows, den = [[x // g for x in row] for row in rows], den // g
    m = Matrix.__new__(Matrix)
    m.field, m.n, m._rows, m._lifted = field, len(rows), None, (rows, den)
    return m


def _product(field: Field, xs, ys):
    """Product of two rectangular blocks as `_ints`'s (plain rows, den) pairs,
    giving the product's pair: `_dots` over Q and F_p, one `_matmul` of the
    complex arrays over C."""
    (xs, dx), (ys, dy) = xs, ys
    if field.exact:
        return _dots(xs, list(zip(*ys)), field.char or None), dx * dy
    return _matmul(xs, ys), dx * dy


def _matmul(x, y):
    """The numpy product x @ y, refused with AnswerTooLarge when an entry is
    not finite: the one overflow check of complex products and weighted sums."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        out = x @ y
    if not np.isfinite(out).all():
        raise AnswerTooLarge("a complex result overflows a double")
    return out


def _dots(xs, cols, mod: int | None = None):
    """Rows of xs dotted with the columns in cols on plain numbers, mod `mod` if given."""
    if mod:
        return [[sum(map(mul, r, c)) % mod for c in cols] for r in xs]
    return [[sum(map(mul, r, c)) for c in cols] for r in xs]


def _combine(field: Field, n: int, weight_rows, mats) -> list[Matrix]:
    """sum_j W[r][j] M_j for every row r of the field weights W, as one
    `_product` of W with the flattened n x n matrices M_j, on the `_ints`
    S_j / den_j of each M_j, with den_j folded into its weights: the one
    kernel of every weighted sum, `+`, `-` and scalar `*` included. Over C
    the kept arrays are stacked, and each sum keeps its row of the product."""
    if not (weight_rows and mats):
        return [Matrix.zeros(field, n) for _ in weight_rows]
    lifted = [_ints(m) for m in mats]
    ws, dw = _lift(field, weight_rows)
    common = math.lcm(*(d for _, d in lifted))
    ws = [[w * (common // d) for w, (_, d) in zip(row, lifted)] for row in ws]
    if not field.exact:
        import numpy as np

        table = np.array([rows for rows, _ in lifted]).reshape(len(mats), n * n)
        flats, den = _product(field, (np.array(ws, dtype=complex), dw), (table, 1))
        return [_of_ints(field, f, den) for f in flats.reshape(-1, n, n)]
    table = [[*itertools.chain(*rows)] for rows, _ in lifted]
    flats, den = _product(field, (ws, dw * common), (table, 1))
    return [_of_ints(field, [f[i:i + n] for i in range(0, n * n, n)], den) for f in flats]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major block layout; coerced, so that a complex
    entry that overflows is refused with AnswerTooLarge."""
    if a.field != b.field:
        raise MixedFields(f"Kronecker factors over {a.field} and {b.field}")
    return Matrix(a.field, _kron_rows(a.rows, b.rows))


def _kron_rows(xs, ys):
    """Kronecker product of two square blocks of rows of any number type."""
    return [[x * y for x in rx for y in ry] for rx in xs for ry in ys]


def companion(p: Poly) -> Matrix:
    """Companion matrix of a monic polynomial of degree >= 1.

    Convention: ones on the subdiagonal, negated coefficients down the
    last column, so the matrix represents multiplication by X on the
    quotient ring F[X]/(p) in the power basis. Its minimal and
    characteristic polynomials both equal p.
    """
    _check_char_poly(p, "a companion matrix's polynomial")
    f, d = p.field, p.degree
    rows = [[f.zero] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = f.one
    for i in range(d):
        rows[i][d - 1] = rows[i][d - 1] - p.coeff(i)
    return Matrix(f, rows)


# ---------------------------------------------------------------------
# minimal polynomial, exact fields: integer Krylov chains
# ---------------------------------------------------------------------

def _first_nonzero(vec: list[int]) -> int | None:
    for i, x in enumerate(vec):
        if x:
            return i
    return None


def _eliminate(vec: list[int], rows: list, mod: int | None) -> None:
    """Reduce vec in place against an echelon of (pivot, row) pairs in
    increasing pivot order, kept by `insort` (pivots are distinct). A row
    carries its combination after its first n entries, and one stored at
    an earlier Krylov step is shorter: it reads 0 past its end. Over Z
    (mod None) a step is fraction-free, a vec - b row for the pivot
    entries a of row and b of vec, then vec over the gcd of its entries;
    over F_mod it subtracts (b / a) row on residues."""
    for piv, u in rows:
        b = vec[piv]
        if not b:
            continue
        if mod is None:
            a = u[piv]
            for i, y in enumerate(u):
                vec[i] = a * vec[i] - b * y
            for i in range(len(u), len(vec)):
                vec[i] *= a
            g = math.gcd(*vec)
            if g > 1:
                vec[:] = [x // g for x in vec]
        else:
            c = b * pow(u[piv], -1, mod) % mod
            for i, y in enumerate(u):
                vec[i] = (vec[i] - c * y) % mod


def _int_minpoly(int_rows: list[list[int]], mod: int | None) -> list[int]:
    """Minimal polynomial M of an integer matrix, exact over Z (mod None)
    or over F_mod, as ascending plain coefficients: monic and integral over
    Z, residues over F_mod.

    Per starting basis vector e_j, a Krylov chain is reduced against a
    local echelon basis. Its row at step k is S^k e_j followed by the
    coefficients of the combination of e_j, ..., S^k e_j it holds, so
    `_eliminate` tracks the combination with the vector; the next step
    multiplies the first n entries by S and shifts the tail. The first
    dependency leaves the first n entries zero, and the tail over its lead
    is that vector's annihilator g (exactly over Z, as g divides the monic
    integral characteristic polynomial). M is the least common multiple of
    the g: one that divides it so far leaves it, another multiplies it by
    g / gcd(M, g) (scalar's `_residue_gcd`). Basis vectors already inside
    the span swept so far are skipped, since their annihilators divide M.
    """
    n, p = len(int_rows), mod or 0
    divide = (lambda c: c % p) if p else (lambda c: c)
    glob: list[tuple[int, list[int]]] = []
    acc = [1]
    for start in range(n):
        if len(acc) > n or len(glob) == n:
            break
        probe = [int(i == start) for i in range(n)]
        _eliminate(probe, glob, mod)
        if _first_nonzero(probe) is None:
            continue
        local: list[tuple[int, list[int]]] = []
        vec = [int(i == start) for i in range(n)] + [1]
        while True:
            _eliminate(vec, local, mod)
            piv = _first_nonzero(vec[:n])
            if piv is None:
                break
            insort(local, (piv, vec))
            vec = _dots([vec[:n]], int_rows, mod)[0] + [0] + vec[n:]
        pol = vec[n:]
        g = [x * pow(pol[-1], -1, p) % p for x in pol] if p else [x // pol[-1] for x in pol]
        if _residue_rem(acc, g, p):
            common = _residue_gcd(acc, g, p)
            acc = [divide(x) for x in _convolve(acc, _long_division(g, common, divide))]
        for _, v in local:
            w = v[:n]
            _eliminate(w, glob, mod)
            piv = _first_nonzero(w)
            if piv is not None:
                insort(glob, (piv, w))
    return acc


def _minpoly_exact(f: Field, scaled, den: int) -> Poly:
    """Minimal polynomial over Q or F_p of `_ints`'s (scaled, den) of A."""
    return _rescaled(f, _int_minpoly(scaled, f.char or None), den)


# ---------------------------------------------------------------------
# spectra: t0 and the (eigenvalue, index) pairs of the nonzero eigenvalues
# ---------------------------------------------------------------------

def _numeric_spectrum(a: Matrix, tol: float):
    """(A's kept complex array from `_ints`, scalar's `_spectrum` of it)."""
    arr = _ints(a)[0]
    return arr, _spectrum(arr, tol)


def _eigendata(a: Matrix, tol: float):
    """(t0, [(eigenvalue, index), ...], lifted) of a matrix, nonzero
    eigenvalues in the field's order. Over Q and F_p, lifted is (den, M):
    the common denominator den of A from `_ints` (1 over F_p) and the monic
    integral minimal polynomial M of S = den A from `_int_minpoly`, whose
    split by scalar's `_int_split` gives the eigenvalues nu / den;
    NonSplitField, naming A's own minimal polynomial, when M does not
    split. Over C the spectrum is read off scalar's `_spectrum`, lifted
    None."""
    f = a.field
    if f.exact:
        rows, den = _ints(a)
        big = _int_minpoly(rows, f.char or None)
        t0, nz, rest = _int_split(f, big, den)
        if len(rest) > 1:
            raise NonSplitField(
                f"{_rescaled(f, big, den).format()} does not split over {f}")
        return t0, nz, (den, big)
    spectrum = _numeric_spectrum(a, tol)[1]
    return (next((t for mu, _, t, _ in spectrum if not mu), 0),
            [(mu, t) for mu, _, t, _ in spectrum if mu], None)


def minpoly(a: Matrix, tol: float = 1e-8) -> Poly:
    """Minimal polynomial: exact Krylov chains over Q and F_p; over C the
    product of (X - eigenvalue)^index, both read off the computed
    eigenvalues and the null-space staircase of A - mu I by scalar's
    `_spectrum`."""
    if a.field.exact:
        return _minpoly_exact(a.field, *_ints(a))
    t0, nz, _ = _eigendata(a, tol)
    return _times_powers(Poly.x(CC) ** t0, nz)


# ---------------------------------------------------------------------
# spectral projections
# ---------------------------------------------------------------------

def _chains(a: Matrix, tol: float):
    """(t0, [(eigenvalue, index), ...], nil, chains) of any matrix: nil is
    A^i pi_0 for i < t0; chains holds lambda^(-i) (A - lambda I)^i pi for
    i < t per nonzero eigenvalue lambda of index t, over C by `_complex_chains`.

    Over Q and F_p, S = den A has a monic integral minimal polynomial M, so
    nu = den lambda is an integer and lambda^-i (A - lambda I)^i pi =
    nu^-i (S - nu I)^i pi. For c = M / (Y - nu)^t, E = c(nu)^t - (c(nu) -
    c)^t is c(nu)^t mod (Y - nu)^t and 0 mod c, so E(S) = c(nu)^t pi.
    Matrix i, never zero as M is minimal, is (Y - nu)^i E mod M = sum_k
    e_k Y^k at S over nu^i c(nu)^t (den^i c(0)^t0 at nu = 0): the field
    weights e_k den^k / (nu^i c(nu)^t) of A's reduced powers A^0 ... A^(d-1),
    all chains one `_combine`.
    """
    f, n = a.field, a.n
    if not f.exact:
        return _complex_chains(*_numeric_spectrum(a, tol), tol)
    t0, nz, (den, big) = _eigendata(a, tol)
    p, d = f.char, len(big) - 1
    pairs = ([(0, t0)] if t0 else []) + [(mu.res if p else int(mu * den), t)
                                         for mu, t in nz]
    rem = partial(_residue_rem, p=p)
    weights = []
    for nu, t in pairs:
        c = big
        for _ in range(t):  # exact over Z; over F_p rem reduces it below
            c = _long_division(list(c), [-nu, 1], int)
        (cv,) = rem(c, [-nu, 1])
        e = [-x for x in _powmod([cv - c[0], *(-x for x in c[1:])], t, big, rem)] or [0]
        e[0] += cv ** t
        for i in range(t):
            below = (nu or den) ** i * cv ** t
            weights.append([f.from_fraction(Fraction(x * den ** k, below))
                            for k, x in enumerate(e)] + [f.zero] * (d - len(e)))
            e = rem(_convolve(e, [-nu, 1]), big)
    powers = [_of_ints(f, [[int(i == j) for j in range(n)] for i in range(n)], 1), a][:d]
    while len(powers) < d:
        powers.append(powers[-1] * a)
    mats = iter(_combine(f, n, weights, powers))
    chains = [[next(mats) for _ in range(t)] for _, t in pairs]
    return t0, nz, chains.pop(0) if t0 else [], chains


@_numpy_refusal
def _projectors(a, groups, tol: float):
    """Stacked numpy array of the spectral projections of the complex
    array a, one per `_spectrum` group (eigenvalue, size m, index,
    staircase or None), in order: pi = V (W^H V)^-1 W^H, V and W
    orthonormal bases of the right and left generalised eigenspaces
    (Golub & Van Loan, Matrix Computations, sec. 7.6). No polynomial in
    A is formed.

    A group of m = n is the identity. A group of m = 1 takes v and conj(w)
    from one eig of A and one of A^T: the eigenvectors of the eigenvalue
    nearest mu, which no other group may share. A larger group takes V
    from its staircase and W from the staircase of (A - mu I)^H with the
    same counts. On a real matrix the projection of conj(mu) is the exact
    conjugate of mu's. Raises ProjectionsInaccurate on a shared
    eigenvalue, or when ||sum pi - I||_F / max ||pi||_F or the largest
    ||pi^2 - pi||_F / ||pi||_F exceeds tol, both relative to the
    projections' size, as rounding is; V and W come from independent
    decompositions, so these are real tests.
    """
    import numpy as np

    n = len(a)
    eye = np.eye(n)
    out = np.empty((len(groups), n, n), dtype=complex)
    at = {mu: j for j, (mu, *_) in enumerate(groups)}
    real = not a.imag.any()
    mirror = {j: at[mu.conjugate()] for j, (mu, *_) in enumerate(groups)
              if real and mu.imag < 0 and mu.conjugate() in at}
    simple = [j for j, (_, m, *_) in enumerate(groups)
              if m == 1 < n and j not in mirror]
    if simple:
        mus = np.array([groups[j][0] for j in simple])
        picked = []
        for m in (a, a.T):
            values, vecs = np.linalg.eig(m.real if real else m)
            near = abs(values - mus[:, None]).argmin(1)
            if len(set(near.tolist())) < len(simple):
                raise ProjectionsInaccurate("two eigenvalues share an eigenvector")
            picked.append(vecs[:, near].T)
        v, w = picked
        out[simple] = v[:, :, None] * w[:, None, :] / (v * w).sum(1)[:, None, None]
    for j, (mu, m, _, stairs) in enumerate(groups):
        if m == n:
            out[j] = eye
        elif m > 1 and j not in mirror:
            b = a - mu * eye
            counts, v = stairs
            w = _staircase(b.conj().T, m, counts=counts)[1].conj().T
            out[j] = v @ np.linalg.solve(w @ v, w)
    for j, i in mirror.items():
        out[j] = out[i].conj()
    size = np.linalg.norm(out, axis=(1, 2))
    resolution = float(np.linalg.norm(out.sum(0) - eye) / size.max())
    idempotence = float((np.linalg.norm(out @ out - out, axis=(1, 2)) / size).max())
    if not (resolution <= tol and idempotence <= tol):
        raise ProjectionsInaccurate(
            f"spectral projections miss their checks at tol {tol:g}: "
            f"||sum pi - I|| / max ||pi|| = {resolution:.3g}, "
            f"max ||pi^2 - pi|| / ||pi|| = {idempotence:.3g}")
    return out


def _complex_chains(arr, spectrum, tol: float):
    """`_chains` over C from A's complex array and its `_spectrum`, with pi
    from `_projectors` and the products (A - lambda I)^i pi taken by
    `_matmul`, as `_product`'s are, each array kept by `_of_ints`. A
    nonzero lambda's products are scaled after they are taken, by one
    `_combine` with the diagonal weight block of the lambda^(-i): folding
    1/lambda into the step rounds its entries, which the cancellation in
    (A - lambda I)^i amplifies; the chain of lambda = 0 is not scaled.
    Each chain holds as many matrices as its group's staircase has steps,
    its index, even when a scaled matrix underflows to zero."""
    t0, nz, nil, chains = 0, [], [], []
    for (mu, _, t, _), pi in zip(spectrum, _projectors(arr, spectrum, tol)):
        coeffs = [_of_ints(CC, pi, 1)]
        if t > 1:
            step, chain = arr.copy(), pi
            step.flat[::len(arr) + 1] -= mu
            for _ in range(1, t):
                chain = _matmul(step, chain)
                coeffs.append(_of_ints(CC, chain, 1))
            if mu:
                scales = list(itertools.accumulate([1 / mu] * (t - 1), mul, initial=1))[1:]
                coeffs[1:] = _combine(CC, len(arr), [[s if i == j else 0 for j in range(t - 1)]
                                                     for i, s in enumerate(scales)], coeffs[1:])
        if mu:
            nz.append((mu, t))
            chains.append(coeffs)
        else:
            t0, nil = t, coeffs
    return t0, nz, nil, chains

