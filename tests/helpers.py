"""Shared oracles and matrix builders for the test suite.

Everything here is deliberately independent of the code under test:
the exponential oracle is plain scaling-and-squaring on a truncated
series, the exact canonical-form oracle builds its power table, chains
and scalings from Matrix products (`pcf_build_by_products`), the complex
chains (A - lambda I)^i pi that e^(tA) and log A weight come from Matrix
products on the projections of a form (`chains_by_products` on
`projections`), the
Kronecker oracle fills entries block by block (`kron_by_blocks`),
`wedge_lambda` is a dimension rule no library code uses, the
characteristic polynomial comes from the division-free
Samuelson-Berkowitz recursion and `matrix_poly` evaluates a polynomial
at a matrix by Horner's rule, the wedge oracles are a direct scan of
binomial coefficients and the rank of the sampled product sequences
(`wedge_oracle_dim`, by linalg's integer echelon `_eliminate`, not by
the digit rule), the annihilator oracle solves one Hankel system per
candidate degree, the linkage oracle compares every pair of values, the
class-table oracle enumerates every tuple of eigenvalues, the root
oracles scan every residue mod p or every quotient of divisors over Q,
the gcd and lcm oracles run Euclid on Poly remainders (`poly_gcd`,
`poly_lcm`), not the library's integer gcd `_residue_gcd`, the minimal
polynomial oracle merges its Krylov annihilators by that `poly_lcm`
(`minpoly_by_poly_lcm`, whose chain rows carry their combination after
their first n entries, the one row format of `_eliminate`), the
factorisation oracle takes its squarefree part by that `poly_gcd` and
confirms and counts roots by Poly division
(`factor_by_poly_division`), `reassemble` multiplies a factorisation
back out as Poly products,
and the random matrices are Jordan assemblies conjugated by unimodular
integer matrices so every expected invariant is known by construction.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from operator import mul

from pcanon.errors import MixedFields, PcanonError
from pcanon.kronmin import ProductClassTable, eig_spec_of_poly
from pcanon.linalg import (
    Matrix,
    _combine,
    _eliminate,
    _first_nonzero,
    minpoly,
)
from pcanon.pcf import Basis, PCanonicalForm
from pcanon.scalar import (
    CC,
    CLUSTER_TOL,
    GF,
    QQ,
    FactoredPoly,
    Poly,
    _convolve,
    _cz_roots,
    is_prime,
)
from pcanon.wedge import WedgeContext, wedge_fold


def max_diff(a: Matrix, b: Matrix) -> float:
    return max(abs(complex(x) - complex(y))
               for ra, rb in zip(a.rows, b.rows)
               for x, y in zip(ra, rb))


def expm_series(a: Matrix, t=1.0, terms: int = 40) -> Matrix:
    """Reference e^(tA): scaling and squaring over a truncated series."""
    m = a.to_field(CC) * complex(t)
    norm = max(max(abs(e) for e in row) for row in m.rows) * m.n
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    m = m * (0.5 ** squarings)
    acc = Matrix.identity(CC, m.n)
    term = Matrix.identity(CC, m.n)
    for i in range(1, terms + 1):
        term = term * m * (1.0 / i)
        acc = acc + term
    for _ in range(squarings):
        acc = acc * acc
    return acc


def naive_matmul(xs, ys):
    """Product of two blocks of rows by the schoolbook triple loop, in
    whatever number type the entries have; an empty ys (inner dimension 0)
    gives rows of no columns."""
    out = []
    for row in xs:
        out_row = []
        for j in range(len(ys[0]) if ys else 0):
            acc = 0
            for k, x in enumerate(row):
                acc = acc + x * ys[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def naive_poly_mul(xs, ys) -> list:
    """Product of two ascending coefficient lists by the schoolbook double
    loop, in whatever number type the coefficients have."""
    out = [0 * xs[0]] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = out[i + j] + x * y
    return out



def matrix_poly(p: Poly, a: Matrix) -> Matrix:
    """Evaluate a polynomial at a matrix (Horner)."""
    if p.field != a.field:
        raise MixedFields(f"polynomial over {p.field}, matrix over {a.field}")
    acc = Matrix.zeros(a.field, a.n)
    ident = Matrix.identity(a.field, a.n)
    for c in reversed(p.coeffs):
        acc = acc * a + ident * c
    return acc


def kron_by_blocks(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major block layout, entry by entry."""
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


def pcf_build_by_products(a: Matrix, tol: float = 1e-8):
    """(projections, form) of a matrix over Q or F_p by Matrix products.

    The power table A^0 ... A^(d-1) comes from repeated products. For each
    (eigenvalue mu, index t) of the minimal polynomial m, zero first, the
    projection is e(A) with e = 1 - (1 - c/c(mu))^t mod m, c = m / (X - mu)^t,
    all of them as one `_combine` of the table; the chains (A - mu I)^i pi
    come from more products and are scaled by mu^(-i), and trailing zero
    coefficients are trimmed.
    """
    f, n = a.field, a.n
    m = minpoly(a)
    spec = eig_spec_of_poly(m, tol)
    t0, nz = spec.zero_index, spec.nonzero
    pairs = ([(f.zero, t0)] if t0 else []) + list(nz)
    d = m.degree
    powers = [Matrix.identity(f, n), a][:d]
    while len(powers) < d:
        powers.append(powers[-1] * a)
    one = Poly.one(f)
    weights = []
    for mu, t in pairs:
        cofactor = m // Poly(f, (-mu, 1)) ** t
        e = one - (one - cofactor * (f.one / cofactor.evaluate(mu))) ** t % m
        weights.append([e.coeff(i) for i in range(d)])
    projections = _combine(f, n, weights, powers)
    chains = []
    for (mu, t), pi in zip(pairs, projections):
        step = a - Matrix.identity(f, n) * mu
        chain = [pi]
        while len(chain) < t:
            chain.append(step * chain[-1])
        chains.append(chain)
    nil = chains.pop(0) if t0 else []
    geo = []
    for (mu, _), chain in zip(nz, chains):
        coeffs, factor = [], f.one
        for c in chain:
            coeffs.append(c * factor)
            factor = factor / mu
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        if coeffs:
            geo.append((mu, tuple(coeffs)))
    return projections, PCanonicalForm(
        field=f, order=n, basis=Basis.LAMBDA,
        nilpotent_terms=tuple(enumerate(nil)), geometric_terms=tuple(geo))


def projections(form: PCanonicalForm) -> list:
    """[(eigenvalue, index, spectral projection), ...] read off a P-canonical
    form, zero first when its index t0 > 0: pi_0 = V_0 and pi = C_0."""
    zero = [(form.field.zero, form.t0, form.nilpotent_terms[0][1])] if form.t0 else []
    return zero + [(lam, len(cs), cs[0]) for lam, cs in form.geometric_terms]


def chains_by_products(a: Matrix, resolution) -> tuple[list, list]:
    """(nil, chains) of a complex matrix from its `projections`: nil is
    A^i pi_0 for i below the index of zero, and chains lists per nonzero
    eigenvalue (lambda, [(A - lambda I)^i pi for i below its index]),
    every matrix a product of the one before it, unscaled and untrimmed."""
    nil, chains = [], []
    for mu, t, pi in resolution:
        step, chain = a - Matrix.identity(a.field, a.n) * mu, [pi]
        while len(chain) < t:
            chain.append(step * chain[-1])
        if mu:
            chains.append((mu, chain))
        else:
            nil = chain
    return nil, chains


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


def linked_by_scan(values, dist: float, scale: float = 1.0,
                   least: float = 0.0) -> list[list[complex]]:
    """Single-linkage groups by relabelling over every pair, with the link
    rule of scalar's `_linked`: each group in input order, the groups in
    order of their first member."""
    label = list(range(len(values)))
    for i, v in enumerate(values):
        for j, w in enumerate(values[:i]):
            big = max(abs(v), abs(w))
            if label[i] != label[j] and abs(v - w) <= max(
                    dist * max(scale, big), least * max(1.0, big)):
                old, new = label[i], label[j]
                label = [new if x == old else x for x in label]
    groups: dict[int, list[complex]] = {}
    for x, v in zip(label, values):
        groups.setdefault(x, []).append(v)
    return list(groups.values())


def roots_by_scan(f: Poly, p: int) -> list[int]:
    """Residues r mod p with f(r) = 0, by Horner at every residue."""
    top_down = [c.res for c in reversed(f.coeffs)]
    found = []
    for x in range(p):
        acc = 0
        for c in top_down:
            acc = (acc * x + c) % p
        if not acc:
            found.append(x)
    return found


def rational_roots_by_divisors(f: Poly) -> list[Fraction]:
    """Sorted distinct rational roots of a nonzero polynomial over Q: every
    +-d/e with d dividing the lowest nonzero and e the leading coefficient
    of f cleared to integers, tested by exact evaluation (0 when X | f)."""
    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return set(small) | {n // d for d in small}

    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    found = {Fraction(0)} if ints[0] == 0 else set()
    while ints[0] == 0:
        ints.pop(0)
    for num in divisors(ints[0]):
        for dq in divisors(ints[-1]):
            for cand in (Fraction(num, dq), Fraction(-num, dq)):
                if f.evaluate(cand) == 0:
                    found.add(cand)
    return sorted(found)


def wedge_lambda(t: int, s: int, lambda_is_zero: bool) -> int:
    """Dimension rule for multiplying a pure-shift space of dimension t by
    a geometric-times-binomial space of dimension s with ratio lambda:
    min(t, s) when lambda = 0, else t when s > 0, else 0."""
    if t < 0 or s < 0:
        raise ValueError("wedge_lambda arguments must be nonnegative")
    if lambda_is_zero:
        return min(t, s)
    return t if s != 0 else 0


def binom_span_bruteforce(s: int, t: int, p: int) -> int:
    """Largest i + j + 1 with binom(i+j, i) nonzero in characteristic p,
    over i < s, j < t — a direct scan, no carries argument."""
    best = 0
    for i in range(s):
        for j in range(t):
            c = math.comb(i + j, i)
            if (c % p if p else c) != 0:
                best = max(best, i + j + 1)
    return best



class HorizonTooSmall(PcanonError):
    """Not enough sequence values to decide the dimension being measured."""


def rank_int(rows: list[list[int]], mod: int | None) -> int:
    """Rank of an integer matrix over Q (mod None) or over F_mod."""
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        vec = list(row) if mod is None else [x % mod for x in row]
        _eliminate(vec, echelon, mod)
        piv = _first_nonzero(vec)
        if piv is not None:
            insort(echelon, (piv, vec))
    return len(echelon)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over an exact field by Euclid on Poly remainders."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    return (a * b // poly_gcd(a, b)).monic()


def reassemble(f: FactoredPoly) -> Poly:
    """The polynomial a factorisation came from: its remainder times
    (X - r)^m over its (r, m) roots, as Poly products."""
    out = f.remainder
    for r, m in f.roots:
        out = out * Poly(out.field, (-r, 1)) ** m
    return out


def minpoly_by_poly_lcm(int_rows: list[list[int]], mod: int | None) -> Poly:
    """Minimal polynomial of an integer matrix over Q (mod None) or F_mod,
    by one integer Krylov chain per start vector outside the span swept so
    far, the chains' annihilators merged by `poly_lcm` on Poly objects.
    A chain row is S^k e_j followed by its combination's coefficients, the
    row format of linalg's `_eliminate`."""
    n = len(int_rows)
    field = QQ if mod is None else GF(mod)
    glob: list = []
    acc = Poly.one(field)
    for start in range(n):
        if acc.degree == n or len(glob) == n:
            break
        probe = [int(i == start) for i in range(n)]
        _eliminate(probe, glob, mod)
        if _first_nonzero(probe) is None:
            continue
        local: list = []
        vec = [int(i == start) for i in range(n)] + [1]
        while True:
            _eliminate(vec, local, mod)
            piv = _first_nonzero(vec[:n])
            if piv is None:
                break
            insort(local, (piv, vec))
            step = [sum(map(mul, row, vec[:n])) for row in int_rows]
            if mod is not None:
                step = [x % mod for x in step]
            vec = step + [0] + vec[n:]
        acc = poly_lcm(acc, Poly(field, vec[n:]).monic())
        for _, v in local:
            w = v[:n]
            _eliminate(w, glob, mod)
            piv = _first_nonzero(w)
            if piv is not None:
                insort(glob, (piv, w))
    return acc


def factor_by_poly_division(p: Poly) -> FactoredPoly:
    """poly_factor of a monic polynomial over Q or F_p on Poly objects.
    Candidate roots come from Cantor-Zassenhaus over F_p, and over Q from
    Hensel lifting the squarefree part p / gcd(p, p') cleared to integers
    h: a root a/b has b | lc(h), so lc(h) a/b is the symmetric residue of
    lc(h) r for r lifted past 2 |lc(h)| (1 + max |h_i / lc(h)|). Each is
    confirmed, and counted, by Poly division by X - r."""
    f = p.field
    zeros = next(i for i, c in enumerate(p.coeffs) if c != 0)
    work = Poly(f, p.coeffs[zeros:])
    roots = [(f.zero, zeros)] if zeros else []
    if f.char:
        candidates = _cz_roots([c.res for c in work.coeffs], f.char)
    else:
        sqfree = work // poly_gcd(work, work.derivative())
        den = math.lcm(*(c.denominator for c in sqfree.coeffs))
        h = [int(c * den) for c in sqfree.coeffs]
        lead, dh = h[-1], [i * c for i, c in enumerate(h)][1:]
        q = 2
        while (not is_prime(q) or lead % q == 0
               or poly_gcd(Poly(GF(q), h), Poly(GF(q), dh)).degree):
            q += 1
        candidates = []
        for r in _cz_roots([c * pow(lead, -1, q) % q for c in h], q):
            m = q
            while m <= 2 * (lead + max(map(abs, h))):
                m *= m
                slope = pow(sum(c * r ** i for i, c in enumerate(dh)), -1, m)
                r = (r - sum(c * r ** i for i, c in enumerate(h)) * slope) % m
            v = lead * r % m
            candidates.append(Fraction(v - m if 2 * v > m else v, lead))
    for r in map(f.coerce, candidates):
        lin, mult = Poly(f, (-r, 1)), 0
        q, rem = divmod(work, lin)
        while rem.is_zero:
            work, mult = q, mult + 1
            q, rem = divmod(work, lin)
        if mult:
            roots.append((r, mult))
    roots.sort(key=lambda t: f.sort_key(t[0]))
    return FactoredPoly(tuple(roots), work)


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
    return rank_int(rows, ctx.characteristic or None)


def min_annihilator_hankel(prefix, field):
    """Minimal monic annihilator of a prefix over Q or F_p, or None.

    For d = 1, 2, ... up to len(prefix)//2 - 1, solves the system
    a_(n+d) = -sum_i c_i a_(n+i) over every window by Gauss-Jordan on
    Fractions or residues mod p, and returns the first consistent d
    (free unknowns zero); None when no degree in range fits.
    """
    p = field.char
    vals = [field.coerce(v) for v in prefix]
    vals = [v.res for v in vals] if p else [Fraction(v) for v in vals]

    def norm(x):
        return x % p if p else x

    for d in range(1, len(vals) // 2):
        rows = [[norm(x) for x in vals[n:n + d] + [-vals[n + d]]]
                for n in range(len(vals) - d)]
        pivots = []
        for c in range(d):
            r = len(pivots)
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
            rows[r] = [norm(x * inv) for x in rows[r]]
            for i, row in enumerate(rows):
                if i != r and row[c] != 0:
                    rows[i] = [norm(a - row[c] * b) for a, b in zip(row, rows[r])]
            pivots.append(c)
        if any(row[d] != 0 for row in rows[len(pivots):]):
            continue
        sol = [0] * d
        for row, c in zip(rows, pivots):
            sol[c] = row[d]
        return Poly(field, [field.coerce(x) for x in sol] + [field.one])
    return None


def class_table_enumerated(specs, ctx) -> ProductClassTable:
    """Product class table by enumerating every tuple of nonzero
    eigenvalues, grouped by product (exact equality, or greedy clustering
    at CLUSTER_TOL around the first unassigned product over C), with the
    largest wedge_fold of the tuple's indices per class."""
    f = specs[0].field
    acc = [(f.one, [])]
    for spec in specs:
        acc = [(prod * value, idxs + [index])
               for prod, idxs in acc for value, index in spec.nonzero]
    items = [(prod, wedge_fold(idxs, ctx)) for prod, idxs in acc]
    groups = []
    used = [False] * len(items)
    for i, (prod, w) in enumerate(items):
        if used[i]:
            continue
        members = []
        for j in range(i, len(items)):
            q = items[j][0]
            same = (q == prod if f.exact else
                    abs(q - prod) <= CLUSTER_TOL * max(1.0, abs(q), abs(prod)))
            if not used[j] and same:
                members.append(items[j])
                used[j] = True
        mean = members[0][0] if f.exact else sum(m[0] for m in members) / len(members)
        groups.append((mean, max(m[1] for m in members)))
    groups.sort(key=lambda t: f.sort_key(t[0]))
    return ProductClassTable(field=f, entries=tuple(groups))


def fibonacci(n: int) -> int:
    """F(n) by fast doubling: F(2k) = F(k)(2F(k+1) - F(k)) and
    F(2k+1) = F(k)^2 + F(k+1)^2, one bit of n at a time."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def _shear(n: int, i: int, j: int, c: int) -> Matrix:
    rows = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
    rows[i][j] = Fraction(c)
    return Matrix(QQ, rows)


def unimodular(rng, n: int) -> Matrix:
    """Random integer matrix with determinant +-1 (product of shears)."""
    m = Matrix.identity(QQ, n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            m = m * _shear(n, i, j, rng.choice([-2, -1, 1, 2]))
    return m


def jordan_assembly(field, blocks) -> Matrix:
    """Block-diagonal matrix of Jordan blocks given as (size, eigenvalue)."""
    n = sum(size for size, _ in blocks)
    rows = [[field.zero for _ in range(n)] for _ in range(n)]
    at = 0
    for size, lam in blocks:
        b = Matrix.jordan_block(field, size, lam)
        for r in range(size):
            for c in range(size):
                rows[at + r][at + c] = b.rows[r][c]
        at += size
    return Matrix(field, rows)


def conjugated_jordan(rng, field, blocks) -> Matrix:
    """S J S^-1 over field for a random unimodular S; the inverse is taken
    over Q, so the conjugation adds no rounding of its own over C."""
    s = unimodular(rng, sum(size for size, _ in blocks))
    return (s.to_field(field) * jordan_assembly(field, blocks)
            * s.inverse().to_field(field))


def rational_spectrum_matrix(rng, values, max_block: int = 3,
                             max_order: int = 5):
    """A dense rational matrix with a known Jordan structure.

    Returns (matrix, blocks) where blocks is the (size, eigenvalue) list
    used to assemble it before the unimodular conjugation.
    """
    blocks = []
    order = 0
    while order < 2 or (order < max_order and rng.random() < 0.7):
        size = rng.randint(1, min(max_block, max_order - order))
        if size == 0:
            break
        blocks.append((size, Fraction(rng.choice(values))))
        order += size
    j = jordan_assembly(QQ, blocks)
    s = unimodular(rng, order)
    return s * j * s.inverse(), blocks


def blocks_minpoly_exponents(blocks) -> dict:
    """eigenvalue -> index (largest block size) for a Jordan assembly."""
    out: dict = {}
    for size, lam in blocks:
        out[lam] = max(out.get(lam, 0), size)
    return out


def real_with_spectrum(gen, reals, pairs):
    """A real numpy matrix Q T Q^T with eigenvalues reals and r e^(+-i theta)
    for each (r, theta) in pairs: T is block diagonal, with a 2 x 2
    rotation-scaling block per pair, plus a random part above the blocks,
    and Q is orthogonal; gen is a numpy Generator."""
    import numpy as np

    blocks = [np.array([[v]]) for v in reals]
    blocks += [r * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
               for r, th in pairs]
    n = sum(len(b) for b in blocks)
    t = np.zeros((n, n))
    owner = []
    for j, b in enumerate(blocks):
        at = len(owner)
        t[at:at + len(b), at:at + len(b)] = b
        owner += [j] * len(b)
    above = np.less.outer(owner, owner)
    t += np.where(above, 0.3 * gen.standard_normal((n, n)), 0.0)
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return q @ t @ q.T


def clustered_real(gen):
    """A real 20 x 20 real_with_spectrum matrix with 8 real eigenvalues and
    6 conjugate pairs, values and moduli in [0.3, 1.5], angles in [0.2,
    2.8]: a spread-out spectrum whose smallest gaps are a few hundredths;
    gen is a numpy Generator."""
    reals = gen.uniform(0.3, 1.5, 8)
    pairs = list(zip(gen.uniform(0.3, 1.5, 6), gen.uniform(0.2, 2.8, 6)))
    return real_with_spectrum(gen, reals, pairs)
