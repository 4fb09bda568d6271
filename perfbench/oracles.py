"""Independent checks for every timed call.

Nothing here calls into pcanon's arithmetic: exact answers are recomputed
with plain Python integers and Fractions, numeric ones with numpy/scipy,
and combinatorial ones from their definitions. Each check returns None
when the answer is right and a one-line reason when it is not.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: the relative tolerance pcanon advertises for its complex-double routes
NUMERIC_TOL = 1e-8


# ---------------------------------------------------------------------------
# exact integer matrices (lists of lists of int), optionally mod p

def int_matmul(a, b, p=None):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    if p:
        out = [[x % p for x in row] for row in out]
    return out


def int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def int_power(a, k, p=None):
    """a**k by squaring, over Z or Z/p."""
    if p:
        return _np_power_mod(a, k, p)
    r, b = int_identity(len(a)), a
    while k:
        if k & 1:
            r = int_matmul(r, b)
        k >>= 1
        if k:
            b = int_matmul(b, b)
    return r


def _np_power_mod(a, k, p):
    # entries stay below p, so n * p**2 fits int64 for the primes used here
    m = np.array(a, dtype=np.int64) % p
    r = np.eye(len(a), dtype=np.int64)
    while k:
        if k & 1:
            r = (r @ m) % p
        k >>= 1
        if k:
            m = (m @ m) % p
    return r.tolist()


def unit_triangular_inverse(t, lower: bool):
    """Inverse of an integer unit triangular matrix (integer again)."""
    n = len(t)
    inv = int_identity(n)
    order = range(n) if lower else range(n - 1, -1, -1)
    for i in order:
        others = range(i) if lower else range(i + 1, n)
        for j in range(n):
            inv[i][j] -= sum(t[i][m] * inv[m][j] for m in others)
    return inv


def exact_entries(m, p=None):
    """Entries of a pcanon Matrix as ints (F_p residues) or Fractions."""
    if p:
        return [[e.res for e in row] for row in m.rows]
    return [list(row) for row in m.rows]


def check_exact_equal(got, want, what):
    if got != want:
        return f"{what} differs from the independent exact value"
    return None


# ---------------------------------------------------------------------------
# closed forms read back from their JSON rendering

def _json_scalar(v, p):
    return int(v) if p else Fraction(v)


def eval_pcf_json(doc, k):
    """A**k from a rendered P-canonical form, in binomial or power basis:
    the delta(k - i) terms plus sum_i lambda^k w(k, i) C_i."""
    p = doc.get("p")
    n = doc["order"]
    out = [[0] * n for _ in range(n)]
    for term in doc["nilpotent"]:
        if term["i"] == k:
            out = [[x + _json_scalar(v, p) for x, v in zip(ro, rv)]
                   for ro, rv in zip(out, term["matrix"])]
    power = doc["basis"] == "gamma"
    for term in doc["geometric"]:
        lam = _json_scalar(term["value"], p)
        geom = pow(lam, k, p) if p else lam ** k
        for i, c in enumerate(term["coeffs"]):
            w = (k ** i if i else 1) if power else math.comb(k, i)
            s = geom * w
            out = [[x + s * _json_scalar(v, p) for x, v in zip(ro, rv)]
                   for ro, rv in zip(out, c)]
    if p:
        out = [[x % p for x in row] for row in out]
    return out


# ---------------------------------------------------------------------------
# complex doubles

def as_array(m) -> np.ndarray:
    return np.array([[complex(e) for e in row] for row in m.rows], dtype=complex)


def rel_residual(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / (scale if scale else 1.0))


# ---------------------------------------------------------------------------
# recurrences

def lrs_term(char_coeffs, initial, n):
    """a_n of the integer recurrence a_(m+d) = -sum c_i a_(m+i), as the
    first row of the n-th power of the shift matrix applied to the
    initial terms."""
    d = len(initial)
    if n < d:
        return initial[n]
    shift = [[int(j == i + 1) for j in range(d)] for i in range(d - 1)]
    shift.append([-c for c in char_coeffs[:d]])
    power = int_power(shift, n)
    return sum(x * v for x, v in zip(power[0], initial))


def lrs_term_mod(char_coeffs, initial, n, p):
    d = len(initial)
    if n < d:
        return initial[n] % p
    shift = [[int(j == i + 1) for j in range(d)] for i in range(d - 1)]
    shift.append([(-c) % p for c in char_coeffs[:d]])
    power = int_power(shift, n, p)
    return sum(x * v for x, v in zip(power[0], initial)) % p


def unroll(char_coeffs, initial, count):
    """First count terms of an integer recurrence."""
    d = len(initial)
    out = list(initial)
    cs = list(char_coeffs[:d])
    while len(out) < count:
        out.append(-sum(c * a for c, a in zip(cs, out[-d:])))
    return out[:count]


def annihilates(coeffs, seq) -> bool:
    d = len(coeffs) - 1
    return all(sum(c * seq[m + i] for i, c in enumerate(coeffs)) == 0
               for m in range(len(seq) - d))


def rank_exact(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def hankel_rank(seq, size) -> int:
    """Rank of the size x size Hankel matrix (a_(i+j)): the degree of the
    minimal recurrence once size reaches it and 2*size - 1 terms exist."""
    return rank_exact([seq[i:i + size] for i in range(size)])


def check_min_annihilator(coeffs, seq):
    """coeffs (ascending, monic) must annihilate seq and have the Hankel
    rank as degree."""
    if coeffs[-1] != 1:
        return "annihilator is not monic"
    if not annihilates(coeffs, seq):
        return "polynomial does not annihilate the sequence"
    d = len(coeffs) - 1
    rank = hankel_rank(seq, (len(seq) + 1) // 2)
    if rank != d:
        return f"degree {d} but the Hankel rank is {rank}"
    return None


# ---------------------------------------------------------------------------
# binomial dimensions

def _digits(x, p):
    out = []
    while x:
        out.append(x % p)
        x //= p
    return out


def _largest_below(limit, caps, p):
    """Largest j <= limit whose base-p digit d is at most caps[d] (caps
    beyond the list are p - 1); j = 0 always qualifies."""
    ld = _digits(limit, p)
    width = max(len(ld), len(caps))
    ld += [0] * (width - len(ld))
    cap = list(caps) + [p - 1] * (width - len(caps))
    out = 0
    for pos in range(width - 1, -1, -1):
        if ld[pos] <= cap[pos]:
            out = out * p + ld[pos]
            continue
        # drop below the limit here, then take every lower digit at its cap
        out = out * p + cap[pos]
        for low in range(pos - 1, -1, -1):
            out = out * p + cap[low]
        return out
    return out


def wedge_scan(s: int, t: int, p: int) -> int:
    """Largest i + j + 1 over i < s, j < t with binom(i + j, i) nonzero mod
    p (Lucas: no digit of i + j carries), scanning i and taking the best j
    for each from its digit caps."""
    if s == 0 or t == 0:
        return 0
    if p == 0:
        return s + t - 1
    best = 0
    for i in range(s):
        caps = [p - 1 - d for d in _digits(i, p)]
        j = _largest_below(t - 1, caps, p)
        if i + j + 1 > best:
            best = i + j + 1
    return best


def wedge_fold_scan(orders, p: int) -> int:
    acc = orders[0]
    for o in orders[1:]:
        acc = wedge_scan(acc, o, p)
    return acc


def class_table(spectra, p: int):
    """{product: exponent} by enumerating every tuple of nonzero
    eigenvalues; spectra are lists of (value, index) with values as
    Fractions or ints mod p."""
    acc = [(1, [])]
    for spec in spectra:
        acc = [((prod * v) % p if p else prod * v, idxs + [ix])
               for prod, idxs in acc for v, ix in spec]
    table = {}
    for prod, idxs in acc:
        w = wedge_fold_scan(idxs, p)
        if w > table.get(prod, 0):
            table[prod] = w
    return table


# ---------------------------------------------------------------------------
# closed-form objects evaluated from their documented structure

def _scalar(e):
    return e.res if hasattr(e, "res") else e


def _accumulate(out, m, s):
    for o, row in zip(out, m.rows):
        for j, e in enumerate(row):
            o[j] += s * _scalar(e)


def form_at(form, k, p=None):
    """A**k from a P-canonical form object: sum of the delta(k - i) terms
    and lambda^k w(k, i) C_i, w = binom(k, i) or k^i by basis. Exact for
    Q (Fractions) and F_p (ints mod p); complex forms give an ndarray."""
    n = form.order
    out = [[0] * n for _ in range(n)]
    for i, v in form.nilpotent_terms:
        if i == k:
            _accumulate(out, v, 1)
    power = form.basis.value == "power"
    for lam, coeffs in form.geometric_terms:
        lam = _scalar(lam)
        geom = pow(lam, k, p) if p else lam ** k
        for i, c in enumerate(coeffs):
            w = (k ** i if i else 1) if power else math.comb(k, i)
            _accumulate(out, c, geom * w)
    if p:
        return [[x % p for x in row] for row in out]
    if any(isinstance(x, (complex, float)) for row in out for x in row):
        return np.array(out, dtype=complex)
    return out


def realpcf_at(form, k) -> np.ndarray:
    """A**k from a real closed form: real terms value^k w(k, i) C_i and
    spirals r^k (cos(k theta) P_i + sin(k theta) Q_i) w(k, i)."""
    n = form.order
    out = [[0j] * n for _ in range(n)]
    for i, v in form.nilpotent_terms:
        if i == k:
            _accumulate(out, v, 1)
    power = form.basis.value == "power"
    for term in form.terms:
        if hasattr(term, "value"):
            geom = term.value ** k
            parts = [[(c, geom)] for c in term.coeffs]
        else:
            rk = term.modulus ** k
            cs, sn = rk * math.cos(k * term.angle), rk * math.sin(k * term.angle)
            parts = [[(cc, cs), (sc, sn)]
                     for cc, sc in zip(term.cos_coeffs, term.sin_coeffs)]
        for i, group in enumerate(parts):
            w = (k ** i if i else 1) if power else math.comb(k, i)
            for c, g in group:
                _accumulate(out, c, g * w)
    return np.array(out, dtype=complex)


def exp_at(form, t) -> np.ndarray:
    """e^(tA) from a closed-form exponential: sum_i M_i t^i plus
    e^(lambda t) sum_i M_(j,i) t^i per exponential term."""
    n = form.order
    out = [[0j] * n for _ in range(n)]
    for i, m in form.polynomial_part:
        _accumulate(out, m, t ** i)
    for lam, coeffs in form.exponential_terms:
        g = np.exp(lam * t)
        for i, m in coeffs:
            _accumulate(out, m, g * t ** i)
    return np.array(out, dtype=complex)


def realexp_at(form, t) -> np.ndarray:
    """e^(tA) from a real closed form: real exponentials e^(value t) and
    spirals e^(growth t) (cos(frequency t) P(t) + sin(frequency t) Q(t))."""
    n = form.order
    out = [[0j] * n for _ in range(n)]
    for i, m in form.polynomial_part:
        _accumulate(out, m, t ** i)
    for term in form.terms:
        if hasattr(term, "value"):
            g = math.exp(term.value * t)
            for i, m in term.coeffs:
                _accumulate(out, m, g * t ** i)
        else:
            g = math.exp(term.growth * t)
            c, s = g * math.cos(term.frequency * t), g * math.sin(term.frequency * t)
            for (i, mc), (_, ms) in zip(term.cos_coeffs, term.sin_coeffs):
                _accumulate(out, mc, c * t ** i)
                _accumulate(out, ms, s * t ** i)
    return np.array(out, dtype=complex)


# ---------------------------------------------------------------------------
# minimal polynomials of Kronecker products of Jordan assemblies

def poly_from_factors(factors, p=None):
    """Ascending coefficients of prod (X - value)^exponent."""
    coeffs = [1]
    for value, exponent in factors:
        for _ in range(exponent):
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= value * c
            coeffs = [x % p for x in nxt] if p else nxt
    return coeffs


def kron_minpoly_of_blocks(spectra, p=None):
    """Minimal polynomial of a Kronecker product of Jordan assemblies,
    each given as {eigenvalue: largest block}: an all-nilpotent factor
    caps the power of X at its index and kills every other class; else
    X^(largest zero index) times the class table's factors."""
    zero = [spec.get(0, 0) for spec in spectra]
    nilpotent = [z for z, spec in zip(zero, spectra) if set(spec) == {0}]
    if nilpotent:
        return poly_from_factors([(0, min(nilpotent))], p)
    nonzero = [[(v, ix) for v, ix in spec.items() if v != 0] for spec in spectra]
    table = class_table(nonzero, p or 0)
    return poly_from_factors([(0, max(zero))] + sorted(table.items()), p)
