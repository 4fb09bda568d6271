"""The two workloads: seeded inputs and the calls made on them.

Each workload is a cycle function: a fixed ladder of rungs and calls,
whose inputs it draws from the random.Random it is given. The runner
calls it in rounds with a generator seeded the same way each time, so
every round makes the same calls on the same inputs.

Every call in a cycle is expected to pass. Inputs that hit a known defect
of the seed code are kept out of the cycles and run apart, once per run,
by the *_pinned probes (see NOTES.md), so that a fix shows there.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from pcanon import cli, kronmin, linalg, lrs, matfun, pcf
from pcanon.errors import (
    InsufficientData,
    NonSplitField,
    OrderTooLarge,
    PrincipalUndefined,
)
from pcanon.scalar import CC, GF, QQ, Poly

import oracles as orc

# the package binds the name `wedge` to the function, not the module
wedge = importlib.import_module("pcanon.wedge")

F3, F5, F101, F65537 = GF(3), GF(5), GF(101), GF(65537)
FIELDS = {3: F3, 5: F5, 101: F101, 65537: F65537}
TOL = orc.NUMERIC_TOL

#: ids of the seed's known defects, as recorded in NOTES.md
PIN_CC20 = "cc20-natural-nonsplit"
PIN_QJ = "qq-jordan-numeric"
PIN_NEAR = "near-defective-merge"
PIN_FP_MULT = "fp-root-multiplicity-ge-p"


# ---------------------------------------------------------------------------
# generators (plain integers; pcanon sees only the finished matrices)

def unimodular(rng, n, p=None):
    """P = L U with unit triangular L, U of entries in {-1, 0, 1}, and its
    integer inverse."""
    low = [[1 if i == j else (rng.choice((-1, 0, 1)) if j < i else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0)
           for j in range(n)] for i in range(n)]
    pm = orc.int_matmul(low, up, p)
    inv = orc.int_matmul(orc.unit_triangular_inverse(up, False),
                         orc.unit_triangular_inverse(low, True), p)
    return pm, inv


def jordan_blocks(n, values, sizes=(3, 1, 2, 1)):
    """A fixed Jordan pattern of order n: block sizes cycle through sizes,
    eigenvalues cycle through values. Each rung keeps one structure, so
    its cost varies little from seed to seed."""
    blocks, used = [], 0
    while used < n:
        size = min(n - used, sizes[len(blocks) % len(sizes)])
        blocks.append((values[len(blocks) % len(values)], size))
        used += size
    return blocks


def jordan_matrix(blocks):
    n = sum(size for _, size in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for value, size in blocks:
        for k in range(size):
            rows[at + k][at + k] = value
            if k + 1 < size:
                rows[at + k][at + k + 1] = 1
        at += size
    return rows


def conjugate(rng, rows, p=None):
    """Integer P M P^-1 (mod p when given) for a random unimodular P."""
    pm, inv = unimodular(rng, len(rows), p)
    return orc.int_matmul(orc.int_matmul(pm, rows, p), inv, p), pm


def conjugated_jordan(rng, n, values, p=None, sizes=(3, 1, 2, 1)):
    """P J P^-1 with J the rung's Jordan pattern; returns it and P."""
    return conjugate(rng, jordan_matrix(jordan_blocks(n, values, sizes)), p)


def companion_ints(coeffs):
    """Companion matrix of a monic ascending coefficient list."""
    d = len(coeffs) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    return rows


def poly_mul(a, b, p=None):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [x % p for x in out] if p else out


def nonsplit_poly(rng, degree, const_band, p=None):
    """A monic polynomial with an irreducible quadratic factor, so it does
    not split by construction: X^2 - 2q (Eisenstein at 2, q odd) over Q,
    X^2 - r with r a non-residue over F_p. Over Q the constant term lands
    in const_band, which fixes the cost of a divisor scan."""
    if p:
        r = next(x for x in iter(lambda: rng.randrange(2, p), None)
                 if pow(x, (p - 1) // 2, p) == p - 1)
        rest = [rng.randrange(p) for _ in range(degree - 2)] + [1]
        return poly_mul([(-r) % p, 0, 1], rest, p)
    q = rng.randrange(3, 100, 2)
    lo, hi = const_band
    c0 = rng.randrange(lo // (2 * q), hi // (2 * q)) * rng.choice((-1, 1))
    rest = [c0] + [rng.randint(-3, 3) for _ in range(degree - 3)] + [1]
    return poly_mul([-2 * q, 0, 1], rest)


def fp_values(rng, p, count):
    return [0] + rng.sample(range(1, p), count - 1)


def matrix_doc(rows, field):
    doc = {"matrix": rows}
    if field is CC:
        doc = {"field": "C", "matrix": [[{"re": z.real, "im": z.imag} for z in row]
                                        for row in rows]}
    elif field is not QQ:
        doc["field"], doc["p"] = "Fp", field.p
    return json.dumps(doc)


PARSE_ARGS = argparse.Namespace(field=None, p=None, char=None)


# ---------------------------------------------------------------------------
# exact: canonical forms over Q and F_p

EXACT_Q = (4, 5, 6, 7, 8, 9, 10, 12)
EXACT_FP = ((101, (8, 12, 16)), (65537, (8,)))
Q_VALUES = (0, 1, -1, 2, -2, 3)
Q_KS = (1, 7, 40)
FP_KS = (1, 7, 10**9)
RENDER_K = 5
REFUSAL_BAND = (3 * 10**12, 3 * 10**12 + 3 * 10**11)
EXACT_REFUSALS = 1


def _exact_form(run, rows, field, p, ks):
    a = linalg.Matrix(field, rows)
    want = {k: orc.int_power(rows, k, p) for k in set(ks) | {1, RENDER_K}}

    def same(k, what):
        return lambda got: orc.check_exact_equal(got, want[k], what)

    def entries(m):
        return orc.exact_entries(m, p)

    form = run.op("solve", "pcf_build", lambda: pcf.pcf_build(a),
                  check=lambda f: same(1, "form at k=1")(orc.form_at(f, 1, p)))
    for k in ks:
        run.dependent("eval", "pcf_eval", form, lambda k=k: pcf.pcf_eval(form, k),
                      check=lambda m, k=k: same(k, f"A^{k}")(entries(m)))
    if p is None:
        run.dependent("eval", "pcf_to_gamma", form, lambda: pcf.pcf_to_gamma(form),
                      check=lambda g: same(ks[1], "power-basis form")(
                          orc.form_at(g, ks[1])))
    run.dependent("eval", "render_closed_form", form,
                  lambda: cli.render_closed_form(form, "json"),
                  check=lambda text: same(RENDER_K, "rendered form")(
                      orc.eval_pcf_json(json.loads(text), RENDER_K)))
    if run.probing:
        run.probe("linalg.matmul_s", lambda: a * a)
        run.probe("linalg.power_s", lambda: a ** ks[-1])
        run.probe("cli.parse_s", lambda: cli.parse_matrix(matrix_doc(rows, field),
                                                          PARSE_ARGS))


def _exact_refusal(run, rng):
    coeffs = nonsplit_poly(rng, 8, REFUSAL_BAND)
    rows, _ = conjugate(rng, companion_ints(coeffs))
    a = linalg.Matrix(QQ, rows)
    run.op("refuse", "pcf_build", lambda: pcf.pcf_build(a), expect=NonSplitField)


def _canonical_forms(run, rng, smallest):
    for n in EXACT_Q[:1] if smallest else EXACT_Q:
        rows, pm = conjugated_jordan(rng, n, Q_VALUES)
        _exact_form(run, rows, QQ, None, Q_KS)
        if run.probing:
            pmat = linalg.Matrix(QQ, pm)
            run.probe("linalg.inverse_s", pmat.inverse)
    for p, sizes in EXACT_FP:
        for n in sizes[:1] if smallest else sizes:
            rows, _ = conjugated_jordan(rng, n, fp_values(rng, p, 6), p)
            _exact_form(run, rows, FIELDS[p], p, FP_KS)
    for _ in range(1 if smallest else EXACT_REFUSALS):
        _exact_refusal(run, rng)


def exact_cli(rng):
    """Cold-start command on the smallest exact input, and its check."""
    rows, _ = conjugated_jordan(rng, EXACT_Q[0], Q_VALUES)
    want = orc.int_power(rows, RENDER_K)

    def check(stdout):
        got = orc.eval_pcf_json(json.loads(stdout), RENDER_K)
        return orc.check_exact_equal(got, want, "cold-start pcf")

    return ["pcf", matrix_doc(rows, QQ), "--json"], check


# ---------------------------------------------------------------------------
# numeric: the complex-double path

CC_SIZES = (4, 6, 8, 10, 12, 16, 20)
REAL_SIZES = (4, 6, 8, 10, 12, 16)
MATFUN_SIZES = (4, 6, 8, 10, 12, 16)
QJ_PROBE_SIZE = 16
BIG_K = 1000
LOG_REFUSAL_SIZES = (4, 6, 6, 6, 6, 6, 6, 6, 8)


def _gaussian(gen, n, complex_entries):
    g = gen.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * gen.standard_normal((n, n))
    return g


def _unit_radius(g):
    return g / max(abs(np.linalg.eigvals(g)))


def _rung_matrix(family, n, complex_entries):
    """A Gaussian scaled to spectral radius 1, drawn from a generator seeded
    by the family and n alone: each rung has one spectrum for every seed,
    so the root finder's work on it varies little from seed to seed."""
    gen = np.random.default_rng([family, n])
    return _unit_radius(_gaussian(gen, n, complex_entries))


def _rotated(gen, g):
    """g conjugated by a random unitary (orthogonal when g is real): the
    same spectrum and departure from normality, new entries."""
    q, r = np.linalg.qr(_gaussian(gen, len(g), np.iscomplexobj(g)))
    q = q * (np.diag(r) / abs(np.diag(r)))
    return q @ g @ q.conj().T


def _numeric_form(run, g, ks, pinned=None, log=False):
    a = linalg.Matrix(CC, g.tolist())

    def close(layer, want, what):
        return lambda got: run.residual(layer, orc.rel_residual(got, want), TOL, what)

    form = run.op("solve", "pcf_build", lambda: pcf.pcf_build(a),
                  check=lambda f: close("pcf", g, "form at k=1")(orc.form_at(f, 1)),
                  pinned=pinned)
    for k in ks:
        want = np.linalg.matrix_power(g, k)
        run.dependent("eval", "pcf_eval", form, lambda k=k: pcf.pcf_eval(form, k),
                      check=lambda m, want=want, k=k: close("pcf", want, f"A^{k}")(
                          orc.as_array(m)),
                      pinned=pinned)
    if log:
        want = scipy.linalg.logm(g)
        run.dependent("eval", "log_pcf", form, lambda: matfun.log_pcf(form),
                      check=lambda lf: close("matfun", want, "log A")(orc.form_at(lf, 1)),
                      pinned=pinned)
    return a, form


def _real_forms(run, g):
    a, form = _numeric_form(run, g, ())
    want = np.linalg.matrix_power(g, BIG_K)
    real = run.dependent("eval", "pcf_realify", form, lambda: pcf.pcf_realify(form),
                         check=lambda rf: run.residual(
                             "pcf", orc.rel_residual(orc.realpcf_at(rf, 1), g), TOL,
                             "real form at k=1"))
    run.dependent("eval", "realpcf_eval", real,
                  lambda: pcf.realpcf_eval(real, BIG_K),
                  check=lambda m: run.residual(
                      "pcf", orc.rel_residual(orc.as_array(m), want), TOL, f"A^{BIG_K}"))
    run.op("solve", "expm_real", lambda: matfun.expm_real(a),
           check=lambda x: run.residual(
               "matfun", orc.rel_residual(orc.realexp_at(x, 1.0), scipy.linalg.expm(g)),
               TOL, "e^A"))


def _expm_logm(run, a, g, real_log, pinned=None):
    """expm_closed, closedform_eval at t = 1/2 and logm of one input; g is
    its numpy value. A real log is due when the spectrum is positive."""
    def close(want, what):
        return lambda got: run.residual("matfun", orc.rel_residual(got, want), TOL, what)

    x = run.op("solve", "expm_closed", lambda: matfun.expm_closed(a),
               check=lambda f: close(scipy.linalg.expm(g), "e^A")(orc.exp_at(f, 1.0)),
               pinned=pinned)
    run.dependent("eval", "closedform_eval", x, lambda: matfun.closedform_eval(x, 0.5),
                  check=lambda m: close(scipy.linalg.expm(0.5 * g), "e^(A/2)")(
                      orc.as_array(m)),
                  pinned=pinned)

    def log_check(m):
        got = orc.as_array(m)
        bad = close(g, "exp(log A)")(scipy.linalg.expm(got))
        if bad is None and real_log and np.linalg.norm(got.imag) > TOL * np.linalg.norm(got):
            bad = "log of a matrix with positive spectrum is not real"
        return bad

    run.op("solve", "logm", lambda: matfun.logm(a), check=log_check, pinned=pinned)


def _qq_jordan_expm_logm(run, rng, n):
    # every input here repeats an eigenvalue, which the numeric path
    # resolves only to about 1e-5 (pinned)
    rows, _ = conjugated_jordan(rng, n, (1, 2, 3))
    _expm_logm(run, linalg.Matrix(QQ, rows), np.array(rows, dtype=float), True,
               pinned=PIN_QJ)


def _near_defective(run, rng):
    lam = rng.uniform(0.8, 1.25)
    g = np.array([[lam, 1.0], [0.0, lam * (1 + 1e-5)]], dtype=complex)
    _numeric_form(run, g, (1, BIG_K), pinned=PIN_NEAR)


def _log_refusal(run, rng, n):
    rows, _ = conjugated_jordan(rng, n, (-1, 1, 2, -2, 3), sizes=(1, 2))
    a = linalg.Matrix(QQ, rows)
    run.op("refuse", "logm", lambda: matfun.logm(a), expect=PrincipalUndefined)


def numeric_cycle(run, rng, smallest=False):
    gen = np.random.default_rng(rng.getrandbits(64))
    for n in CC_SIZES[:1] if smallest else CC_SIZES:
        _numeric_form(run, _rotated(gen, _rung_matrix(0, n, True)), (1, BIG_K), log=True)
    for n in REAL_SIZES[:1] if smallest else REAL_SIZES:
        _real_forms(run, _rotated(gen, _rung_matrix(1, n, False)))
    for n in MATFUN_SIZES[:1] if smallest else MATFUN_SIZES:
        g = _rotated(gen, _rung_matrix(2, n, True))
        _expm_logm(run, linalg.Matrix(CC, g.tolist()), g, False)
    for n in LOG_REFUSAL_SIZES[:1] if smallest else LOG_REFUSAL_SIZES:
        _log_refusal(run, rng, n)


def numeric_pinned(run, rng):
    gen = np.random.default_rng(rng.getrandbits(64))
    # natural scale (unit-variance entries, spectral radius near 6)
    _numeric_form(run, _gaussian(gen, 20, True), (1, 60), pinned=PIN_CC20)
    _qq_jordan_expm_logm(run, rng, QJ_PROBE_SIZE)
    _near_defective(run, rng)


def numeric_cli(rng):
    gen = np.random.default_rng(rng.getrandbits(64))
    g = _unit_radius(_gaussian(gen, CC_SIZES[0], True))
    want = np.linalg.matrix_power(g, BIG_K)

    def check(stdout):
        doc = json.loads(stdout)
        got = np.array([[complex(e["re"], e["im"]) for e in row] for row in doc["matrix"]])
        rel = orc.rel_residual(got, want)
        return None if rel <= TOL else f"cold-start power: residual {rel:.3g}"

    return ["power", matrix_doc(g.tolist(), CC), str(BIG_K), "--json"], check


# ---------------------------------------------------------------------------
# exact, continued: recurrences, Kronecker products and the wedge

#: (name, characteristic polynomial ascending, term indices, prime or None)
LRS_FAMILIES = (
    ("fibonacci", [-1, -1, 1], (2000, 4000, 6000), None),
    ("pell", [-1, -2, 1], (2000, 3000, 4000), None),
    ("tribonacci", [-1, -1, -1, 1], (1500, 3000, 4500), None),
    ("random-f65537", None, (4000, 7000, 10000), 65537),
)
JITTER = 0.01
SPLIT_ROOTS = (-3, -2, -1, 1, 2, 3)
#: Kronecker pairs: (field prime or None, orders, block sizes, nonzero values)
KRON_PAIRS = (
    (None, (3, 4), (1, 2), (1, -1, 2, -2, 3)),
    (None, (6, 8), (1, 2, 3), (1, -1, 2, -2, 3)),
    (3, (4, 5), (1, 2), (1, 2)),
    (3, (6, 7), (1, 2), (1, 2)),
)
#: an F_3 pair with Jordan blocks of size 3 (pinned)
FP_MULT_PAIR = (3, (6, 7), (1, 2, 3), (1, 2))
#: (characteristic, s, t) rungs of the wedge
WEDGE_RUNGS = ((2, 600, 700), (3, 900, 1000), (5, 400, 500))
FOLD_ORDERS = (100, 150, 200)
#: (prime or 0, factors, eigenvalues per factor)
CLASS_TABLES = ((0, 5, 4), (5, 4, 4))
CLASS_Q_VALUES = tuple(Fraction(v) for v in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3)))
SHORT_PREFIX_DEGREES = (6, 6, 6)


def _jitter(rng, x):
    return rng.randint(x, x + int(x * JITTER))


def _lrs_evals(run, rng, smallest):
    for name, char, ns, p in LRS_FAMILIES[:1] if smallest else LRS_FAMILIES:
        field = FIELDS[p] if p else QQ
        if char is None:
            char = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(3)] + [1]
        d = len(char) - 1
        init = [rng.randint(1, 9) for _ in range(d)]
        seq = lrs.LinRecSeq(Poly(field, char), tuple(init))
        for n in ns[:1] if smallest else ns:
            n = _jitter(rng, n)
            want = (orc.lrs_term_mod(char, init, n, p) if p
                    else orc.lrs_term(char, init, n))
            run.op("eval", "lrs_eval", lambda n=n: lrs.lrs_eval(seq, n),
                   check=lambda v, want=want: None if (v.res if p else v) == want
                   else f"{name} term differs from the companion-matrix power")


def _split_poly(rng, degree):
    return orc.poly_from_factors([(rng.choice(SPLIT_ROOTS), 1) for _ in range(degree)])


def _closure(run, rng, polys):
    """Product closure, termwise product and minimal annihilator of the
    product of sequences with the given characteristic polynomials."""
    seqs = []
    for c in polys:
        init = [rng.randint(-10**6, 10**6) for _ in range(len(c) - 1)]
        seqs.append((c, init))
    degree_bound = math.prod(len(c) - 1 for c in polys)
    length = 2 * degree_bound + 4
    product = [math.prod(t) for t in zip(*(orc.unroll(c, i, length) for c, i in seqs))]
    qpolys = [Poly(QQ, c) for c in polys]
    closure = run.op("solve", "lrs_product_poly", lambda: kronmin.lrs_product_poly(qpolys),
                     check=lambda q: orc.check_min_annihilator(list(q.coeffs), product))
    lseqs = [lrs.LinRecSeq(Poly(QQ, c), tuple(i)) for c, i in seqs]

    def mul_check(s):
        d = s.char.degree
        if list(s.char.coeffs) != list(closure.coeffs):
            return "product sequence carries another annihilator"
        return None if list(s.initial) == product[:d] else "product terms differ"

    run.dependent("solve", "lrs_mul", closure, lambda: lrs.lrs_mul(lseqs, closure),
                  check=mul_check)
    run.op("solve", "lrs_min_annihilator", lambda: lrs.lrs_min_annihilator(product),
           check=lambda q: orc.check_min_annihilator(list(q.coeffs), product))


def _jordan_spec(blocks):
    spec = {}
    for v, size in blocks:
        spec[v] = max(spec.get(v, 0), size)
    return spec


def _kron_pair(run, rng, pair, pinned=None):
    p, orders, sizes, values = pair
    field = FIELDS[p] if p else QQ
    values = rng.sample(values, len(values))
    blocks = [jordan_blocks(n, (0, *values), sizes) for n in orders]
    mats = [linalg.Matrix(field, jordan_matrix(b)) for b in blocks]
    specs = [_jordan_spec(b) for b in blocks]
    want = orc.kron_minpoly_of_blocks(specs, p)

    def check(q):
        got = [c.res if p else c for c in q.coeffs]
        return None if got == want else "Kronecker minimal polynomial differs from the block theory"

    run.op("solve", "kron_minpoly_direct", lambda: kronmin.kron_minpoly_direct(mats),
           check=check)
    run.op("solve", "kron_minpoly_symbolic",
           lambda: kronmin.kron_minpoly_symbolic(
               [kronmin.eig_spec_of_matrix(m) for m in mats]),
           check=check, pinned=pinned)


def _class_table(run, rng, table):
    p, factors, width = table
    field = F5 if p else QQ
    pool = list(range(1, 5)) if p else list(CLASS_Q_VALUES)
    spectra = [[(v, rng.randint(1, 3)) for v in rng.sample(pool, width)]
               for _ in range(factors)]
    specs = [kronmin.EigSpec(field, 0, tuple((field.coerce(v), ix) for v, ix in s))
             for s in spectra]
    want = orc.class_table(spectra, p)
    ctx = wedge.WedgeContext(p)

    def check(t):
        got = {(v.res if p else v): e for v, e in t.entries}
        return None if got == want else "class table differs from the enumeration"

    run.op("solve", "product_class_table", lambda: kronmin.product_class_table(specs, ctx),
           check=check)


def _wedge(run, p, s, t):
    # fixed arguments: the scan's cost depends on the digits of s and t
    want = orc.wedge_scan(s, t, p)
    run.op("solve", "wedge", lambda: wedge.wedge(s, t, wedge.WedgeContext(p)),
           check=lambda w: None if w == want else "wedge differs from the scan")


def _wedge_fold(run, rng, orders):
    orders = [_jitter(rng, o) for o in orders]
    want = orc.wedge_fold_scan(orders, 3)
    run.op("solve", "wedge_fold", lambda: wedge.wedge_fold(orders, wedge.WedgeContext(3)),
           check=lambda w: None if w == want else "folded wedge differs from the scan")


def _short_prefix(rng, d):
    """2d - 1 terms of a degree-d integer recurrence that no recurrence of
    degree <= d - 2 fits (checked), so the minimal annihilator cannot be
    decided from them."""
    while True:
        char = [rng.choice((-1, 1))] + [rng.randint(-2, 2) for _ in range(d - 1)] + [1]
        init = [rng.randint(-9, 9) for _ in range(d)]
        seq = orc.unroll(char, init, 2 * d - 1)
        dmax = len(seq) // 2 - 1
        if all(orc.rank_exact([seq[m:m + e] for m in range(len(seq) - e)])
               < orc.rank_exact([seq[m:m + e + 1] for m in range(len(seq) - e)])
               for e in range(1, dmax + 1)):
            return seq


def _sequence_refusals(run, rng, smallest):
    for d in SHORT_PREFIX_DEGREES[:1] if smallest else SHORT_PREFIX_DEGREES:
        prefix = _short_prefix(rng, d)
        run.op("refuse", "lrs_min_annihilator", lambda: lrs.lrs_min_annihilator(prefix),
               expect=InsufficientData)
    for count in (3, 2)[:1] if smallest else (3, 2):
        n = 17 if count == 3 else 65
        mats = [linalg.Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                for _ in range(count)]
        run.op("refuse", "kron_minpoly_direct", lambda: kronmin.kron_minpoly_direct(mats),
               expect=OrderTooLarge)


def _sequences(run, rng, smallest):
    _lrs_evals(run, rng, smallest)
    _closure(run, rng, [_split_poly(rng, 2), _split_poly(rng, 2 if smallest else 3)])
    _closure(run, rng, [[-1, -1, 1], _split_poly(rng, 2 if smallest else 3)])
    for pair in KRON_PAIRS[::2] if smallest else KRON_PAIRS:
        _kron_pair(run, rng, pair)
    for table in CLASS_TABLES:
        _class_table(run, rng, (table[0], 2, 3) if smallest else table)
    for p, s, t in WEDGE_RUNGS:
        _wedge(run, p, *((5, 7) if smallest else (s, t)))
    _wedge_fold(run, rng, (5, 6, 7) if smallest else FOLD_ORDERS)
    _sequence_refusals(run, rng, smallest)


def exact_cycle(run, rng, smallest=False):
    _canonical_forms(run, rng, smallest)
    _sequences(run, rng, smallest)


def exact_pinned(run, rng):
    # a nonzero eigenvalue of index >= p vanishes from the derivative, so
    # the squarefree step of the F_p factorisation loses it
    _kron_pair(run, rng, FP_MULT_PAIR, pinned=PIN_FP_MULT)


#: workload -> (cycle, cold-start command, probe of its pinned defects)
WORKLOADS = {
    "exact": (exact_cycle, exact_cli, exact_pinned),
    "numeric": (numeric_cycle, numeric_cli, numeric_pinned),
}
