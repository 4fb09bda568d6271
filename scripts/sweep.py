#!/usr/bin/env python3
"""Same-answers sweep over the exact callers of linalg's `_chains`.

Draws three seeded matrices of each class, by the generators of
tests/helpers.py: over Q, conjugated Jordan forms under unimodular
conjugators with a rational diagonal scaling and under dense rational
conjugators with entries up to 10^6, and random integer matrices, most
of which do not split; over F_2, F_3 and F_101, conjugated Jordan forms
under dense conjugators. It runs on each: `pcf_build`; `pcf_eval` at
every k <= t0 + 2 and at k = 10^6 + 1; `pcf_to_gamma`; `minpoly`;
`A ** k` at every k <= t0 + 2 and k = 40; and the CLI's `pcf` and
`power` (k = t0 + 2 and 10^6 + 1), in text and in --json. Over Q, k = 10^6 + 1 is evaluated only when every
eigenvalue is an integer: a fractional one gives denominators of a
million bits, whose gcd alone takes seconds.

Each call prints one tab-separated line: the entry point, the input id,
a digest of the result (the sha1 of its repr; of the hex of its lift for
a matrix, whose decimal repr at k = 10^6 would take minutes) or the
refusal as `Class: message`, and the CPU time in ms. Two trees give the
same answers when their transcripts agree in the first three columns.
Run from the repository root:

    PYTHONPATH=src python3 scripts/sweep.py --seed 1 | cut -f1-3

`scripts/sweep.expected` is that transcript for --seed 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from pcanon import GF, QQ, Matrix, PcanonError, minpoly, pcf_build, pcf_eval, pcf_to_gamma
from pcanon import cli
from pcanon.linalg import _ints

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import conjugated_jordan, dense_conjugated_jordan, jordan_blocks  # noqa: E402

BIG_K = 10 ** 6 + 1
COUNT = 3  # inputs of each of the six classes


def inputs(rng):
    """(id, matrix) pairs, COUNT of each class."""
    q_values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)]
    for i in range(COUNT):
        n = rng.randint(2, 6)
        a = conjugated_jordan(rng, QQ, jordan_blocks(rng, n, q_values))
        d = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        yield f"q-unimodular-{i}", Matrix(QQ, [[e * d[r] / d[c] for c, e in enumerate(row)]
                                               for r, row in enumerate(a.rows)])
    for i in range(COUNT):
        yield f"q-dense-{i}", dense_conjugated_jordan(rng, rng.randint(2, 6), 10 ** 6)
    for i in range(COUNT):
        n = rng.randint(1, 4)
        yield f"q-random-{i}", Matrix(QQ, [[rng.randint(-9, 9) for _ in range(n)]
                                           for _ in range(n)])
    for p in (2, 3, 101):
        for i in range(COUNT):
            yield f"f{p}-{i}", dense_conjugated_jordan(rng, rng.randint(1, 6), p, GF(p),
                                                       range(p))


def _text(obj) -> str:
    if isinstance(obj, Matrix):
        rows, den = _ints(obj)
        return f"{obj.field} {den:x} " + " ".join(f"{x:x}" for row in rows for x in row)
    return repr(obj)


def _call(fn):
    """(fn() or None, its digest or `Class: message`, CPU ms)."""
    start = time.process_time()
    try:
        value = fn()
        out = hashlib.sha1(_text(value).encode()).hexdigest()[:16]
    except PcanonError as exc:
        value, out = None, f"{type(exc).__name__}: {exc}"
    return value, out, (time.process_time() - start) * 1000


def _cli(argv):
    """(digest of stdout or the stderr line, CPU ms) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    took = (time.process_time() - start) * 1000
    if code:
        return err.getvalue().strip(), took
    return hashlib.sha1(out.getvalue().encode()).hexdigest()[:16], took


def _doc(a: Matrix) -> str:
    if a.field.char:
        return json.dumps({"field": "Fp", "p": a.field.char,
                           "matrix": [[e.res for e in row] for row in a.rows]})
    return json.dumps({"field": "Q", "matrix": [[str(e) for e in row] for row in a.rows]})


def sweep(seed: int):
    """Yield the transcript lines of one seed."""
    for name, a in inputs(random.Random(seed)):
        form, out, ms = _call(lambda: pcf_build(a))
        yield f"pcf_build\t{name}\t{out}\t{ms:.1f}"
        t0 = form.t0 if form else 0
        ks = list(range(t0 + 3))
        calls = []
        if form is not None:
            integral = a.field.char or all(lam.denominator == 1
                                           for lam, _ in form.geometric_terms)
            for k in ks + ([BIG_K] if integral else []):
                calls.append((f"pcf_eval k={k}", lambda k=k: pcf_eval(form, k)))
            calls.append(("pcf_to_gamma", lambda: pcf_to_gamma(form)))
        calls.append(("minpoly", lambda: minpoly(a)))
        for k in ks + [40]:
            calls.append((f"A**k k={k}", lambda k=k: a ** k))
        for label, fn in calls:
            _, out, ms = _call(fn)
            yield f"{label}\t{name}\t{out}\t{ms:.1f}"
        doc = _doc(a)
        for argv in (["pcf", doc], ["power", doc, str(t0 + 2)], ["power", doc, str(BIG_K)]):
            for mode in ("--pretty", "--json"):
                out, ms = _cli([*argv, mode])
                yield f"cli {' '.join([argv[0], *argv[2:], mode])}\t{name}\t{out}\t{ms:.1f}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    for line in sweep(args.seed):
        print(line, flush=True)


if __name__ == "__main__":
    main()
