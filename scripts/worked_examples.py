#!/usr/bin/env python3
"""Tour of the library on four small matrices.

Prints, for each one, the P-canonical form of its power sequence and —
where the spectrum allows it — the closed-form exponential and the
matrix logarithm.  Everything shown here is asserted in the test suite;
this script is the human-readable version.

Run from the repository root:

    python3 scripts/worked_examples.py
"""

from __future__ import annotations

import math

from pcanon import (
    CC,
    GF,
    QQ,
    LinRecSeq,
    Matrix,
    Poly,
    WedgeContext,
    closedform_eval,
    expm_closed,
    kron_minpoly_direct,
    logm,
    lrs_min_annihilator,
    lrs_mul,
    lrs_prefix,
    lrs_product_poly,
    pcf_build,
    pcf_eval,
    pcf_realify,
    realpcf_eval,
    wedge,
)
from pcanon.cli import render_closed_form


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def show_pcf(a: Matrix) -> None:
    print("matrix:")
    print(a.format())
    form = pcf_build(a)
    print()
    print(render_closed_form(form))
    k = 5
    assert pcf_eval(form, k) == a ** k
    print(f"\ncheck: evaluating the form at k={k} reproduces A^{k} exactly")


def main() -> None:
    banner("1. Upper-triangular Toeplitz matrix: one eigenvalue, full index")
    a = Matrix(QQ, [[2, 4, 2, 3],
                    [0, 2, 4, 2],
                    [0, 0, 2, 4],
                    [0, 0, 0, 2]])
    show_pcf(a)

    print("\nclosed-form exponential e^(tA):")
    print(render_closed_form(expm_closed(a)))

    print("\nprincipal logarithm (again upper Toeplitz):")
    print(logm(a).format())

    banner("2. Mixed spectrum {2, -2} with a nilpotent kernel part")
    b = Matrix(QQ, [[1, 1, 1, 0],
                    [1, 1, 1, -1],
                    [0, 0, -1, 1],
                    [0, 0, 1, -1]])
    show_pcf(b)
    print("\nThe delta terms above are the finite 'non-geometric' part:")
    print("they die after k = 1 and the two geometric terms carry the rest.")

    banner("3. Conjugate-pair spectrum handled over the reals")
    s3 = math.sqrt(3)
    e = Matrix(CC, [[2 * s3 - 10, 2 * s3 - 23, s3 - 5],
                    [4, s3 + 9, 2],
                    [-2 * s3 + 2, -4 * s3 + 5, -s3 + 1]])
    print("matrix (eigenvalues 2e^(+/- i pi/6) and 0):")
    print(e.format())
    rf = pcf_realify(pcf_build(e))
    spiral = [t for t in rf.terms if hasattr(t, "angle")][0]
    print(f"\nreal form carries a spiral term: modulus {spiral.modulus:.6g}, "
          f"angle {spiral.angle:.6g} rad (= pi/6)")
    print("entry (2,1) of E^k is 2^(k+2) sin(k pi/6):")
    for k in range(1, 7):
        got = realpcf_eval(rf, k).rows[1][0]
        want = 2 ** (k + 2) * math.sin(k * math.pi / 6)
        print(f"  k={k}: {got.real:12.6f}   closed form {want:12.6f}")

    banner("4. A logarithm that needs a branch choice")
    c = Matrix(QQ, [[1, 3], [-3, -5]])
    print("matrix (single eigenvalue -2, defective):")
    print(c.format())
    ell = logm(c, [0])
    print("\nlog on the branch z = ln2 + i*pi:")
    print(ell.format())
    back = expm_closed(ell)
    print("\ncheck: e^(log C) reproduces C —")
    print(closedform_eval(back, 1.0).format())

    banner("5. Kronecker products, recurrences, and the wedge")
    fib_poly = Poly(QQ, [-1, -1, 1])
    closure = lrs_product_poly([fib_poly, fib_poly])
    print(f"closure polynomial of (Fibonacci)^2: {closure.format()}")
    fib = LinRecSeq(fib_poly, (QQ.coerce(0), QQ.coerce(1)))
    squares = lrs_mul([fib, fib], closure)
    print(f"first terms: {[int(v) for v in lrs_prefix(squares, 10)]}")
    found = lrs_min_annihilator(lrs_prefix(squares, 30))
    print(f"minimal annihilator recovered from 30 terms: {found.format()}")

    j3 = Matrix.jordan_block(QQ, 3, 1)
    j4 = Matrix.jordan_block(QQ, 4, 1)
    print(f"\nmin poly of J_3(1) (x) J_4(1): "
          f"{kron_minpoly_direct([j3, j4]).format()}")
    print(f"wedge(3, 4) in characteristic 0: {wedge(3, 4)}")
    print(f"wedge(3, 4) in characteristic 2: {wedge(3, 4, WedgeContext(2))}")

    f5 = GF(5)
    u = Matrix.jordan_block(f5, 3, 1)
    print(f"min poly of J_3(1) (x) J_3(1) over F_5: "
          f"{kron_minpoly_direct([u, u]).format()}")
    print()


if __name__ == "__main__":
    main()
