"""Command-line surface: parse matrices and polynomials, dispatch the
library, render exact and closed-form output.

Input documents are JSON.  A matrix document is either a bare array of
rows or an object ``{"field": "Q"|"Fp"|"C", "p": <prime>, "matrix":
[[...]]}``; a polynomial document is a bare ascending coefficient array
(constant term first) or ``{"field": ..., "poly": [...]}``.  Rational
entries are integers or "num/den" strings, F_p entries are integers
reduced mod p on ingest, complex entries are numbers or ``{"re": ...,
"im": ...}`` objects.  A positional INPUT is read from standard input
when it is ``-``, parsed inline when it starts with ``[`` or ``{``, and
treated as a file path otherwise.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from fractions import Fraction

from .errors import (AnswerTooLarge, NonSplitField, NumericFieldUnsupported, ParseError,
                     PcanonError)
from .kronmin import eig_spec_of_matrix, kron_minpoly_symbolic, lrs_product_poly
from .linalg import Matrix
from .lrs import LinRecSeq, _plain, lrs_eval, lrs_min_annihilator, lrs_prefix
from .matfun import ClosedFormExp, expm_closed, logm
from .pcf import Basis, PCanonicalForm, pcf_build, pcf_eval, pcf_to_gamma
from .scalar import (CC, CLUSTER_TOL, GF, QQ, Field, Poly, PrimeField, _convolve,
                     _residue_rem, format_complex, is_prime)
from .wedge import WedgeContext, wedge_fold

#: the most bits an exact answer may take, summed over its numbers
ANSWER_BITS = 1 << 20

# ---------------------------------------------------------------------------
# input documents


def _read_source(token: str) -> str:
    if token == "-":
        return sys.stdin.read()
    if token.lstrip()[:1] in ("[", "{"):
        return token
    try:
        with open(token, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read input file {token!r}: {exc}") from None


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise ParseError(f"invalid JSON: {exc}") from None


def _prime(p, what: str) -> int:
    if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
        raise ParseError(f"{what} must be a prime, got {p!r}")
    return p


def _resolve_field(doc: dict, args) -> Field:
    name = doc.get("field", getattr(args, "field", None))
    p = doc.get("p", getattr(args, "p", None))
    char = getattr(args, "char", None)
    if name is None and char is not None:
        return GF(_prime(char, "a nonzero --char")) if char else QQ
    if name is None or name == "Q":
        return QQ
    if name == "C":
        return CC
    if name == "Fp":
        if p is None:
            raise ParseError('field "Fp" needs a prime "p"')
        return GF(_prime(p, '"p"'))
    raise ParseError(f'unknown field {name!r}; expected "Q", "Fp" or "C"')


def _parse_entry(field: Field, v):
    if field == QQ:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise ParseError(
                f"rational entries are integers or 'num/den' strings, got {v!r}")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {v!r}: {exc}") from None
    if isinstance(field, PrimeField):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"F_p entries are integers, got {v!r}")
        return field.from_int(v)
    # complex
    if isinstance(v, bool):
        raise ParseError(f"bad complex entry {v!r}")
    if isinstance(v, (int, float)):
        return field.coerce(v)
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        re, im = v.get("re", 0), v.get("im", 0)
        if all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in (re, im)):
            return complex(field.coerce(re).real, field.coerce(im).real)
    raise ParseError(
        f'complex entries are numbers or {{"re": ..., "im": ...}}, got {v!r}')


def _document(token: str, args, payload_key: str) -> tuple[dict, Field]:
    """(doc, field) of an input document; a bare array is its payload_key."""
    data = _load_json(_read_source(token))
    doc = {payload_key: data} if isinstance(data, list) else data
    if not isinstance(doc, dict):
        raise ParseError(f"expected an array or object document, got {data!r}")
    return doc, _resolve_field(doc, args)


def _matrix(field: Field, rows, order: int | None = None) -> Matrix:
    """A non-empty array of rows of field entries; order x order if given."""
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) for r in rows)):
        raise ParseError('matrix document needs a non-empty "matrix" array of rows')
    if order is not None and (len(rows) != order or any(len(r) != order for r in rows)):
        raise ParseError(f"coefficient matrices must be {order} x {order}")
    try:
        return Matrix(field, [[_parse_entry(field, v) for v in row] for row in rows])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_matrix(token: str, args) -> Matrix:
    doc, field = _document(token, args, "matrix")
    return _matrix(field, doc.get("matrix"))


def parse_poly(token: str, args) -> Poly:
    doc, field = _document(token, args, "poly")
    coeffs = doc.get("poly")
    if not isinstance(coeffs, list):
        raise ParseError('polynomial document needs a "poly" coefficient array '
                         "(ascending, constant term first)")
    return Poly(field, [_parse_entry(field, v) for v in coeffs])


def parse_sequence(token: str, args) -> LinRecSeq:
    doc, field = _document(token, args, "poly")
    coeffs, initials = doc.get("poly"), doc.get("initials")
    if not isinstance(coeffs, list) or not isinstance(initials, list):
        raise ParseError('sequence document needs "poly" (ascending monic '
                         'coefficients) and "initials" arrays')
    char = Poly(field, [_parse_entry(field, v) for v in coeffs])
    try:
        return LinRecSeq(char, tuple(_parse_entry(field, v) for v in initials))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# rendering


def _field_doc(field: Field) -> dict:
    if field == QQ:
        return {"field": "Q"}
    if isinstance(field, PrimeField):
        return {"field": "Fp", "p": field.p}
    return {"field": "C"}


def _rows_json(field: Field, rows) -> list:
    """JSON of rows of entries of field, the encoding chosen once for all."""
    if field == QQ:
        return [[x.numerator if x.denominator == 1 else str(x) for x in row] for row in rows]
    if isinstance(field, PrimeField):
        return [[x.res for x in row] for row in rows]
    bad = [x for row in rows for x in row if not cmath.isfinite(x)]
    if bad:  # JSON has no inf or nan
        raise AnswerTooLarge(f"a complex double overflowed to {bad[0]}")
    return [[{"re": x.real, "im": x.imag} for x in row] for row in rows]


def _indexed(pairs) -> list:
    return [{"i": i, "matrix": _rows_json(m.field, m.rows)} for i, m in pairs]


def _unindexed(field: Field, items, order: int) -> tuple:
    """Inverse of `_indexed`, each matrix order x order."""
    return tuple((t["i"], _matrix(field, t["matrix"], order)) for t in items)


def _matrix_doc(m: Matrix) -> dict:
    return {"type": "matrix", **_field_doc(m.field), "matrix": _rows_json(m.field, m.rows)}


def _poly_doc(p: Poly) -> dict:
    return {"type": "poly", **_field_doc(p.field),
            "poly": _rows_json(p.field, [p.coeffs])[0]}


_BASIS_NAME = {Basis.LAMBDA: "lambda", Basis.GAMMA: "gamma"}


def _pcf_doc(f: PCanonicalForm) -> dict:
    return {"type": "pcf", **_field_doc(f.field), "order": f.order,
            "basis": _BASIS_NAME[f.basis], "nilpotent": _indexed(f.nilpotent_terms),
            "geometric": [{"value": _rows_json(f.field, [[lam]])[0][0],
                           "coeffs": [_rows_json(f.field, c.rows) for c in coeffs]}
                          for lam, coeffs in f.geometric_terms]}


def _cfe_doc(e: ClosedFormExp) -> dict:
    return {"type": "closed_form_exp", "order": e.order,
            "polynomial": _indexed(e.polynomial_part),
            "exponential": [{"value": {"re": lam.real, "im": lam.imag},
                             "coeffs": _indexed(coeffs)}
                            for lam, coeffs in e.exponential_terms]}


def _pretty(head: str, terms) -> str:
    """head, then "term <header>:" and the matrix for each (header, matrix)."""
    lines = [head]
    for header, m in terms:
        lines += [f"term {header}:", m.format()]
    return "\n".join(lines)


def _scalar_factor(field: Field, x) -> str:
    s = field.format(x)
    return s if s.replace(".", "", 1).isdigit() else f"({s})"


def _term_header(field: Field, lam, i: int, basis: Basis) -> str:
    base = f"{_scalar_factor(field, lam)}^k"
    if i == 0:
        return base
    poly = f"C(k,{i})" if basis is Basis.LAMBDA else (f"k^{i}" if i > 1 else "k")
    return f"{base} * {poly}"


def _pcf_pretty(f: PCanonicalForm) -> str:
    nil = [(f"delta(k - {i})", v) for i, v in f.nilpotent_terms]
    geo = [(_term_header(f.field, lam, i, f.basis), c)
           for lam, coeffs in f.geometric_terms
           for i, c in enumerate(coeffs) if not c.is_zero]
    return _pretty(f"P-canonical form: order {f.order}, field {f.field}, "
                   f"basis {_BASIS_NAME[f.basis]}", nil + geo)


def _exp_header(lam: complex, i: int) -> str:
    tpow = "" if i == 0 else (" * t" if i == 1 else f" * t^{i}")
    if lam == 0:
        return ("1" if i == 0 else ("t" if i == 1 else f"t^{i}"))
    return f"e^(({format_complex(lam)})t){tpow}"


def _cfe_pretty(e: ClosedFormExp) -> str:
    return _pretty(f"closed-form exponential: order {e.order}",
                   [(_exp_header(lam, i), m)
                    for lam, coeffs in [(0, e.polynomial_part), *e.exponential_terms]
                    for i, m in coeffs])


def render_closed_form(obj, mode: str = "pretty") -> str:
    """Render a P-canonical form or closed-form exponential as text.

    ``json`` mode is lossless: `parse_closed_form` reproduces the object.
    """
    if isinstance(obj, PCanonicalForm):
        return json.dumps(_pcf_doc(obj)) if mode == "json" else _pcf_pretty(obj)
    if isinstance(obj, ClosedFormExp):
        return json.dumps(_cfe_doc(obj)) if mode == "json" else _cfe_pretty(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


def parse_closed_form(text: str):
    """Inverse of `render_closed_form`'s JSON mode; ParseError otherwise."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("closed-form document must be an object")
    kind = doc.get("type")
    try:  # a missing key or a value of the wrong JSON type
        order = doc["order"]
        if type(order) is not int or order < 1:
            raise ParseError(f'"order" must be a positive integer, got {order!r}')
        if kind == "pcf":
            field = _resolve_field(doc, None)
            basis = {v: k for k, v in _BASIS_NAME.items()}.get(doc.get("basis"))
            if basis is None:
                raise ParseError(f"unknown basis {doc.get('basis')!r}")
            nil = _unindexed(field, doc.get("nilpotent", ()), order)
            geo = tuple((_parse_entry(field, t["value"]),
                         tuple(_matrix(field, c, order) for c in t["coeffs"]))
                        for t in doc.get("geometric", ()))
            return PCanonicalForm(field, order, basis, nil, geo)
        if kind == "closed_form_exp":
            poly = _unindexed(CC, doc.get("polynomial", ()), order)
            expt = tuple((_parse_entry(CC, t["value"]), _unindexed(CC, t["coeffs"], order))
                         for t in doc.get("exponential", ()))
            return ClosedFormExp(order, poly, expt)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed closed-form document: {exc!r}") from None
    raise ParseError(f"unknown closed-form type {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def _emit(args, doc: dict, pretty: str) -> str:
    return json.dumps(doc) if args.json else pretty


def _refuse_past(bits: float, what: str) -> None:
    if bits > ANSWER_BITS:
        raise AnswerTooLarge(f"{what} needs about {bits:.3g} bits, over {ANSWER_BITS}")


def _refuse_imprecise(err: float, tol: float, what: str) -> None:
    """Refuse a complex answer whose estimated relative error err exceeds tol."""
    if err > tol:
        raise NumericFieldUnsupported(f"{what} is known in complex doubles to about "
                                      f"{err:.3g}, over tol {tol:g}")


def _power_error(form: PCanonicalForm, k: int, power: Matrix) -> float:
    """Relative error of a complex A^k from its form, in the max-entry norm.
    A double knows an eigenvalue lambda to eps, so lambda^k to about k eps,
    and its term sum_i lambda^k binom(k, i) C_i to about k eps |lambda|^k
    sum_i binom(k, i) ||C_i||. The nilpotent terms hold no power of one."""
    try:
        err = k * sys.float_info.epsilon * sum(
            abs(lam) ** k * sum(math.comb(k, i) * c.maxnorm() for i, c in enumerate(cs))
            for lam, cs in form.geometric_terms)
    except OverflowError:  # |lambda|^k, or a binomial times a norm
        raise AnswerTooLarge(f"the error bound of A^{k} is past the double range") from None
    size = power.maxnorm()
    return err / size if size else (math.inf if err else 0.0)


def _minimal(seq: LinRecSeq) -> LinRecSeq:
    """The same sequence under its own minimal annihilator Q, which
    Berlekamp-Massey reads off 2d + 2 terms since deg Q <= d = deg P. Its
    terms grow like X^n mod Q, however large X^n mod P grows."""
    prefix = lrs_prefix(seq, 2 * seq.char.degree + 2)
    q = lrs_min_annihilator(prefix, seq.field)
    return LinRecSeq(q, tuple(prefix[:q.degree]))


def _term_bits(seq: LinRecSeq, n: int) -> float:
    """Estimated bits of a term of index up to n: the initial terms' plus
    n/m times those of X^m mod P, for the largest power of two m <= n, or
    the first past ANSWER_BITS / 2. On lrs's plain numbers, a_i = b_i /
    (da dp^i) and X^m mod P has coefficients r_i / dp^(m-i), r = X^m mod q.
    Over Q, seq should be `_minimal`, so that P is the sequence's own."""
    f = seq.field
    if f.char or not f.exact:
        return f.char.bit_length() or 128  # a residue, or two doubles over C
    q, b, da, dp = _plain(seq, len(seq.initial))
    r, m, grow = _residue_rem([0, 1], q, 0), 1, math.log2(dp)
    first = max(x.bit_length() + i * grow for i, x in enumerate(b)) + da.bit_length()
    while True:
        bits = max((x.bit_length() + (m - i) * grow for i, x in enumerate(r) if x),
                   default=0)
        if 2 * m > n or 2 * bits > ANSWER_BITS:
            return bits * n // m + first
        r, m = _residue_rem(_convolve(r, r), q, 0), 2 * m


def _numeric_retry(args, build, *mats):
    """build(*mats); when the exact spectrum does not split and --numeric
    is given, build again on the matrices over C (inputs over Q only)."""
    try:
        return build(*mats)
    except NonSplitField:
        f = mats[0].field
        if not (args.numeric and f.exact and f.char == 0):
            raise
        return build(*(m.to_field(CC) for m in mats))


def _pcf_of(args, m: Matrix) -> PCanonicalForm:
    return _numeric_retry(args, lambda a: pcf_build(a, args.tol), m)


def _cmd_pcf(args) -> str:
    form = _pcf_of(args, parse_matrix(args.input, args))
    if args.gamma:
        form = pcf_to_gamma(form)
    return render_closed_form(form, "json" if args.json else "pretty")


def _cmd_power(args) -> str:
    if args.k < 0:
        raise ParseError("the exponent must be a non-negative integer")
    form = _pcf_of(args, parse_matrix(args.input, args))
    if form.field == QQ:  # each entry a sum of lambda^k C(k, i) C_i
        grow = max((math.log2(abs(lam.numerator) * lam.denominator)
                    for lam, _ in form.geometric_terms), default=0)
        bits = args.k * grow + form.order * args.k.bit_length()
        _refuse_past(form.order ** 2 * bits, f"A^{args.k}")
    m = pcf_eval(form, args.k)
    if not form.field.exact:
        _refuse_imprecise(_power_error(form, args.k, m), args.tol, f"A^{args.k}")
    return _emit(args, _matrix_doc(m), m.format())


def _cmd_expm(args) -> str:
    form = expm_closed(parse_matrix(args.input, args), args.tol)
    return render_closed_form(form, "json" if args.json else "pretty")


def _branch(args) -> list[int] | None:
    if args.branch is None:
        return None
    try:
        ks = [int(s) for s in args.branch.split(",") if s.strip() != ""]
    except ValueError:
        raise ParseError(f"--branch wants integers like '0,1,-1', got "
                         f"{args.branch!r}") from None
    if not ks:
        raise ParseError("--branch needs at least one integer")
    return ks


def _cmd_logm(args) -> str:
    m = logm(parse_matrix(args.input, args), _branch(args), args.tol)
    return _emit(args, _matrix_doc(m), m.format())


def _cmd_kron_minpoly(args) -> str:
    mats = [parse_matrix(tok, args) for tok in args.inputs]
    p = _numeric_retry(args, lambda *ms: kron_minpoly_symbolic(
        [eig_spec_of_matrix(m, args.tol) for m in ms]), *mats)
    return _emit(args, _poly_doc(p), p.format())


def _cmd_lrs_product(args) -> str:
    p = lrs_product_poly([parse_poly(tok, args) for tok in args.inputs])
    return _emit(args, _poly_doc(p), p.format())


def _cmd_lrs_eval(args) -> str:
    seq = parse_sequence(args.input, args)
    f = seq.field
    if args.n < 0:
        raise ParseError("the index must be a non-negative integer")
    if f == QQ:
        seq = _minimal(seq)
    if args.prefix:
        _refuse_past(args.n * _term_bits(seq, args.n), f"the first {args.n} terms")
        values = lrs_prefix(seq, args.n)
        doc = {"type": "values", **_field_doc(f),
               "values": _rows_json(f, [values])[0]}
        return _emit(args, doc, "\n".join(f.format(v) for v in values))
    _refuse_past(_term_bits(seq, args.n), f"term {args.n}")
    v = lrs_eval(seq, args.n)
    if not f.exact:  # a double knows a root to eps, so its n-th power to about n eps
        _refuse_imprecise(args.n * sys.float_info.epsilon, CLUSTER_TOL, f"term {args.n}")
    return _emit(args, {"type": "value", **_field_doc(f),
                        "value": _rows_json(f, [[v]])[0][0]}, f.format(v))


def _cmd_wedge(args) -> str:
    if args.char:
        _prime(args.char, "a nonzero --char")
    return str(wedge_fold(args.orders, WedgeContext(args.char)))


# ---------------------------------------------------------------------------
# argument parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pcanon",
        description="P-canonical forms, Kronecker minimal polynomials, "
                    "recurrence closures, and closed-form matrix exp/log.",
        epilog="INPUT is '-' for standard input, inline JSON when it starts "
               "with '[' or '{', and a file path otherwise.  Polynomial "
               "coefficients are ascending: constant term first.")
    sub = top.add_subparsers(dest="command", required=True)

    field_p = argparse.ArgumentParser(add_help=False)
    field_p.add_argument("--field", choices=("Q", "Fp", "C"),
                         help="entry field when the document names none "
                              "(default Q)")
    field_p.add_argument("--p", type=int, help="prime modulus for --field Fp")
    field_p.add_argument("--char", type=int,
                         help="shorthand: 0 means Q, a prime p means F_p")

    out_p = argparse.ArgumentParser(add_help=False)
    mode = out_p.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true",
                      help="emit the lossless JSON document")
    mode.add_argument("--pretty", action="store_true",
                      help="emit human-readable text (default)")

    tol_p = argparse.ArgumentParser(add_help=False)
    tol_p.add_argument("--tol", type=float, default=1e-8,
                       help="numeric tolerance (default 1e-8)")

    num_p = argparse.ArgumentParser(add_help=False)
    num_p.add_argument("--numeric", action="store_true",
                       help="fall back to complex doubles when the exact "
                            "spectrum does not split over the input field")

    def command(name, handler, parents, help):
        p = sub.add_parser(name, parents=parents, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("pcf", _cmd_pcf, [field_p, out_p, tol_p, num_p],
                "P-canonical form of a square matrix")
    p.add_argument("input", metavar="INPUT")
    p.add_argument("--gamma", action="store_true",
                   help="convert the binomial basis to powers k^i")

    p = command("power", _cmd_power, [field_p, out_p, tol_p, num_p],
                "matrix power A^k through the closed form")
    p.add_argument("input", metavar="INPUT")
    p.add_argument("k", type=int)

    p = command("expm", _cmd_expm, [field_p, out_p, tol_p],
                "closed-form matrix exponential e^(tA)")
    p.add_argument("input", metavar="INPUT")

    p = command("logm", _cmd_logm, [field_p, out_p, tol_p],
                "matrix logarithm on a chosen branch")
    p.add_argument("input", metavar="INPUT")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--principal", action="store_true",
                   help="principal branch (default)")
    g.add_argument("--branch", metavar="K1,K2,...",
                   help="per-eigenvalue branch offsets, in the canonical "
                        "eigenvalue order")

    p = command("kron-minpoly", _cmd_kron_minpoly, [field_p, out_p, tol_p, num_p],
                "minimal polynomial of a Kronecker product")
    p.add_argument("inputs", metavar="INPUT", nargs="+")

    p = command("lrs-product", _cmd_lrs_product, [field_p, out_p],
                "closure polynomial for termwise products of linear "
                "recurrence sequences")
    p.add_argument("inputs", metavar="POLY", nargs="+",
                   help="monic characteristic polynomials, ascending "
                        "coefficients")

    p = command("lrs-eval", _cmd_lrs_eval, [field_p, out_p],
                "evaluate a linear recurrence sequence")
    p.add_argument("input", metavar="INPUT",
                   help='document with "poly" and "initials"')
    p.add_argument("n", type=int)
    p.add_argument("--prefix", action="store_true",
                   help="print terms a_0 .. a_(n-1) instead of a_n")

    p = command("wedge", _cmd_wedge, [],
                "dimension of the product of two unipotent blocks' binomial spans")
    p.add_argument("orders", metavar="ORDER", type=int, nargs="+")
    p.add_argument("--char", type=int, default=0,
                   help="field characteristic: 0 or a prime (default 0)")
    return top


def run(argv=None) -> int:
    """Dispatch one command line; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # answers within ANSWER_BITS print whole, past the default 4300 digits
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), ANSWER_BITS // 3))
    try:
        if not 0 <= getattr(args, "tol", 0) < math.inf:
            raise ParseError(f"--tol must be finite and >= 0, got {args.tol}")
        out = args.handler(args)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except PcanonError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader closed early: point stdout at devnull so that the
        # flush at exit does not fail again (the Python docs' SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
