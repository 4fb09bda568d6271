"""Command-line interface: parsing, rendering, exit codes, round-trips."""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from helpers import max_diff
from pcanon import cli
from pcanon.linalg import Matrix
from pcanon.matfun import expm_closed
from pcanon.pcf import pcf_eval
from pcanon.scalar import GF, QQ

FIB_POLY = "[-1,-1,1]"
FIB_SEQ = '{"poly": [-1, -1, 1], "initials": [0, 1]}'
SEMICIRCULANT = "[[2,4,2,3],[0,2,4,2],[0,0,2,4],[0,0,0,2]]"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- documented one-liners ----------------------------------------------------


def test_wedge_example(capsys):
    code, out, err = run_cli(capsys, "wedge", "3", "4", "--char", "0")
    assert (code, out.strip(), err) == (0, "6", "")


def test_wedge_positive_characteristic(capsys):
    code, out, _ = run_cli(capsys, "wedge", "3", "4", "--char", "2")
    assert (code, out.strip()) == (0, "4")


def test_wedge_huge_orders_return(capsys):
    # 10^24 pairs for a scan; the digit rule reads 40 binary digits
    code, out, _ = run_cli(capsys, "wedge", "1000000000000", "1000000000000",
                           "--char", "2")
    assert (code, out.strip()) == (0, "1099511627776")


def test_lrs_product_example(capsys):
    code, out, err = run_cli(capsys, "lrs-product", FIB_POLY, FIB_POLY,
                             "--char", "0")
    assert code == 0 and err == ""
    assert out.strip() == "X^3 - 2X^2 - 2X + 1"


def test_pcf_pretty_semicirculant(capsys):
    code, out, _ = run_cli(capsys, "pcf", SEMICIRCULANT, "--pretty")
    assert code == 0
    assert "term 2^k * C(k,3):" in out
    # the top-right coefficient of the C(k,3) term
    block = out.split("term 2^k * C(k,3):")[1]
    assert block.splitlines()[1].split() == ["[", "0", "0", "0", "8", "]"]


def test_pcf_over_a_large_prime_field(capsys):
    doc = '{"field": "Fp", "p": 1000000007, "matrix": [[1, 1], [0, 2]]}'
    code, out, _ = run_cli(capsys, "pcf", doc, "--json")
    assert code == 0
    terms = json.loads(out)["geometric"]
    assert terms == [{"value": 1, "coeffs": [[[1, 1000000006], [0, 0]]]},
                     {"value": 2, "coeffs": [[[0, 1], [0, 1]]]}]


# -- input plumbing -----------------------------------------------------------


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"field": "Q", "matrix": [[1, "1/2"], [0, 1]]}')
    code, out, _ = run_cli(capsys, "power", str(path), "4")
    assert code == 0
    assert Matrix(QQ, [[1, 2], [0, 1]]).format() == out.strip()


def test_input_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(SEMICIRCULANT))
    code, out, _ = run_cli(capsys, "power", "-", "0")
    assert code == 0
    assert out.strip() == Matrix.identity(QQ, 4).format()


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "pcf", "/no/such/file.json")
    assert code == 2
    assert err.startswith("ParseError:")


def test_bad_json_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "pcf", "[[1, 2], [3]]")
    assert code == 2
    assert err.startswith("ParseError:")


def test_field_flags(capsys):
    doc = '{"field": "Fp", "p": 5, "matrix": [[1, 1], [0, 1]]}'
    code, out, _ = run_cli(capsys, "power", doc, "7")
    assert code == 0
    assert out.strip() == Matrix(GF(5), [[1, 2], [0, 1]]).format()
    # --char shorthand on a bare array
    code, out, _ = run_cli(capsys, "power", "[[1,1],[0,1]]", "7", "--char", "5")
    assert out.strip() == Matrix(GF(5), [[1, 2], [0, 1]]).format()


def test_negative_exponent_rejected(capsys):
    code, _, err = run_cli(capsys, "power", SEMICIRCULANT, "-3")
    assert code == 2
    assert "non-negative" in err


# -- library errors map to exit status 1 ---------------------------------------


def test_nonsplit_spectrum_fails_without_numeric(capsys):
    rotation = "[[0,-1],[1,0]]"
    code, _, err = run_cli(capsys, "pcf", rotation)
    assert code == 1
    assert err.startswith("NonSplitField:")
    code, out, _ = run_cli(capsys, "pcf", rotation, "--numeric", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "C"
    values = [complex(t["value"]["re"], t["value"]["im"])
              for t in doc["geometric"]]
    assert sorted(v.imag for v in values) == pytest.approx([-1.0, 1.0])


def test_principal_log_failure_is_reported(capsys):
    code, _, err = run_cli(capsys, "logm", "[[1,3],[-3,-5]]")
    assert code == 1
    assert err.startswith("PrincipalUndefined:")


def test_branch_log_output(capsys):
    code, out, _ = run_cli(capsys, "logm", "[[1,3],[-3,-5]]",
                           "--branch", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "matrix" and doc["field"] == "C"
    e00 = doc["matrix"][0][0]
    assert e00["re"] == pytest.approx(math.log(2) - 1.5, abs=1e-12)
    assert e00["im"] == pytest.approx(math.pi, abs=1e-12)


def test_branch_flag_validation(capsys):
    code, _, err = run_cli(capsys, "logm", "[[2,0],[0,3]]", "--branch", "a,b")
    assert code == 2 and "--branch" in err


@pytest.mark.parametrize("argv", [
    ("pcf", "[1,"),
    ("pcf", '{"field": "Fp", "matrix": [[1]]}'),
    ("pcf", '{"field": "Fp", "p": "7", "matrix": [[1]]}'),
    ("pcf", '{"field": "R", "matrix": [[1]]}'),
    ("pcf", "[[true]]"),
    ("pcf", '[["1/0"]]'),
    ("pcf", '{"field": "Fp", "p": 7, "matrix": [[1.5]]}'),
    ("pcf", '{"field": "C", "matrix": [[true]]}'),
    ("pcf", '{"field": "C", "matrix": [["x"]]}'),
    ("pcf", '{"matrix": []}'),
    ("lrs-product", '{"field": "Q"}'),
    ("lrs-eval", '{"poly": [-1, -1, 1]}', "3"),
    ("lrs-eval", '{"poly": [-1, -1, 1], "initials": [0]}', "3"),
    ("lrs-eval", FIB_SEQ, "-1"),
    ("logm", "[[2,0],[0,3]]", "--branch", ","),
    ("pcf", '{"field": "Fp", "p": 4, "matrix": [[1]]}'),
    ("pcf", '{"field": "Fp", "p": true, "matrix": [[1]]}'),
    ("pcf", "[[1]]", "--field", "Fp", "--p", "4"),
    ("pcf", "[[1]]", "--char", "4"),
    ("wedge", "3", "4", "--char", "4"),
    ("pcf", "[[1]]", "--tol", "nan"),
    ("power", "[[1]]", "2", "--tol", "-1"),
    ("expm", "[[1]]", "--tol", "inf"),
])
def test_malformed_input_is_one_parse_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("ParseError: ")


@pytest.mark.parametrize("tol", ["nan", "-nan", "-1", "-1e-300", "inf", "-inf"])
def test_tol_must_be_finite_and_not_negative(capsys, tol):
    # a NaN or negative tol once reached the library and came back as
    # ProjectionsInaccurate, which blames the matrix
    for argv in (("pcf", "[[1, 1], [0, 2]]"), ("kron-minpoly", "[[1]]", "[[2]]")):
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err.startswith("ParseError: --tol ") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "pcf", "[[1, 1], [0, 2]]", "--tol", "0")
    assert code == 0 and out.startswith("P-canonical form")


def test_scalar_document_is_a_parse_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("5"))
    code, _, err = run_cli(capsys, "pcf", "-")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("ParseError: ")


# -- structured output --------------------------------------------------------


def test_pcf_json_reconstructs_the_form(capsys):
    code, out, _ = run_cli(capsys, "pcf",
                           "[[1,1,1,0],[1,1,1,-1],[0,0,-1,1],[0,0,1,-1]]",
                           "--json")
    assert code == 0
    form = cli.parse_closed_form(out)
    a = Matrix(QQ, [[1, 1, 1, 0], [1, 1, 1, -1], [0, 0, -1, 1], [0, 0, 1, -1]])
    for k in range(8):
        assert pcf_eval(form, k) == a ** k
    # byte-identical re-render
    assert cli.render_closed_form(form, "json") == out.strip()


def test_expm_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "expm", SEMICIRCULANT, "--json")
    assert code == 0
    form = cli.parse_closed_form(out)
    assert cli.render_closed_form(form, "json") == out.strip()
    direct = expm_closed(Matrix(QQ, [[2, 4, 2, 3], [0, 2, 4, 2],
                                     [0, 0, 2, 4], [0, 0, 0, 2]]))
    assert max_diff(pcf_like_eval(form, 1.0), pcf_like_eval(direct, 1.0)) == 0


PCF_DOC = {"type": "pcf", "field": "Q", "order": 2, "basis": "lambda",
           "nilpotent": [{"i": 0, "matrix": [[1, 0], [0, 0]]}],
           "geometric": [{"value": 2, "coeffs": [[[0, 0], [0, 1]]]}]}
EXP_DOC = {"type": "closed_form_exp", "order": 1,
           "polynomial": [{"i": 0, "matrix": [[{"re": 1, "im": 0}]]}],
           "exponential": []}


def _parse_doc(doc):
    return cli.parse_closed_form(json.dumps(doc))


def test_closed_form_without_order_is_a_parse_error():
    assert pcf_eval(_parse_doc(PCF_DOC), 3) == Matrix.diagonal(QQ, [0, 8])
    assert _parse_doc(EXP_DOC).order == 1
    for doc in (PCF_DOC, EXP_DOC):
        with pytest.raises(cli.ParseError, match="order"):
            _parse_doc({k: v for k, v in doc.items() if k != "order"})


@pytest.mark.parametrize("doc, match", [
    ([PCF_DOC], "must be an object"),
    ({**PCF_DOC, "order": 0}, "order"),
    ({**PCF_DOC, "order": True}, "order"),
    ({**EXP_DOC, "order": "2"}, "order"),
    ({**PCF_DOC, "basis": "beta"}, "unknown basis"),
    ({**PCF_DOC, "type": "matrix"}, "unknown closed-form type"),
], ids=["array", "order-0", "order-true", "order-string", "basis", "type"])
def test_malformed_closed_form_header_is_a_parse_error(doc, match):
    with pytest.raises(cli.ParseError, match=match):
        _parse_doc(doc)


def test_closed_form_term_without_matrix_is_a_parse_error():
    with pytest.raises(cli.ParseError, match="matrix"):
        _parse_doc({**PCF_DOC, "nilpotent": [{"i": 0}]})
    with pytest.raises(cli.ParseError, match="matrix"):
        _parse_doc({**EXP_DOC, "polynomial": [{"i": 0}]})


def test_closed_form_polynomial_that_is_no_array_is_a_parse_error():
    with pytest.raises(cli.ParseError):
        _parse_doc({**EXP_DOC, "polynomial": 5})


def test_closed_form_coefficient_of_the_wrong_order_is_a_parse_error():
    with pytest.raises(cli.ParseError, match="2 x 2"):
        _parse_doc({**PCF_DOC, "geometric": [{"value": 2, "coeffs": [[[1]]]}]})


def pcf_like_eval(e, t):
    from pcanon.matfun import closedform_eval

    return closedform_eval(e, t)


def test_expm_pretty_headers(capsys):
    code, out, _ = run_cli(capsys, "expm", SEMICIRCULANT)
    assert code == 0
    assert "e^((2)t)" in out and "* t^2" in out


@pytest.mark.parametrize("argv, headers", [
    (("pcf", "[[0,1,0],[0,0,0],[0,0,2]]"), ["term delta(k - 0):", "term delta(k - 1):"]),
    (("expm", "[[0,1],[0,0]]"), ["term 1:", "term t:"]),
])
def test_pretty_headers_of_nilpotent_and_polynomial_terms(capsys, argv, headers):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert all(h in lines for h in headers)


def test_power_json_matrix_document(capsys):
    code, out, _ = run_cli(capsys, "power", SEMICIRCULANT, "3", "--json")
    doc = json.loads(out)
    # top row of A^3 for the shift-polynomial 2 + 4N + 2N^2 + 3N^3, cubed
    assert doc == {"type": "matrix", "field": "Q",
                   "matrix": [[8, 48, 120, 196], [0, 8, 48, 120],
                              [0, 0, 8, 48], [0, 0, 0, 8]]}


def test_gamma_flag_changes_basis_not_values(capsys):
    code, lam_out, _ = run_cli(capsys, "pcf", SEMICIRCULANT, "--json")
    code2, gam_out, _ = run_cli(capsys, "pcf", SEMICIRCULANT, "--json",
                                "--gamma")
    assert code == code2 == 0
    lam_doc, gam_doc = json.loads(lam_out), json.loads(gam_out)
    assert lam_doc["basis"] == "lambda" and gam_doc["basis"] == "gamma"
    for doc, want in ((lam_doc, 8), (gam_doc, "4/3")):
        top = doc["geometric"][0]["coeffs"][3][0][3]
        assert top == want


def test_power_has_no_gamma_flag(capsys):
    # a basis change cannot alter A^k, so `power` does not offer one
    code, out, err = run_cli(capsys, "power", SEMICIRCULANT, "3", "--gamma")
    assert code == 2 and out == ""
    assert "--gamma" in err


def test_lrs_product_has_no_tol_flag(capsys):
    # the closure polynomial is exact, so no tolerance applies to it
    code, out, err = run_cli(capsys, "lrs-product", FIB_POLY, FIB_POLY,
                             "--tol", "1e-3")
    assert code == 2 and out == ""
    assert "--tol" in err


# -- other subcommands ----------------------------------------------------------


def test_kron_minpoly_command(capsys):
    # spectra {1,2} and {3}; products {3,6}
    code, out, _ = run_cli(capsys, "kron-minpoly", "[[1,1],[0,2]]", "[[3]]")
    assert code == 0
    assert out.strip() == "X^2 - 9X + 18"


def test_kron_minpoly_numeric_fallback(capsys):
    fib = "[[0,1],[1,1]]"  # X^2 - X - 1 does not split over Q
    code, _, err = run_cli(capsys, "kron-minpoly", fib, fib)
    assert code == 1 and err.startswith("NonSplitField:")
    code, out, _ = run_cli(capsys, "kron-minpoly", fib, fib,
                           "--numeric", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "C"
    got = [complex(c["re"], c["im"]) for c in doc["poly"]]
    assert got == pytest.approx([1, -2, -2, 1], abs=1e-6)


def test_lrs_eval_term(capsys):
    code, out, _ = run_cli(capsys, "lrs-eval", FIB_SEQ, "30")
    assert (code, out.strip()) == (0, "832040")


def test_lrs_eval_prefix(capsys):
    code, out, _ = run_cli(capsys, "lrs-eval", FIB_SEQ, "10", "--prefix")
    assert code == 0
    assert [int(s) for s in out.split()] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_lrs_eval_mod_p(capsys):
    doc = '{"field": "Fp", "p": 5, "poly": [-1, -1, 1], "initials": [0, 1]}'
    code, out, _ = run_cli(capsys, "lrs-eval", doc, "30")
    assert (code, out.strip()) == (0, "0")  # 832040 = 0 mod 5


BIG = "1000000000000000000"  # 10^18


def _timed(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    return code, out, err, time.perf_counter() - start


BIG_ENTRY = "1" + "0" * 400
HUGE_MODULUS = '{"re": 1.5e308, "im": 1.5e308}'


@pytest.mark.parametrize("argv, error", [
    (("power", '{"field": "C", "matrix": [[NaN]]}', "2"), "AnswerTooLarge"),
    (("pcf", '{"field": "C", "matrix": [[Infinity]]}'), "AnswerTooLarge"),
    (("expm", '{"field": "C", "matrix": [[1e308, 1], [0, 1e308]]}'),
     "NumericFieldUnsupported"),
    # these four ended in an OverflowError traceback
    (("expm", f'[["{BIG_ENTRY}", 0], [0, 1]]'), "AnswerTooLarge"),
    (("logm", f'[["{BIG_ENTRY}", 0], [0, 1]]'), "AnswerTooLarge"),
    (("pcf", f'{{"field": "C", "matrix": [[{BIG_ENTRY}]]}}'), "AnswerTooLarge"),
    (("pcf", f'{{"field": "C", "matrix": [[{{"re": 1, "im": {BIG_ENTRY}}}]]}}'),
     "AnswerTooLarge"),
    # finite parts whose modulus, or whose power's, passes the double range:
    # these three ended in an OverflowError traceback from abs()
    (("pcf", f'{{"field": "C", "matrix": [[{HUGE_MODULUS}]]}}'), "AnswerTooLarge"),
    (("logm", f'{{"field": "C", "matrix": [[1, {HUGE_MODULUS}], [0, 2]]}}'), "AnswerTooLarge"),
    (("power", '{"field": "C", "matrix": [[{"re": 1.2526926261228299e+154, '
               '"im": 5.18882275224845e+153}]]}', "2"), "AnswerTooLarge"),
], ids=["nan", "infinity", "near-overflow", "expm-400-digits", "logm-400-digits",
        "pcf-400-digits", "pcf-400-digits-im", "pcf-modulus-past-range",
        "logm-modulus-past-range", "power-modulus-past-range"])
def test_complex_inputs_numpy_cannot_take_are_refused(capsys, argv, error):
    # the first three once ended in a numpy LinAlgError traceback
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


NIL_1E300 = '{"field": "C", "matrix": [[0, 1e300, 0], [0, 0, 1e300], [0, 0, 0]]}'


@pytest.mark.parametrize("argv", [
    ("pcf", NIL_1E300), ("pcf", NIL_1E300, "--json"),
    ("expm", NIL_1E300), ("expm", NIL_1E300, "--json"),
], ids=["pcf", "pcf-json", "expm", "expm-json"])
def test_overflowing_chain_products_are_one_refusal_line(argv):
    # pretty output printed inf or nan with exit status 0; every mode wrote
    # numpy overflow warnings to stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "pcanon.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("AnswerTooLarge: ") and proc.stderr.count("\n") == 1


def test_power_refuses_answers_it_cannot_print(capsys):
    # 2^(10^18) has 10^18 bits; over C it overflows a double
    for doc, k in (("[[2]]", BIG), ('{"field": "C", "matrix": [[2]]}', BIG),
                   ('{"field": "C", "matrix": [[1e200]]}', "50")):  # nan, no error
        for mode in ("--json", "--pretty"):
            code, out, err, took = _timed(capsys, "power", doc, k, mode)
            assert (code, out) == (1, "") and took < 1.0
            assert err.startswith("AnswerTooLarge: ") and "Traceback" not in err
    # |lambda| = 1: the answer has 60-bit entries and is printed
    code, out, _, took = _timed(capsys, "power", "[[1,1],[0,1]]", BIG, "--json")
    assert code == 0 and took < 1.0
    assert json.loads(out)["matrix"] == [[1, 10 ** 18], [0, 1]]
    # 6021 digits: past the interpreter's default limit of 4300, which
    # the CLI lifts as far as ANSWER_BITS needs
    code, out, _ = run_cli(capsys, "power", "[[2]]", "20000")
    digits = out.strip().removeprefix("[ ").removesuffix(" ]")
    assert code == 0 and digits.isdigit() and len(digits) == 6021
    assert digits.startswith("398027684033796659") and digits.endswith("309376")


def test_lrs_eval_refuses_answers_it_cannot_print(capsys):
    fib_mod_p = ('{"field": "Fp", "p": 1000000007, "poly": [-1, -1, 1], '
                 '"initials": [0, 1]}')
    fib_c = '{"field": "C", "poly": [-1, -1, 1], "initials": [0, 1]}'
    # 10^18 residues; F_(10^18) over Q has about 7 * 10^17 bits; over C
    # F_3000 overflows a double
    for argv in ((fib_mod_p, BIG, "--prefix"), (FIB_SEQ, BIG),
                 (FIB_SEQ, BIG, "--prefix"), (fib_c, "3000")):
        code, out, err, took = _timed(capsys, "lrs-eval", *argv)
        assert (code, out) == (1, "") and took < 1.0
        assert err.startswith("AnswerTooLarge: ") and "Traceback" not in err
    # bounded terms still answer: one residue, a +-1 period, the index itself
    for doc, want in ((fib_mod_p, "209783453"),
                      ('{"poly": [-1, 0, 1], "initials": [0, 1]}', "0"),
                      ('{"poly": [1, -2, 1], "initials": [0, 1]}', BIG)):
        code, out, _, took = _timed(capsys, "lrs-eval", doc, BIG)
        assert (code, out.strip()) == (0, want) and took < 1.0


ROTATION_C = '{"field": "C", "matrix": [[0, 1], [-1, 0]]}'
E_I = cmath.exp(1j)
ROOT_OF_UNITY_SEQ = json.dumps({"field": "C", "initials": [1],
                                "poly": [{"re": -E_I.real, "im": -E_I.imag}, 1]})


@pytest.mark.parametrize("argv", [
    ("power", ROTATION_C, BIG),
    ("power", ROTATION_C, "100000000", "--json"),
    ("power", ROTATION_C, "1000000", "--tol", "1e-12"),
    ("power", '{"field": "C", "matrix": [[1, 1], [0, 1]]}', "1000000000"),
    ("power", '{"field": "C", "matrix": [[-1]]}', BIG),
    ("power", "[[0, -1], [1, 0]]", BIG, "--numeric"),
    ("lrs-eval", ROOT_OF_UNITY_SEQ, "1000000000000"),
], ids=["rotation-1e18", "rotation-1e8", "rotation-tight-tol", "unipotent-1e9",
        "minus-one-1e18", "numeric-retry", "lrs-unit-root-1e12"])
def test_complex_powers_past_their_precision_are_refused(capsys, argv):
    # A^(10^18) = I printed as a rotation by about 1.9 rad: an eigenvalue a
    # double knows to eps is known to about k eps in its k-th power, and
    # its term of A^k to about k eps of the term's size
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("NumericFieldUnsupported: ") and err.count("\n") == 1


def test_complex_powers_within_their_precision_answer(capsys):
    for argv in (("power", ROTATION_C, "1000"),
                 ("power", ROTATION_C, "100000000", "--tol", "1e-6")):
        code, out, _ = run_cli(capsys, *argv, "--json")
        rows = json.loads(out)["matrix"]
        assert code == 0 and all(abs(complex(e["re"], e["im"]) - (i == j)) < 1e-6
                                 for i, row in enumerate(rows) for j, e in enumerate(row))
    # a term whose eigenvalue's power underflows, or a nilpotent form with
    # no geometric term, carries no error into A^k = 0
    for rows in ([[0]], [[0.5]], [[0, 1], [0, 0]]):
        code, out, _ = run_cli(capsys, "power", json.dumps({"field": "C", "matrix": rows}),
                               BIG, "--json")
        assert code == 0 and all(complex(e["re"], e["im"]) == 0
                                 for row in json.loads(out)["matrix"] for e in row), rows
    code, out, _ = run_cli(capsys, "lrs-eval", ROOT_OF_UNITY_SEQ, "1000", "--json")
    value = json.loads(out)["value"]
    assert code == 0 and abs(complex(value["re"], value["im"]) - E_I ** 1000) < 1e-9
    # a prefix needs no such check: the size bound stops it at 8192 terms,
    # 8192 eps = 1.8e-12
    code, out, _ = run_cli(capsys, "lrs-eval", ROOT_OF_UNITY_SEQ, "8192", "--prefix")
    assert code == 0 and len(out.splitlines()) == 8192
    code, _, err = run_cli(capsys, "lrs-eval", ROOT_OF_UNITY_SEQ, "8193", "--prefix")
    assert code == 1 and err.startswith("AnswerTooLarge: ")
    # the unipotent matrix over Q answers exactly at any index
    code, out, _ = run_cli(capsys, "power", "[[1, 1], [0, 1]]", "1000000000")
    assert code == 0 and out.split()[2] == "1000000000"


def test_lrs_eval_sizes_by_the_sequence_not_its_polynomial(capsys):
    # X^n mod (X - 1)(X - 2) has n-bit coefficients, but the constant 1 it
    # carries is annihilated by X - 1 alone
    const = '{"poly": [2, -3, 1], "initials": [1, 1]}'
    for argv in ((const, BIG), (const, "10000", "--prefix")):
        code, out, _, took = _timed(capsys, "lrs-eval", *argv)
        assert code == 0 and set(out.split()) == {"1"} and took < 1.0
    # the sequence 2^n shares that polynomial and is still refused
    code, out, err, took = _timed(capsys, "lrs-eval",
                                  '{"poly": [2, -3, 1], "initials": [1, 2]}', BIG)
    assert (code, out) == (1, "") and took < 1.0
    assert err.startswith("AnswerTooLarge: ")
    # Fibonacci is its own minimal recurrence: still refused
    code, out, err, took = _timed(capsys, "lrs-eval", FIB_SEQ, BIG)
    assert (code, out) == (1, "") and took < 1.0
    assert err.startswith("AnswerTooLarge: ")


def test_lrs_product_json(capsys):
    code, out, _ = run_cli(capsys, "lrs-product", FIB_POLY, "[-2,1]", "--json")
    assert code == 0
    assert json.loads(out) == {"type": "poly", "field": "Q",
                               "poly": [-4, -2, 1]}


# -- process-level entry point ---------------------------------------------------


def test_console_script_installed():
    exe = shutil.which("pcanon")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run([exe, "wedge", "3", "4", "--char", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


EXACT_WORK = """
from pcanon import GF, QQ, Matrix, Poly, lrs_product_poly, pcf_build, pcf_eval
for field in (QQ, GF(101)):
    a = Matrix(field, [[2, 1, 0], [0, 2, 0], [1, 0, 3]])
    b = a * a
    assert pcf_eval(pcf_build(b), 9) == b ** 9
    lrs_product_poly([Poly(field, [-1, -1, 1]), Poly(field, [-2, 1])])
"""


def test_import_does_not_load_numpy():
    # numpy serves only complex-field eigenvalues, ranks and products, so
    # exact work starts and runs without it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for work in ("", EXACT_WORK):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, pcanon\n{work}\nprint('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


def test_public_names_resolve_once():
    import pcanon

    assert len(pcanon.__all__) == len(set(pcanon.__all__))
    missing = [name for name in pcanon.__all__ if not hasattr(pcanon, name)]
    assert missing == []


def test_closed_pipe_exits_quietly():
    # `pcanon ... | grep -q` closes the pipe early; that is not an error
    src = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "pcanon.cli", "pcf", SEMICIRCULANT],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
