import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import plqo.cli
from plqo.cli import run
from plqo.errors import VerificationFailed

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid(capsys):
    code, out, err = invoke(capsys, "check", "O(T)")
    assert code == 0
    assert out.startswith("VALID")
    assert "[RCOF]" in out and "[RR 1]" in out
    assert err == ""


def test_check_invalid_writes_countermodel(capsys, tmp_path):
    target = tmp_path / "cm.json"
    code, out, _ = invoke(
        capsys,
        "check",
        "((O(B1)) & (O(B2))) <-> (O(B1 & B2))",
        "-o",
        str(target),
    )
    assert code == 1
    assert out.startswith("INVALID")
    doc = json.loads(target.read_text())
    assert doc["generic"]["nc"] == [["B1", "B2"]]

    # the emitted file is a model of the negation
    code, out, _ = invoke(
        capsys,
        "eval",
        "--model",
        str(target),
        "--formula",
        "!(((O(B1)) & (O(B2))) <-> (O(B1 & B2)))",
    )
    assert code == 0
    assert "SATISFIED" in out


def test_check_json_proof(capsys):
    code, out, _ = invoke(capsys, "check", "--json", "O(T)")
    assert code == 0
    doc = json.loads(out.split("VALID\n", 1)[1])
    assert doc["lines"][-1]["formula"] == "O(T)"


def test_sat_and_unsat(capsys):
    code, out, _ = invoke(capsys, "sat", "P(B1) = 1/2")
    assert code == 0 and out.startswith("SATISFIABLE")
    code, out, _ = invoke(capsys, "sat", "P(T) < 1")
    assert code == 1 and out.startswith("UNSATISFIABLE")


def test_entail(capsys):
    code, out, _ = invoke(
        capsys,
        "entail",
        "--premise",
        "O(B1 & B2)",
        "--conclusion",
        "P(B1 & B2) >= 0",
    )
    assert code == 0 and out.startswith("ENTAILED")
    code, out, _ = invoke(capsys, "entail", "--conclusion", "P(B1) = 1")
    assert code == 1 and out.startswith("NOT ENTAILED")


def test_one_parser_serves_every_run(capsys):
    """The parser is built once per process; runs through it print and
    exit as through a fresh one.  The second entailment holds only if the
    first one's premise leaks into its --premise list."""
    argvs = [
        ["entail", "--premise", "P(B1) = 0", "--conclusion", "P(B1) < 1"],
        ["entail", "--premise", "P(B2) = 1", "--premise", "O(B1 & B2)", "--conclusion", "P(B1) < 1"],
        ["entail", "--conclusion", "P(B1) < 1"],
        ["check", "--json", "O(T)"],
        ["sat", "P(B1) = 1/2 & !O(B1 & B2)"],
    ]
    shared = [invoke(capsys, *argv) for argv in argvs]
    assert plqo.cli.build_parser() is plqo.cli.build_parser()
    fresh = []
    for argv in argvs:
        plqo.cli.build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 1, 0, 0]


def test_at_file_formula(capsys, tmp_path):
    f = tmp_path / "phi.txt"
    f.write_text("O(T)\n")
    code, out, _ = invoke(capsys, "check", f"@{f}")
    assert code == 0 and out.startswith("VALID")


@pytest.mark.parametrize(
    "content, error",
    [
        (b"\n\n  O(B1) &\n", "error[parse]: 4:1: expected a formula\n"),
        (b"O(B1)\n& O(\xff)", "error[parse]: 2:5: unexpected character '\ufffd'\n"),
    ],
    ids=["positions-count-from-the-file-start", "not-utf-8"],
)
def test_at_file_formula_is_parsed_as_written(capsys, tmp_path, content, error):
    f = tmp_path / "phi.txt"
    f.write_bytes(content)
    assert invoke(capsys, "check", f"@{f}") == (2, "", error)


def test_parse_error_exit_2(capsys):
    code, _, err = invoke(capsys, "check", "O(B1")
    assert code == 2
    assert err.startswith("error[parse]:")


def test_missing_file_exit_2(capsys):
    code, _, err = invoke(capsys, "check", "@/no/such/file")
    assert code == 2
    assert err.startswith("error[io]:")


def test_usage_error_exit_2(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys)[0] == 2


def test_budget_exit_3(capsys):
    code, _, err = invoke(capsys, "essential", " & ".join(f"B{i}" for i in range(1, 18)))
    assert code == 3
    assert err.startswith("error[budget]:")
    assert "17 symbols exceeds budget 16" in err


def test_check_over_seventeen_symbols_prints_nothing(capsys):
    conj = " & ".join(f"B{i}" for i in range(1, 18))
    code, out, err = invoke(capsys, "check", f"(O({conj}) & P(B1 & B17) = 1/3) -> P(B1) >= 1/3")
    assert (code, out) == (3, "")
    assert err == "error[budget]: distribution system over 17 symbols exceeds budget 16\n"


def test_huge_numeral_is_a_budget_error(capsys):
    code, out, err = invoke(capsys, "check", "P(B1) < " + "9" * 5000)
    assert (code, out) == (3, "")
    assert err.startswith("error[budget]:")
    assert "5000 digits" in err and "budget 1000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "symbols, masses",
    [
        (["X1"], ["1/2", "1/2"]),
        (["BB1"], ["1/2", "1/2"]),
        (["B1"], ["1/2", "x"]),
        (["B2", "B02"], ["1/4", "3/4"]),
        # the masses are indexed by code over the symbols as given
        (["B2", "B1"], ["0", "1", "0", "0"]),
    ],
    ids=["X1", "BB1", "bad-mass", "B2-B02", "descending"],
)
def test_genmodel_rejects_malformed_spec(capsys, symbols, masses):
    code, out, err = invoke(capsys, "genmodel", "--symbols", *symbols, "--masses", *masses)
    assert (code, out) == (2, "")
    assert err.startswith("error[spec-invalid]:")


def test_genmodel_malformed_nc_pair_is_spec_invalid(capsys):
    code, out, err = invoke(
        capsys, "genmodel", "--symbols", "B1", "B2", "--nc", "B1", "--masses", *["1/4"] * 4
    )
    assert (code, out) == (2, "")
    assert err.startswith("error[spec-invalid]:")


def test_genmodel_names_the_symbols_of_a_malformed_nc_pair(capsys):
    code, out, err = invoke(capsys, "genmodel", "--symbols", "B1", "--nc", "B1,B1", "--masses", "1", "0")
    assert (code, out, err) == (2, "", "error[spec-invalid]: malformed nc pair [B1]\n")


_STRUCTURE = {"dim": 2, "state": ["1", "0"], "pqvs": {"B1": [["1", "0"], ["0", "0"]]}}


@pytest.mark.parametrize(
    "structure, assignment",
    [
        (dict(_STRUCTURE, state=["abc", "0"]), None),
        (dict(_STRUCTURE, state=["sqrt(2", "0"]), None),
        (dict(_STRUCTURE, state=["1/0", "0"]), None),
        (dict(_STRUCTURE, dim="two"), None),
        (dict(_STRUCTURE, pqvs={"B1": "xy"}), None),
        ([_STRUCTURE], None),
        (dict(_STRUCTURE, state="10"), None),
        (_STRUCTURE, {"x\u00b2": "1/2"}),
        (_STRUCTURE, {"x1": "y"}),
        (_STRUCTURE, ["x1", "1/2"]),
        (dict(_STRUCTURE, state=[0.6, "1e400"]), None),
        (dict(_STRUCTURE, state=[0.6, 10**400]), None),
    ],
    ids=[
        "state-abc", "state-unclosed-sqrt", "state-zero-denominator", "dim-string",
        "projector-string", "document-list", "state-string", "assign-superscript-key",
        "assign-bad-value", "assign-list", "float-state-text-past-float-range",
        "float-state-integer-past-float-range",
    ],
)
def test_malformed_files_are_spec_invalid(capsys, tmp_path, structure, assignment):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(structure))
    argv = ["eval", "--model", str(model), "--formula", "O(T)"]
    if assignment is not None:
        assign = tmp_path / "a.json"
        assign.write_text(json.dumps(assignment))
        argv += ["--assign", str(assign)]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error[spec-invalid]:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "formula, model, error",
    [
        ("P(B1) = 1/0", None, "error[parse]: 1:11: zero denominator"),
        ("P(B1) = 1/", None, "error[parse]: 1:11: expected a denominator"),
        ("P(B1) =", None, "error[parse]: 1:8: expected a term"),
        ("P(B1)", None, "error[parse]: 1:6: expected a comparison"),
        ("O(B1) O(B2)", None, "error[parse]: 1:7: trailing input starting at 'O'"),
        ("O(T)", "not json", "error[spec-invalid]: <model> is not a JSON document:"
                             " Expecting value: line 1 column 1 (char 0)"),
        ("O(T)", dict(_STRUCTURE, state=[[1], "0"]),
         "error[spec-invalid]: complex entry must be a [re, im] pair: [1]"),
        ("O(T)", dict(_STRUCTURE, state=[None, "0"]), "error[spec-invalid]: not a scalar: None"),
        ("O(T)", {"generic": {"symbols": ["B1"], "nc": [], "masses": [-1, 2]}},
         "error[spec-invalid]: masses must be nonnegative"),
        ("O(T)", dict(_STRUCTURE, pqvs={"B1": [["1", "0"]]}),
         "error[dim-mismatch]: projector is not square"),
        ("O(T)", dict(_STRUCTURE, pqvs={"B1": [["1"]]}),
         "error[dim-mismatch]: projector for B1 has wrong dimension"),
    ],
    ids=[
        "zero-denominator", "no-denominator", "no-term", "no-comparison", "trailing-input",
        "model-not-json", "state-entry-one-part", "state-entry-null", "negative-mass",
        "projector-not-square", "projector-wrong-dimension",
    ],
)
def test_hostile_input_is_one_error_line(capsys, tmp_path, formula, model, error):
    """``check`` of a malformed formula, or ``eval`` over a malformed model
    file, exits 2 with one error line and nothing on stdout."""
    path = tmp_path / "m.json"
    argv = ["check", formula]
    if model is not None:
        path.write_text(model if isinstance(model, str) else json.dumps(model))
        argv = ["eval", "--model", str(path), "--formula", formula]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == error.replace("<model>", str(path)) + "\n"


# The product of two 30-digit primes: no trial divisor within the bound splits it.
_SEMIPRIME = (10**29 + 319) * (10**29 + 379)


def _eval_in_subprocess(tmp_path, doc):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "plqo.cli", "eval", "--model", str(model), "--formula", "O(B1)"],
        capture_output=True, text=True, env=env, timeout=5,
    )


def test_large_semiprime_mass_is_a_budget_error(capsys, tmp_path):
    masses = [f"1/{_SEMIPRIME}", f"{_SEMIPRIME - 1}/{_SEMIPRIME}"]
    code, out, _ = invoke(capsys, "genmodel", "--symbols", "B1", "--masses", *masses)
    assert code == 0
    done = _eval_in_subprocess(tmp_path, json.loads(out))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error[budget]:")
    assert "Traceback" not in done.stderr


def test_large_semiprime_radicand_is_a_budget_error(tmp_path):
    doc = dict(_STRUCTURE, state=[f"sqrt({_SEMIPRIME})", "0"])
    done = _eval_in_subprocess(tmp_path, doc)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error[budget]:")
    assert "Traceback" not in done.stderr


_GENERIC_B1 = {"generic": {"symbols": ["B1"], "nc": [], "masses": ["1e-10000000", "1"]}}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "{m}", "--assign", "{a}", "--formula", "P(B1) = x1"],
        ["eval", "--model", "{generic}", "--formula", "O(B1)"],
        ["genmodel", "--symbols", "B1", "--masses", "1e-10000000", "1"],
        ["eval", "--model", "{state}", "--formula", "O(B1)"],
    ],
    ids=["assignment", "generic-spec-mass", "genmodel-mass", "state-entry"],
)
def test_exponent_text_is_a_budget_error(capsys, tmp_path, argv):
    files = {
        "m": _STRUCTURE,
        "a": {"x1": "1e10000000"},
        "generic": _GENERIC_B1,
        "state": dict(_STRUCTURE, state=["1e10000000", "0"]),
    }
    for key, doc in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    argv = [arg.format(**{key: tmp_path / f"{key}.json" for key in files}) for arg in argv]
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error[budget]:") and "budget 1000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, error, seconds",
    [
        (["eval", "--model", "{state}", "--formula", "O(B1)"], 2, "error[spec-invalid]:", 1),
        (["eval", "--model", "{generic}", "--formula", "O(B1)"], 2, "error[spec-invalid]:", 1),
        (["eval", "--model", "{m}", "--assign", "{a}", "--formula", "O(B1)"], 2,
         "error[spec-invalid]:", 1),
        (["eval", "--model", "{radicand}", "--formula", "O(B1)"], 3, "error[budget]:", 0.1),
    ],
    ids=["state-entry", "generic-spec-mass", "assignment", "radicand-1001-digits"],
)
def test_numbers_in_text_are_ascii_and_capped(capsys, tmp_path, argv, code, error, seconds):
    # a mass whose exponent is written in Arabic-Indic digits: 10^9999999
    mass = "1e" + "\u0669" * 7
    files = {
        "m": _STRUCTURE,
        "a": {"x1": "\u0661/\u0662"},
        "state": dict(_STRUCTURE, state=["\u0661", "0"]),
        "generic": {"generic": {"symbols": ["B1"], "nc": [], "masses": [mass, "1"]}},
        "radicand": dict(_STRUCTURE, state=["sqrt(" + "7" * 1001 + ")", "0"]),
    }
    for key, doc in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    argv = [arg.format(**{key: tmp_path / f"{key}.json" for key in files}) for arg in argv]
    start = time.perf_counter()
    got, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert (got, out) == (code, "")
    assert err.startswith(error)
    assert "Traceback" not in err


def test_prob_is_the_probability_satisfaction_uses(capsys, tmp_path):
    # B2 is inessential in B1 & (B2 | !B2) and incompatible with B1
    model = tmp_path / "m.json"
    masses = ["1/4"] * 4
    invoke(capsys, "genmodel", "--symbols", "B1", "B2", "--nc", "B1,B2", "--masses", *masses,
           "-o", str(model))
    alpha = "B1 & (B2 | !B2)"
    code, out, _ = invoke(
        capsys, "eval", "--model", str(model), "--prob", alpha, "--formula", f"P({alpha}) = 1/2"
    )
    assert (code, out) == (0, "prob = 1/2\nSATISFIED\n")
    code, _, err = invoke(capsys, "eval", "--model", str(model), "--prob", "B1 & B2")
    assert code == 2 and err.startswith("error[incompatible-family]:")


def test_eval_tol_selects_tolerance_mode(capsys, tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"dim": 1, "state": [1.0000001], "pqvs": {}}))
    code, _, err = invoke(capsys, "eval", "--model", str(model), "--formula", "O(T)")
    assert code == 2 and err.startswith("error[spec-invalid]:")  # float entries: 1e-9
    code, out, _ = invoke(
        capsys, "eval", "--model", str(model), "--formula", "O(T)", "--tol", "1e-3"
    )
    assert (code, out) == (0, "SATISFIED\n")


_NOT_A_PROJECTOR = {
    "dim": 2,
    "state": ["1", "0"],
    "pqvs": {"B1": [["1", "0"], ["0", "0"]], "B2": [[1, 1], [0, 3]]},
}


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1"])
@pytest.mark.parametrize("doc", [_NOT_A_PROJECTOR, {"generic": {"symbols": ["B1"], "nc": [],
                                                                 "masses": ["1/2", "1/2"]}}],
                         ids=["dense", "generic"])
def test_eval_tol_must_be_finite_and_nonnegative(capsys, tmp_path, tol, doc):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    code, out, err = invoke(
        capsys, "eval", "--model", str(model), f"--tol={tol}", "--formula", "P(B1) = 5"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error[spec-invalid]: tolerance must be a finite number >= 0")
    assert err.rstrip().endswith(f"not {float(tol)!r}")


@pytest.mark.parametrize(
    "formula, code",
    [("P(B1) < 1{zeros}", 0), ("P(B1) = 1{zeros}", 1), ("P(B1) < -1{zeros}", 1),
     ("P(B1) = -1{zeros}", 1), ("P(B1) < 1", 0), ("P(B1) = 9/25", 0)],
    ids=["less", "equal", "less-negative", "equal-negative", "less-1", "equal-9/25"],
)
def test_eval_tolerance_mode_decides_constants_past_float_range(capsys, tmp_path, formula, code):
    # P(B1) = 0.36 in tolerance mode
    model = tmp_path / "m.json"
    doc = {"dim": 2, "state": [0.6, 0.8], "pqvs": {"B1": [[1.0, 0.0], [0.0, 0.0]]}}
    model.write_text(json.dumps(doc))
    formula = formula.format(zeros="0" * 400)
    got, out, err = invoke(capsys, "eval", "--model", str(model), "--formula", formula)
    assert (got, out, err) == (code, "SATISFIED\n" if code == 0 else "NOT SATISFIED\n", "")


def test_eval_tol_zero_is_a_tolerance(capsys, tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"dim": 1, "state": [1.0], "pqvs": {}}))
    code, out, _ = invoke(capsys, "eval", "--model", str(model), "--tol", "0", "--formula", "O(T)")
    assert (code, out) == (0, "SATISFIED\n")
    model.write_text(json.dumps(_NOT_A_PROJECTOR))
    code, _, err = invoke(capsys, "eval", "--model", str(model), "--tol", "1e-3", "--formula", "O(T)")
    assert code == 2 and err.startswith("error[spec-invalid]:")


@pytest.mark.parametrize(
    "structure, assignment, named",
    [
        (dict(_STRUCTURE, pqvs={"B1": [["1", "0"], ["0", "0"]], "B01": [["0", "0"], ["0", "0"]]}),
         None, "projector B01 names B1 a second time"),
        (_STRUCTURE, {"x1": "1/2", "x01": "1/3"}, "assignment variable x01 names x1 a second time"),
        ({"generic": {"symbols": ["B1", "B01"], "nc": [], "masses": ["1/2", "1/2"]}}, None,
         "symbol B1 named twice"),
        ({"generic": {"symbols": ["B1"], "nc": [], "masses": [True, False]}}, None,
         "bad mass True"),
        (_STRUCTURE, {"x1": True}, "bad value of x1: True"),
    ],
    ids=["pqvs-B1-B01", "assign-x1-x01", "generic-B1-B01", "generic-bool-masses", "assign-bool"],
)
def test_repeats_and_booleans_in_files_are_spec_invalid(capsys, tmp_path, structure, assignment,
                                                        named):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(structure))
    argv = ["eval", "--model", str(model), "--prob", "B1"]
    if assignment is not None:
        assign = tmp_path / "a.json"
        assign.write_text(json.dumps(assignment))
        argv += ["--assign", str(assign)]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error[spec-invalid]: {named}\n"


def test_genmodel_eval_roundtrip(capsys, tmp_path):
    target = tmp_path / "m.json"
    code, out, _ = invoke(
        capsys,
        "genmodel",
        "--symbols",
        "B1",
        "B2",
        "--nc",
        "B1,B2",
        "--masses",
        "1/4",
        "1/4",
        "1/4",
        "1/4",
        "-o",
        str(target),
    )
    assert code == 0
    code, out, _ = invoke(
        capsys, "eval", "--model", str(target), "--formula", "O(B1 & B2)"
    )
    assert code == 1 and "NOT SATISFIED" in out
    code, out, _ = invoke(
        capsys, "eval", "--model", str(target), "--formula", "O(B1)", "--prob", "B1"
    )
    assert code == 0 and "prob = 1/2" in out


def test_eval_with_assignment(capsys, tmp_path):
    model = tmp_path / "m.json"
    invoke(capsys, "genmodel", "--symbols", "B1", "--masses", "3/4", "1/4", "-o", str(model))
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps({"x1": "1/4"}))
    code, out, _ = invoke(
        capsys,
        "eval",
        "--model",
        str(model),
        "--assign",
        str(assign),
        "--formula",
        "P(B1) = x1",
    )
    assert code == 0 and "SATISFIED" in out


def test_eval_reads_the_assignment_check_wrote(capsys, tmp_path):
    """A countermodel with a numeric variable, read back without --assign,
    is evaluated under the assignment its file holds; an --assign file
    still wins."""
    formula = "P(B1) = x1 -> P(B1) = 0"
    model = tmp_path / "cm.json"
    code, _, _ = invoke(capsys, "check", "-o", str(model), formula)
    assert code == 1
    assert json.loads(model.read_text())["assignment"] == {"x1": "1/2"}
    argv = ["eval", "--model", str(model), "--formula", f"!({formula})"]
    assert invoke(capsys, *argv) == (0, "SATISFIED\n", "")
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps({"x1": "0"}))
    assert invoke(capsys, *argv, "--assign", str(assign)) == (1, "NOT SATISFIED\n", "")


@pytest.mark.parametrize("member", [5, {"x1": "1/0"}])
def test_eval_refuses_a_bad_assignment_member(capsys, tmp_path, member):
    model = tmp_path / "m.json"
    invoke(capsys, "genmodel", "--symbols", "B1", "--masses", "1/2", "1/2", "-o", str(model))
    doc = json.loads(model.read_text())
    model.write_text(json.dumps(dict(doc, assignment=member)))
    code, out, err = invoke(capsys, "eval", "--model", str(model), "--formula", "O(B1)")
    assert code == 2 and out == ""
    assert err.startswith("error[spec-invalid]:")


def test_translate_over_budget_prints_nothing(capsys):
    """Past the budget on the terms of the paper's Q (10 to 16 symbols) or
    on valuations (17), translate fails before printing a row."""
    for n, message in [
        (10, "distribution system over 10 symbols has 60119 rows of 1108694 terms,"
             " past budget 524288 terms"),
        (13, "distribution system over 13 symbols has 1602594 rows of 68711457 terms,"
             " past budget 524288 terms"),
        (17, "distribution system over 17 symbols exceeds budget 16"),
    ]:
        conj = " & ".join(f"B{i}" for i in range(1, n + 1))
        code, out, err = invoke(capsys, "translate", f"O({conj})")
        assert code == 3 and out == ""
        assert err == f"error[budget]: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "O(B1 & B2) -> O(B1 & B2 & B3)"],
        ["sat", "O(B1)"],
        ["entail", "--premise", "O(B1 & B2)", "--conclusion", "O(B1 & B2 & B3)"],
    ],
    ids=["check", "sat", "entail"],
)
def test_unwritable_output_file_prints_nothing(capsys, tmp_path, argv):
    code, out, err = invoke(capsys, *argv, "-o", str(tmp_path / "missing" / "x.json"))
    assert code == 2 and out == ""
    assert err.startswith("error[io]:")


def test_eval_parse_error_after_prob_prints_nothing(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, _, _ = invoke(capsys, "genmodel", "--symbols", "B1", "--masses", "1/2", "1/2", "-o", str(path))
    assert code == 0
    code, out, _ = invoke(capsys, "eval", "--model", str(path), "--prob", "B1")
    assert code == 0 and out == "prob = 1/2\n"
    code, out, err = invoke(
        capsys, "eval", "--model", str(path), "--prob", "B1", "--formula", "O(B1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error[parse]:")


def test_translate_prints_a_coefficient_other_than_one(capsys):
    code, out, _ = invoke(capsys, "translate", "P(B1) = 2 * x1")
    assert code == 0
    assert out.endswith("# atom P(B1) = 2 * x1\n-2*xn[1] + x[B1] = 0\n")


def test_translate_output(capsys):
    code, out, _ = invoke(capsys, "translate", "P(B1) = 1/2")
    assert code == 0
    assert "x[!B1] + x[B1] = 1" in out
    assert "# atom P(B1) = 1/2" in out
    assert "x[B1] = 1/2" in out
    # every formula of this system names a mass or a marginal: its three
    # formula rows are 0 = 0 and dropped
    code, out, _ = invoke(
        capsys, "translate", "P(B1 & !B2) = 1/3 & P(B1) = 1/2 & P(T) = 1 -> O(B1 & B2)"
    )
    assert code == 0
    assert out == (
        "# distribution system\n"
        "-x[!B1&!B2] <= 0\n"
        "x[!B1&!B2] <= 1\n"
        "-x[B1&!B2] <= 0\n"
        "x[B1&!B2] <= 1\n"
        "-x[!B1&B2] <= 0\n"
        "x[!B1&B2] <= 1\n"
        "-x[B1&B2] <= 0\n"
        "x[B1&B2] <= 1\n"
        "x[!B1&!B2] + x[!B1&B2] + x[B1&!B2] + x[B1&B2] = 1\n"
        "-x[!B1&!B2] - x[!B1&B2] - x[B1&!B2] - x[B1&B2] + x[T] = 0\n"
        "x[!B1] - x[!B1&!B2] - x[!B1&B2] = 0\n"
        "x[B1] - x[B1&!B2] - x[B1&B2] = 0\n"
        "-x[!B1&!B2] + x[!B2] - x[B1&!B2] = 0\n"
        "-x[!B1&B2] - x[B1&B2] + x[B2] = 0\n"
        "-xp[B1,B2] <= 0\n"
        "# atom P(B1 & !B2) = 1/3\n"
        "xp[B1,B2] = 0\n"
        "x[B1&!B2] = 1/3\n"
        "# atom P(B1) = 1/2\n"
        "x[B1] = 1/2\n"
        "# atom P(T) = 1\n"
        "x[T] = 1\n"
        "# atom O(B1 & B2)\n"
        "xp[B1,B2] = 0\n"
    )


def test_essential_and_anf(capsys):
    code, out, _ = invoke(capsys, "essential", "B1 & (B2 | !B2)")
    assert code == 0 and out.strip() == "B1"
    code, out, _ = invoke(capsys, "essential", "B1 | !B1")
    assert code == 0 and out.strip() == "(none)"
    code, out, _ = invoke(capsys, "anf", "B1 & B2")
    assert code == 0 and out.strip() == "B1*B2"


def test_prove_schemas(capsys):
    code, out, _ = invoke(
        capsys, "prove", "--schema", "fig1", "--alpha1", "B1", "--alpha2", "!(!B1)"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    code, out, _ = invoke(capsys, "prove", "--schema", "fig2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[-1].endswith("[MP 1,3]")
    code, out, _ = invoke(capsys, "prove", "--schema", "obs_taut")
    assert code == 0 and len(out.strip().splitlines()) == 2
    assert out == _lines(
        "  1  forall ((Q[;]) -> (O(T))^R)  [RCOF]",
        "  2  O(T)  [RR 1]",
    )
    code, out, _ = invoke(capsys, "prove", "--schema", "fig2")
    assert code == 0 and out == _lines(
        "  1  O(B1 & B2)  [HYP]",
        "  2  forall ((Q[B1,B2;(B1 & B2)] & (O(B1 & B2))^R) -> (P(B1 & B2) >= 0)^R)  [RCOF]",
        "  3  O(B1 & B2) -> P(B1 & B2) >= 0  [RR 2]",
        "  4  P(B1 & B2) >= 0  [MP 1,3]",
    )
    code, out, _ = invoke(
        capsys, "prove", "--schema", "fig1", "--alpha1", "B1 & B2", "--alpha2", "B2 & B1"
    )
    assert code == 0 and out == _lines(
        "  1  forall ((Q[B1,B2;] & (O(B1 & B2))^R) -> (O(B2 & B1))^R)  [RCOF]",
        "  2  O(B1 & B2) -> O(B2 & B1)  [RR 1]",
        "  3  forall ((Q[B1,B2;] & (O(B2 & B1))^R) -> (O(B1 & B2))^R)  [RCOF]",
        "  4  O(B2 & B1) -> O(B1 & B2)  [RR 3]",
        "  5  (O(B1 & B2) -> O(B2 & B1)) -> (O(B2 & B1) -> O(B1 & B2))"
        " -> (O(B1 & B2) <-> O(B2 & B1))  [TT]",
        "  6  (O(B2 & B1) -> O(B1 & B2)) -> (O(B1 & B2) <-> O(B2 & B1))  [MP 2,5]",
        "  7  O(B1 & B2) <-> O(B2 & B1)  [MP 4,6]",
    )


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


def test_each_sentence_prints_its_own_base(capsys):
    """Each sentence prints Q over the symbols and P formulas of the
    implication it derives, not over the whole formula's."""
    code, out, _ = invoke(capsys, "check", "P(B1 & B2) >= 0 & O(B3 -> B3)")
    assert code == 0 and out == _lines(
        "VALID",
        "  1  forall ((Q[B1,B2;(B1 & B2)]) -> (P(B1 & B2) >= 0)^R)  [RCOF]",
        "  2  P(B1 & B2) >= 0  [RR 1]",
        "  3  forall ((Q[B3;]) -> (O(B3 -> B3))^R)  [RCOF]",
        "  4  O(B3 -> B3)  [RR 3]",
        "  5  (P(B1 & B2) < 0) | (O(B3 -> B3) -> (P(B1 & B2) >= 0) & O(B3 -> B3))  [TT]",
        "  6  O(B3 -> B3) -> (P(B1 & B2) >= 0) & O(B3 -> B3)  [MP 2,5]",
        "  7  (P(B1 & B2) >= 0) & O(B3 -> B3)  [MP 4,6]",
    )


def test_prove_schema_precondition_failure(capsys):
    code, _, err = invoke(
        capsys, "prove", "--schema", "fig1", "--alpha1", "B1", "--alpha2", "B2"
    )
    assert code == 2
    assert err.startswith("error[schema-precondition]:")


@pytest.mark.parametrize(
    "alphas", [[], ["--alpha1", "B1"], ["--alpha2", "B1"]], ids=["neither", "alpha1", "alpha2"]
)
def test_prove_fig1_without_both_alphas_is_a_usage_error(capsys, alphas):
    code, out, err = invoke(capsys, "prove", "--schema", "fig1", *alphas)
    assert code == 2 and out == ""
    assert err.startswith("usage: plqo prove")
    assert "error: --schema fig1 needs --alpha1 and --alpha2" in err and "0:0" not in err


@pytest.mark.parametrize(
    "formula",
    ["!" * 3000 + "O(T)", "(" * 2000 + "O(T)" + ")" * 2000],
    ids=["3000-negations", "2000-parentheses"],
)
def test_deep_nesting_is_a_budget_error(formula):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "plqo.cli", "check", formula],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("error[budget]:")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("length", [8, 12, 13])
def test_iff_chain_is_decided_quickly(length):
    """A chain of <-> shares each operand between two parents; the search
    expands each shared subformula once, not once per path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "plqo.cli", "check", " <-> ".join(["O(B1)"] * length)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 0
    assert done.stdout.startswith("VALID\n")


def test_iff_chain_past_the_unfolded_budget_is_a_budget_error():
    """14 links unfold to more nodes than the parser admits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "plqo.cli", "check", " <-> ".join(["O(B1)"] * 14)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error[budget]:")
    assert "formula unfolds to 90103 nodes, budget 65536" in done.stderr


def test_failures_never_exit_as_verdicts(capsys, monkeypatch):
    def rejected(phi):
        raise VerificationFailed("countermodel failed re-verification")

    monkeypatch.setattr(plqo.cli, "check_valid", rejected)
    code, out, err = invoke(capsys, "check", "O(T)")
    assert (code, out) == (2, "")
    assert err.startswith("error[verify]:")

    def crashed(phi):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(plqo.cli, "check_valid", crashed)
    code, out, err = invoke(capsys, "check", "O(T)")
    assert (code, out) == (2, "")
    assert err == "error[internal]: ZeroDivisionError: boom\n"
