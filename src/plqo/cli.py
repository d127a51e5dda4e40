"""Command-line front end.

Exit codes: 0 = valid / satisfiable / satisfied, 1 = invalid /
unsatisfiable / not satisfied, 2 = usage, parse, verification or internal
error, 3 = budget (nesting depth included) or unsupported-fragment error.
Errors go to standard error with a machine-parsable ``error[CODE]:`` prefix.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import BudgetExceeded, PlqoError, SpecInvalid, UnsupportedNonlinear
from . import prop
from .parser import parse_classical, parse_plqo
from .translate import q_of, translate_atom
from .syntax import EMPTY_ASSIGNMENT, atoms_of
from .hilbert import (
    DEFAULT_TOL, assignment_from_json, load_assignment, prob, read_json, satisfies,
    structure_from_json, symbol_of,
)
from .genmodel import GenericModelSpec, spec_to_json
from .decide import (
    Invalid,
    Satisfiable,
    Valid,
    check_entail,
    check_sat,
    check_valid,
    derive_schema,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_formula_arg(raw):
    """The formula text, or the file named after ``@`` as written, line
    ends included; a byte that is not UTF-8 reads as U+FFFD, which the
    parser rejects at its line:column."""
    if raw.startswith("@"):
        with open(raw[1:], encoding="utf-8", errors="replace", newline="") as fh:
            return fh.read()
    return raw


def _plqo(raw):
    return parse_plqo(_read_formula_arg(raw))


def _classical(raw):
    return parse_classical(_read_formula_arg(raw))


def _countermodel_text(spec, rho, out_path, label):
    """The (counter)model as JSON, or, when ``out_path`` is given, the line
    saying the file was written there; the file is written first."""
    doc = spec_to_json(spec)
    if rho.numeric:
        doc["assignment"] = {f"x{k}": str(v) for k, v in sorted(rho.numeric.items())}
    text = json.dumps(doc, indent=2)
    if not out_path:
        return text
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
    return f"{label} written to {out_path}"


def _proof_text(proof, as_json):
    return json.dumps(proof.to_json(), indent=2) if as_json else proof.render()


def _emit_verdict(verdict, args, yes_label, no_label):
    """Print a verdict's label and its artifact: the proof, or the
    (counter)model as JSON.  Exit 0 for Valid or Satisfiable, 1 otherwise.
    The artifact is built, and its file written, before anything is
    printed, so a command that fails prints nothing."""
    yes = isinstance(verdict, (Valid, Satisfiable))
    if isinstance(verdict, (Invalid, Satisfiable)):
        label = "model" if yes else "countermodel"
        artifact = _countermodel_text(verdict.spec, verdict.assignment, args.output, label)
    else:
        artifact = _proof_text(verdict.proof, args.json)
    print(yes_label if yes else no_label)
    print(artifact)
    return EXIT_TRUE if yes else EXIT_FALSE


def _cmd_check(args):
    return _emit_verdict(check_valid(_plqo(args.formula)), args, "VALID", "INVALID")


def _cmd_sat(args):
    return _emit_verdict(check_sat(_plqo(args.formula)), args, "SATISFIABLE", "UNSATISFIABLE")


def _cmd_entail(args):
    premises = [_plqo(p) for p in args.premise]
    verdict = check_entail(premises, _plqo(args.conclusion))
    return _emit_verdict(verdict, args, "ENTAILED", "NOT ENTAILED")


def _cmd_eval(args):
    tol = args.tol if args.tol is not None else DEFAULT_TOL if args.float else None
    doc = read_json(args.model)
    structure = structure_from_json(doc, tol)
    # without --assign, the assignment check -o wrote beside its countermodel
    rho = (load_assignment(args.assign) if args.assign
           else assignment_from_json(doc.get("assignment", {})))
    lines = []  # printed only once every argument is read
    if args.prob:
        lines.append(f"prob = {prob(structure, _classical(args.prob))}")
    code = EXIT_TRUE
    if args.formula:
        code = EXIT_TRUE if satisfies(structure, rho, _plqo(args.formula)) else EXIT_FALSE
        lines.append("SATISFIED" if code == EXIT_TRUE else "NOT SATISFIED")
    for line in lines:
        print(line)
    return code


def _cmd_genmodel(args):
    symbols = [symbol_of(s) for s in args.symbols]
    nc = []
    for pair in args.nc or []:
        names = pair.split(",")
        if len(names) != 2:
            raise SpecInvalid(f"nc pair must be two comma-separated symbols: {pair!r}")
        nc.append([symbol_of(n.strip()) for n in names])
    spec = GenericModelSpec.make(symbols, nc, args.masses)
    print(_countermodel_text(spec, EMPTY_ASSIGNMENT, args.output, "model"))
    return EXIT_TRUE


def _cmd_translate(args):
    phi = _plqo(args.formula)
    parts = ["# distribution system", "\n".join(map(str, q_of(phi)))]
    for atom in atoms_of(phi):
        parts += [f"# atom {atom}", "\n".join(map(str, translate_atom(atom)))]
    print("\n".join(parts))
    return EXIT_TRUE


def _cmd_essential(args):
    alpha = _classical(args.formula)
    ess = sorted(prop.essential_symbols(alpha))
    print(" ".join(str(s) for s in ess) if ess else "(none)")
    return EXIT_TRUE


def _cmd_anf(args):
    print(prop.anf(_classical(args.formula)))
    return EXIT_TRUE


def _cmd_prove(args):
    if args.schema == "fig1":
        if not (args.alpha1 and args.alpha2):
            args.usage_error("--schema fig1 needs --alpha1 and --alpha2")
        proof = derive_schema("fig1", _classical(args.alpha1), _classical(args.alpha2))
    else:
        proof = derive_schema(args.schema)
    print(_proof_text(proof, args.json))
    return EXIT_TRUE


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as
    it was, and each ``append`` option copies its default."""
    top = argparse.ArgumentParser(
        prog="plqo",
        description="Decide validity/satisfiability of observation-logic "
        "formulas, evaluate them on finite quantum structures, and emit "
        "calculus proofs or verified countermodels.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="proofs as JSON")
        p.add_argument("-o", "--output", help="write countermodel/model file here")

    p = sub.add_parser("check", help="decide validity")
    p.add_argument("formula", help="formula, or @file")
    add_common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sat", help="decide satisfiability")
    p.add_argument("formula")
    add_common(p)
    p.set_defaults(fn=_cmd_sat)

    p = sub.add_parser("entail", help="finite entailment")
    p.add_argument("--premise", action="append", default=[], help="repeatable")
    p.add_argument("--conclusion", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_entail)

    p = sub.add_parser("eval", help="evaluate on a structure file")
    p.add_argument("--model", required=True)
    p.add_argument("--assign", help="JSON assignment file")
    p.add_argument("--formula")
    p.add_argument("--prob", help="also print the probability of this classical formula")
    p.add_argument("--float", action="store_true", help="tolerance mode, at 1e-9 unless --tol is given")
    p.add_argument("--tol", type=float, help="tolerance mode at this tolerance")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("genmodel", help="write a generic structure file")
    p.add_argument("--symbols", nargs="+", required=True)
    p.add_argument("--nc", nargs="*", help="pairs like B1,B2")
    p.add_argument("--masses", nargs="+", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_genmodel)

    p = sub.add_parser("translate", help="print the constraint translation")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("essential", help="essential symbols of a classical formula")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_essential)

    p = sub.add_parser("anf", help="algebraic normal form of a classical formula")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_anf)

    p = sub.add_parser("prove", help="emit a derivation schema")
    p.add_argument("--schema", required=True, choices=("fig1", "fig2", "obs_taut"))
    p.add_argument("--alpha1")
    p.add_argument("--alpha2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_prove, usage_error=p.error)

    return top


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:  # argparse's --help, or its usage error
        return EXIT_USAGE if e.code not in (0, None) else 0
    except (BudgetExceeded, UnsupportedNonlinear) as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except PlqoError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error[budget]: nesting exceeds the recursion limit ({limit})", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as e:  # a crash must never read as a verdict
        print(f"error[internal]: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
