"""The benchmark's workloads: fixed ladders and a seeded random mix.

Every query is formula text; the program parses it inside the timed call.
The seeded generator lives here, not in the tests, so that edits to the
test helpers cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from plqo.parser import print_plqo
from plqo.prop import Atom, Impl, Neg, PropSymbol, VERUM, conj, disj
from plqo.syntax import NumVar, ObsAtom, PImpl, PNeg, ProbAtom, term_of_fraction


@dataclass(frozen=True)
class Query:
    """One call into the public API.

    api: "valid", "sat", "entail" (premises then conclusion in ``texts``)
    or "cli" (``plqo check`` through ``plqo.cli.run``).
    expect: the verdict kind the ladders must produce ("valid" or
    "invalid"), or None when it comes from the recorded list.
    dim: the countermodel dimension the ladder must produce, or None.
    """

    id: str
    api: str
    texts: tuple
    expect: str | None = None
    dim: int | None = None


def _conj_text(n):
    return " & ".join(f"B{i}" for i in range(1, n + 1))


def valid_ladder():
    # The probability ladder grows the distribution system Q with n at two
    # simplex calls per query; the observability disjunctions multiply the
    # case-split pools ([1,3,3] and [1,3,3,3]) over one fixed Q.
    out = []
    for n in range(3, 7):
        text = f"(O({_conj_text(n)}) & P(B1 & B{n}) = 1/3) -> P(B1) >= 1/3"
        out.append(Query(f"valid-ladder/prob-n{n}", "valid", (text,), "valid"))
    branches = ["O(B1 & B2 & B3)", "O(B2 & B3 & B4)", "O(B1 & B3 & B4)"]
    for k in (2, 3):
        text = f"O(B1 & B2 & B3 & B4) -> ({' | '.join(branches[:k])})"
        out.append(Query(f"valid-ladder/obsdisj-{k + 1}", "valid", (text,), "valid"))
    return out


def countermodel_ladder():
    # Invalid queries whose cost is the witness-to-structure build and the
    # exact re-verification on dense matrices of dimension 2^n + 2|nc|.
    out = []
    for n in range(3, 6):
        text = f"O(B1 & B2) -> O({_conj_text(n)})"
        dim = (1 << n) + 2
        out.append(Query(f"countermodel-ladder/obs-n{n}", "valid", (text,), "invalid", dim))
    text = "(P(B1 & B2) = 1/3 & P(B3 & B4) = 2/5) -> O(B1 & B2 & B3 & B4)"
    out.append(Query("countermodel-ladder/radical-n4", "valid", (text,), "invalid", 18))
    return out


# -- seeded random formulas --------------------------------------------------

# The mix's formula shapes come from one fixed corpus draw; --seed draws an
# order-preserving renaming of its symbols and numeric variables and the
# order of the queries.  Freshly drawn 150-formula corpora differ in total
# cost by about 15% (IQR over median) from seed to seed, because a query's
# cost depends mostly on its symbol count and verdict; that would swamp any
# regression bound.  A renaming that keeps the symbols' order keeps every
# system, pivot sequence and verdict the same, so only the text changes.
MIX_CORPUS_SEED = 20260827
MIX_APIS = (("valid", 90), ("sat", 23), ("entail", 22), ("cli", 15))
MIX_NAME_RANGE = range(1, 10)


def gen_classical(rng, symbols, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.08:
            return VERUM
        return Atom(PropSymbol(rng.choice(symbols)))
    kind = rng.choice(["neg", "impl", "conj", "disj"])
    a = gen_classical(rng, symbols, depth - 1)
    if kind == "neg":
        return Neg(a)
    b = gen_classical(rng, symbols, depth - 1)
    return {"impl": Impl, "conj": conj, "disj": disj}[kind](a, b)


def gen_term(rng, numvars):
    den = rng.randint(1, 4)
    t = term_of_fraction(Fraction(rng.randint(0, den), den))
    if rng.random() < 0.3:
        t = t + NumVar(rng.choice(numvars))
    return t


def gen_atom(rng, symbols, numvars):
    alpha = gen_classical(rng, symbols, 2)
    if rng.random() < 0.5:
        return ObsAtom(alpha)
    return ProbAtom(alpha, rng.choice(["=", "<"]), gen_term(rng, numvars))


def gen_plqo(rng, symbols, numvars, depth):
    """A random formula over three symbols and three numeric variables,
    drawn as the acceptance tests draw theirs."""
    if depth == 0 or rng.random() < 0.3:
        return gen_atom(rng, symbols, numvars)
    if rng.random() < 0.4:
        return PNeg(gen_plqo(rng, symbols, numvars, depth - 1))
    return PImpl(
        gen_plqo(rng, symbols, numvars, depth - 1),
        gen_plqo(rng, symbols, numvars, depth - 1),
    )


def acceptance_mix(seed):
    """150 small queries, 60% check_valid, 15% each check_sat and
    check_entail, 10% ``plqo check`` through the CLI; ids name the corpus slot, so they are the
    same for every seed."""
    names = random.Random(seed)
    symbols = tuple(sorted(names.sample(MIX_NAME_RANGE, 3)))
    numvars = tuple(sorted(names.sample(MIX_NAME_RANGE, 3)))
    rng = random.Random(MIX_CORPUS_SEED)
    apis = [api for api, count in MIX_APIS for _ in range(count)]
    rng.shuffle(apis)
    out = []
    for i, api in enumerate(apis):
        if api == "entail":
            formulas = [
                gen_plqo(rng, symbols, numvars, rng.randint(0, 1))
                for _ in range(rng.randint(1, 2))
            ]
            formulas.append(gen_plqo(rng, symbols, numvars, rng.randint(1, 2)))
        else:
            formulas = [gen_plqo(rng, symbols, numvars, rng.randint(1, 3))]
        texts = tuple(print_plqo(f) for f in formulas)
        out.append(Query(f"acceptance-mix/q{i:03d}-{api}", api, texts))
    names.shuffle(out)
    return out


def build(name, seed):
    """The query list of a workload; the ladders ignore the seed."""
    if name == "valid-ladder":
        return valid_ladder()
    if name == "countermodel-ladder":
        return countermodel_ladder()
    if name == "acceptance-mix":
        return acceptance_mix(seed)
    raise KeyError(name)


WORKLOADS = ("valid-ladder", "countermodel-ladder", "acceptance-mix")


