"""The benchmark's query texts are printed by ``print_plqo``, so a printer
change can silently change what the benchmark measures: pin a digest of
every query text per workload and seed.  The countermodels the workloads
produce are checked against the spec's normalized form, and the systems
of the sentences they refute against the systems of those sentences'
formulas.
``perfbench/workloads.py`` is imported, never written."""

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations

import pytest

from plqo import cli, decide, genmodel
from plqo.genmodel import GenericModelSpec, spec_from_json, spec_to_json
from plqo.parser import parse_plqo
from plqo.translate import DecideSystem, PairVar

from formgen import gen_plqo, perfbench_workloads
from oracles import normalized_row, valuation_sets

# sha256 over "id<TAB>api<TAB>text...<LF>" per query, in workload order.
PINNED = {
    (1, "valid-ladder"): "015a12991b4fd21c152e08b26806ee0815f0ed279413d2ff33f18432dd78fa2d",
    (1, "countermodel-ladder"): "0e72557284db7a292048122125c63283fc5ad641eaabee63ab7f62071a823614",
    (1, "acceptance-mix"): "c98438437b5fc31e661caef9911b76e4e76209ea0b4dae51a37bdf81c649eb36",
    (2, "valid-ladder"): "015a12991b4fd21c152e08b26806ee0815f0ed279413d2ff33f18432dd78fa2d",
    (2, "countermodel-ladder"): "0e72557284db7a292048122125c63283fc5ad641eaabee63ab7f62071a823614",
    (2, "acceptance-mix"): "fe0f29b6b5cf05912f0eaf212e50bc6f2a3174ea9af1a6da4c3bee0175d89880",
}


@pytest.fixture(scope="module")
def workloads():
    return perfbench_workloads()


@pytest.mark.parametrize("seed, name", list(PINNED), ids=[f"{n}-seed{s}" for s, n in PINNED])
def test_workload_query_texts_are_pinned(workloads, seed, name):
    digest = hashlib.sha256()
    for q in workloads.build(name, seed):
        digest.update(("\t".join((q.id, q.api) + q.texts) + "\n").encode())
    assert digest.hexdigest() == PINNED[seed, name]


def _run(q):
    """One workload query through the public API, as the benchmark sends it."""
    if q.api == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(["check", q.texts[0]])
    formulas = [parse_plqo(t) for t in q.texts]
    if q.api == "valid":
        return decide.check_valid(formulas[0])
    if q.api == "sat":
        return decide.check_sat(formulas[0])
    return decide.check_entail(formulas[:-1], formulas[-1])


def _spec_by_make(base, system, witness):
    """The spec of a witness of ``system`` through ``GenericModelSpec.make``:
    each mass placed at the code over ``base`` of the set its valuation
    makes true, each pair with a positive variable incompatible."""
    bit = {s: 1 << j for j, s in enumerate(base)}
    placed = [0] * (1 << len(base))
    for u, var in zip(valuation_sets(system.a_p), system.masses):
        placed[sum(bit[s] for s in u)] = witness[var]
    nc = [p for p in combinations(base, 2) if witness.get(PairVar.of(*p), 0) > 0]
    return GenericModelSpec.make(base, nc, placed)


@pytest.mark.parametrize("seed", [1, 2])
def test_countermodel_specs_equal_their_normalized_form(workloads, monkeypatch, seed):
    """Every countermodel the decider builds on the workloads holds the
    spec that ``make`` and a JSON round trip give for the same witness,
    with identical JSON text."""
    specs = []

    def recorded(base, system, witness):
        out = genmodel.structure_of_witness(base, system, witness)
        specs.append((out[2], _spec_by_make(base, system, witness)))
        return out

    monkeypatch.setattr(decide, "structure_of_witness", recorded)
    for name in ("valid-ladder", "countermodel-ladder", "acceptance-mix"):
        for q in workloads.build(name, seed):
            _run(q)
    assert len(specs) > 100
    for spec, made in specs:
        text = json.dumps(spec_to_json(spec))
        for other in (made, spec_from_json(spec_to_json(spec)["generic"])):
            assert other == spec
            assert json.dumps(spec_to_json(other)) == text


@pytest.mark.parametrize("corpus", ["seed1", "seed2", "formgen"])
def test_sentence_systems_from_literals_equal_those_from_formulas(workloads, monkeypatch, corpus):
    """Every sentence the search builds, on both ladders and the mix at
    seeds 1 and 2 and on a formgen corpus, gets from its literals' atoms
    the system its formula gives: the same symbols, formulas, masses, rows
    and row names.  No name is given twice or names a pair, and a formula's
    name is missing exactly when its reference row is 0 = 0."""
    sentences = []
    refute = decide._refute

    def recorded(sent):
        sentences.append(sent)
        return refute(sent)

    monkeypatch.setattr(decide, "_refute", recorded)
    if corpus == "formgen":
        rng = random.Random(31)
        for _ in range(150):
            decide.check_valid(gen_plqo(rng, [1, 2, 3], 3, atom_depth=2, allow_vars=True))
    else:
        for name in ("valid-ladder", "countermodel-ladder", "acceptance-mix"):
            for q in workloads.build(name, int(corpus[-1])):
                _run(q)
    assert len(sentences) > 150
    for sent in sentences:
        mine, theirs = DecideSystem(sent.atoms()), DecideSystem.of(sent.formula())
        assert (mine.base, mine.delta, mine.a_p, mine.masses) == (
            theirs.base, theirs.delta, theirs.a_p, theirs.masses)
        rows = mine.rows()
        assert rows == theirs.rows()
        named = dict(rows)
        assert len(named) == len(rows) and all(name[0] != "pair" for name in named)
        for k in range(len(mine.delta)):
            name = ("formula", k)
            assert (name in named) == bool(normalized_row(mine, name).terms), name


def test_the_checker_builds_each_sentence_system_once(workloads, monkeypatch):
    """check_proof builds each RCOF line's system once, through
    DecideSystem.rows, on every proof the search checks on both ladders
    and the mix at seed 1."""
    proofs = []
    check_proof = decide.check_proof
    monkeypatch.setattr(decide, "check_proof", lambda proof: proofs.append(proof) or check_proof(proof))
    for name in ("valid-ladder", "countermodel-ladder", "acceptance-mix"):
        for q in workloads.build(name, 1):
            _run(q)
    built = []
    rows = DecideSystem.rows
    monkeypatch.setattr(DecideSystem, "rows", lambda self: built.append(self) or rows(self))
    sentences = 0
    for proof in proofs:
        built.clear()
        assert check_proof(proof)
        lines = sum(line.kind == "RCOF" for line in proof.lines)
        assert len(built) == lines, proof.render()
        sentences += lines
    assert sentences > 60
