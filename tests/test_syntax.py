import random
import time
from fractions import Fraction

import pytest

from plqo.cli import run
from plqo.errors import BudgetExceeded, ParseError
from plqo.hilbert import satisfies
from plqo.genmodel import GenericModelSpec, build_generic
from plqo.parser import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_UNFOLDED,
    PLQO,
    _Parser,
    _where,
    parse_classical,
    parse_plqo,
    parse_term,
    print_plqo,
    print_term,
)
from plqo.translate import DecideSystem, translate_formula
from plqo.prop import VERUM, atom, canonical_text, conj, is_tautology, print_prop
from plqo.decide import Invalid, Valid, check_valid
from plqo.syntax import (
    EMPTY_ASSIGNMENT,
    Add,
    Assignment,
    Const,
    NumVar,
    ObsAtom,
    ONE,
    PImpl,
    PNeg,
    PlqoLiteral,
    ProbAtom,
    ZERO,
    atoms_of,
    eval_term,
    fraction,
    nnf_dnf_literals,
    numeral,
    pconj,
    pdisj,
    piff,
    prob_ge,
    prob_gt,
    prob_le,
    term_of_fraction,
)

from formgen import gen_classical, gen_plqo, gen_term
from oracles import (
    closed,
    ladder_parse_classical,
    ladder_parse_plqo,
    ladder_parse_term,
    letters_formula,
    token_positions,
    tree_dnf_literals,
    tree_size,
)


def test_numeral_roundtrip():
    assert (ZERO, ONE) == (Const(Fraction(0)), Const(Fraction(1)))
    for n in range(0, 12):
        assert numeral(n) == Const(Fraction(n))
        assert eval_term(numeral(n)) == n
        assert parse_term(print_term(numeral(n))) == numeral(n)
    assert parse_term("1 + 1") == parse_term("2") == numeral(2)
    assert parse_term("0 + 1") == Add(ZERO, ONE)
    big = "9" * 1000
    assert parse_term(big) == Const(Fraction(int(big)))
    assert print_term(parse_term(big)) == big


def test_fraction_terms():
    assert fraction(3, 4) == Const(Fraction(3, 4))
    assert eval_term(fraction(3, 4)) == Fraction(3, 4)
    assert eval_term(term_of_fraction(Fraction(-5, 6))) == Fraction(-5, 6)
    assert eval_term(term_of_fraction(2)) == 2
    assert parse_term("2/4") == parse_term("1/2") == fraction(1, 2)
    assert print_term(parse_term("2/4")) == "1/2"
    assert parse_plqo("P(B1) = 2/4") == parse_plqo("P(B1) = 1/2")
    with pytest.raises(ValueError):
        Const(Fraction(-1))
    for q in (Fraction(-5, 6), Fraction(-3), Fraction(0), Fraction(7, 3), Fraction(4)):
        t = term_of_fraction(q)
        assert isinstance(t, Const) or isinstance(t.child, Const)
        assert parse_term(print_term(t)) == t
        assert eval_term(t) == q


def test_closed_and_assignment():
    t = Add(NumVar(1), fraction(1, 2))
    assert not closed(t)
    assert closed(fraction(1, 2))
    rho = Assignment({1: Fraction(1, 4)})
    assert eval_term(t, rho) == Fraction(3, 4)
    assert eval_term(NumVar(9), rho) == 0  # unmentioned variables default to 0


def test_term_print_parse_roundtrip():
    rng = random.Random(23)
    for _ in range(300):
        t = gen_term(rng, allow_vars=True)
        assert parse_term(print_term(t)) == t


def test_derived_comparisons_shapes():
    alpha = atom(1)
    p = fraction(1, 2)
    le = prob_le(alpha, p)
    assert le == pdisj(ProbAtom(alpha, "=", p), ProbAtom(alpha, "<", p))
    assert prob_ge(alpha, p) == PNeg(ProbAtom(alpha, "<", p))
    assert prob_gt(alpha, p) == PNeg(le)


def test_derived_comparisons_print_and_reparse():
    for text in ["P(B1) <= 1/2", "P(B1) >= 1/2", "P(B1) > 1/2", "P(B1) < 1/2", "P(B1) = 1/2"]:
        f = parse_plqo(text)
        assert print_plqo(f) == text
        assert parse_plqo(print_plqo(f)) == f


def test_negation_expansion_mode():
    f = PNeg(ObsAtom(atom(1)))
    assert print_plqo(f) == "!O(B1)"


def test_plqo_roundtrip_corpus():
    rng = random.Random(31)
    n = 0
    for _ in range(1000):
        f = gen_plqo(rng, [1, 2, 3], rng.randint(0, 3), allow_vars=True)
        text = print_plqo(f)
        assert parse_plqo(text) == f, text
        n += 1
    assert n >= 1000


@pytest.mark.parametrize(
    "text, printed, verdict",
    [
        ("B1 <-> B2", "B1 <-> B2", None),
        ("(B1 <-> B2) <-> B3", "B1 <-> B2 <-> B3", None),
        ("O(B1 <-> B2) -> O(B2 <-> B1)", "O(B1 <-> B2) -> O(B2 <-> B1)", Valid),
        ("P(B1) = 1 - x1 -> P(!B1) = x1", "(P(B1) = 1 - x1) -> P(!B1) = x1", Valid),
        ("P(B1) = 2 * x1 -> P(B1) = x1 + x1", "(P(B1) = 2 * x1) -> P(B1) = x1 + x1", Valid),
        ("P(B1) > -(x2)", "P(B1) > -x2", None),
        (
            "P(B1) = (1 + x1) * 1/2 & P(B1) = 1/4 -> P(B2) > -(x1)",
            "((P(B1) = (1 + x1) * 1/2) -> !(P(B1) = 1/4)) | (P(B2) > -x1)",
            Invalid,
        ),
    ],
    ids=[
        "classical-iff", "classical-iff-left-assoc", "obs-iff", "term-difference",
        "term-product", "unary-minus", "mixed-invalid",
    ],
)
def test_grammar_paths_round_trip_and_decide(text, printed, verdict):
    classical = "O(" not in text and "P(" not in text
    parse, show = (parse_classical, print_prop) if classical else (parse_plqo, print_plqo)
    f = parse(text)
    assert show(f) == printed
    assert parse(printed) == f
    if verdict is None:
        return
    found = check_valid(f)
    assert isinstance(found, verdict)
    if verdict is Invalid:
        assert satisfies(found.structure, found.assignment, PNeg(f))


@pytest.mark.parametrize(
    "text, code, error",
    [
        ("P(B1) = x1 * x1", 3, "error[nonlinear]:"),
        ("O(B1)\n  & P(B2) = 1/2\n-> )", 2, "error[parse]: 3:4: "),
        ("O(B\u0661)", 2, "error[parse]: 1:3: unexpected character 'B'"),
        ("P(B1) = \u0661", 2, "error[parse]: 1:9: unexpected character"),
        ("P(B1) = x\u0661", 2, "error[parse]: 1:9: unexpected character 'x'"),
    ],
    ids=["nonlinear-product", "error-on-line-3", "non-ascii-symbol-index", "non-ascii-numeral",
         "non-ascii-variable-index"],
)
def test_grammar_paths_errors(capsys, text, code, error):
    assert run(["check", text]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(error)


def test_nested_obs_rejected():
    with pytest.raises(ParseError):
        parse_plqo("O(O(B1))")
    with pytest.raises(ParseError):
        parse_plqo("P(P(B1) = 1) = 1")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_plqo("O(B1) &")
    assert exc.value.line == 1
    assert exc.value.column >= 8


def test_where_matches_the_per_token_count():
    """An error's line:column, computed from its token's offset, is the
    one counted token by token, at every token of a seeded corpus."""
    pieces = ["O(B1)", "P(", "B12", "x3", "1/2", "->", "<->", "&", "(", ")", "=", " ", "  ",
              "\n", "\r\n", "\n\n ", "\t", "\u00a0", "\u0661", "\u00e9", "#"]
    rng = random.Random(53)
    offsets = 0
    for _ in range(1500):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        for pos, line_column in token_positions(text).items():
            assert _where(text, pos) == line_column, (text, pos)
            offsets += 1
    assert offsets > 15000


def _at(text, offset):
    """The ``line:column: `` prefix of an error at ``offset`` of ``text``."""
    line, column = token_positions(text)[offset]
    return f"{line}:{column}: "


def test_budget_errors_point_at_their_token():
    """On a text of several lines, each parser budget names the line:column
    of the token it stopped at: the long numeral, the first parenthesis past
    the nesting cap, and the ``<->`` read after the link that unfolds too
    far."""
    head = "O(B1)\n\t& P(B2) = 1/2\r\n  & "
    numeral = head + "P(B3) <\n  " + "9" * (MAX_DIGITS + 1)
    with pytest.raises(BudgetExceeded) as exc:
        parse_plqo(numeral)
    assert str(exc.value).startswith(_at(numeral, numeral.index("9")) + "numeral of")
    nested = head + "\n" + "(" * (MAX_DEPTH + 5) + "O(B1)" + ")" * (MAX_DEPTH + 5)
    with pytest.raises(BudgetExceeded) as exc:
        parse_plqo(nested)
    # the parenthesis after the one that opens level MAX_DEPTH + 1
    opened = nested.index("(" * (MAX_DEPTH + 5)) + MAX_DEPTH + 1
    assert str(exc.value).startswith(_at(nested, opened) + "nesting depth")
    chain = "\r\n<->\t".join(["O(B1)"] * 15)
    with pytest.raises(BudgetExceeded) as exc:
        parse_plqo(chain)
    # 14 operands unfold too far (test_iff_chain_past_the_unfolded_budget_is_a_budget_error)
    after = [i for i in range(len(chain)) if chain.startswith("<->", i)][13]
    assert str(exc.value).startswith(_at(chain, after) + "formula unfolds to")


def test_atoms_of_first_occurrence_order():
    f = parse_plqo("P(B1) = 1 -> O(B2) -> P(B1) = 1")
    atoms = atoms_of(f)
    assert len(atoms) == 2
    assert isinstance(atoms[0], ProbAtom)
    assert isinstance(atoms[1], ObsAtom)
    assert DecideSystem.of(f).delta == [atom(1)]


def _truth(f, lit_values):
    """Evaluate a formula under a truth assignment to its atoms."""
    if isinstance(f, (ObsAtom, ProbAtom)):
        return lit_values[f]
    if isinstance(f, PNeg):
        return not _truth(f.child, lit_values)
    return (not _truth(f.left, lit_values)) or _truth(f.right, lit_values)


def test_dnf_equivalent_to_formula():
    rng = random.Random(37)
    for _ in range(150):
        f = gen_plqo(rng, [1, 2], rng.randint(0, 3))
        atoms = atoms_of(f)
        disjuncts = nnf_dnf_literals(f)
        for mask in range(1 << len(atoms)):
            values = {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}
            direct = _truth(f, values)
            via_dnf = any(
                all(values[l.atom] == l.positive for l in lits) for lits in disjuncts
            )
            assert direct == via_dnf


def test_dnf_matches_the_tree_expansion():
    """Expanding each shared subformula once and cleaning up at every join
    gives the disjuncts, in the same order and literal order, of expanding
    every path of the tree and cleaning up at the end."""
    rng = random.Random(41)
    for _ in range(300):
        f = gen_plqo(rng, [1, 2, 3], rng.randint(0, 3))
        g = gen_plqo(rng, [1, 2], rng.randint(0, 2))
        for shared in (f, piff(f, g), piff(piff(g, f), pconj(f, g)), piff(g, piff(f, f))):
            assert nnf_dnf_literals(shared) == tree_dnf_literals(shared)


def test_dnf_of_an_iff_chain_costs_its_length():
    """A chain of <-> is a DAG with 2^n paths; each node is expanded once."""
    f = ObsAtom(atom(1))
    for _ in range(20):
        f = piff(f, ObsAtom(atom(1)))
    start = time.perf_counter()
    disjuncts = nnf_dnf_literals(f)
    assert time.perf_counter() - start < 0.1
    assert disjuncts == [[PlqoLiteral(True, ObsAtom(atom(1)))]]
    assert atoms_of(f) == [ObsAtom(atom(1))]


def test_dnf_prunes_complementary():
    a = ObsAtom(atom(1))
    f = pconj(a, PNeg(a))
    assert nnf_dnf_literals(f) == []


def test_dnf_budget():
    f = ObsAtom(atom(1))
    for k in range(2, 17):
        f = pconj(f, ObsAtom(atom(k)))
    assert len(nnf_dnf_literals(f)) == 1
    with pytest.raises(BudgetExceeded, match="17 distinct atoms exceeds DNF budget 16"):
        nnf_dnf_literals(pconj(f, ObsAtom(atom(17))))


# Formulas of nesting depth n, one per kind of level the parser counts.
_DEPTH_SHAPES = {
    "negations": lambda n: "!" * (n - 1) + "O(B1)",
    "left-conjunction": lambda n: " & ".join(["O(B1)"] * n),
    "right-conjunction": lambda n: "O(B1) & (" * (n - 1) + "O(B1)" + ")" * (n - 1),
    "classical": lambda n: "O(" + "B1 & (" * (n - 1) + "B1" + ")" * (n - 1) + ")",
    "unary-minus": lambda n: "P(B1) < " + "-" * (n - 1) + "1",
}


@pytest.mark.parametrize("shape", _DEPTH_SHAPES)
def test_formula_at_the_depth_cap_goes_through_every_stage(shape):
    make = _DEPTH_SHAPES[shape]
    too_deep = f"nesting depth {MAX_DEPTH + 1} exceeds budget {MAX_DEPTH}"
    with pytest.raises(BudgetExceeded, match=too_deep):
        parse_plqo(make(MAX_DEPTH + 1))
    f = parse_plqo(make(MAX_DEPTH))
    print_plqo(f)
    nnf_dnf_literals(f)
    translate_formula(f)
    s = build_generic(GenericModelSpec.make([atom(1).symbol], [], [Fraction(1, 2)] * 2))
    satisfies(s, EMPTY_ASSIGNMENT, f)
    check_valid(f)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_plqo, "!" * 5000 + "O(B1)"),
        (parse_plqo, "(" * 200 + "O(B1)" + ")" * 200),
        (parse_plqo, "O(B1) & " * 800 + "O(B1)"),
        (parse_plqo, "P(B1) = " + "x1 * " * 800 + "x1"),
        (parse_classical, "!" * 5000 + "B1"),
        (parse_classical, "B1 -> " * 800 + "B1"),
        (parse_term, "-" * 5000 + "1"),
        (parse_term, "(" * 200 + "1" + ")" * 200),
    ],
    ids=["negations", "parentheses", "conjunction-chain", "product-chain",
         "classical-negations", "classical-implications", "term-negations", "term-parentheses"],
)
def test_deep_nesting_is_a_budget_error_in_the_library(parse, text):
    with pytest.raises(BudgetExceeded, match=f"nesting depth {MAX_DEPTH + 1} exceeds budget"):
        parse(text)


def test_printed_prefix_runs_reparse():
    """A run of prefix operators opens no nesting level, so its printed
    form parses again; the tree depth still bounds the run (see
    test_deep_nesting_is_a_budget_error_in_the_library)."""
    f = parse_plqo("P(B1) < " + "-" * 40 + "1")
    printed = print_plqo(f)
    assert printed.startswith("P(B1) < -(-(")
    assert parse_plqo(printed) == f
    g = parse_plqo("!" * 40 + "O(B1)")
    assert parse_plqo(print_plqo(g)) == g


def test_iff_prints_as_itself():
    """``<->`` prints as parsed: left-associative, one level per link, so
    its printed form is as deep as the tree and as long as the text."""
    f = parse_classical("B1 <-> B2 <-> B3")
    assert print_prop(f) == "B1 <-> B2 <-> B3"
    assert canonical_text(f) == "B1<->B2<->B3"
    assert parse_classical(print_prop(f)) == parse_classical(canonical_text(f)) == f
    g = parse_classical("B1 <-> (B2 <-> B3)")
    assert print_prop(g) == "B1 <-> (B2 <-> B3)"
    assert parse_classical(print_prop(g)) == g
    text = "O(B1) <-> " + "!" * 62 + "O(B1)"
    h = parse_plqo(text)
    assert print_plqo(h) == text
    assert parse_plqo(print_plqo(h)) == h


def _iff_chain(atom_text, links):
    return " <-> ".join([atom_text] * links)


@pytest.mark.parametrize(
    "text, too_big",
    [
        (_iff_chain("O(B1)", 13), _iff_chain("O(B1)", 14)),
        (_iff_chain("O(B1 & B2)", 12), _iff_chain("O(B1 & B2)", 13)),
        (
            f"P({_iff_chain('B1', 13)}) = 1/2 -> O({_iff_chain('B1', 13)})",
            f"P({_iff_chain('B1', 14)}) = 1/2 -> O({_iff_chain('B1', 14)})",
        ),
    ],
    ids=["obs-chain", "obs-conjunction-chain", "classical-chain"],
)
def test_unfolded_size_is_budgeted(text, too_big):
    """Each operand of <-> occurs twice in the tree, so a chain doubles
    its unfolded size per link while its depth grows by one; the parser
    bounds the size every tree walker pays."""
    start = time.perf_counter()
    check_valid(parse_plqo(text))
    assert time.perf_counter() - start < 2
    with pytest.raises(BudgetExceeded, match=f"formula unfolds to [0-9]+ nodes, budget {MAX_UNFOLDED}"):
        parse_plqo(too_big)


def test_recorded_sizes_are_the_tree_sizes():
    """The parser records the unfolded size of each node it builds and
    reads a built part's record back at each place the part occurs; every
    record equals the plain count of the node's tree, on a seeded corpus
    and on <-> chains, whose operands are shared, up to the budget."""
    rng = random.Random(20261020)
    texts = [print_plqo(gen_plqo(rng, [1, 2, 3], 4, atom_depth=3, allow_vars=True))
             for _ in range(200)]
    texts += [_iff_chain("O(B1)", n) for n in range(2, 14)]
    texts += [f"P({_iff_chain('B1', n)}) = 1/2 -> O({_iff_chain('B1', n)})" for n in (2, 7, 13)]
    texts.append(_iff_chain("P(B1 <-> B2) < 1/2 - x1 * 3", 9))
    records = 0
    for text in texts:
        p = _Parser(text)
        f = p.formula(PLQO)
        p.expect_eof()
        for _, size, node in p.built.values():
            assert size == tree_size(node), text
            records += 1
        assert p.unfolded(f) == tree_size(f) <= MAX_UNFOLDED
    assert records > 2000


def _parsed(parse, text):
    """The tree ``parse`` reads from ``text``, or its error's class and
    message, line:column included."""
    try:
        return parse(text)
    except (ParseError, BudgetExceeded) as e:
        return type(e), str(e)


# Pieces of text, well formed and not: lone letters that start no token, a
# digit outside ASCII, numerals one digit past the budget, line breaks, tabs
_FUZZ_PIECES = [
    "O(", "P(", "O(B1)", "P(B2) = 1/2", "B1", "B12", "x3", "1", "1/2", "0", "/0", "/", "->",
    "<->", "<-", "|", "&", "!", "(", ")", "=", "<", "<=", ">", ">=", "+", "-", "*", "T", "F",
    " ", "\r\n", "\n", "\t", "B", "x", "B\u0661", "9" * (MAX_DIGITS + 1),
    "B" + "1" * (MAX_DIGITS + 1), "x" + "2" * MAX_DIGITS, "#", "\u00e9", "\u00a0",
]


def test_parser_matches_the_ladder_parser():
    """Each entry point reads the tree the ladder parser reads, or raises
    the same error class with the same message and line:column, on a
    seeded formgen corpus, on seeded piece-fuzz texts (random pieces, and
    formgen texts with pieces spliced in), and on the depth shapes and
    <-> chains at and one past their budgets."""
    rng = random.Random(31)
    corpus = []
    for _ in range(700):
        corpus.append(print_plqo(gen_plqo(rng, [1, 2, 3], 4, atom_depth=3, allow_vars=True)))
        corpus.append(print_prop(gen_classical(rng, [1, 2, 3], 4)))
        corpus.append(print_term(gen_term(rng, allow_vars=True)))
    fuzz = ["".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randint(0, 12)))
            for _ in range(6000)]
    for _ in range(6000):
        text = print_plqo(gen_plqo(rng, [1, 2, 3], 3, atom_depth=2, allow_vars=True))
        for _ in range(rng.randint(1, 2)):
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(_FUZZ_PIECES + [""]) + text[i + rng.randint(0, 3):]
        fuzz.append(text)
    caps = [make(n) for make in _DEPTH_SHAPES.values() for n in (MAX_DEPTH, MAX_DEPTH + 1)]
    # 13 operands unfold within MAX_UNFOLDED, 14 past it
    caps += [_iff_chain(a, n) for a in ("O(B1)", "B1") for n in (13, 14)]
    caps += [f"P({_iff_chain('B1', n)}) = 1/2 -> O(B1)" for n in (13, 14)]
    outcomes = {}
    for text in corpus + fuzz + caps:
        for parse, ladder in [(parse_plqo, ladder_parse_plqo),
                              (parse_classical, ladder_parse_classical),
                              (parse_term, ladder_parse_term)]:
            got = _parsed(parse, text)
            assert got == _parsed(ladder, text), (parse.__name__, text)
            kind = got[0] if type(got) is tuple else "tree"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert len(corpus) >= 2000 and len(fuzz) >= 10000
    assert min(outcomes.get(k, 0) for k in ("tree", ParseError, BudgetExceeded)) > 100, outcomes


def _balanced_conjunction(leaves):
    """``leaves`` copies of O(B1) joined by & as a balanced tree."""
    if leaves == 1:
        return "O(B1)"
    half = _balanced_conjunction(leaves // 2)
    return f"{half} & ({half})"


def test_parse_time_is_linear_in_the_text():
    """A balanced & tree of 8,192 atoms parses within 2 s, and with a
    trailing & fails at its end within 2 s: a line:column found for every
    token, not only for the error, would make both quadratic."""
    text = _balanced_conjunction(8192)
    assert len(text) == 81915
    start = time.perf_counter()
    parse_plqo(text)
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^1:81918: expected a formula$"):
        parse_plqo(text + " &")
    assert time.perf_counter() - start < 2


def test_literal_complement():
    lit = PlqoLiteral(True, ObsAtom(atom(1)))
    assert lit.complement().positive is False
    assert lit.complement().complement() == lit
    assert lit.formula() == ObsAtom(atom(1))
    assert lit.complement().formula() == PNeg(ObsAtom(atom(1)))
    with pytest.raises(ValueError):
        PlqoLiteral(True, PNeg(ObsAtom(atom(1))))


def test_letters_abstraction_tautology():
    a = ObsAtom(atom(1))
    assert is_tautology(letters_formula(PImpl(a, a)))
    assert not is_tautology(letters_formula(a))
