"""Parser, printer, desugaring and enumeration."""

import pytest
from hypothesis import given

from conftest import SIG_P, SIG_PQ, formulas
from modalkit.syntax import (
    MAX_FORMULA_DEPTH, And, Atom, Bot, Box, Dia, Formula, Implies, MetaVar, Not,
    Or, ParseError,
    Schema, SchemaError, Signature, Top, UnknownAtomError, atoms_of, depth,
    desugar, enumerate_formulas, infer_signature, instantiate, is_core,
    metavars_of, parse, parse_schema, pretty, size, to_sexpr,
)


def test_parse_precedence_and_associativity():
    f = parse("p -> q -> p", SIG_PQ)
    assert f == Implies(Atom("p"), Implies(Atom("q"), Atom("p")))
    g = parse("p & q | p", SIG_PQ)
    assert g == Or(And(Atom("p"), Atom("q")), Atom("p"))
    h = parse("~box p & dia q", SIG_PQ)
    assert h == And(Not(Box(Atom("p"))), Dia(Atom("q")))


def test_parse_keywords_and_symbols_agree():
    assert parse("not p", SIG_P) == parse("~p", SIG_P)
    assert parse("box p", SIG_P) == Box(Atom("p"))
    assert parse("true -> false", SIG_P) == Implies(Top(), Bot())


def test_unknown_atom_is_reported_with_its_name():
    with pytest.raises(UnknownAtomError) as exc:
        parse("p -> zeta", SIG_PQ)
    assert exc.value.name == "zeta"


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("p -> (q", SIG_PQ)
    assert exc.value.position >= 6


@pytest.mark.parametrize("text", ["", "->", "p q", "box", "(p", "p)"])
def test_malformed_inputs_rejected(text):
    with pytest.raises(ParseError):
        parse(text, SIG_PQ)


# each shape at AST depth k; parentheses are counted on their own
_NESTED = {
    "implication": lambda k: "(p -> " * k + "p" + ")" * k,
    "left implication": lambda k: "(" * k + "p" + " -> p)" * k,
    "diamonds": lambda k: "dia " * k + "p",
    "negations": lambda k: "~" * k + "p",
    "conjunction": lambda k: " & ".join(["p"] * (k + 1)),
    "disjunction": lambda k: " | ".join(["p"] * (k + 1)),
    "mixed": lambda k: "~(" * (k // 2) + "p" + ")" * (k // 2) + " & p" * (k - k // 2),
}


@pytest.mark.parametrize("shape", _NESTED.values(), ids=_NESTED.keys())
def test_nesting_limit(shape):
    f = parse(shape(MAX_FORMULA_DEPTH), SIG_P)
    assert depth(f) == MAX_FORMULA_DEPTH
    assert parse_schema(shape(MAX_FORMULA_DEPTH).replace("p", "?p")).metavars == ("p",)
    for k in (MAX_FORMULA_DEPTH + 1, 2000):
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse(shape(k), SIG_P)


def test_parentheses_are_limited_on_their_own():
    limit = MAX_FORMULA_DEPTH
    assert parse("(" * limit + "p" + ")" * limit, SIG_P) == Atom("p")
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse("(" * (limit + 1) + "p" + ")" * (limit + 1), SIG_P)
    assert exc.value.position == limit


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(())
    with pytest.raises(ValueError):
        Signature(("p", "p"))
    with pytest.raises(ValueError):
        Signature(("box",))
    with pytest.raises(ValueError):
        Signature(("3p",))


def test_infer_signature_first_occurrence_order():
    assert infer_signature("beta -> alpha & beta").atoms == ("beta", "alpha")
    assert infer_signature("true").atoms == ("p",)


def test_sexpr_golden():
    f = parse("box (p -> q) -> dia p", SIG_PQ)
    assert to_sexpr(f) == ("(implies (box (implies (atom p) (atom q))) "
                           "(dia (atom p)))")
    assert to_sexpr(desugar(parse("true", SIG_PQ), SIG_PQ)) == \
        "(implies (atom p) (atom p))"


def test_pretty_golden():
    assert pretty(parse("box(p->q)->box p->box q", SIG_PQ)) == \
        "box (p -> q) -> box p -> box q"
    assert pretty(parse("~(p & ~q)", SIG_PQ)) == "~(p & ~q)"
    assert pretty(parse("(p | q) & p", SIG_PQ)) == "(p | q) & p"


@given(formulas())
def test_parse_pretty_round_trip(f):
    assert parse(pretty(f), SIG_PQ) == f


@given(formulas())
def test_desugar_is_core_and_idempotent(f):
    g = desugar(f, SIG_PQ)
    assert is_core(g)
    assert desugar(g, SIG_PQ) is g


@given(formulas(core_only=True))
def test_desugar_identity_on_core(f):
    assert desugar(f, SIG_PQ) is f


def test_desugar_definitions():
    p, q = Atom("p"), Atom("q")
    assert desugar(Dia(p), SIG_PQ) == Not(Box(Not(p)))
    assert desugar(Or(p, q), SIG_PQ) == Implies(Not(p), q)
    assert desugar(And(p, q), SIG_PQ) == Not(Implies(p, Not(q)))
    assert desugar(Top(), SIG_PQ) == Implies(p, p)
    assert desugar(Bot(), SIG_PQ) == Not(Implies(p, p))


def test_atoms_depth_size():
    f = parse("box (p -> q) -> dia p", SIG_PQ)
    assert atoms_of(f) == frozenset({"p", "q"})
    assert depth(parse("box box p", SIG_P)) == 2
    assert size(parse("p -> p", SIG_P)) == 3


def test_schema_parse_and_instantiate():
    s = parse_schema("box ?phi -> ?phi")
    assert s.metavars == ("phi",)
    inst = instantiate(s, {"phi": parse("p & q", SIG_PQ)})
    assert inst == parse("box (p & q) -> (p & q)", SIG_PQ)
    with pytest.raises(SchemaError):
        instantiate(s, {})


def test_metavars_rejected_in_plain_formulas():
    with pytest.raises(ParseError):
        parse("?phi -> p", SIG_PQ)


def test_metavar_order_is_first_occurrence():
    s = parse_schema("(?psi -> ?phi) -> ?psi")
    assert s.metavars == ("psi", "phi")
    assert metavars_of(s.body) == ("psi", "phi")


def test_instantiate_commutes_with_desugar():
    s = parse_schema("?phi -> box dia ?phi")
    arg = parse("p | q", SIG_PQ)
    a = desugar(instantiate(s, {"phi": arg}), SIG_PQ)
    b = desugar(instantiate(Schema(desugar(s.body, SIG_PQ)),
                            {"phi": desugar(arg, SIG_PQ)}), SIG_PQ)
    assert a == b


def test_enumerate_formulas_depth_one_golden():
    got = [pretty(f) for f in enumerate_formulas(SIG_P, 1)]
    assert got == ["p", "~p", "p -> p", "box p"]


def test_enumerate_formulas_counts():
    # one atom: 1 at depth 0; +3 at depth 1; +21 at depth 2 (3 negations,
    # 4*4-1 implications over the depth<=1 pool, 3 boxes)
    assert len(enumerate_formulas(SIG_P, 2)) == 25
    assert len(enumerate_formulas(SIG_PQ, 1)) == 10
    assert len(enumerate_formulas(SIG_PQ, 2)) == 122


def test_enumerate_formulas_all_parse_back():
    for f in enumerate_formulas(SIG_PQ, 2):
        assert parse(pretty(f), SIG_PQ) == f


def test_formula_equality_and_hash_are_structural():
    a = parse("box p -> p", SIG_P)
    b = parse("box p -> p", SIG_P)
    assert a == b and hash(a) == hash(b)
    assert a != parse("box p -> q", SIG_PQ)
