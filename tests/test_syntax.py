"""Parser, printer, desugaring and enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (SIG_P, SIG_PQ, SchemaError, depth, formulas, instantiate, is_core,
                      reference_tokenize)
from modalkit.syntax import (
    MAX_FORMULA_DEPTH, And, Atom, Bot, Box, Dia, Formula, Implies, LexError,
    MetaVar, Not, Or, ParseError, _tokenize,
    Schema, Signature, Top, UnknownAtomError, atoms_of,
    desugar, enumerate_formulas, infer_signature,
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


@pytest.mark.parametrize("text, message, position", [
    ("p $", "unexpected character '$' (at position 2)", 2),
    ("?", "unexpected character '?' (at position 0)", 0),
    ("?1", "unexpected character '?' (at position 0)", 0),
    ("\u25a1 p", "unexpected character '\u25a1' (at position 0)", 0),
    ("p\t->\n\t$", "unexpected character '$' (at position 6)", 6),
])
def test_lex_error_names_the_character_and_its_position(text, message, position):
    for read in (lambda t: parse(t, SIG_PQ), parse_schema):
        with pytest.raises(LexError) as exc:
            read(text)
        assert (str(exc.value), exc.value.position) == (message, position)


def test_tabs_and_newlines_are_whitespace():
    assert _tokenize("p\t->\n\tq\n") == [
        ("name", "p", 0), ("arrow", "->", 2), ("name", "q", 6), ("eof", "", 8)]
    assert parse("p\t->\n\tq\n", SIG_PQ) == Implies(Atom("p"), Atom("q"))


# mostly the lexer's own alphabet, so that texts mix tokens with the odd
# unknown character; unicode whitespace and a non-ASCII letter included
_LEXER_TEXT = st.text(st.sampled_from(list("pqz_09?~&|()->< \t\n\r\x0b\x0c\x85\u2028$\u25a1\u00e9")),
                      max_size=30) | st.text(max_size=12)


@given(_LEXER_TEXT)
def test_scanner_agrees_with_the_reference_match_loop(text):
    try:
        want = reference_tokenize(text)
    except LexError as e:
        with pytest.raises(LexError) as exc:
            _tokenize(text)
        assert (str(exc.value), exc.value.position) == (str(e), e.position)
    else:
        assert _tokenize(text) == want


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


def test_one_node_of_each_connective_golden():
    # (build, repr, s-expression, pretty); each tree is built twice
    golden = [
        (lambda: Atom("p"), "Atom('p')", "(atom p)", "p"),
        (lambda: MetaVar("a"), "MetaVar('a')", "(metavar a)", "?a"),
        (lambda: Top(), "Top()", "(top)", "true"),
        (lambda: Bot(), "Bot()", "(bot)", "false"),
        (lambda: Not(Atom("p")), "Not(Atom('p'))", "(not (atom p))", "~p"),
        (lambda: Box(Atom("p")), "Box(Atom('p'))", "(box (atom p))", "box p"),
        (lambda: Dia(Atom("q")), "Dia(Atom('q'))", "(dia (atom q))", "dia q"),
        (lambda: Implies(Atom("p"), Atom("q")), "Implies(Atom('p'), Atom('q'))",
         "(implies (atom p) (atom q))", "p -> q"),
        (lambda: Or(Atom("p"), Not(Atom("q"))), "Or(Atom('p'), Not(Atom('q')))",
         "(or (atom p) (not (atom q)))", "p | ~q"),
        (lambda: And(Box(Atom("p")), MetaVar("a")), "And(Box(Atom('p')), MetaVar('a'))",
         "(and (box (atom p)) (metavar a))", "box p & ?a"),
    ]
    for build, rep, sexpr, text in golden:
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == rep
        assert to_sexpr(a) == sexpr
        assert pretty(a) == str(a) == text
    # connectives of one arity differ by their tag alone
    assert Not(Atom("p")) != Box(Atom("p")) != Dia(Atom("p"))
    assert Top() != Bot() and Atom("p") != MetaVar("p")
    assert Implies(Atom("p"), Atom("q")) != Or(Atom("p"), Atom("q"))
