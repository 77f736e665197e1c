"""Axiomatic proofs: the cube of logics, the checker, and the bundled corpus.

The mutation battery is the heart of this file.  A checker that accepts
everything would sail through the happy-path tests, so each mutation takes a
known-good proof, damages exactly one thing, and demands a rejection that
names the damaged step.
"""

import copy
import fnmatch
import tomllib
from pathlib import Path

import pytest

from modalkit import hilbert
from modalkit.bitgrid import ModelSlab
from modalkit.hilbert import (
    ALL_LOGICS,
    CORPUS_NAMES,
    SCHEMAS,
    AxiomSchemaId,
    AxStep,
    Logic,
    MpStep,
    NecStep,
    Proof,
    ProofScriptError,
    check_proof,
    corpus_proof,
    corpus_proof_text,
    parse_proof_script,
    serialize_proof,
)
from modalkit.kripke import FrameProperty
from modalkit.syntax import (Atom, MetaVar, Signature, atoms_of, desugar, map_leaves,
                             parse, pretty)

from conftest import substitute_metavars

K = Logic.from_name("K")
KT = Logic.from_name("KT")


# --- logics ------------------------------------------------------------------


def test_cube_names_and_order():
    assert tuple(l.name for l in ALL_LOGICS) == ("K", "KT", "KB", "K4", "KTB", "S4", "KB4", "S5")


def test_logic_from_name_is_case_insensitive():
    assert Logic.from_name("s4").schemata == frozenset({AxiomSchemaId.T, AxiomSchemaId.FOUR})
    assert Logic.from_name("kb4") is Logic(
        frozenset({FrameProperty.SYMMETRIC, FrameProperty.TRANSITIVE}))
    with pytest.raises(ValueError):
        Logic.from_name("S3")


def test_logic_rejects_non_cube_schemata():
    # GL's frame class, and KD's: neither is a cube logic
    with pytest.raises(ValueError):
        Logic(frozenset({FrameProperty.TRANSITIVE, FrameProperty.CONVERSE_WELL_FOUNDED}))
    with pytest.raises(ValueError):
        Logic(frozenset({FrameProperty.SERIAL}))


def test_admission():
    for schema in (AxiomSchemaId.H1, AxiomSchemaId.H2, AxiomSchemaId.H3, AxiomSchemaId.KDIST):
        assert K.admits(schema)
    assert not K.admits(AxiomSchemaId.T)
    s5 = Logic.from_name("S5")
    assert s5.admits(AxiomSchemaId.T) and s5.admits(AxiomSchemaId.B) and s5.admits(AxiomSchemaId.FOUR)
    assert not s5.admits(AxiomSchemaId.LOEB)


def test_schema_id_aliases():
    assert AxiomSchemaId.from_name("k") is AxiomSchemaId.KDIST
    assert AxiomSchemaId.from_name("four") is AxiomSchemaId.FOUR
    assert AxiomSchemaId.from_name("GL") is AxiomSchemaId.LOEB
    with pytest.raises(ValueError):
        AxiomSchemaId.from_name("H9")


# --- the bundled corpus --------------------------------------------------------

# implication is right-associative, so the printer drops the outer parentheses
_CONCLUSIONS = {
    "identity": "p -> p",
    "dia_distribution": "box (p -> q) -> dia p -> dia q",
    "box_dia_conjunction": "box p -> dia q -> dia (p & q)",
}

_STEP_COUNTS = {"identity": 5, "dia_distribution": 260, "box_dia_conjunction": 377}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_proof_checks_in_base_logic(name):
    proof = corpus_proof(name)
    result = check_proof(proof, K)
    assert result.ok, result.reason
    assert pretty(result.formula) == _CONCLUSIONS[name]
    assert len(proof.steps) == _STEP_COUNTS[name]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_scripts_round_trip(name):
    proof = corpus_proof(name)
    assert parse_proof_script(serialize_proof(proof)) == proof


def test_bundled_proof_files_are_the_corpus_in_canonical_form():
    # the files are the source of truth, so guard their names, their
    # packaging and their text: each is the serializer's own output
    package = Path(__file__).parents[1] / "src" / "modalkit"
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["modalkit"]
    files = sorted((package / "proofs").glob("*.proof"))
    assert sorted(f.stem for f in files) == sorted(CORPUS_NAMES)
    for f in files:
        rel = f.relative_to(package).as_posix()
        assert any(fnmatch.fnmatch(rel, g) for g in globs), rel
        text = f.read_text()
        assert serialize_proof(parse_proof_script(text)) == text


def test_unknown_corpus_name():
    with pytest.raises(KeyError):
        corpus_proof_text("zorn")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_conclusions_hold_on_all_small_models(name):
    # what the checker certifies syntactically must be semantically valid:
    # every model up to three worlds, every designated subset
    f = corpus_proof(name).conclusion
    atoms = tuple(sorted(atoms_of(desugar(f, Signature(("p", "q"))))))
    for n in range(1, 4):
        for bits in range(1, 1 << n):
            designated = tuple(w for w in range(n) if bits >> w & 1)
            slab = ModelSlab(n, atoms, designated)
            assert slab.validity_mask(desugar(f, Signature(atoms))) == slab.full


# --- mutation battery ----------------------------------------------------------


@pytest.fixture
def identity_proof():
    return corpus_proof("identity")


def _assert_rejected(proof, logic=K, step=None):
    result = check_proof(proof, logic)
    assert not result.ok
    assert result.reason
    if step is not None:
        assert result.failed_step == step
    return result


def test_mutation_schema_swapped(identity_proof):
    bad = copy.deepcopy(identity_proof)
    first = bad.steps[0]
    assert isinstance(first, AxStep) and first.schema is AxiomSchemaId.H1
    first.schema = AxiomSchemaId.H3
    _assert_rejected(bad)


def test_mutation_binding_changed(identity_proof):
    bad = copy.deepcopy(identity_proof)
    sig = Signature(("p", "q"))
    for step in bad.steps:
        if isinstance(step, AxStep) and "phi" in step.subst:
            step.subst["phi"] = parse("q", sig)
            break
    _assert_rejected(bad)


def test_mutation_binding_dropped(identity_proof):
    bad = copy.deepcopy(identity_proof)
    del bad.steps[0].subst[next(iter(bad.steps[0].subst))]
    result = _assert_rejected(bad, step=1)
    assert "missing binding" in result.reason


def test_mutation_binding_for_a_metavariable_the_schema_lacks(identity_proof):
    bad = copy.deepcopy(identity_proof)
    assert bad.steps[0].schema is AxiomSchemaId.H1
    bad.steps[0].subst["gamma"] = parse("r", Signature(("p", "r")))
    result = _assert_rejected(bad, step=1)
    assert result.reason == "schema H1 has no ?gamma"


def test_mutation_mp_references_swapped(identity_proof):
    bad = copy.deepcopy(identity_proof)
    for step in bad.steps:
        if isinstance(step, MpStep):
            step.premise, step.implication = step.implication, step.premise
            break
    _assert_rejected(bad)


def test_mutation_mp_forward_reference(identity_proof):
    bad = copy.deepcopy(identity_proof)
    for num, step in enumerate(bad.steps, start=1):
        if isinstance(step, MpStep):
            step.implication = len(bad.steps) + 1
            result = _assert_rejected(bad, step=num)
            assert "earlier step" in result.reason
            return
    pytest.fail("no MP step found")


def test_mutation_mp_self_reference(identity_proof):
    bad = copy.deepcopy(identity_proof)
    for num, step in enumerate(bad.steps, start=1):
        if isinstance(step, MpStep):
            step.premise = num
            _assert_rejected(bad, step=num)
            return
    pytest.fail("no MP step found")


def test_mutation_conclusion_changed(identity_proof):
    bad = copy.deepcopy(identity_proof)
    bad.conclusion = parse("p -> q", Signature(("p", "q")))
    result = _assert_rejected(bad, step=0)
    assert "conclusion" in result.reason


def test_mutation_truncated_proof(identity_proof):
    bad = copy.deepcopy(identity_proof)
    bad.steps = bad.steps[:-1]
    _assert_rejected(bad, step=0)


def test_mutation_empty_proof(identity_proof):
    result = _assert_rejected(Proof([], identity_proof.conclusion), step=0)
    assert "empty" in result.reason


def test_mutation_mp_on_non_implication():
    sig = Signature(("p",))
    p = parse("p", sig)
    proof = Proof(
        [
            AxStep(AxiomSchemaId.T, {"phi": p}),
            NecStep(1),
            MpStep(1, 2),
        ],
        parse("box p -> p", sig),
    )
    result = _assert_rejected(proof, KT, step=3)
    assert "not an implication" in result.reason


def test_mutation_mp_antecedent_mismatch():
    sig = Signature(("p", "q"))
    proof = Proof(
        [
            AxStep(AxiomSchemaId.H1, {"phi": parse("p", sig), "psi": parse("q", sig)}),
            AxStep(AxiomSchemaId.H1, {"phi": parse("q", sig), "psi": parse("p", sig)}),
            MpStep(2, 1),
        ],
        parse("q -> p", sig),
    )
    result = _assert_rejected(proof, step=3)
    assert "antecedent" in result.reason


def test_mutation_nec_forward_reference():
    sig = Signature(("p",))
    proof = Proof([NecStep(1)], parse("box p", sig))
    _assert_rejected(proof, step=1)


def test_axiom_admission_is_per_logic():
    sig = Signature(("p",))
    proof = Proof(
        [AxStep(AxiomSchemaId.T, {"phi": parse("p", sig)})],
        parse("box p -> p", sig),
    )
    result = _assert_rejected(proof, K, step=1)
    assert "not admitted" in result.reason
    for name in ("KT", "KTB", "S4", "S5"):
        assert check_proof(proof, Logic.from_name(name)).ok
    for name in ("KB", "K4", "KB4"):
        assert not check_proof(proof, Logic.from_name(name)).ok


def test_loeb_axiom_is_admitted_nowhere():
    sig = Signature(("p",))
    proof = Proof(
        [AxStep(AxiomSchemaId.LOEB, {"phi": parse("p", sig)})],
        parse("box (box p -> p) -> box p", sig),
    )
    for logic in ALL_LOGICS:
        assert not check_proof(proof, logic).ok


def test_conclusion_comparison_is_modulo_sugar():
    sig = Signature(("p",))
    p = parse("p", sig)
    proof = Proof(
        [AxStep(AxiomSchemaId.B, {"phi": p})],
        parse("p -> box (~ box ~p)", sig),
    )
    assert check_proof(proof, Logic.from_name("KB")).ok


# --- the distribution template -------------------------------------------------


def _map_formulas(proof: Proof, fn) -> Proof:
    """proof with fn applied to every axiom binding and to the conclusion."""
    steps = [AxStep(s.schema, {k: fn(f) for k, f in s.subst.items()})
             if isinstance(s, AxStep) else s for s in proof.steps]
    return Proof(steps, fn(proof.conclusion))


def _schematic_dia_distribution() -> Proof:
    """The bundled dia_distribution proof with p and q read as ?phi and ?psi."""
    names = {"p": MetaVar("phi"), "q": MetaVar("psi")}

    def leaf(g):
        return names[g.name] if type(g) is Atom else g

    return _map_formulas(corpus_proof("dia_distribution"), lambda f: map_leaves(f, leaf))


def test_template_instantiates_to_arbitrary_formulas():
    sig = Signature(("p", "q", "r"))
    subst = {"phi": parse("p & q", sig), "psi": parse("dia r", sig)}
    proof = _map_formulas(_schematic_dia_distribution(),
                          lambda f: substitute_metavars(f, subst))
    result = check_proof(proof, K)
    assert result.ok, result.reason
    assert pretty(proof.conclusion) == "box (p & q -> dia r) -> dia (p & q) -> dia dia r"


def test_template_checks_schematically():
    # metavariables flow through checking untouched, so the proof with its
    # atoms read as metavariables is itself a proof of the schematic conclusion
    template = _schematic_dia_distribution()
    assert not atoms_of(template.conclusion)
    assert check_proof(template, K).ok


# --- script format ---------------------------------------------------------------


def test_script_happy_path():
    text = '1: AX H1 [phi := "p", psi := "q"]\nQED "p -> (q -> p)"\n'
    proof = parse_proof_script(text)
    assert check_proof(proof, K).ok


def test_script_comments_and_blanks_are_ignored():
    text = '# header\n\n1: AX T [phi := "p"]\n# middle\nQED "box p -> p"\n'
    assert check_proof(parse_proof_script(text), KT).ok


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ('2: AX H1 [phi := "p"]\nQED "p"', 1, "expected step 1"),
        ('1: AX H9 [phi := "p"]\nQED "p"', 1, "unknown axiom schema"),
        ('1: AX H1 [phi = "p"]\nQED "p"', 1, "bad binding"),
        ('1: AX H1 [phi := "p ->"]\nQED "p"', 1, "bad formula"),
        ('1: MP 1\nQED "p"', 1, "unrecognised step"),
        ('hello\nQED "p"', 1, "expected"),
        ('1: AX H1 [phi := "p", psi := "p"]\nQED "p -> (p -> p)"\n2: NEC 1', 3, "after the QED"),
        ('1: AX H1 [phi := "p", psi := "p"]\nQED "p ->"', 2, "bad conclusion"),
        ('1: AX H1 [phi := "q", psi := "q", phi := "p"]\nQED "p -> q -> p"', 1,
         "duplicate binding for ?phi"),
    ],
)
def test_script_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ProofScriptError) as exc:
        parse_proof_script(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


@pytest.mark.parametrize("name, distinct", [("box_dia_conjunction", 110),
                                            ("dia_distribution", 89)])
def test_each_distinct_script_text_is_parsed_once(monkeypatch, name, distinct):
    texts = []
    real = hilbert.parse

    def counting(text, sig):
        texts.append(text)
        return real(text, sig)

    monkeypatch.setattr(hilbert, "parse", counting)
    corpus_proof(name)
    assert len(texts) == len(set(texts)) == distinct


def test_a_bad_text_is_reported_at_its_first_line():
    good = '[phi := "p", psi := "p"]'
    bad = '[phi := "p ->", psi := "p"]'
    text = "".join(f"{n}: AX H1 {bad if n in (3, 7) else good}\n" for n in range(1, 8))
    with pytest.raises(ProofScriptError) as exc:
        parse_proof_script(text + 'QED "p -> p -> p"\n')
    assert exc.value.line == 3
    assert str(exc.value) == ("line 3: bad formula in binding: "
                              "expected a formula, found end of input (at position 4)")


def _identity_script(a: str, b: str) -> str:
    """A proof of a -> a whose first MP cites step 1, where the antecedent
    is spelt a, against step 2, where it is spelt b."""
    return (f'1: AX H1 [phi := "{a}", psi := "{a} -> {a}"]\n'
            f'2: AX H2 [phi := "{b}", psi := "{a} -> {a}", gamma := "{a}"]\n'
            "3: MP 1 2\n"
            f'4: AX H1 [phi := "{a}", psi := "{a}"]\n'
            "5: MP 4 3\n"
            f'QED "{a} -> {a}"\n')


def test_one_antecedent_in_two_spellings_is_accepted():
    result = check_proof(parse_proof_script(_identity_script("p & q", "~(p -> ~q)")), K)
    assert result.ok, result.reason


def test_an_antecedent_one_atom_off_deep_in_a_shared_subterm_is_rejected():
    # step 2's antecedent shares (a -> a) -> a with step 1 and differs only
    # in the last atom of its first operand
    a, b = "box box (p & dia (q -> p))", "box box (p & dia (q -> r))"
    assert check_proof(parse_proof_script(_identity_script(a, a)), K).ok
    result = _assert_rejected(parse_proof_script(_identity_script(a, b)), step=3)
    assert result.reason == "step 2 is not an implication with step 1 as antecedent"


def test_a_negation_and_a_box_of_one_operand_stay_apart():
    # shared subterms are told apart by connective as well as by operand
    text = '1: AX H1 [phi := "box p", psi := "q"]\nQED "~p -> q -> ~p"\n'
    result = _assert_rejected(parse_proof_script(text), step=0)
    assert result.reason == "last step does not match the stated conclusion"


def test_script_missing_qed():
    with pytest.raises(ProofScriptError) as exc:
        parse_proof_script('1: AX H1 [phi := "p", psi := "p"]')
    assert "missing QED" in str(exc.value)


def test_serialize_parse_round_trip_on_handmade_proof():
    sig = Signature(("p",))
    p = parse("p", sig)
    proof = Proof(
        [
            AxStep(AxiomSchemaId.T, {"phi": p}),
            NecStep(1),
        ],
        parse("box (box p -> p)", sig),
    )
    again = parse_proof_script(serialize_proof(proof))
    assert again == proof
    assert check_proof(again, KT).ok
