"""Command-line behavior: output, exit codes, and file handling.

Exit code conventions under test: 0 success/affirmative, 1 negative result
(falsified, rejected, counter-frame), 2 input error, 3 resource limit.
"""

import contextlib
import importlib
import io
import itertools
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modalkit import bitgrid
from modalkit.cli import main
from modalkit.hilbert import (ALL_LOGICS, ProofScriptError, corpus_proof_text,
                              parse_proof_script)
from modalkit.kripke import FrameProperty, ModelFormatError, load_model
from modalkit.syntax import Signature, pretty

from conftest import formulas

GOOD_MODEL = 'worlds: 2\nin: [0, 1]\nrel: [[0, 1]]\nval: {"p": [0]}\n'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parse -----------------------------------------------------------------


def test_parse_echoes_both_forms(capsys):
    code, out, err = run(capsys, "parse", "box p -> ~~q")
    assert code == 0
    assert "box p -> ~~q" in out
    assert "(implies (box (atom p)) (not (not (atom q))))" in out
    assert err == ""


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "parse", "p -> ->")
    assert code == 2
    assert out == ""
    assert "error:" in err and "usage:" in err


# --- eval ------------------------------------------------------------------


def test_eval_true_exits_0(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(GOOD_MODEL)
    code, out, _ = run(capsys, "eval", "p -> box ~p", "--model", str(path), "--world", "0")
    assert code == 0
    assert out.strip() == "true"


def test_eval_false_exits_1(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(GOOD_MODEL)
    code, out, _ = run(capsys, "eval", "p", "--model", str(path), "--world", "1")
    assert code == 1
    assert out.strip() == "false"


def test_eval_undesignated_world_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text('worlds: 2\nin: [0]\nrel: []\nval: {"p": []}\n')
    code, _, err = run(capsys, "eval", "p", "--model", str(path), "--world", "1")
    assert code == 2
    assert "not designated" in err


def test_eval_missing_model_file(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "p", "--model", str(tmp_path / "nope"), "--world", "0")
    assert code == 2
    assert "cannot read model file" in err


def test_eval_corrupt_model_file(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text("worlds: zero\n")
    code, _, err = run(capsys, "eval", "p", "--model", str(path), "--world", "0")
    assert code == 2
    assert "bad model file" in err


@pytest.mark.parametrize("field", ['in: 3', 'val: {"p": 3}', 'val: {"p": [[0]]}'])
def test_eval_model_with_wrongly_typed_field(tmp_path, capsys, field):
    lines = {"worlds": "worlds: 1", "in": "in: [0]", "rel": "rel: []", "val": 'val: {"p": [0]}'}
    lines[field.split(":")[0]] = field
    path = tmp_path / "m.model"
    path.write_text("\n".join(lines.values()) + "\n")
    code, out, err = run(capsys, "eval", "p", "--model", str(path), "--world", "0")
    assert code == 2
    assert out == ""
    assert "error: bad model file" in err and "Traceback" not in err


# --- check-proof -------------------------------------------------------------


def test_check_proof_accepts_the_bundled_identity(tmp_path, capsys):
    path = tmp_path / "identity.proof"
    path.write_text(corpus_proof_text("identity"))
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 0
    assert out.startswith("proof ok: p -> p (5 steps, K)")


def test_check_proof_rejects_a_damaged_script(tmp_path, capsys):
    text = corpus_proof_text("identity").replace("QED \"p -> p\"", "QED \"p -> q\"")
    path = tmp_path / "bad.proof"
    path.write_text(text)
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 1
    assert "proof rejected at conclusion" in out


def test_check_proof_rejects_inadmissible_axiom(tmp_path, capsys):
    path = tmp_path / "t.proof"
    path.write_text('1: AX T [phi := "p"]\nQED "box p -> p"\n')
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 1 and "not admitted" in out
    code, out, _ = run(capsys, "check-proof", str(path), "--logic", "KT")
    assert code == 0


def test_check_proof_malformed_script_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "junk.proof"
    path.write_text("1: FROB 2\n")
    code, _, err = run(capsys, "check-proof", str(path))
    assert code == 2
    assert "bad proof script" in err


def test_check_proof_repeated_binding_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "dup.proof"
    path.write_text('1: AX H1 [phi := "q", psi := "q", phi := "p"]\nQED "p -> q -> p"\n')
    code, out, err = run(capsys, "check-proof", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad proof script: line 1: duplicate binding for ?phi\n")


def test_check_proof_rejects_a_binding_the_schema_lacks(tmp_path, capsys):
    path = tmp_path / "extra.proof"
    path.write_text('1: AX H1 [phi := "p", psi := "q", gamma := "r"]\nQED "p -> q -> p"\n')
    code, out, err = run(capsys, "check-proof", str(path))
    assert code == 1
    assert out == "proof rejected at step 1: schema H1 has no ?gamma\n"
    assert err == ""


@pytest.mark.parametrize("argv, what", [
    (["eval", "p", "--world", "0", "--model"], "model file"),
    (["check-proof"], "proof script"),
])
def test_unreadable_input_files_exit_2(tmp_path, capsys, argv, what):
    binary = tmp_path / "latin1"
    binary.write_bytes(b"\xff\xfe")
    cases = [(tmp_path / "nope", "cannot read"), (tmp_path, "cannot read"),
             (binary, "bad")]
    for path, verb in cases:
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {verb} {what}: ")
        assert "Traceback" not in err


def test_check_proof_unknown_logic(tmp_path, capsys):
    path = tmp_path / "identity.proof"
    path.write_text(corpus_proof_text("identity"))
    code, _, err = run(capsys, "check-proof", str(path), "--logic", "S9")
    assert code == 2
    assert "unknown logic" in err


# --- prove -------------------------------------------------------------------


def test_prove_valid(capsys):
    code, out, _ = run(capsys, "prove", "dia box p -> box dia p", "--logic", "KB")
    assert code == 0
    assert out.strip() == "valid in KB"


def test_prove_valid_when_every_branch_closes_past_the_label_budget(capsys):
    # 66 true diamonds each want a label, over the default budget of 64,
    # yet q & ~q closes the branch; the bounded search over 7 atoms would
    # be far over the work budget
    atoms = "pqrstuv"
    text = "q & ~q"
    for signs in reversed(list(itertools.islice(itertools.product((0, 1), repeat=7), 66))):
        literals = " & ".join(a if s else f"~{a}" for a, s in zip(atoms, signs))
        text = f"dia ({literals}) & ({text})"
    code, out, err = run(capsys, "prove", f"~({text})")
    assert (code, out, err) == (0, "valid in K\n", "")


def test_prove_invalid_prints_the_model(capsys):
    code, out, _ = run(capsys, "prove", "box p -> p")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("invalid in K: falsified at world")
    assert any(l.startswith("worlds:") for l in lines)
    assert any(l.startswith("val:") for l in lines)


# --- countermodel --------------------------------------------------------------


def test_countermodel_found(capsys):
    code, out, _ = run(capsys, "countermodel", "box p -> box box p", "--props", "r",
                       "--max-worlds", "3")
    assert code == 1
    assert "fails at world 1" in out
    assert "rel: [[0, 0], [0, 2], [1, 0], [1, 1], [2, 2]]" in out


def test_countermodel_none(capsys):
    code, out, _ = run(capsys, "countermodel", "p -> p")
    assert code == 0
    assert out.strip() == "no countermodel with up to 4 worlds"


def test_countermodel_writes_dot(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "countermodel", "p -> box p", "--dot", str(dot))
    assert code == 1
    assert f"graph written to {dot}" in out
    text = dot.read_text()
    assert text.startswith("digraph countermodel {")
    assert "init -> w0;" in text


def test_countermodel_over_an_empty_frame_class(capsys):
    code, out, _ = run(capsys, "countermodel", "p -> box p",
                       "--props", "reflexive,irreflexive", "--max-worlds", "3")
    assert code == 0
    assert out.strip() == "no countermodel with up to 3 worlds"


# the child caps its own address space, so a question that escaped the
# budget would fail to allocate instead of taking memory from the machine
_CAPPED_MAIN = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from modalkit.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")


def _capped(*argv):
    return subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv],
                          capture_output=True, text=True, timeout=120)


def test_countermodel_over_the_work_budget_exits_3():
    # two atoms at five worlds: 2**35 models
    proc = _capped("countermodel", "p & q -> p", "--max-worlds", "5")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: resource limit exceeded")
    assert "Traceback" not in proc.stderr


# for each engine a question of about a second that the budget admits, and
# the README's first refused example (the search's is the test above)
@pytest.mark.parametrize("argv, code", [
    (["countermodel", "p -> p", "--max-worlds", "5"], 0),
    (["correspond", "(box p -> p) & (box q -> q) & (box r -> r)", "reflexive",
      "--max-worlds", "5"], 3),
    (["correspond", "4", "transitive", "--max-worlds", "5"], 0),
    (["faithful", "--depth", "4", "--max-worlds", "3"], 3),
    (["faithful", "--depth", "1", "--max-worlds", "4", "--atoms", "2"], 0),
])
def test_each_engine_keeps_the_exit_contract_under_a_memory_cap(argv, code):
    proc = _capped(*argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (proc.stdout == "") == (code == 3)


def test_an_over_budget_ranked_search_lists_no_frames(capsys, monkeypatch):
    # the 2**36 frames of six worlds would be listed for their properties
    listed = bitgrid._frame_array

    def listing(n, tiles):
        if n == 6:
            raise AssertionError("listed the frames of a refused size")
        return listed(n, tiles)

    monkeypatch.setattr(bitgrid, "_frame_array", listing)
    code, out, err = run(capsys, "countermodel", "box p -> box box p",
                         "--props", "reflexive,transitive", "--max-worlds", "6")
    assert code == 3
    assert out == ""
    assert err == ("error: resource limit exceeded: a countermodel search with 1 atoms up "
                   "to 6 worlds needs at least 1.16e+15 units of work, over the budget "
                   "of 3e+12\n")


@pytest.mark.parametrize("argv", [["correspond", "T", "reflexive", "--max-worlds", "6"],
                                  ["loeb", "--max-worlds", "6"]])
def test_frame_sweeps_over_the_work_budget_exit_3(argv):
    proc = _capped(*argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    total = "2.79e+14" if argv[0] == "correspond" else "3.84e+14"
    assert proc.stderr == ("error: resource limit exceeded: a sweep of a schema with 1 "
                           "letters over the frames of up to 6 worlds needs at least "
                           f"{total} units of work, over the budget of 3e+12\n")


def test_a_sweep_over_the_step_budget_exits_3_at_once(capsys, monkeypatch):
    # three letters try 2**15 valuations on each 5-world tile; unbounded,
    # the sweep ran for minutes
    built = []
    monkeypatch.setattr(bitgrid.ModelSlab, "__init__", lambda self, *a, **k: built.append(a))
    start = time.perf_counter()
    code, out, err = run(capsys, "correspond", "(box p -> p) & (box q -> q) & (box r -> r)",
                         "reflexive", "--max-worlds", "5")
    assert time.perf_counter() - start < 1
    assert (code, out, built) == (3, "", [])
    assert err == ("error: resource limit exceeded: a sweep of a schema with 3 letters "
                   "over the frames of up to 5 worlds needs at least 1.26e+14 units of "
                   "work, over the budget of 3e+12\n")


def test_two_letters_at_four_worlds_are_within_the_step_budget(capsys):
    code, out, _ = run(capsys, "correspond", "(box p -> p) & (box q -> q)", "reflexive",
                       "--max-worlds", "4")
    assert code == 0
    assert out.strip() == "holds on all 66066 frames with up to 4 worlds"


def test_countermodel_bad_property(capsys):
    code, _, err = run(capsys, "countermodel", "p", "--props", "dense")
    assert code == 2
    assert "unknown frame property" in err


# --- classify --------------------------------------------------------------------


def test_classify_single(capsys):
    code, out, _ = run(capsys, "classify", "box p -> p")
    assert code == 0
    assert "minimal" in out
    assert "KT" in out


def test_classify_corpus_table(capsys):
    code, out, _ = run(capsys, "classify", "--corpus")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[1].startswith("F1")
    f2 = next(l for l in lines if l.startswith("F2"))
    assert f2.rstrip().endswith("KB")


def test_classify_needs_input(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "needs a formula or --corpus" in err


def test_classify_marks_a_verdict_over_the_rule_budget(monkeypatch, capsys):
    # 16 rules cut short F4's valid runs in every logic but KB
    monkeypatch.setattr(importlib.import_module("modalkit.decide"), "_MAX_RULES", 16)
    code, out, err = run(capsys, "classify", "box dia box dia p -> box dia p")
    assert code == 3
    assert out.splitlines()[1].split()[-9:] == ["✗", "✗", "✓", "?", "?", "?", "?", "?", "KB"]
    assert err == "warning: some verdicts hit the resource limit\n"


def test_classify_output_is_deterministic(capsys):
    first = run(capsys, "classify", "--corpus")
    second = run(capsys, "classify", "--corpus")
    assert first == second


# --- correspond / loeb / faithful ---------------------------------------------------


def test_correspond_holds(capsys):
    code, out, _ = run(capsys, "correspond", "T", "reflexive", "--max-worlds", "3")
    assert code == 0
    assert out.strip() == "holds on all 530 frames with up to 3 worlds"
    # a concrete atom is quantified like a metavariable, not slab valuations
    code, out, _ = run(capsys, "correspond", "box p -> p", "reflexive", "--max-worlds", "3")
    assert code == 0
    assert out.strip() == "holds on all 530 frames with up to 3 worlds"


def test_correspond_counterexample(capsys):
    code, out, _ = run(capsys, "correspond", "4", "reflexive", "--max-worlds", "3")
    assert code == 1
    assert out.startswith("counter-frame: worlds=[0] rel=[]")


def test_correspond_schema_text(capsys):
    code, out, _ = run(capsys, "correspond", "box ?phi -> ?phi", "reflexive",
                       "--max-worlds", "2")
    assert code == 0


def test_correspond_bad_inputs(capsys):
    code, _, err = run(capsys, "correspond", "T", "dense")
    assert code == 2
    code, _, err = run(capsys, "correspond", "box ->", "reflexive")
    assert code == 2


def test_loeb_suite_clean(capsys):
    code, out, _ = run(capsys, "loeb", "--max-worlds", "3")
    assert code == 0
    assert "total violations: 0" in out
    assert "loeb-implies-transitive" in out


def test_faithful_defaults(capsys):
    code, out, _ = run(capsys, "faithful")
    assert code == 0
    for name in ("truth-deep-max", "validity-deep-max", "truth-deep-min", "truth-max-min"):
        assert name in out


# --- formula nesting limit -------------------------------------------------------------

_DEEP = 2000
_TOO_DEEP = {
    "implication": "(p -> " * _DEEP + "p" + ")" * _DEEP,
    "diamonds": "dia " * _DEEP + "p",
    "negations": "~" * _DEEP + "p",
    "conjunction": " & ".join(["p"] * _DEEP),
    "parentheses": "(" * _DEEP + "p" + ")" * _DEEP,
}


@pytest.mark.parametrize("text", _TOO_DEEP.values(), ids=_TOO_DEEP.keys())
def test_too_deep_formulas_exit_2_in_every_command(tmp_path, capsys, text):
    model = tmp_path / "m.model"
    model.write_text(GOOD_MODEL)
    proof = tmp_path / "deep.proof"
    proof.write_text(f'1: AX T [phi := "p"]\nQED "{text}"\n')
    for argv in (["parse", text], ["prove", text], ["countermodel", text],
                 ["eval", text, "--model", str(model), "--world", "0"],
                 ["classify", text], ["correspond", text.replace("p", "?p"), "reflexive"],
                 ["check-proof", str(proof)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert err.startswith("error:") and "nested deeper than 100 levels" in err, argv[0]
        assert "Traceback" not in err


@pytest.mark.parametrize("text, code", [
    ("(p -> " * 100 + "p" + ")" * 100, 0),
    ("dia " * 100 + "p", 1),
    (" & ".join(["p"] * 101), 1),
], ids=["implication", "diamonds", "conjunction"])
def test_formulas_at_the_depth_limit_still_answer(capsys, text, code):
    assert run(capsys, "parse", text)[0] == 0
    assert run(capsys, "prove", text)[0] == code


# --- argparse plumbing ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["parse", "p $ q"],
    ["prove", "p $ q"],
    ["countermodel", "p $ q"],
    ["classify", "p $ q"],
    ["countermodel", "p", "--max-worlds", "0"],
    ["correspond", "T", "reflexive", "--max-worlds", "0"],
    ["loeb", "--max-worlds", "0"],
    ["faithful", "--max-worlds", "0"],
    ["faithful", "--depth", "-1"],
    ["faithful", "--jobs", "2"],
    ["classify", "--corpus", "--jobs", "2"],
], ids=" ".join)
def test_bad_input_exits_2_with_an_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "modalkit.cli", "prove", "p -> p"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "valid in K"


def test_package_entry_point_prints_what_main_prints(capsys):
    assert main(["parse", "p"]) == 0
    want = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "modalkit", "parse", "p"],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_k4_refutes_seventy_nested_boxes_quickly():
    # the tableau gives up on a 64-label transitive chain; re-checking that
    # model must not walk every path of it once per nested box
    proc = subprocess.run(
        [sys.executable, "-m", "modalkit.cli", "prove", "--logic", "K4",
         "box " * 70 + "p"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("invalid in K4: falsified at world ")


# --- random input ----------------------------------------------------------------

_FRAGMENTS = ("p", "q", "r", "box", "dia", "~", "&", "|", "->", "(", ")",
              "true", "false", "?p", "-", "$", "box p", "dia ~q", "p -> q")

formula_text = st.one_of(
    formulas(sig=Signature(("p", "q", "r")), max_leaves=8).map(pretty),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=8).map(" ".join),
)

argvs = st.one_of(
    formula_text.map(lambda text: ["parse", text]),
    st.builds(lambda text, logic: ["prove", "--logic", logic, text],
              formula_text, st.sampled_from([logic.name for logic in ALL_LOGICS])),
    st.builds(lambda text, n, props: ["countermodel", text, "--max-worlds", str(n),
                                      "--props", ",".join(props)],
              formula_text, st.integers(min_value=1, max_value=3),
              st.lists(st.sampled_from([p.value for p in FrameProperty]), max_size=2)),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
def test_random_formula_text_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code >= 2:
        assert "error:" in err.getvalue()


# --- random argv, model files and proof scripts ----------------------------------
#
# Bounds stay small (at most 3 worlds, depth at most 2, one job), so no case
# builds a big slab or starts a process.

_IDS = st.integers(min_value=-1, max_value=3)
_WORLD_LISTS = st.lists(_IDS, max_size=4)
_VALUATIONS = st.dictionaries(st.sampled_from(["p", "q", "box", "1x", ""]), _WORLD_LISTS,
                              max_size=2)


def _model_file(n, worlds, rel, val):
    return (f"worlds: {n}\nin: {json.dumps(worlds)}\nrel: {json.dumps(rel)}\n"
            f"val: {json.dumps(val)}\n")


def _well_formed_model(n):
    ids = st.integers(min_value=0, max_value=n - 1)
    subsets = st.lists(ids, max_size=n, unique=True)
    return st.builds(_model_file, st.just(n),
                     st.lists(ids, min_size=1, max_size=n, unique=True),
                     st.lists(st.tuples(ids, ids).map(list), max_size=n * n),
                     st.fixed_dictionaries({"p": subsets}, optional={"q": subsets}))


_MODEL_LINES = st.one_of(
    _IDS.map(lambda n: f"worlds: {n}"),
    _WORLD_LISTS.map(lambda ws: f"in: {json.dumps(ws)}"),
    st.lists(st.lists(_IDS, min_size=1, max_size=3), max_size=5).map(
        lambda pairs: f"rel: {json.dumps(pairs)}"),
    _VALUATIONS.map(lambda val: f"val: {json.dumps(val)}"),
    st.sampled_from(["", "# note", "worlds 2", "rel: [[0, 1]", "val: 3", "in: {}",
                     "extra: 1", "worlds: true", "in: [0.5]", 'val: {"p": [[0]]}']),
)

model_text = st.one_of(
    st.integers(min_value=1, max_value=3).flatmap(_well_formed_model),
    st.builds(_model_file, _IDS, _WORLD_LISTS,
              st.lists(st.tuples(_IDS, _IDS).map(list), max_size=5), _VALUATIONS),
    st.lists(_MODEL_LINES, max_size=6).map("\n".join),
    st.text(max_size=40),
)

_STEP_NUMBERS = st.integers(min_value=0, max_value=5)
_AXIOMS = st.sampled_from(["H1", "H2", "H3", "K", "T", "B", "4", "LOEB", "X", ""])
_BINDINGS = st.sampled_from(["", 'phi := "p"', 'phi := "p", psi := "q"',
                             'phi := "box p", psi := "p", gamma := "p"',
                             'p := "p"', 'phi := "("', 'phi = "p"', 'phi := "?p"'])
_STEP_BODIES = st.one_of(
    st.builds(lambda ax, binds: f"AX {ax} [{binds}]", _AXIOMS, _BINDINGS),
    st.builds(lambda i, j: f"MP {i} {j}", _STEP_NUMBERS, _STEP_NUMBERS),
    _STEP_NUMBERS.map(lambda i: f"NEC {i}"),
    st.sampled_from(["", "MP 1", "NEC", "AX H1", "QED"]),
)
_PROOF_LINES = st.one_of(
    st.builds(lambda n, body: f"{n}: {body}", _STEP_NUMBERS, _STEP_BODIES),
    formula_text.map(lambda text: f'QED "{text}"'),
    st.sampled_from(["", "# comment", "QED p", "1 AX H1 []", 'QED ""']),
)


def _numbered(bodies, conclusion):
    steps = [f"{n}: {body}" for n, body in enumerate(bodies, start=1)]
    return "\n".join(steps + [f'QED "{conclusion}"'])


_IDENTITY_LINES = corpus_proof_text("identity").splitlines()

proof_text = st.one_of(
    st.sets(st.integers(min_value=0, max_value=len(_IDENTITY_LINES) - 1), max_size=2).map(
        lambda drop: "\n".join(line for i, line in enumerate(_IDENTITY_LINES)
                               if i not in drop)),
    formula_text.map(lambda text: _numbered(
        [line.split(": ", 1)[1] for line in _IDENTITY_LINES[:-1]], text)),
    st.builds(_numbered, st.lists(_STEP_BODIES, max_size=4), formula_text),
    st.lists(_PROOF_LINES, max_size=6).map("\n".join),
    st.text(max_size=40),
)

_COMMANDS = ("parse", "eval", "check-proof", "prove", "countermodel", "classify",
             "correspond", "loeb", "faithful")
_LOGIC_NAMES = st.sampled_from([logic.name for logic in ALL_LOGICS] + ["KX", ""])
_SMALL = st.integers(min_value=-1, max_value=3).map(str)

_TOKENS = st.one_of(
    formula_text,
    _LOGIC_NAMES,
    _SMALL,
    st.sampled_from(_COMMANDS + (
        "--logic", "--props", "--max-worlds", "--world", "--model", "--corpus",
        "--depth", "--atoms", "--dot", "--help", "-x", "T", "4", "LOEB", "reflexive",
        "serial,cwf", "MODEL", "SCRIPT", "DOT", "MISSING")),
)

# countermodel, correspond and loeb default to 4 worlds and faithful grows
# with depth and atoms, so a random argv for them always ends with small
# bounds (argparse keeps the last)
_TAILS = {
    "countermodel": ["--max-worlds"],
    "correspond": ["--max-worlds"],
    "loeb": ["--max-worlds"],
    "faithful": ["--max-worlds", "--depth", "--atoms"],
}


def _bounded(tokens, bounds):
    if not tokens or tokens[0] not in _TAILS:
        return tokens
    values = dict(zip(("--max-worlds", "--depth", "--atoms"), map(str, bounds)))
    return tokens + [part for flag in _TAILS[tokens[0]] for part in (flag, values[flag])]


cli_argvs = st.one_of(
    st.builds(lambda text, world: ["eval", text, "--model", "MODEL", "--world", world],
              formula_text, _SMALL),
    st.builds(lambda logic: ["check-proof", "SCRIPT", "--logic", logic], _LOGIC_NAMES),
    st.builds(lambda text, n: ["countermodel", text, "--max-worlds", str(n),
                               "--dot", "DOT"],
              formula_text, st.integers(min_value=1, max_value=3)),
    st.builds(_bounded,
              st.one_of(st.builds(lambda cmd, rest: [cmd, *rest],
                                  st.sampled_from(_COMMANDS), st.lists(_TOKENS, max_size=4)),
                        st.lists(_TOKENS, max_size=6)),
              st.tuples(st.integers(min_value=1, max_value=3),
                        st.integers(min_value=0, max_value=2),
                        st.sampled_from([0, 1, 2, 9]))),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argvs, model_text, proof_text)
def test_random_argv_and_files_keep_the_exit_contract(tmp_path_factory, argv, model,
                                                      script):
    where = tmp_path_factory.getbasetemp() / "cli_fuzz"
    where.mkdir(exist_ok=True)
    paths = {name: where / name for name in ("MODEL", "SCRIPT", "DOT", "MISSING")}
    paths["MODEL"].write_text(model, encoding="utf-8")
    paths["SCRIPT"].write_text(script, encoding="utf-8")
    argv = [str(paths[a]) if a in paths else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code >= 2:
        assert "error:" in err.getvalue()


@settings(max_examples=300, deadline=None)
@given(model_text)
def test_load_model_raises_only_its_own_error(text):
    try:
        load_model(text)
    except ModelFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(proof_text)
def test_parse_proof_script_raises_only_its_own_error(text):
    try:
        parse_proof_script(text)
    except ProofScriptError:
        pass
