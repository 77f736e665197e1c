"""Command-line behavior: output, exit codes, and file handling.

Exit code conventions under test: 0 success/affirmative, 1 negative result
(falsified, rejected, counter-frame), 2 input error, 3 resource limit.
"""

import subprocess
import sys

import pytest

from modalkit.cli import main
from modalkit.hilbert import corpus_proof_text

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
    ["faithful", "--jobs", "0"],
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
