"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    run.load_program()


def _request_list(seed):
    models = [(Path(f"m{i}.km"), ref.Model(2, frozenset({0, 1}), frozenset({(0, 1)}),
                                           {"p": frozenset({0}), "q": frozenset()}))
              for i in range(3)]
    proofs = {"identity": Path("identity.proof"), "identity-wrong-qed": Path("x.proof")}
    return workloads.session_requests(seed, models, proofs)


def test_same_seed_same_session_requests():
    first, again, other = _request_list(7), _request_list(7), _request_list(8)
    assert [argv for _, argv, _ in first] == [argv for _, argv, _ in again]
    assert [argv for _, argv, _ in first] != [argv for _, argv, _ in other]
    assert len(first) == workloads.SESSION_REQUESTS
    assert {kind for kind, _, _ in first} == {"prove", "parse", "eval", "countermodel",
                                              "check-proof", "usage"}


def test_oracle_parse_round_trips_rendered_formulas():
    import random
    rng = random.Random(3)
    for _ in range(200):
        f = workloads.random_formula(rng, rng.randint(0, 5))
        assert ref.parse(ref.render(f)) == f


def test_oracle_family_matches_scalar_evaluation():
    f = ref.parse("box (p -> dia q) -> dia p")
    fam = ref.Family(2, ("p", "q"))
    truth = fam.truth(f, 0, {})
    pairs = [(a, b) for a in range(2) for b in range(2)]
    for index in range(1 << 8):
        rel = frozenset(p for i, p in enumerate(pairs) if index >> i & 1)
        val = {a: frozenset(w for w in range(2) if index >> (4 + k * 2 + w) & 1)
               for k, a in enumerate(("p", "q"))}
        m = ref.Model(2, frozenset({0, 1}), rel, val)
        assert bool(truth >> index & 1) == ref.holds(m, 0, f)
        for p in ref.PROPERTIES:
            assert bool(fam.prop(p) >> index & 1) == ref.has(m, p), p


def test_tracer_wraps_every_binding_and_restores_it(program):
    before = tracing.bindings()
    t = tracing.Tracer()
    t.install()
    try:
        mods = sys.modules
        for mod, attr in (("decide", "find_countermodel"), ("classify", "find_countermodel"),
                          ("countermodel", "eval_deep"), ("cli", "decide"),
                          ("translate", "translate_max"), ("kripke", "eval_deep")):
            assert hasattr(getattr(mods["modalkit." + mod], attr), "__wrapped__"), (mod, attr)
        slab = mods["modalkit.bitgrid"].ModelSlab
        assert hasattr(vars(slab)["core_truth"], "__wrapped__")
        assert tracing.bindings() != before
    finally:
        t.uninstall()
    assert tracing.bindings() == before


def test_traced_answers_equal_untraced(program, tmp_path):
    qs = workloads.Session(5, tmp_path).questions()[:150]
    qs += [q for q in workloads.Refute(5, tmp_path).questions()
           if q.label.startswith(("classify", "criterion-3", "cross_check F1"))]
    _, plain = run.run_round(qs, range(len(qs)))
    t = tracing.Tracer()
    t.install()
    try:
        _, traced = run.run_round(qs, range(len(qs)), t)
    finally:
        t.uninstall()
    assert [a for _, a, _ in plain] == [a for _, a, _ in traced]
    attempted, failures = run.check_rounds(qs, [plain, traced])
    assert attempted == 2 * len(qs) and not failures
    metrics = t.layer_metrics(1.0, 1.0)
    assert metrics["cli.main.calls"]["value"] == 150
    assert metrics["classify.classify.self_s"]["value"] > 0


def test_low_trace_coverage_fails_the_run(program):
    qs = [workloads.Question("outside modalkit", lambda: time.sleep(0.05), lambda a: None)]
    result, _ = run.traced_pass(argparse.Namespace(workload="coverage-test", seed=0), qs)
    assert result["metrics"]["trace.coverage"]["value"] < run.MIN_COVERAGE
    assert not result["correct"] and result["failed"] == 1


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "session", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in BENCHMARK[section]]


def test_calibrated_round_gives_every_answer_a_kernel_time():
    qs = [workloads.Question(str(i), lambda i=i: time.sleep(0.01 * (i % 3)) or i,
                             lambda a: None) for i in range(12)]
    _, plain = run.run_round(qs, range(len(qs)))
    _, timed = run.run_round(qs, range(len(qs)), calibrate=True)
    assert all(k is None for _, _, k in plain)
    assert all(k > 0 for _, _, k in timed)
    # answers in one stretch between two kernel samples share its kernel time
    assert len({k for _, _, k in timed}) < len(qs)
    assert [a for _, a, _ in timed] == list(range(len(qs)))


def test_a_failed_answer_is_counted_not_fatal():
    def boom():
        raise ValueError("no")
    qs = [workloads.Question("ok", lambda: 1, lambda a: None),
          workloads.Question("raises", boom, lambda a: None),
          workloads.Question("wrong", lambda: 2, lambda a: "wrong answer")]
    _, results = run.run_round(qs, [2, 0, 1])
    attempted, failures = run.check_rounds(qs, [results, results])
    assert attempted == 6 and len(failures) == 4
