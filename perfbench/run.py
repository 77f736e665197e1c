"""modalkit benchmark: one workload per run, answers checked, metrics as JSON.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 22 --trace 0

Run from a checkout: the program is imported from src/ beside this
directory.  With --trace 0 the workload's question list is answered in
rounds, each in its own seeded order: one untimed round, then timed rounds
for --seconds (and at least two); the end-to-end metrics are printed.
With --trace 1 one untraced round and one traced round are answered; the
two must give
identical answers, and the per-layer metrics of the traced round are
printed (spans are written under .perfbench/).  The last line of stdout is
a JSON object with keys correct, attempted, failed and metrics.  The exit
code is 0 only when every answer passed its check.

Timings are scaled to a reference host speed.  The benchmark was built on
a shared host whose cores run up to 40% slower, for parts of a second or
for an hour, when other tenants are busy.  Between the questions of a round
the run times a fixed pure-Python kernel that does not call modalkit; each
answer's time is multiplied by (KERNEL_REF_S / the kernel's time around
it) ** e, where e is the workload's speed_exponent: how closely its times
follow the kernel's.  A question's time in the run is the median of its
scaled times over the rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 15   # at least: 3 before the first round, 1 after each, the rest at the end
MIN_ROUNDS = 2
MIN_COVERAGE = 0.90   # share of a traced round that must lie inside traced spans
# The speed kernel: one pass takes about KERNEL_REF_S on the reference host
# (a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7) when its core runs at the
# faster of its two speeds (the 5th percentile of a thousand samples).  The
# kernel is timed after every CAL_EVERY seconds of answering, for CAL_SHARE
# of that time and at least KERNEL_MIN_S.
KERNEL_REF_S = 430e-6
CAL_EVERY = 0.05
CAL_SHARE = 0.1
KERNEL_MIN_S = 0.002

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("latency_p99_ms", "ms"),
              ("peak_rss_mib", "MiB"))


def load_program():
    """Import modalkit from this checkout's src/, and from nowhere else."""
    package = SRC / "modalkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no modalkit sources at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import modalkit
    if Path(modalkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: modalkit was imported from {modalkit.__file__}, not {package}")
    for name in ("classify", "cli", "correspond", "countermodel", "decide", "hilbert",
                 "kripke", "syntax", "translate", "bitgrid"):
        __import__("modalkit." + name)


def kernel_pass() -> int:
    """Fixed interpreter work (dict, tuple and integer operations) that
    touches nothing of modalkit, so that its time tracks the host's speed."""
    d: dict = {}
    acc = 0
    for i in range(2000):
        t = (i, i & 7)
        d[t] = d.get(t, 0) + 1
        acc += len(d) if i & 1 else -1
    return acc


def kernel_sample(at_least: float) -> tuple:
    """(seconds, passes): kernel passes run until they fill `at_least` s."""
    clock = time.perf_counter
    passes = 0
    t0 = clock()
    while True:
        kernel_pass()
        passes += 1
        elapsed = clock() - t0
        if elapsed >= at_least:
            return elapsed, passes


def pass_seconds(*samples) -> float:
    """Mean time of one kernel pass over all passes of the samples."""
    return sum(s for s, _ in samples) / sum(n for _, n in samples)


def setup_once(workload: str, seed: int) -> dict:
    """Import plus input generation, as a fresh process sees them, with the
    kernel's time just before and after."""
    kernel_sample(KERNEL_MIN_S)   # warm-up
    before = kernel_sample(5 * KERNEL_MIN_S)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        t0 = time.perf_counter()
        load_program()
        workloads.WORKLOADS[workload](seed, Path(tmp)).questions()
        setup = time.perf_counter() - t0
    return {"setup_s": setup,
            "kernel_s": pass_seconds(before, kernel_sample(5 * KERNEL_MIN_S))}


def setup_seconds(workload: str, seed: int, probes: int) -> list:
    """Set-up times of fresh processes, scaled to the reference speed, with
    the raw times."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append((probe["setup_s"] * KERNEL_REF_S / probe["kernel_s"], probe["setup_s"]))
    return times


def round_order(n: int, seed: int, round_no: int) -> list:
    """The order of a round's questions.  Each round draws its own order, so
    that a question's time in a run does not depend on which
    question happened to precede it."""
    order = list(range(n))
    random.Random(f"{seed}/{round_no}").shuffle(order)
    return order


def run_round(questions: list, order, tracer=None, calibrate=False) -> tuple:
    """Answer every question once, in the given order: round wall time and
    (latency, answer, kernel) triples indexed like questions.  With
    calibrate, kernel is the mean time of a kernel pass over the samples
    taken just before and just after the stretch of answering the question
    was in; otherwise None."""
    clock = time.perf_counter
    results = [None] * len(questions)
    pending: list = []
    t0 = clock()
    before = kernel_sample(KERNEL_MIN_S) if calibrate else None
    stretch = clock()
    for n, i in enumerate(order, 1):
        if tracer is not None:
            tracer.request = i
        s = clock()
        try:
            answer = questions[i].run()
        except Exception as e:  # a failing question is counted, never fatal
            answer = ("raised", type(e).__name__, str(e))
        e = clock()
        results[i] = [e - s, answer, None]
        if not calibrate:
            continue
        pending.append(i)
        if e - stretch >= CAL_EVERY or n == len(results):
            after = kernel_sample(max(KERNEL_MIN_S, CAL_SHARE * (e - stretch)))
            for j in pending:
                results[j][2] = pass_seconds(before, after)
            before, pending, stretch = after, [], clock()
    return clock() - t0, [tuple(r) for r in results]


def verdict(q, answer) -> "str | None":
    if isinstance(answer, tuple) and answer[:1] == ("raised",):
        return f"raised {answer[1]}: {answer[2]}"
    try:
        return q.check(answer)
    except Exception as e:  # a malformed answer fails its check
        return f"answer could not be checked: {type(e).__name__}: {e}"


def check_rounds(questions: list, rounds: list) -> tuple:
    """(attempted, failures): every answer of every round is checked."""
    failures = []
    attempted = 0
    for i, q in enumerate(questions):
        seen: dict = {}
        for results in rounds:
            answer = results[i][1]
            attempted += 1
            key = repr(answer)
            if key not in seen:
                seen[key] = verdict(q, answer)
            if seen[key] is not None:
                failures.append(f"{q.label}: {seen[key]}")
    return attempted, failures


def percentile(values: list, q: float) -> float:
    """Nearest rank: the smallest sample with at least q of them at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps(setup_once(args.workload, args.seed)))
        return 0
    load_program()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        questions = work.questions()
        if args.trace:
            result, notes = traced_pass(args, questions)
        else:
            result, notes = timed_pass(args, questions, work.speed_exponent)
        probes = work.probes() if hasattr(work, "probes") else []
    print("environment: " + json.dumps(environment()))
    for line in notes + probes:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_pass(args, questions: list, exponent: float) -> tuple:
    # set-up is sampled between the rounds, so that one slow spell of the
    # host does not move all the samples at once
    setup_s = setup_seconds(args.workload, args.seed, 3)
    # The first round is not timed: the first answers in a process differ
    # from later ones (loeb_suite(5) page-faults a third less in a fresh
    # process, for one), and a seeded order would decide which question
    # pays for that.
    _, warm_up = run_round(questions, round_order(len(questions), args.seed, "warm-up"))
    rounds, walls = [], []
    start = time.perf_counter()
    # a round starts only if a round of average length would end in time
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.mean(walls) <= args.seconds):
        wall, results = run_round(questions, round_order(len(questions), args.seed, len(rounds)),
                                  calibrate=True)
        walls.append(wall)
        rounds.append(results)
        setup_s += setup_seconds(args.workload, args.seed, 1)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s += setup_seconds(args.workload, args.seed, max(0, SETUP_PROBES - len(setup_s)))
    attempted, failures = check_rounds(questions, [warm_up] + rounds)
    n = range(len(questions))
    times = [statistics.median(r[i][0] * (KERNEL_REF_S / r[i][2]) ** exponent
                               for r in rounds) * 1e3 for i in n]
    raw = [statistics.median(r[i][0] for r in rounds) * 1e3 for i in n]
    kernels = [r[i][2] for r in rounds for i in n]
    values = {
        "setup_s": statistics.median(scaled_s for scaled_s, _ in setup_s),
        "wall_s": sum(times) / 1e3,
        "latency_p50_ms": percentile(times, 0.50),
        "latency_p90_ms": percentile(times, 0.90),
        "latency_p99_ms": percentile(times, 0.99),
        "peak_rss_mib": rss_mib,
    }
    notes = [f"{args.workload}: {len(rounds)} timed rounds of {len(questions)} questions "
             f"after one untimed, {len(failures)} failed "
             f"(error rate {len(failures) / attempted:.4f}), "
             f"round wall times {[round(w, 3) for w in walls]}; kernel passes of "
             f"{min(kernels) * 1e6:.1f} to {max(kernels) * 1e6:.1f} us "
             f"(reference {KERNEL_REF_S * 1e6:.0f} us), exponent {exponent}",
             f"unscaled medians: setup_s {statistics.median(s for _, s in setup_s):.4f}, "
             f"wall_s {sum(raw) / 1e3:.4f}, latency_p50_ms {percentile(raw, 0.5):.4f}, "
             f"p90 {percentile(raw, 0.9):.4f}, p99 {percentile(raw, 0.99):.4f}"]
    notes += [f"FAILED {msg}" for msg in failures[:20]]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return ({"correct": not failures, "attempted": attempted, "failed": len(failures),
             "metrics": metrics}, notes)


def traced_pass(args, questions: list) -> tuple:
    order = round_order(len(questions), args.seed, 0)
    untraced_wall, plain = run_round(questions, order)
    tracer = tracing.Tracer()
    before = tracing.bindings()
    tracer.install()
    try:
        traced_wall, traced = run_round(questions, order, tracer)
    finally:
        tracer.uninstall()
    if tracing.bindings() != before:
        sys.exit("error: the tracer left a modalkit binding replaced")
    attempted, failures = check_rounds(questions, [plain, traced])
    for q, (_, a, _), (_, b, _) in zip(questions, plain, traced):
        if a != b:
            failures.append(f"{q.label}: traced answer differs from the untraced one")
    metrics = tracer.layer_metrics(traced_wall, untraced_wall)
    coverage = metrics["trace.coverage"]["value"]
    if coverage < MIN_COVERAGE:
        failures.append(f"trace coverage {coverage:.3f} is below {MIN_COVERAGE}")
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    notes = [f"{args.workload}: traced round {traced_wall:.3f} s, untraced "
             f"{untraced_wall:.3f} s, {len(tracer.name)} spans, {len(failures)} failed"]
    notes += [f"FAILED {msg}" for msg in failures[:20]]
    return ({"correct": not failures, "attempted": attempted, "failed": len(failures),
             "metrics": metrics}, notes)


if __name__ == "__main__":
    sys.exit(main())
