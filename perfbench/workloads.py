"""The four benchmark workloads.

Each workload builds its inputs from the seed when constructed (that is the
set-up that setup_s times) and exposes them as a list of Questions.  A
question's `run` calls into modalkit and returns its answer as plain data;
its `check` compares that answer with a reference from oracle.py or with a
hand-written expectation, never with another answer of the program, and
returns None or a failure message.

modalkit functions are looked up on their modules at call time, so that a
traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle as ref


@dataclass
class Question:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _mod(name: str):
    # modalkit.decide is the re-exported function, not the module
    return sys.modules["modalkit." + name]


def _expect(cond: bool, message: str) -> "str | None":
    return None if cond else message


def _refutation_problem(oracle: ref.Oracle, f, props, max_worlds: int,
                        found: "tuple[ref.Model, int] | None") -> "str | None":
    """Check a countermodel-search answer: a returned model must falsify f
    at its world, have every property, use all its worlds and be of the
    least size; a None answer must agree with exhaustive search."""
    least = oracle.least_countermodel_size(f, props, max_worlds)
    if found is None:
        return _expect(least is None, f"missed a countermodel with {least} worlds")
    m, w = found
    if m.worlds != frozenset(range(m.n)):
        return "countermodel does not designate every world"
    if ref.holds(m, w, f):
        return f"countermodel does not falsify the formula at world {w}"
    bad = [p for p in props if not ref.has(m, p)]
    if bad:
        return f"countermodel lacks {bad}"
    return _expect(least == m.n, f"countermodel has {m.n} worlds, least is {least}")


# -- grid -------------------------------------------------------------------------

def _formula_count(n_atoms: int, depth: int) -> int:
    """Core formulas of depth <= d: atoms, then ~, -> and box over the last level."""
    count = n_atoms
    for _ in range(depth):
        count = n_atoms + 2 * count + count * count
    return count


def _grid_instances(n_atoms: int, depth: int, max_worlds: int) -> dict:
    formulas = _formula_count(n_atoms, depth)
    out = dict.fromkeys(("truth-deep-max", "validity-deep-max",
                         "truth-deep-min", "truth-max-min"), 0)
    for n in range(1, max_worlds + 1):
        models = 2 ** (n * n + n_atoms * n) * formulas
        out["truth-deep-max"] += n * 2 ** (n - 1) * models   # sum of |ds| over subsets
        out["validity-deep-max"] += (2 ** n - 1) * models
        out["truth-deep-min"] += n * models                  # whole-domain slab only
        out["truth-max-min"] += n * models
    return out


def _unguarded(f):
    """The mutation canary: a minimal translation that drops the R guard."""
    tr, syn = _mod("translate"), _mod("syntax")

    def go(g, cur, counter):
        t = type(g)
        if t is syn.Atom:
            return tr.PredV(g.name, cur)
        if t is syn.Not:
            return tr.CNot(go(g.body, cur, counter))
        if t is syn.Implies:
            return tr.CImp(go(g.left, cur, counter), go(g.right, cur, counter))
        v = f"v{counter[0]}"
        counter[0] += 1
        return tr.ForallWorld(v, go(g.body, v, counter))

    return go(f, "w", [0])


# (atoms, depth, worlds): three faces of criterion 2 (p,q; depth 3; 3 worlds),
# each small enough to be answered many times in a run: all 15,130 depth-3
# formulas on one slab, eleven slabs of one-atom formulas, and the 4 KiB
# masks of two atoms on three worlds
GRIDS = ((("p", "q"), 3, 1), (("p",), 3, 3), (("p", "q"), 2, 3))


def _grid_answer(report):
    return tuple((c.name, c.instances, c.violation_count) for c in report.checks)


class Grid:
    """Faithfulness grids (the checks of criterion 2 at three smaller
    sizes) and the mutation canary.  The inputs are fixed; the seed only
    orders the rounds."""

    # how closely answer times follow the speed kernel in run.py (see the
    # README's Metrics section)
    speed_exponent = 1.0

    def __init__(self, seed: int, workdir: Path):
        syn = _mod("syntax")
        self._questions = [self._grid(syn.Signature(atoms), depth, worlds)
                           for atoms, depth, worlds in GRIDS]
        self._questions.append(Question("mutation canary (p, depth 2, 2 worlds)",
                                        self._canary(syn.Signature(("p",))),
                                        self._check_canary))

    def questions(self) -> list:
        return self._questions

    @staticmethod
    def _grid(sig, depth: int, worlds: int) -> Question:
        want = _grid_instances(len(sig.atoms), depth, worlds)

        def check(answer):
            got = {name: inst for name, inst, _ in answer}
            if got != want:
                return f"grid instances {got} != closed form {want}"
            return _expect(not any(bad for _, _, bad in answer),
                           f"grid reports violations: {answer}")

        return Question(f"faithfulness {','.join(sig.atoms)}, depth {depth}, {worlds} worlds",
                        lambda: _grid_answer(_mod("translate").check_faithfulness(
                            sig, depth, worlds)),
                        check)

    @staticmethod
    def _canary(sig):
        return lambda: _grid_answer(_mod("translate").check_faithfulness(
            sig, 2, 2, translate_min_fn=_unguarded))

    @staticmethod
    def _check_canary(answer) -> "str | None":
        want = _grid_instances(1, 2, 2)
        got = {name: inst for name, inst, _ in answer}
        if got != want:
            return f"canary instances {got} != closed form {want}"
        bad = {name: v for name, _, v in answer}
        return _expect(bad["truth-deep-min"] >= 1 and bad["truth-deep-max"] == 0,
                       f"the mutation canary was not caught: {bad}")


# -- refute ---------------------------------------------------------------------

CORPUS = (
    ("F1", "dia dia p -> dia p"),
    ("F2", "dia box p -> box dia p"),
    ("F3", "dia box p -> box p"),
    ("F4", "box dia box dia p -> box dia p"),
    ("F5", "dia (p & dia q) -> (dia p & dia q)"),
    ("F6", "(box (p -> q) & dia box ~q) -> ~dia q"),
    ("F7", "dia p -> box (p | dia p)"),
    ("F8", "dia box p -> (p | dia p)"),
    ("F9", "(box dia p & box dia ~p) -> dia dia p"),
    ("F10", "(box (p -> box q) & box dia ~q) -> ~box q"),
)

# criterion 1: the weakest cube logics proving each corpus formula
MINIMAL = {
    "F1": {"K4"}, "F2": {"KB"}, "F3": {"KB4"}, "F4": {"KB", "K4"},
    "F5": {"K4"}, "F6": {"KB4"}, "F7": {"KB4"}, "F8": {"KT", "KB"},
    "F9": {"KT"}, "F10": {"KT"},
}


def _valid_in(name: str, logic: str) -> bool:
    """Validity grows with the frame conditions, so a corpus formula is valid
    in a logic exactly when one of its minimal logics is contained in it."""
    mine = set(ref.LOGIC_PROPS[logic])
    return any(set(ref.LOGIC_PROPS[m]) <= mine for m in MINIMAL[name])


# README-style questions: a one-atom formula, frame properties, 4 worlds
COUNTERMODEL_QUESTIONS = (
    ("box p -> box box p", ("reflexive",)),
    ("box p -> box box p", ("reflexive", "symmetric")),
    ("box p -> box box p", ("reflexive", "transitive")),
    ("box p -> p", ("symmetric",)),
    ("box p -> p", ("serial",)),
    ("p -> box dia p", ("transitive",)),
    ("p -> box dia p", ("symmetric",)),
    ("dia p -> box dia p", ("reflexive", "transitive")),
    ("dia p -> box dia p", ("euclidean",)),
    ("box (box p -> p) -> box p", ("transitive",)),
    ("box (box p -> p) -> box p", ("transitive", "cwf")),
    ("box p -> dia p", ("serial",)),
    ("box p -> dia p", ("irreflexive",)),
)

# The S4 tableau explores this formula for 30 to 40 s under decide's default
# budget of 64 labels before the bounded fallback finds a 1-world
# countermodel; about 1 in 500 random S4 formulas of depth 5 behave alike.
# Smaller label budgets keep the blow-up measurable in every round: the
# time grows about fourfold with every two labels.
S4_BLOWUP = "dia box box (dia p -> dia false)"
S4_BUDGETS = (12, 14)

# the README's countermodel for box p -> box box p on reflexive frames
README_MODEL = (ref.Model(3, frozenset({0, 1, 2}),
                          frozenset({(0, 0), (0, 2), (1, 0), (1, 1), (2, 2)}),
                          {"p": frozenset({0, 1})}), 1)


def _countermodel_answer(found):
    if found is None:
        return None
    m, w = found
    return (m.n_worlds, tuple(sorted(m.worlds)), tuple(sorted(m.rel)),
            tuple((a, tuple(sorted(ws))) for a, ws in sorted(m.val.items())), w)


def _as_model(answer):
    n, worlds, rel, val, w = answer
    return ref.Model(n, frozenset(worlds), frozenset(rel),
                     {a: frozenset(ws) for a, ws in val}), w


class Refute:
    """Countermodel-style questions: criterion 7's 80 cross checks, the 10
    classification rows, criterion 3's searches and README-style searches
    at 4 worlds.  The inputs are fixed; the seed only orders the rounds."""

    speed_exponent = 0.6

    def __init__(self, seed: int, workdir: Path):
        syn, kr, hil = _mod("syntax"), _mod("kripke"), _mod("hilbert")
        self.oracle = ref.Oracle()
        two = syn.Signature(("p", "q"))
        one = syn.Signature(("p",))
        qs = []
        for name, text in CORPUS:
            f = syn.parse(text, two)
            for logic in hil.ALL_LOGICS:
                qs.append(self._cross_check(name, text, f, logic))
            qs.append(self._classify(name, f, two))
        refl = {kr.FrameProperty.REFLEXIVE}
        four = syn.parse("box p -> box box p", two)
        qs.append(self._search("criterion-3 4 on reflexive frames, 3 worlds",
                               "box p -> box box p", four, refl, ("reflexive",), 3, two,
                               README_MODEL))
        qs.append(self._search("criterion-3 4 on reflexive frames, 2 worlds",
                               "box p -> box box p", four, refl, ("reflexive",), 2, two))
        qs.append(self._search("criterion-3 modal collapse, 2 worlds", "p -> box p",
                               syn.parse("p -> box p", two), set(), (), 2, two))
        for text, props in COUNTERMODEL_QUESTIONS:
            expected = README_MODEL if (text, props) == ("box p -> box box p",
                                                         ("reflexive",)) else None
            qs.append(self._search(f"countermodel {text} --props {','.join(props)}",
                                   text, syn.parse(text, one),
                                   {kr.FrameProperty.from_name(p) for p in props},
                                   props, 4, one, expected))
        s4 = next(logic for logic in hil.ALL_LOGICS if logic.name == "S4")
        for budget in S4_BUDGETS:
            qs.append(self._tableau(S4_BLOWUP, syn.parse(S4_BLOWUP, one), s4, budget))
        self._questions = qs

    def questions(self) -> list:
        return self._questions

    def _cross_check(self, name, text, f, logic) -> Question:
        def run():
            r = _mod("decide").cross_check(f, logic, 4)
            return (r.tableau_valid, r.finder_found, r.consistent, r.detail)

        def check(answer):
            tableau_valid, finder_found, consistent, detail = answer
            valid = _valid_in(name, logic.name)
            if tableau_valid is not valid:
                return f"tableau says valid={tableau_valid}, criterion 1 says {valid}"
            if not consistent:
                return f"inconsistent: {detail}"
            small = self.oracle.least_countermodel_size(
                ref.parse(text), ref.LOGIC_PROPS[logic.name], 3)
            if valid:
                return _expect(not finder_found and small is None,
                               "a countermodel exists for a valid formula")
            return _expect(small is None or finder_found,
                           f"the finder missed a {small}-world countermodel")

        return Question(f"cross_check {name} {logic.name}", run, check)

    @staticmethod
    def _classify(name, f, sig) -> Question:
        def run():
            cl, dec = _mod("classify"), _mod("decide")
            res = cl.classify(f, sig=sig)
            kinds = tuple((lname, "limit" if v is None else
                           "valid" if isinstance(v, dec.Valid) else "invalid")
                          for lname, v in res.evidence.items())
            return (tuple(sorted(l.name for l in res.minimal)), res.partial, kinds)

        def check(answer):
            minimal, partial, kinds = answer
            if set(minimal) != MINIMAL[name] or partial:
                return f"minimal logics {minimal} (partial={partial}) != {sorted(MINIMAL[name])}"
            wrong = [l for l, k in kinds if (k == "valid") != _valid_in(name, l)]
            return _expect(not wrong, f"verdicts disagree with criterion 1 in {wrong}")

        return Question(f"classify {name}", run, check)

    @staticmethod
    def _tableau(text, f, logic, budget: int) -> Question:
        """decide on one formula with a label budget; it must refute it."""
        def run():
            r = _mod("decide").decide(f, logic, max_labels=budget)
            return _countermodel_answer((r.model, r.world)) if hasattr(r, "model") else None

        def check(answer):
            if answer is None:
                return "decide found the formula valid; it has a 1-world countermodel"
            m, w = _as_model(answer)
            props = ref.LOGIC_PROPS[logic.name]
            if ref.holds(m, w, ref.parse(text)) or not all(ref.has(m, p) for p in props):
                return "the countermodel does not refute the formula in the logic"
            return None

        return Question(f"decide {logic.name} '{text}' with {budget} labels", run, check)

    def _search(self, label, text, f, props, prop_names, max_worlds, sig,
                expected=None) -> Question:
        def run():
            return _countermodel_answer(
                _mod("countermodel").find_countermodel(f, props, max_worlds, sig))

        def check(answer):
            found = None if answer is None else _as_model(answer)
            problem = _refutation_problem(self.oracle, ref.parse(text), prop_names,
                                          max_worlds, found)
            if problem or expected is None or found is None:
                return problem
            return _expect(found == expected, f"{found} is not the README's model")

        return Question(f"{label} ({max_worlds} worlds)", run, check)


# -- frames ---------------------------------------------------------------------

LOEB_CLAIMS = ("transitive+cwf-implies-loeb", "loeb-implies-cwf",
               "loeb-implies-irreflexive", "loeb-implies-transitive")


def _frames_up_to(n: int) -> int:
    return sum(2 ** (k * k) for k in range(1, n + 1))


def _correspond_answer(result):
    if result:
        return ("holds", result.frames_checked)
    return ("counter", tuple(sorted(result.worlds)), tuple(sorted(result.rel)),
            result.direction)


def _first_disagreement(schema, prop: str, max_worlds: int):
    """World count of the first frame where schema validity and the property differ."""
    for n in range(1, max_worlds + 1):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for bits in range(1 << len(pairs)):
            m = ref.Model(n, frozenset(range(n)),
                          frozenset(p for i, p in enumerate(pairs) if bits >> i & 1), {})
            if ref.has(m, prop) != ref.schema_valid(m, schema):
                return n
    return None


class Frames:
    """Atom-free frame sweeps: the Loeb suite and two correspondences.  The
    inputs are fixed; the seed only orders the rounds."""

    speed_exponent = 0.5

    def __init__(self, seed: int, workdir: Path):
        hil, kr = _mod("hilbert"), _mod("kripke")
        t, four = hil.SCHEMAS[hil.AxiomSchemaId.T], hil.SCHEMAS[hil.AxiomSchemaId.FOUR]
        refl = kr.FrameProperty.REFLEXIVE
        qs = [
            Question("loeb_suite 5", self._loeb, self._check_loeb),
            Question("correspond T reflexive 5",
                     lambda: _correspond_answer(
                         _mod("correspond").correspondence_check(t, refl, 5)),
                     lambda a: _expect(a == ("holds", _frames_up_to(5)),
                                       f"{a} != holds on {_frames_up_to(5)} frames")),
            Question("correspond 4 reflexive 4",
                     lambda: _correspond_answer(
                         _mod("correspond").correspondence_check(four, refl, 4)),
                     lambda a: self._check_counter(a, ref.parse("box p -> box box p"),
                                                   "reflexive")),
        ]
        self._questions = qs

    def questions(self) -> list:
        return self._questions

    @staticmethod
    def _loeb():
        return tuple((r.name, r.instances, r.violation_count)
                     for r in _mod("correspond").loeb_suite(5))

    @staticmethod
    def _check_loeb(answer) -> "str | None":
        want = tuple((name, _frames_up_to(5), 0) for name in LOEB_CLAIMS)
        return _expect(answer == want, f"{answer} != {want}")

    @staticmethod
    def _check_counter(answer, schema, prop: str) -> "str | None":
        if answer[0] != "counter":
            return f"expected a counter-frame, got {answer}"
        _, worlds, rel, direction = answer
        m = ref.Model(len(worlds), frozenset(worlds), frozenset(rel), {})
        has, valid = ref.has(m, prop), ref.schema_valid(m, schema)
        if has == valid:
            return f"frame {answer} is not a counter-frame"
        want = "property-holds-schema-fails" if has else "schema-holds-property-fails"
        if direction != want:
            return f"direction {direction} != {want}"
        least = _first_disagreement(schema, prop, m.n)
        return _expect(least == m.n, f"counter-frame has {m.n} worlds, least is {least}")


# -- session ----------------------------------------------------------------------

LOGICS = tuple(ref.LOGIC_PROPS)
PROOFS = ("identity", "dia_distribution", "box_dia_conjunction")
MODEL_FILES = 16
# a fixed mix, so that seeds change the requests and not the tail of the
# latency distribution (the 14 box_dia_conjunction checks are its top 1.4%)
SESSION_MIX = (("prove", 600), ("parse", 100), ("eval", 100), ("countermodel", 100),
               ("check-proof", 42), ("usage", 58))
SESSION_REQUESTS = sum(count for _, count in SESSION_MIX)


def random_formula(rng: random.Random, depth: int):
    """A p, q formula of exactly this depth, sugar included."""
    if depth == 0:
        return rng.choices([("atom", "p"), ("atom", "q"), ("top",), ("bot",)],
                           weights=(9, 9, 1, 1))[0]
    op = rng.choice(("not", "box", "dia", "imp", "imp", "and", "or"))
    if op in ("not", "box", "dia"):
        return (op, random_formula(rng, depth - 1))
    deep, shallow = random_formula(rng, depth - 1), random_formula(rng, rng.randrange(depth))
    return (op, deep, shallow) if rng.random() < 0.5 else (op, shallow, deep)


def random_model(rng: random.Random) -> ref.Model:
    n = rng.randint(1, 4)
    worlds = frozenset(w for w in range(n) if rng.random() < 0.75) or frozenset({0})
    rel = frozenset((a, b) for a in range(n) for b in range(n) if rng.random() < 0.4)
    val = {a: frozenset(w for w in range(n) if rng.random() < 0.5) for a in ("p", "q")}
    return ref.Model(n, worlds, rel, val)


def session_requests(seed: int, model_paths: list, proof_paths: dict) -> list:
    """The seeded request list: (kind, argv, reference data) triples.

    Logics, depths, property counts, scripts and usage errors are cycled so
    that every seed has the same composition; the formulas, models and
    properties themselves are drawn from the seed."""
    rng = random.Random(seed)
    kinds = [kind for kind, count in SESSION_MIX for _ in range(count)]
    rng.shuffle(kinds)
    scripts = sorted(proof_paths)
    seen: dict = {}
    out = []
    for kind in kinds:
        k = seen[kind] = seen.get(kind, -1) + 1
        if kind == "prove":
            logic = LOGICS[k % len(LOGICS)]
            # S4 stays at depth 2-3: see S4_BLOWUP, which refute times
            f = random_formula(rng, 2 + k // len(LOGICS) % (2 if logic == "S4" else 4))
            out.append((kind, ["prove", "--logic", logic, ref.render(f)], (f, logic)))
        elif kind == "parse":
            f = random_formula(rng, 1 + k % 5)
            out.append((kind, ["parse", ref.render(f)], f))
        elif kind == "eval":
            path, m = model_paths[k % len(model_paths)]
            w = rng.choice(sorted(m.worlds))
            f = random_formula(rng, 1 + k % 4)
            out.append((kind, ["eval", "--model", str(path), "--world", str(w),
                               ref.render(f)], (m, w, f)))
        elif kind == "countermodel":
            f = random_formula(rng, 1 + k % 4)
            props = tuple(sorted(rng.sample(ref.PROPERTIES, k // 4 % 3)))
            argv = ["countermodel", "--max-worlds", "3", ref.render(f)]
            if props:
                argv[1:1] = ["--props", ",".join(props)]
            out.append((kind, argv, (f, props)))
        elif kind == "check-proof":
            name = scripts[k % len(scripts)]
            out.append((kind, ["check-proof", str(proof_paths[name]), "--logic", "K"],
                        name))
        else:
            errors = _usage_errors(rng, model_paths)
            out.append((kind, errors[k % len(errors)], None))
    return out


def _usage_errors(rng: random.Random, model_paths: list) -> list:
    """Documented bad-input requests; each must exit 2."""
    text = ref.render(random_formula(rng, 2))
    path, m = model_paths[0]
    outside = str(m.n + 1)
    return [
        ["prove", "--logic", "KX", text],
        ["parse", text + " ->"],
        ["parse", "(" + text],
        ["countermodel", "--props", "dense", text],
        ["frobnicate", text],
        ["eval", "--model", str(path.with_name("missing.km")), "--world", "0", text],
        ["eval", "--model", str(path), "--world", outside, text],
    ]


class Session:
    """A closed loop with one client: seeded CLI requests through
    modalkit.cli.main, stdout and stderr captured."""

    speed_exponent = 1.0

    def __init__(self, seed: int, workdir: Path):
        src = Path(_mod("cli").__file__).parent
        rng = random.Random(seed)
        models = []
        for i in range(MODEL_FILES):
            m = random_model(rng)
            path = workdir / f"model{i}.km"
            path.write_text(ref.write_model(m), encoding="utf-8")
            models.append((path, m))
        proofs = {name: src / "proofs" / f"{name}.proof" for name in PROOFS}
        for name in PROOFS:
            text = proofs[name].read_text(encoding="utf-8")
            bad = workdir / f"{name}-wrong-qed.proof"
            bad.write_text(re.sub(r'QED "[^"]*"', 'QED "p"', text), encoding="utf-8")
            proofs[name + "-wrong-qed"] = bad
        self.oracle = ref.Oracle()
        self.requests = session_requests(seed, models, proofs)
        self._questions = [Question(f"{i} {' '.join(req[1])}",
                                    lambda argv=req[1]: call_cli(argv),
                                    lambda a, req=req: self._check(req, a))
                           for i, req in enumerate(self.requests)]

    def questions(self) -> list:
        return self._questions

    def probes(self) -> list:
        """Known defects, run once outside the timed rounds.

        `countermodel --max-worlds 0` should exit 2 but raises, so it cannot
        be a request of a workload that must have no failing request."""
        argv = ["countermodel", "--max-worlds", "0", "p"]
        try:
            return [f"probe: modalkit {' '.join(argv)} exits {call_cli(argv)[0]}"]
        except Exception as e:  # the defect being probed
            return [f"known defect: modalkit {' '.join(argv)} raises "
                    f"{type(e).__name__}({e}) instead of exiting 2"]

    def _check(self, req, answer) -> "str | None":
        kind, argv, data = req
        code, out, err = answer
        lines = out.splitlines()
        if kind == "usage":
            return _expect(code == 2 and "error" in err, f"exit {code} for a usage error")
        if kind == "parse":
            return _expect(code == 0 and lines[1:2] == [ref.sexpr(data)],
                           f"exit {code}, parsed as {lines[1:2]}")
        if kind == "eval":
            m, w, f = data
            value = ref.holds(m, w, f)
            return _expect((code, lines) == (0 if value else 1, [str(value).lower()]),
                           f"exit {code} {lines}, expected {value}")
        if kind == "check-proof":
            if data.endswith("-wrong-qed"):
                return _expect(code == 1 and out.startswith("proof rejected"),
                               f"exit {code}: a wrong conclusion was accepted")
            return _expect(code == 0 and out.startswith("proof ok: "),
                           f"exit {code}: a bundled proof was rejected")
        f, props = data
        if kind == "prove":
            props = ref.LOGIC_PROPS[props]
            if code == 1 and lines and lines[0].startswith("invalid in"):
                found = (ref.read_model("\n".join(lines[1:])),
                         int(lines[0].rsplit(" ", 1)[1]))
                m, w = found
                if ref.holds(m, w, f) or not all(ref.has(m, p) for p in props):
                    return "the countermodel does not refute the formula in the logic"
                return None
            if code in (0, 3):
                small = self.oracle.least_countermodel_size(f, props, 3)
                return _expect(small is None,
                               f"exit {code} but a {small}-world countermodel exists")
            return f"exit {code}: {lines[:1]}"
        if code == 0 and lines == ["no countermodel with up to 3 worlds"]:
            return _refutation_problem(self.oracle, f, props, 3, None)
        if code == 1 and lines and lines[0].startswith("countermodel found:"):
            found = (ref.read_model("\n".join(lines[1:])), int(lines[0].rsplit(" ", 1)[1]))
            return _refutation_problem(self.oracle, f, props, 3, found)
        return f"exit {code}: {lines[:1]}"


def call_cli(argv: list) -> tuple:
    """One request: exit code, stdout and stderr of modalkit.cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _mod("cli").main(list(argv))
        except SystemExit as e:   # argparse rejects bad usage this way
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {"grid": Grid, "refute": Refute, "frames": Frames, "session": Session}
