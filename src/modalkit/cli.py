"""Command-line interface.

Exit codes are part of the contract: 0 for an affirmative answer (valid,
proof accepted, correspondence holds, all checks pass), 1 for a negative
one (invalid, countermodel found, violations), 2 for usage problems and 3
when a resource budget ran out before an answer was certified.
"""

from __future__ import annotations

import argparse
import sys

from .classify import classify, classify_corpus, render_table
from .correspond import CounterFrame, correspondence_check, loeb_suite
from .countermodel import export_dot, find_countermodel
from .decide import Invalid, ResourceLimitExceeded, Valid, decide
from .hilbert import (AxiomSchemaId, Logic, SCHEMAS, check_proof,
                      parse_proof_script)
from .kripke import FrameProperty, eval_deep, load_model, dump_model
from .syntax import (FormulaSyntaxError, Schema, Signature, UnknownAtomError,
                     atoms_of, infer_signature, parse, parse_schema, pretty,
                     to_sexpr)
from .translate import check_faithfulness

_ATOM_POOL = ("p", "q", "r", "s", "t", "u", "v", "w")


class _InputError(Exception):
    """Bad user-supplied input below the argparse level."""


def _parse_formula(text: str):
    try:
        sig = infer_signature(text)
        return parse(text, sig), sig
    except (FormulaSyntaxError, UnknownAtomError) as e:
        raise _InputError(f"cannot parse formula {text!r}: {e}") from None


def _int_at_least(low: int):
    """argparse type for an integer bound of at least low."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return convert


def _parse_logic(name: str) -> Logic:
    try:
        return Logic.from_name(name)
    except ValueError as e:
        raise _InputError(str(e)) from None


def _parse_props(text: str) -> set[FrameProperty]:
    props = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            props.add(FrameProperty.from_name(part))
        except ValueError as e:
            raise _InputError(str(e)) from None
    return props


# -- subcommand handlers ----------------------------------------------------

def _cmd_parse(args) -> int:
    f, _ = _parse_formula(args.formula)
    print(pretty(f))
    print(to_sexpr(f))
    return 0


def _cmd_eval(args) -> int:
    try:
        with open(args.model, encoding="utf-8") as fh:
            model = load_model(fh.read())
    except OSError as e:
        raise _InputError(f"cannot read model file: {e}") from None
    except ValueError as e:
        raise _InputError(f"bad model file: {e}") from None
    try:
        f = parse(args.formula, model.sig)
    except (FormulaSyntaxError, UnknownAtomError) as e:
        raise _InputError(f"cannot parse formula {args.formula!r}: {e}") from None
    if args.world not in model.worlds:
        raise _InputError(f"world {args.world} is not designated in the model")
    value = eval_deep(model, args.world, f)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_check_proof(args) -> int:
    try:
        with open(args.script, encoding="utf-8") as fh:
            proof = parse_proof_script(fh.read())
    except OSError as e:
        raise _InputError(f"cannot read proof script: {e}") from None
    except ValueError as e:
        raise _InputError(f"bad proof script: {e}") from None
    logic = _parse_logic(args.logic)
    result = check_proof(proof, logic)
    if result.ok:
        n = len(proof.steps)
        unit = "step" if n == 1 else "steps"
        print(f"proof ok: {pretty(result.formula)} ({n} {unit}, {logic.name})")
        return 0
    where = "conclusion" if result.failed_step == 0 else f"step {result.failed_step}"
    print(f"proof rejected at {where}: {result.reason}")
    return 1


def _cmd_prove(args) -> int:
    f, _ = _parse_formula(args.formula)
    logic = _parse_logic(args.logic)
    result = decide(f, logic)
    if isinstance(result, Valid):
        print(f"valid in {logic.name}")
        return 0
    print(f"invalid in {logic.name}: falsified at world {result.world}")
    print(dump_model(result.model), end="")
    return 1


def _cmd_countermodel(args) -> int:
    f, sig = _parse_formula(args.formula)
    props = _parse_props(args.props) if args.props else set()
    found = find_countermodel(f, props, args.max_worlds, sig)
    if found is None:
        print(f"no countermodel with up to {args.max_worlds} worlds")
        return 0
    model, world = found
    print(f"countermodel found: {pretty(f)} fails at world {world}")
    print(dump_model(model), end="")
    if args.dot:
        text = export_dot(model, world, f)
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _InputError(f"cannot write graph file: {e}") from None
        print(f"graph written to {args.dot}")
    return 1


def _cmd_classify(args) -> int:
    if args.corpus:
        rows = classify_corpus()
    elif args.formula:
        f, sig = _parse_formula(args.formula)
        rows = [("F", classify(f, sig=sig))]
    else:
        raise _InputError("classify needs a formula or --corpus")
    print(render_table(rows), end="")
    if any(res.partial for _, res in rows):
        print("warning: some verdicts hit the resource limit", file=sys.stderr)
        return 3
    return 0


def _cmd_correspond(args) -> int:
    try:
        schema = SCHEMAS[AxiomSchemaId.from_name(args.schema)]
    except ValueError:
        try:
            schema = parse_schema(args.schema)
        except FormulaSyntaxError as e:
            raise _InputError(f"cannot parse schema {args.schema!r}: {e}") from None
    try:
        prop = FrameProperty.from_name(args.property)
    except ValueError as e:
        raise _InputError(str(e)) from None
    result = correspondence_check(schema, prop, args.max_worlds)
    if result:
        print(f"holds on all {result.frames_checked} frames with up to "
              f"{args.max_worlds} worlds")
        return 0
    print(f"counter-frame: {result.describe()}")
    return 1


def _cmd_loeb(args) -> int:
    reports = loeb_suite(args.max_worlds)
    for rep in reports:
        print(rep.render())
    bad = sum(rep.violation_count for rep in reports)
    print(f"total violations: {bad}")
    return 0 if bad == 0 else 1


def _cmd_faithful(args) -> int:
    if not 1 <= args.atoms <= len(_ATOM_POOL):
        raise _InputError(f"--atoms must be between 1 and {len(_ATOM_POOL)}")
    sig = Signature(_ATOM_POOL[:args.atoms])
    report = check_faithfulness(sig, max_depth=args.depth,
                                max_worlds=args.max_worlds, jobs=args.jobs)
    print(report.render())
    return 0 if report.ok else 1


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="modalkit",
        description="Modal-logic workbench: parse, evaluate, prove, refute.")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse a formula and echo canonical forms")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_parse)

    p = subs.add_parser("eval", help="evaluate a formula in a model file")
    p.add_argument("formula")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--world", required=True, type=int, help="world id")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("check-proof", help="check a Hilbert proof script")
    p.add_argument("script", help="proof script path")
    p.add_argument("--logic", default="K", help="logic name (default K)")
    p.set_defaults(func=_cmd_check_proof)

    p = subs.add_parser("prove", help="decide validity in a cube logic")
    p.add_argument("formula")
    p.add_argument("--logic", default="K", help="logic name (default K)")
    p.set_defaults(func=_cmd_prove)

    p = subs.add_parser("countermodel", help="search for a falsifying model")
    p.add_argument("formula")
    p.add_argument("--props", default="", help="comma-separated frame properties")
    p.add_argument("--max-worlds", type=_int_at_least(1), default=4)
    p.add_argument("--dot", help="write the model as a digraph to this path")
    p.set_defaults(func=_cmd_countermodel)

    p = subs.add_parser("classify", help="find the weakest cube logics proving a formula")
    p.add_argument("formula", nargs="?")
    p.add_argument("--corpus", action="store_true", help="classify the ten study formulas")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("correspond", help="check a schema/frame-property correspondence")
    p.add_argument("schema", help="schema name (T, B, 4, LOEB) or schema text")
    p.add_argument("property", help="frame property name")
    p.add_argument("--max-worlds", type=_int_at_least(1), default=4)
    p.set_defaults(func=_cmd_correspond)

    p = subs.add_parser("loeb", help="run the provability-logic frame suite")
    p.add_argument("--max-worlds", type=_int_at_least(1), default=4)
    p.set_defaults(func=_cmd_loeb)

    p = subs.add_parser("faithful", help="compare the evaluators on an exhaustive grid")
    p.add_argument("--depth", type=_int_at_least(0), default=2)
    p.add_argument("--max-worlds", type=_int_at_least(1), default=2)
    p.add_argument("--atoms", type=int, default=1)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_faithful)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except ResourceLimitExceeded as e:
        print(f"resource limit exceeded: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
