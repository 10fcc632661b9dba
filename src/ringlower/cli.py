"""Command-line front end: compile, find-gadgets, eval, verify.

Every run is deterministic: identical inputs and flags produce
byte-identical JSON reports except for the ``timings`` block, which golden
comparisons must strip.  Exit codes are part of the contract:

    0  success (and, for compile, every verdict EQUAL/HEURISTIC_EQUAL,
       or verification off)
    1  unexpected error
    2  parse/usage error (formula, ring descriptor, a malformed gadget
       config, a file that cannot be opened or is not UTF-8 text, a
       negative box or --max-degree)
    3  missing or unusable gadget
    4  verification failure (a defined set changed, or verify mismatch)

The commands raise; :func:`main` alone maps an exception to its exit code
and its one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .formula import SyntacticClass, classify
from .gadgets import (
    GadgetError,
    GadgetSet,
    default_gadgets,
    parse_gadget_config,
    render_gadget_config,
    verify_gadget_set,
)
from .oracle import Domain, Verdict, definable_set, sets_equal
from .parser import ParseError, format_formula, parse_formula
from .passes import MissingGadgetError, PassError, compile_formula
from .ring import parse_ring

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_MISSING_GADGET = 3
EXIT_VERIFY_FAILED = 4

_TARGETS = {
    "single": SyntacticClass.SINGLE_EQUATION,
    "conj": SyntacticClass.CONJUNCTIVE,
    "pe": SyntacticClass.POSITIVE_EXISTENTIAL,
}


def _read_text(path: str) -> str:
    """The text of a file named on the command line; one that is not UTF-8
    is a usage error naming the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise ValueError(
                f"{path} is not UTF-8 text: {err.reason} at byte {err.start}"
            ) from None


def _read_formula(args) -> str:
    if args.formula is not None:
        return args.formula
    return _read_text(args.formula_file)


def _gadget_json(gs: GadgetSet) -> dict:
    out: dict = {}
    for kind in ("origin", "axes", "nonzero"):
        gadget = gs.get(kind)
        if gadget is None:
            out[kind] = {"available": False, "note": gs.notes.get(kind, "")}
        else:
            out[kind] = {
                "available": True,
                "definition": gadget.describe(),
                "status": gadget.status.status.value,
            }
    return out


def cmd_compile(args) -> int:
    started = time.perf_counter()
    formula = parse_formula(_read_formula(args))
    ring = parse_ring(args.ring)
    if args.max_degree < 0:
        raise ValueError("--max-degree must be non-negative")
    verify_mode = "off"
    if args.verify != "off":
        # The label follows the domain: a finite ring is checked exactly.
        domain = Domain.of(ring, args.param_box, args.witness_box)
        if args.verify == "exhaustive" and not domain.exhaustive:
            raise ValueError("exhaustive verification requires a finite backend")
        verify_mode = "exhaustive" if domain.exhaustive else "heuristic"

    if args.gadgets:
        gadget_set = parse_gadget_config(_read_text(args.gadgets), ring)
        if verify_mode != "off":
            gadget_set = verify_gadget_set(gadget_set, box=args.param_box)
    else:
        gadget_set = default_gadgets(ring, max_degree=args.max_degree)

    target = _TARGETS[args.target]
    t0 = time.perf_counter()
    result = compile_formula(
        formula, ring, gadget_set, target, allow_unverified=args.allow_unverified
    )
    timings = {"compile_s": round(time.perf_counter() - t0, 6)}

    verdicts = []
    sound: bool | None = None
    if verify_mode != "off":
        t0 = time.perf_counter()
        previous = formula
        for trace, stage_formula in zip(result.traces, result.stages):
            outcome = sets_equal(
                previous,
                stage_formula,
                ring,
                param_box=args.param_box,
                witness_box=args.witness_box,
            )
            verdicts.append(
                {
                    "stage": trace.name,
                    "verdict": outcome.verdict.value,
                    "witness": None
                    if outcome.witness is None
                    else [ring.element_to_json(e) for e in outcome.witness],
                }
            )
            previous = stage_formula
        timings["verify_s"] = round(time.perf_counter() - t0, 6)
        sound = all(
            v["verdict"] in (Verdict.EQUAL.value, Verdict.HEURISTIC_EQUAL.value)
            for v in verdicts
        )
    timings["total_s"] = round(time.perf_counter() - started, 6)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "compile",
        "seed": args.seed,
        "config": {
            "ring": ring.descriptor(),
            "target": args.target,
            "verify": verify_mode,
            "param_box": args.param_box,
            "witness_box": args.witness_box,
            "allow_unverified": args.allow_unverified,
            "gadget_source": args.gadgets or "defaults",
        },
        "input": {
            "formula": format_formula(formula),
            "class": classify(formula).name,
        },
        "gadgets": _gadget_json(gadget_set),
        "passes": [t.to_json() for t in result.traces],
        "stage_verdicts": verdicts,
        "output": {
            "formula": format_formula(result.formula),
            "class": classify(result.formula).name,
        },
        "sound": sound,
        "heuristic": verify_mode == "heuristic",
        "timings": timings,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    print(format_formula(result.formula))
    if sound is False:
        bad = next(v for v in verdicts if v["verdict"] == Verdict.DIFFER.value)
        print(
            f"verification failed at {bad['stage']}: witness {bad['witness']}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_find_gadgets(args) -> int:
    ring = parse_ring(args.ring)
    if not ring.is_finite:
        raise ValueError("find-gadgets requires a finite ring")
    if args.max_degree < 0:
        raise ValueError("--max-degree must be non-negative")
    gadget_set = default_gadgets(ring, max_degree=args.max_degree)
    text = render_gadget_config([gadget_set])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_eval(args) -> int:
    formula = parse_formula(_read_formula(args))
    ring = parse_ring(args.ring)
    result = definable_set(
        formula, ring, param_box=args.param_box, witness_box=args.witness_box
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=2)
            handle.write("\n")
    if args.count:
        print(len(result))
    else:
        for line in result.to_lines():
            print(line)
    if not result.exhaustive:
        print("note: non-exhaustive enumeration (box-bounded)", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    f1 = parse_formula(_read_text(args.left))
    f2 = parse_formula(_read_text(args.right))
    ring = parse_ring(args.ring)
    outcome = sets_equal(
        f1, f2, ring, param_box=args.param_box, witness_box=args.witness_box
    )
    if outcome.witness is None:
        print(outcome.verdict.value)
    else:
        witness = "(" + ", ".join(ring.format_element(e) for e in outcome.witness) + ")"
        print(f"{outcome.verdict.value} {witness}")
    return EXIT_OK if outcome.verdict is not Verdict.DIFFER else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlower",
        description="Lower existential formulas over commutative rings, "
        "verifying each step against a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formula_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula", help="formula text")
        group.add_argument("--formula-file", help="path to a formula file")

    def add_boxes(p):
        p.add_argument("--param-box", type=int, default=None,
                       help="parameter window for zbox backends")
        p.add_argument("--witness-box", type=int, default=None,
                       help="witness window for zbox backends (default 4x parameter box)")

    compile_p = sub.add_parser("compile", help="run the lowering pipeline")
    add_formula_source(compile_p)
    compile_p.add_argument("--ring", required=True, help="ring descriptor, e.g. zmod:5")
    compile_p.add_argument("--target", choices=sorted(_TARGETS), default="single")
    compile_p.add_argument("--gadgets", help="gadget config file (defaults are built otherwise)")
    compile_p.add_argument(
        "--verify", choices=["exhaustive", "heuristic", "off", "auto"], default="auto"
    )
    compile_p.add_argument("--allow-unverified", action="store_true")
    compile_p.add_argument("--max-degree", type=int, default=2,
                           help="origin gadget search depth for default gadgets")
    compile_p.add_argument("--json", help="write the JSON report here")
    compile_p.add_argument("--seed", type=int, default=0,
                           help="recorded in the report for reproducibility")
    add_boxes(compile_p)
    compile_p.set_defaults(func=cmd_compile)

    find_p = sub.add_parser("find-gadgets", help="discover and emit gadgets for a finite ring")
    find_p.add_argument("--ring", required=True)
    find_p.add_argument("--max-degree", type=int, default=2)
    find_p.add_argument("--out", help="write the gadget config here (stdout otherwise)")
    find_p.set_defaults(func=cmd_find_gadgets)

    eval_p = sub.add_parser("eval", help="enumerate the defined set of a formula")
    add_formula_source(eval_p)
    eval_p.add_argument("--ring", required=True)
    eval_p.add_argument("--count", action="store_true", help="print the cardinality only")
    eval_p.add_argument("--json", help="write the set as JSON here")
    add_boxes(eval_p)
    eval_p.set_defaults(func=cmd_eval)

    verify_p = sub.add_parser("verify", help="compare the defined sets of two formula files")
    verify_p.add_argument("left")
    verify_p.add_argument("right")
    verify_p.add_argument("--ring", required=True)
    add_boxes(verify_p)
    verify_p.set_defaults(func=cmd_verify)

    return parser


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_ERROR
    except MissingGadgetError as err:
        return _fail(EXIT_MISSING_GADGET, f"missing gadget: {err}")
    except PassError as err:
        return _fail(EXIT_ERROR, f"pass error: {err}")
    except GadgetError as err:
        return _fail(EXIT_PARSE, f"gadget config error: {err}")
    except ParseError as err:
        return _fail(EXIT_PARSE, f"formula error: {err}")
    except (ValueError, OSError) as err:  # usage, or a file named on the command line
        return _fail(EXIT_PARSE, f"error: {err}")


if __name__ == "__main__":
    sys.exit(main())
