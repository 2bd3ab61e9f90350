"""Command-line front end.

Exit codes: 0 for true/accepted/no-counterexample, 1 for false, rejected,
empty, or counterexample-found, 2 for usage, parse, or validation errors.
A reader that closes standard output early ends the command with exit 1,
Python's status for EPIPE, and no message.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional

from . import dynamic, lab, modeldoc, proofkit, sep
from .beth import ModelError
from .dynamic import BethKripkeModel, render_trace
from .formula import ParseError, parse_formula, print_formula
from .lab import GenParams, NoCounterexample
from .modeldoc import DocumentError, parse_model_document, serialize_model
from .proofkit import ProofParseError, SCHEMAS


class UnreadableFile(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise UnreadableFile(f"{path} is not UTF-8 text: {e}") from None


def _load_model(path: str) -> BethKripkeModel:
    return parse_model_document(_read(path))


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    formula = parse_formula(args.formula)
    result = dynamic.satisfies(model, args.world, formula,
                               explain=args.explain, max_items=args.max_witness)
    if args.format == "json":
        payload = {"world": args.world, "formula": print_formula(formula),
                   "value": result.value}
        if result.trace is not None:
            payload["trace"] = render_trace(result.trace).splitlines()
        _emit_json(payload)
    else:
        print("true" if result.value else "false")
        if result.trace is not None:
            print(render_trace(result.trace))
    return 0 if result.value else 1


def cmd_announce(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    formula = parse_formula(args.formula)
    updated = dynamic.announce(model, formula)
    dropped_worlds = [s for s in model.world_order if s not in updated.worlds]
    dropped_nodes = {
        s: [n for n in model.worlds[s].node_order
            if n not in updated.worlds[s].nodes]
        for s in updated.world_order
    }
    document = serialize_model(updated) if not updated.is_empty else ""
    if args.format == "json":
        _emit_json({
            "announced": print_formula(formula),
            "dropped_worlds": dropped_worlds,
            "dropped_nodes": dropped_nodes,
            "empty": updated.is_empty,
            "document": document,
        })
    else:
        for s in dropped_worlds:
            print(f"# dropped world {s}", file=sys.stderr)
        for s, nodes in dropped_nodes.items():
            if nodes:
                print(f"# world {s}: dropped nodes {', '.join(nodes)}", file=sys.stderr)
        if updated.is_empty:
            print("announcement not executable anywhere", file=sys.stderr)
        elif args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        else:
            print(document, end="")
    return 1 if updated.is_empty else 0


def cmd_axioms(args: argparse.Namespace) -> int:
    gen = GenParams(max_nodes_per_world=args.max_nodes, max_worlds=args.max_worlds,
                    num_agents=args.agents, atom_count=args.atoms,
                    seed=args.seed, s5=not args.no_s5)
    if args.schema == "all":
        schema_ids = list(SCHEMAS)
    elif args.schema in SCHEMAS:
        schema_ids = [args.schema]
    else:
        print(f"error: unknown schema {args.schema!r}", file=sys.stderr)
        return 2
    results: dict[str, dict] = {}
    found_counterexample = False
    for sid in schema_ids:
        space = lab.SchemaInstanceSpace(SCHEMAS[sid].pattern, depth=args.depth)
        verdict = lab.test_validity(space, gen, args.trials)
        if isinstance(verdict, NoCounterexample):
            results[sid] = {"verdict": "no-counterexample", "trials": verdict.trials}
        else:
            found_counterexample = True
            results[sid] = {
                "verdict": "counterexample",
                "world": verdict.world,
                "instance": print_formula(verdict.instance),
                "model": serialize_model(verdict.model),
            }
    hypothesis_report = None
    if args.hypothesis:
        hypothesis_report = lab.test_announcement_hypothesis(
            gen, args.trials, depth=args.hyp_depth,
            include_announcements=args.hyp_announcements)
    if args.format == "json":
        payload: dict = {"seed": args.seed, "trials": args.trials, "schemas": results}
        if hypothesis_report is not None:
            payload["hypothesis"] = hypothesis_report.render().splitlines()
        _emit_json(payload)
    else:
        for sid, info in results.items():
            if info["verdict"] == "no-counterexample":
                print(f"schema {sid}: no counterexample in {info['trials']} trials")
            else:
                print(f"schema {sid}: counterexample at world {info['world']}, "
                      f"instance {info['instance']}")
                print(info["model"], end="")
        if hypothesis_report is not None:
            text = hypothesis_report.render()
            if args.hyp_out:
                with open(args.hyp_out, "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(f"hypothesis report written to {args.hyp_out}")
            else:
                print(text, end="")
    return 1 if found_counterexample else 0


def cmd_prove(args: argparse.Namespace) -> int:
    script = proofkit.parse_proof(_read(args.proof))
    result = proofkit.check_proof(script)
    if args.format == "json":
        _emit_json({"accepted": result.accepted, "line": result.line,
                    "reason": result.reason})
    elif result.accepted:
        print(f"accepted: {print_formula(script.goal)}")
    else:
        print(f"rejected at line {result.line}: {result.reason}")
    return 0 if result.accepted else 1


def cmd_sep(args: argparse.Namespace) -> int:
    steps = sep.run_sep(args.step)
    if args.format == "json":
        _emit_json({"steps": [
            {"step": st.step, "title": st.title, "facts": st.facts,
             "world_nodes": list(st.world_nodes), "commentary": list(st.commentary)}
            for st in steps
        ]})
        return 0
    for st in steps:
        print(f"== step {st.step}: {st.title} ==")
        print("world nodes: " + ", ".join(st.world_nodes))
        for name, value in st.facts.items():
            print(f"  {name}: {'true' if value else 'false'}")
        for line in st.commentary:
            print(f"  - {line}")
        print()
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    atoms = sorted({a.strip() for a in args.atoms.split(",") if a.strip()})
    for atom in atoms:
        if not modeldoc.is_atom_name(atom):
            print(f"error: atom {atom!r} cannot be named in a formula", file=sys.stderr)
            return 2
    count = lab.count_small_beth(args.max_nodes, atoms)
    models = lab.enumerate_small_beth(args.max_nodes, atoms)
    if args.format == "json":
        # The layout of json.dumps({"count": ..., "models": [...]}, indent=2),
        # written one document at a time.
        print(f'{{\n  "count": {count},\n  "models": [', end="")
        for i, m in enumerate(models):
            print(",\n    " if i else "\n    ", json.dumps(modeldoc.serialize_beth(m)),
                  sep="", end="")
        print("\n  ]\n}")
        return 0
    print(f"# {count} models (up to {args.max_nodes} nodes, "
          f"atoms {{{', '.join(atoms)}}})")
    for i, m in enumerate(models):
        print(f"# model {i}")
        print(modeldoc.serialize_beth(m), end="")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    report = lab.nontranslatability_witness(args.depth)
    if args.format == "json":
        _emit_json({
            "diamond_at_root": report.diamond_at_root,
            "bare_leaf_forces_atom": report.bare_leaf_forces_atom,
            "models_checked": report.models_checked,
            "classes_checked": report.classes_checked,
            "max_depth": report.max_depth,
            "equivalent": None if report.equivalent is None
            else print_formula(report.equivalent),
        })
    else:
        print(report.render(), end="")
    return 0 if report.equivalent is None else 1


def _count(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """Argument type for an integer between ``low`` and ``high`` inclusive."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, not {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethpal",
        description="Model checker and proof toolkit for constructive "
                    "epistemic logic with public announcements.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a world of a model")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")
    p.add_argument("--explain", action="store_true")
    p.add_argument("--max-witness", type=_count(1), default=8,
                   help="cap on bar/path listings in traces")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("announce", help="announce a formula and print the updated model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--out", help="write the updated document here instead of stdout")
    p.set_defaults(func=cmd_announce)

    p = sub.add_parser("axioms", help="random-model validity trials for the axiom schemas")
    p.add_argument("--trials", type=_count(1), default=100)
    p.add_argument("--schema", default="all")
    p.add_argument("--depth", type=_count(0), default=1,
                   help="instantiation depth for schema metavariables")
    p.add_argument("--max-nodes", type=_count(1, lab.MAX_NODES_PER_WORLD), default=4)
    p.add_argument("--max-worlds", type=_count(1, lab.MAX_WORLDS), default=3)
    p.add_argument("--agents", type=_count(1, len(lab.AGENT_NAMES)), default=2)
    p.add_argument("--atoms", type=_count(1, len(lab.ATOM_NAMES)), default=2)
    # The experiment is about S5 models only.
    relations = p.add_mutually_exclusive_group()
    relations.add_argument("--no-s5", action="store_true",
                           help="draw irreflexive random relations instead of equivalences")
    relations.add_argument("--hypothesis", action="store_true",
                           help="also run the [phi]psi <-> (phi -> psi) experiment")
    p.add_argument("--hyp-depth", type=_count(0, lab.MAX_HYPOTHESIS_DEPTH), default=2)
    p.add_argument("--hyp-announcements", action="store_true",
                   help="allow nested announcements in sampled formulas")
    p.add_argument("--hyp-out", help="write the experiment report to this file")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("prove", help="check a proof script")
    p.add_argument("proof")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("sep", help="walk through the surprise exam puzzle")
    p.add_argument("--step", type=int, choices=(0, 1, 2))
    p.set_defaults(func=cmd_sep)

    p = sub.add_parser("enumerate", help="list all small Beth models")
    p.add_argument("--max-nodes", type=_count(1, lab.MAX_ENUMERATED_NODES), default=3)
    p.add_argument("--atoms", default="p")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("witness", help="report on the non-translatability of <p>top")
    p.add_argument("--depth", type=_count(0), default=4)
    p.set_defaults(func=cmd_witness)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ParseError, ModelError, DocumentError, ProofParseError,
            lab.BoundTooLarge, UnreadableFile, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:     # the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
