"""Command-line surface.

Subcommands: ``match``, ``apply``, ``normalize``, ``bdd build|reduce|oracle``,
``check``, ``validate``, ``dot``.  Named objects are resolved against one or
more ``--workspace`` files.  Exit codes: 0 success, 1 validation or check
failure, 2 usage error.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import dot as dot_mod
from . import formats
from .bdd import Bdd, TruthTable, build_decision_tree, oracle_reduce, reduce_bdd
from .errors import DanglingReferenceError, EngineError, NonCommutingSquareError
from .graph import validate_graph
from .lattice import validate_lattice
from .limits import Cospan, Span, is_pullback_square, is_pushout_square
from .matching import find_matches
from .rewriting import normalize, pbpo_step, validate_rule


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbpoplus",
        description="PBPO+ rewriting of lattice-labeled directed multigraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workspace(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workspace", action="append", default=[],
                       metavar="FILE", help="workspace file (repeatable)")

    p_match = sub.add_parser("match", help="list strong matches of a rule")
    add_workspace(p_match)
    p_match.add_argument("--rule", required=True)
    p_match.add_argument("--graph", required=True)

    p_apply = sub.add_parser("apply", help="apply one rewrite step")
    add_workspace(p_apply)
    p_apply.add_argument("--rule", required=True)
    p_apply.add_argument("--graph", required=True)
    p_apply.add_argument("--match-index", type=int, default=0)
    p_apply.add_argument("--emit-trace", action="store_true")

    p_norm = sub.add_parser("normalize", help="rewrite to a fixpoint")
    add_workspace(p_norm)
    p_norm.add_argument("--rules", required=True,
                        help="comma-separated rule names, tried in order")
    p_norm.add_argument("--graph", required=True)
    p_norm.add_argument("--max-steps", type=int, default=None)

    p_bdd = sub.add_parser("bdd", help="decision-diagram commands")
    bdd_sub = p_bdd.add_subparsers(dest="bdd_command", required=True)
    for name, help_text in (("build", "full decision tree of a truth table"),
                            ("reduce", "reduce the decision tree of a truth table"),
                            ("oracle", "canonical reduced diagram via the unique table")):
        p = bdd_sub.add_parser(name, help=help_text)
        p.add_argument("--table", required=True, help="output bits, e.g. 0001")
        p.add_argument("--vars", required=True, help="comma-separated variables")
        p.add_argument("--output", metavar="FILE", default=None,
                       help="write the resulting graph record here")
        p.add_argument("--dot", metavar="FILE", default=None,
                       help="write a DOT rendering here")

    p_check = sub.add_parser("check", help="verify a named square")
    add_workspace(p_check)
    p_check.add_argument("--square", required=True)
    p_check.add_argument("--exhaustive", action="store_true",
                         help="also enumerate mediating morphisms for the "
                              "canonical limit against the given corner")

    p_val = sub.add_parser("validate", help="run a validator")
    add_workspace(p_val)
    group = p_val.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule")
    group.add_argument("--graph")
    group.add_argument("--lattice")

    p_dot = sub.add_parser("dot", help="render a named graph as DOT")
    add_workspace(p_dot)
    p_dot.add_argument("--graph", required=True)
    p_dot.add_argument("--out", metavar="FILE", default=None)

    return parser


def _truth_table(args: argparse.Namespace) -> TruthTable:
    variables = [v for v in args.vars.split(",") if v]
    return TruthTable.from_bits(args.table, variables)


def _emit_bdd(b: Bdd, args: argparse.Namespace) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(formats.serialize(b.graph))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot_mod.emit_dot(b.graph, name="bdd"))


def _cmd_bdd(args: argparse.Namespace) -> int:
    table = _truth_table(args)
    if args.bdd_command == "build":
        tree = build_decision_tree(table)
        print(f"{len(tree.graph.nodes)} nodes, root {tree.root}")
        _emit_bdd(tree, args)
        return 0
    if args.bdd_command == "oracle":
        b = oracle_reduce(table)
        print(f"{len(b.graph.nodes)} nodes, root {b.root}")
        _emit_bdd(b, args)
        return 0
    tree = build_decision_tree(table)
    reduced, result = reduce_bdd(tree, keep_traces=False)
    print(f"{len(tree.graph.nodes)} -> {len(reduced.graph.nodes)} nodes "
          f"in {result.steps} steps")
    _emit_bdd(reduced, args)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    ws = formats.parse_workspace(args.workspace)
    rule = ws.rule(args.rule)
    graph = ws.graph(args.graph)
    matches = find_matches(rule, graph)
    records = [formats.match_record(m, rule_ref=args.rule, graph_ref=args.graph)
               for m in matches]
    sys.stdout.write(formats.serialize({"matches": records}))
    return 0


def _cmd_apply(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ws = formats.parse_workspace(args.workspace)
    rule = ws.rule(args.rule)
    graph = ws.graph(args.graph)
    matches = find_matches(rule, graph)
    if not 0 <= args.match_index < len(matches):
        parser.error(f"--match-index {args.match_index} out of range "
                     f"(found {len(matches)} matches)")
    result, trace = pbpo_step(rule, matches[args.match_index])
    if args.emit_trace:
        sys.stdout.write(formats.serialize(trace))
    else:
        sys.stdout.write(formats.serialize(result))
    return 0


def _cmd_normalize(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.max_steps is not None and args.max_steps < 0:
        parser.error(f"--max-steps must not be negative, got {args.max_steps}")
    ws = formats.parse_workspace(args.workspace)
    names = [n for n in args.rules.split(",") if n]
    if not names:
        parser.error("--rules needs at least one rule name")
    rules = [ws.rule(n) for n in names]
    graph = ws.graph(args.graph)
    result = normalize(graph, rules, max_steps=args.max_steps, keep_traces=False)
    print(f"{len(graph.nodes)} -> {len(result.graph.nodes)} nodes "
          f"in {result.steps} steps ({result.status})")
    sys.stdout.write(formats.serialize(result.graph))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    ws = formats.parse_workspace(args.workspace)
    if args.square not in ws.squares:
        raise DanglingReferenceError(
            f"dangling-reference: square {args.square!r}")
    rec = ws.squares[args.square]
    inner = [ws.morphism(n) for n in rec["inner"]]
    outer = [ws.morphism(n) for n in rec["outer"]]
    try:
        if rec["kind"] == "pushout":
            ok = is_pushout_square(Span(inner[0], inner[1]),
                                   Cospan(outer[0], outer[1]))
        else:
            ok = is_pullback_square(Cospan(inner[0], inner[1]),
                                    Span(outer[0], outer[1]))
    except NonCommutingSquareError:
        print("non-commuting")
        return 1
    if ok and args.exhaustive:
        from .limits import pullback, pushout, pullback_mediators, pushout_mediators
        if rec["kind"] == "pushout":
            lim = pushout(Span(inner[0], inner[1]))
            ok = len(pushout_mediators(lim, Cospan(outer[0], outer[1]), limit=2)) == 1
        else:
            lim = pullback(Cospan(inner[0], inner[1]))
            ok = len(pullback_mediators(lim, Span(outer[0], outer[1]), limit=2)) == 1
    print(f"{rec['kind']}: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    ws = formats.parse_workspace(args.workspace, validate=False)
    if args.rule is not None:
        report = validate_rule(ws.rule(args.rule))
    elif args.graph is not None:
        report = validate_graph(ws.graph(args.graph))
    else:
        if args.lattice not in ws.lattices:
            raise DanglingReferenceError(
                f"dangling-reference: lattice {args.lattice!r}")
        report = validate_lattice(ws.lattices[args.lattice])
    print(str(report))
    return 0 if report.ok else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    ws = formats.parse_workspace(args.workspace)
    text = dot_mod.emit_dot(ws.graph(args.graph), name=args.graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "match":
            return _cmd_match(args)
        if args.command == "apply":
            return _cmd_apply(args, parser)
        if args.command == "normalize":
            return _cmd_normalize(args, parser)
        if args.command == "bdd":
            return _cmd_bdd(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "dot":
            return _cmd_dot(args)
    except EngineError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
