"""Command-line toolkit: simulate, decide, count, reduce, generate.

Answers go to stdout, diagnostics to stderr.  Exit codes: 0 success (YES),
1 predecessor absent (NO), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import sys

from . import generators, oracle
from .deg3 import find_predecessor_deg3, predecessor_clauses, to_dimacs
from .dynamics import is_predecessor, simulate
from .graphs import (
    Graph,
    format_config,
    is_tree,
    max_degree,
    parse_config,
    parse_graph,
    root_tree,
    write_graph,
)
from .k1 import find_predecessor_k1
from .reduction import (
    ClauseSemantics,
    build_gadget,
    format_role_map,
    invert_literals,
    parse_dimacs,
    predecessor_from_assignment,
)
from .tree_count import count_predecessors_tree
from .tree_decide import find_predecessor_tree

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2

METHODS = ("auto", "pre1", "tree", "twosat", "oracle")


def choose_method(g: Graph, k: int, requested: str, oracle_limit: int = oracle.DEFAULT_LIMIT) -> str:
    """Resolve 'auto' to a concrete method, or validate an explicit request."""
    if requested == "auto":
        if k == 1:
            return "pre1"
        if is_tree(g):
            return "tree"
        if k == 2 and max_degree(g) <= 3:
            return "twosat"
        if g.n <= oracle_limit:
            return "oracle"
        raise ValueError(
            "instance class is NP-complete in general and exceeds the brute-force limit"
        )
    if requested == "pre1":
        if k != 1:
            raise ValueError("method pre1 requires k=1")
    elif requested == "tree":
        if not is_tree(g):
            raise ValueError("method tree requires a tree graph")
    elif requested == "twosat":
        if k != 2:
            raise ValueError("method twosat requires k=2")
        if max_degree(g) > 3:
            raise ValueError("method twosat requires max degree 3")
    elif requested == "oracle":
        if g.n > oracle_limit:
            raise ValueError(f"oracle limited to n <= {oracle_limit}")
    else:
        raise ValueError(f"unknown method {requested!r}")
    return requested


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path: str) -> bytes:
    """Graph and configuration files: the parsers take bytes undecoded."""
    with open(path, "rb") as fh:
        return fh.read()


def _load_graph_config(args) -> tuple[Graph, "object"]:
    g = parse_graph(_read_bytes(args.graph))
    y = parse_config(_read_bytes(args.config), g.n)
    return g, y


def _decimal(x: int) -> str:
    """Decimal digits of any int, independent of the int-to-str digit limit."""
    from decimal import Decimal

    return str(Decimal(x))


def _parse_assignment(text: str, num_vars: int) -> list[bool]:
    tokens = text.split()
    if len(tokens) != num_vars:
        raise ValueError(f"expected {num_vars} assignment tokens, found {len(tokens)}")
    mapping = {"0": False, "1": True, "f": False, "t": True, "false": False, "true": True}
    try:
        return [mapping[t.lower()] for t in tokens]
    except KeyError as exc:
        raise ValueError(f"unknown assignment token {exc.args[0]!r}") from None


def _cmd_step(args) -> int:
    g, y = _load_graph_config(args)
    result = simulate(g, args.k, y, args.steps)
    sys.stdout.write(format_config(result))
    return EXIT_YES


def _cmd_verify(args) -> int:
    g, y = _load_graph_config(args)
    candidate = parse_config(_read_bytes(args.candidate), g.n)
    if is_predecessor(g, args.k, candidate, y):
        print("YES")
        return EXIT_YES
    print("NO")
    return EXIT_NO


def _cmd_pre(args) -> int:
    g, y = _load_graph_config(args)
    method = choose_method(g, args.k, args.method, args.oracle_limit)
    if args.dump_cnf is not None and method != "twosat":
        raise ValueError("--dump-cnf applies only to the twosat method")
    if method == "pre1":
        witness = find_predecessor_k1(g, y)
    elif method == "tree":
        witness = find_predecessor_tree(root_tree(g, 0), args.k, y)
    elif method == "twosat":
        if args.dump_cnf is not None:
            with open(args.dump_cnf, "w", encoding="utf-8") as fh:
                fh.write(to_dimacs(predecessor_clauses(g, y)))
        witness = find_predecessor_deg3(g, y)
    else:
        witness = oracle.find_predecessor_bruteforce(g, args.k, y, limit=args.oracle_limit)
    if witness is None:
        print("NO")
        return EXIT_NO
    print("YES")
    sys.stdout.write(format_config(witness))
    return EXIT_YES


def _cmd_count(args) -> int:
    g, y = _load_graph_config(args)
    method = args.method
    if method != "oracle":  # "auto" and "tree" share one is_tree BFS
        if is_tree(g):
            method = "tree"
        elif method == "tree":
            raise ValueError("method tree requires a tree graph")
        elif g.n <= args.oracle_limit:
            method = "oracle"
        else:
            raise ValueError(
                "counting is available for trees and brute-force-sized instances only"
            )
    if method == "tree":
        total = count_predecessors_tree(root_tree(g, 0), args.k, y)
    else:
        total = oracle.count_predecessors_bruteforce(g, args.k, y, limit=args.oracle_limit)
    print(_decimal(total))
    return EXIT_YES if total > 0 else EXIT_NO


def _semantics(name: str) -> ClauseSemantics:
    return ClauseSemantics.EXACTLY_ONE if name == "exactly-one" else ClauseSemantics.EXACTLY_TWO


def _load_exactly_two(args):
    cnf = parse_dimacs(_read(args.cnf), _semantics(args.semantics))
    if cnf.semantics is ClauseSemantics.EXACTLY_ONE:
        cnf = invert_literals(cnf)
    return cnf


def _cmd_reduce(args) -> int:
    cnf = _load_exactly_two(args)
    inst = build_gadget(cnf, args.k)
    prefix = args.out_prefix
    with open(prefix + ".graph", "w", encoding="utf-8") as fh:
        fh.write(write_graph(inst.graph))
    with open(prefix + ".config", "w", encoding="utf-8") as fh:
        fh.write(format_config(inst.target))
    with open(prefix + ".map", "w", encoding="utf-8") as fh:
        fh.write(format_role_map(inst))
    return EXIT_YES


def _cmd_witness(args) -> int:
    cnf = _load_exactly_two(args)
    inst = build_gadget(cnf, args.k)
    assignment = _parse_assignment(_read(args.assignment), cnf.num_vars)
    prior = predecessor_from_assignment(inst, assignment)
    text = format_config(prior)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _emit(args, text: str) -> None:
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.kind == "tree":
        _emit(args, write_graph(generators.random_tree(args.n, args.seed)))
    elif args.kind == "graph":
        if args.regular is not None:
            g = generators.random_regular_graph(args.n, args.regular, args.seed)
        elif args.max_degree is not None:
            g = generators.random_bounded_degree_graph(
                args.n, args.max_degree, args.seed, m=args.m
            )
        else:
            if args.m is None:
                raise ValueError("gen graph needs --m (or --max-degree / --regular)")
            g = generators.random_graph(args.n, args.m, args.seed)
        _emit(args, write_graph(g))
    else:
        _emit(args, format_config(generators.random_config(args.n, args.seed)))
    return EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kreversible",
        description="k-reversible processes: simulation, predecessor existence, counting",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_gc(p, config_help="target configuration file"):
        p.add_argument("--graph", required=True, help="graph file")
        p.add_argument("--config", required=True, help=config_help)
        p.add_argument("--k", type=int, required=True, help="threshold k")

    p = sub.add_parser("step", help="apply the update rule")
    add_gc(p, "starting configuration file")
    p.add_argument("--steps", type=int, default=1, help="number of steps (default 1)")
    p.set_defaults(func=_cmd_step)

    p = sub.add_parser("verify", help="check a candidate predecessor")
    add_gc(p)
    p.add_argument("--candidate", required=True, help="candidate predecessor file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pre", help="decide predecessor existence")
    add_gc(p)
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_LIMIT)
    p.add_argument("--dump-cnf", help="write the 2SAT instance (twosat method only)")
    p.set_defaults(func=_cmd_pre)

    p = sub.add_parser("count", help="count predecessor configurations")
    add_gc(p)
    p.add_argument("--method", choices=("auto", "tree", "oracle"), default="auto")
    p.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("reduce", help="build a hard instance from a 3-CNF formula")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file (3 literals per clause)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument(
        "--semantics",
        choices=("exactly-two", "exactly-one"),
        default="exactly-two",
        help="exactly-one inputs are inverted into exactly-two form first",
    )
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("witness", help="predecessor of a gadget target from an assignment")
    p.add_argument("--cnf", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--assignment", required=True, help="file with one 0/1 token per variable")
    p.add_argument(
        "--semantics", choices=("exactly-two", "exactly-one"), default="exactly-two"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("gen", help="emit seeded random instances")
    p.add_argument("kind", choices=("tree", "graph", "config"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--regular", type=int, help="make the graph d-regular")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
