"""Command-line toolkit: simulate, decide, count, reduce, generate.

Answers go to stdout, diagnostics to stderr.  Exit codes: 0 success (YES),
1 predecessor absent (NO), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import generators, oracle
from .deg3 import predecessor_clauses, to_dimacs
from .dynamics import is_predecessor, simulate
from .graphs import Graph, format_config, parse_config, parse_graph, write_graph
from .reduction import (
    ClauseSemantics,
    build_gadget,
    format_role_map,
    invert_literals,
    parse_dimacs,
    predecessor_from_assignment,
)
from .route import ROUTES, choose_method, route  # choose_method: part of the cli interface

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _read(path: str) -> bytes:
    """An input file, undecoded: the parsers take bytes."""
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph_config(args) -> tuple[Graph, "object"]:
    g = parse_graph(_read(args.graph))
    y = parse_config(_read(args.config), g.n)
    return g, y


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
    candidate = parse_config(_read(args.candidate), g.n)
    if is_predecessor(g, args.k, candidate, y):
        print("YES")
        return EXIT_YES
    print("NO")
    return EXIT_NO


def _cmd_pre(args) -> int:
    g, y = _load_graph_config(args)
    r, x = route(g, args.k, args.method, args.oracle_limit)
    if args.dump_cnf is not None:
        if r.name != "twosat":
            raise ValueError("--dump-cnf applies only to the twosat method")
        _write(args.dump_cnf, to_dimacs(predecessor_clauses(g, y)))
    witness = r.decide(x, args.k, y)
    if witness is None:
        print("NO")
        return EXIT_NO
    print("YES")
    sys.stdout.write(format_config(witness))
    return EXIT_YES


# Bits up to which _decimal converts an int with Decimal(x) alone, whose cost
# is quadratic in the bits: past it, halves split by bits are converted on
# their own and rejoined with one multiply, which libmpdec does in
# subquadratic time.
_DECIMAL_BITS = 4096


def _decimal(x: int):
    """Decimal(x) for an int x >= 0, in subquadratic time.  It prints any
    int: str() refuses one past the int-to-str digit limit."""
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal

    if x.bit_length() <= _DECIMAL_BITS:
        return Decimal(x)
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    # x < 2**(2 * shifts[-1]); a value below 2**(2 * shifts[i]) splits at shifts[i]
    shifts = [_DECIMAL_BITS]
    while 2 * shifts[-1] < x.bit_length():
        shifts.append(2 * shifts[-1])
    scale = [exact.power(2, s) for s in shifts]

    def convert(x: int, i: int):
        if x.bit_length() <= _DECIMAL_BITS:
            return Decimal(x)
        s = shifts[i]
        high = convert(x >> s, i - 1)
        return exact.add(exact.multiply(high, scale[i]), convert(x & ((1 << s) - 1), i - 1))

    return convert(x, len(shifts) - 1)


def _cmd_count(args) -> int:
    g, y = _load_graph_config(args)
    r, x = route(g, args.k, args.method, args.oracle_limit, counting=True)
    total = r.count(x, args.k, y)
    print(_decimal(total))
    return EXIT_YES if total > 0 else EXIT_NO


def _load_exactly_two(args):
    if args.semantics == "exactly-one":
        return invert_literals(parse_dimacs(_read(args.cnf), ClauseSemantics.EXACTLY_ONE))
    return parse_dimacs(_read(args.cnf))


def _cmd_reduce(args) -> int:
    cnf = _load_exactly_two(args)
    inst = build_gadget(cnf, args.k)
    _write(args.out_prefix + ".graph", write_graph(inst.graph))
    _write(args.out_prefix + ".config", format_config(inst.target))
    _write(args.out_prefix + ".map", format_role_map(inst))
    return EXIT_YES


def _cmd_witness(args) -> int:
    cnf = _load_exactly_two(args)
    inst = build_gadget(cnf, args.k)
    assignment = _parse_assignment(_read(args.assignment).decode("utf-8"), cnf.num_vars)
    prior = predecessor_from_assignment(inst, assignment)
    _write(args.out, format_config(prior))
    return EXIT_YES


def _cmd_gen(args) -> int:
    if args.kind == "tree":
        _write(args.out, write_graph(generators.random_tree(args.n, args.seed)))
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
        _write(args.out, write_graph(g))
    else:
        _write(args.out, format_config(generators.random_config(args.n, args.seed)))
    return EXIT_YES


@functools.cache  # once per process: parse_args leaves the parser as it was
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
    p.add_argument("--method", choices=("auto", *(r.name for r in ROUTES)), default="auto")
    p.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_LIMIT)
    p.add_argument("--dump-cnf", help="write the 2SAT instance (twosat method only)")
    p.set_defaults(func=_cmd_pre)

    p = sub.add_parser("count", help="count predecessor configurations")
    add_gc(p)
    p.add_argument("--method", choices=("auto", *(r.name for r in ROUTES if r.count)), default="auto")
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
