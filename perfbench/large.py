"""Workload ``cli-large``: one CLI request per kind on large seeded files.

Every request is an in-process ``kreversible.cli.main(argv)`` call with
stdout and stderr captured, timed alone, and checked afterwards against a
reference from ``reference.py``.  The traced replay repeats each request
as the CLI's own sequence of public calls, with a span around each call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import instances as inst
from .reference import SparseStepper, Tally, decimal_digits, decimal_text, expected_graph_file, parse_states
from .trace import Trace

KINDS = (
    "pre_tree", "pre_path", "pre_cubic", "pre_k1", "step_k1",
    "gen_graph", "count_tree", "count_hub", "count_oracle",
)

# Requests per kind in one measured round.  The two cheapest kinds (about
# 0.15 s each, against 0.5-1.5 s for the rest) run more often, so that their
# averages rest on more samples at little cost.  count_oracle runs five times,
# because its first calls in a process can be slow (see NOTES.md), and
# count_hub, the kind whose latency varies most, three times.
ROUND_COPIES = {"count_tree": 3, "count_oracle": 5, "count_hub": 3}
ROUND = tuple(k for kind in KINDS for k in [kind] * ROUND_COPIES.get(kind, 1))

# Python's default limit on int-to-str conversion; the probe count must exceed it.
INT_STR_LIMIT = 4300


@dataclass
class Request:
    kind: str
    argv: list[str]
    k: int
    n: int
    m: int
    graph: Path | None = None
    config: Path | None = None
    out: Path | None = None
    expect: object = None        # target (pre_*), final state (step), text (gen), count
    stepper: SparseStepper | None = None
    counters: dict = field(default_factory=dict)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _yes_target(n: int, edges: np.ndarray, k: int, rng) -> tuple[SparseStepper, np.ndarray]:
    stepper = SparseStepper(n, edges)
    return stepper, stepper.step(k, inst.random_config(n, rng))


def build(seed: int, work: Path, kr) -> tuple[dict[str, Request], Request]:
    """All cli-large requests plus the known-defect probe, from one seed."""
    rng = np.random.default_rng([seed, 1])
    reqs: dict[str, Request] = {}

    def decide(kind, n, edges, k):
        stepper, y = _yes_target(n, edges, k, rng)
        g = _write(work / f"{kind}.graph", inst.graph_text(n, edges))
        c = _write(work / f"{kind}.config", inst.config_text(y))
        reqs[kind] = Request(kind, ["pre", "--graph", str(g), "--config", str(c), "--k", str(k)],
                             k, n, len(edges), g, c, expect=y, stepper=stepper)
        return stepper, y

    tree_edges = inst.prufer_tree(inst.TREE_N, rng)
    decide("pre_tree", inst.TREE_N, tree_edges, 2)
    decide("pre_path", inst.PATH_N, inst.path_edges(inst.PATH_N), 2)
    decide("pre_cubic", inst.CUBIC_N, inst.cubic_graph(inst.CUBIC_N, rng), 2)
    stepper, y = decide("pre_k1", inst.K1_N, inst.gnm_graph(inst.K1_N, inst.K1_M, rng), 1)

    final = y
    for _ in range(inst.K1_STEPS):
        final = stepper.step(1, final)
    k1 = reqs["pre_k1"]
    reqs["step_k1"] = Request(
        "step_k1",
        ["step", "--graph", str(k1.graph), "--config", str(k1.config), "--k", "1",
         "--steps", str(inst.K1_STEPS)],
        1, k1.n, k1.m, k1.graph, k1.config, expect=final)

    gen_seed = int(rng.integers(0, 2**31))
    g = kr.generators.random_graph(inst.GEN_N, inst.GEN_M, gen_seed)
    out = work / "gen_graph.graph"
    reqs["gen_graph"] = Request(
        "gen_graph",
        ["gen", "graph", "--n", str(inst.GEN_N), "--m", str(inst.GEN_M),
         "--seed", str(gen_seed), "--out", str(out)],
        0, inst.GEN_N, inst.GEN_M, out=out,
        expect=expected_graph_file(g, inst.GEN_N, inst.GEN_M))

    def count(kind, n, edges, y, k, extra, expect):
        gp = _write(work / f"{kind}.graph", inst.graph_text(n, edges))
        cp = _write(work / f"{kind}.config", inst.config_text(y))
        reqs[kind] = Request(kind, ["count", "--graph", str(gp), "--config", str(cp), "--k", str(k)] + extra,
                             k, n, len(edges), gp, cp, expect=expect)

    def tree_reference(n, edges, y, k, by_subsets):
        tree = kr.root_tree(kr.Graph(n, edges), 0)
        if by_subsets:
            return kr.count_predecessors_tree_by_subsets(tree, k, y, max_children=n)
        return kr.count_predecessors_tree(tree, k, y)

    edges = inst.prufer_tree(inst.COUNT_TREE_N, rng)
    _, y = _yes_target(inst.COUNT_TREE_N, edges, 2, rng)
    count("count_tree", inst.COUNT_TREE_N, edges, y, 2, [],
          tree_reference(inst.COUNT_TREE_N, edges, y, 2, by_subsets=True))
    hub_n = 3 * inst.HUB_P + 1
    count("count_hub", hub_n, inst.hub_spokes_edges(inst.HUB_P), np.ones(hub_n, dtype=np.int8), 2, [],
          2 ** inst.HUB_P)
    edges = inst.prufer_tree(inst.ORACLE_N, rng)
    _, y = _yes_target(inst.ORACLE_N, edges, 2, rng)
    count("count_oracle", inst.ORACLE_N, edges, y, 2, ["--method", "oracle"],
          tree_reference(inst.ORACLE_N, edges, y, 2, by_subsets=False))

    # Known defect: the CLI prints the count with str(), which Python refuses
    # above INT_STR_LIMIT digits.  The library answer itself is right.
    tree = reqs["pre_tree"]
    expect = tree_reference(tree.n, tree_edges, tree.expect, 2, by_subsets=False)
    if expect <= 10 ** INT_STR_LIMIT:
        raise RuntimeError("probe count no longer exceeds the int-to-str limit")
    probe = Request("probe", ["count", "--graph", str(tree.graph), "--config", str(tree.config), "--k", "2"],
                    2, tree.n, tree.m, tree.graph, tree.config, expect=expect)
    return reqs, probe


def run_cli(kr, argv) -> tuple[int, str, str, float]:
    """One in-process CLI call: exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = kr.cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def request(kr, req: Request, tally: Tally) -> tuple[str, float]:
    """One checked CLI request: its stdout and seconds."""
    rc, out, _, dt = run_cli(kr, req.argv)
    tally.add(check(req, rc, out))
    return out, dt


def check(req: Request, rc: int, stdout: str) -> bool:
    if rc != 0:
        return False
    if req.kind.startswith("pre_"):
        head, _, rest = stdout.partition("\n")
        w = parse_states(rest, req.n) if head == "YES" else None
        return w is not None and np.array_equal(req.stepper.step(req.k, w), req.expect)
    if req.kind == "step_k1":
        y = parse_states(stdout, req.n)
        return y is not None and np.array_equal(y, req.expect)
    if req.kind == "gen_graph":
        return req.expect is not None and stdout == "" and req.out.read_text(encoding="utf-8") == req.expect
    return stdout == decimal_text(req.expect) + "\n"


def replay(kr, tr: Trace, req: Request) -> str:
    """The CLI's sequence of public calls for one request, each in a span."""
    tr.new_request()
    call = tr.call
    if req.kind == "gen_graph":
        g = call("generators.random_graph", kr.generators.random_graph, inst.GEN_N, inst.GEN_M,
                 int(req.argv[req.argv.index("--seed") + 1]))
        text = call("graphs.write_graph", kr.write_graph, g)
        call("io.write", req.out.write_text, text, encoding="utf-8")
        return ""
    gtext = call("io.read", req.graph.read_text, encoding="utf-8")
    g = call("graphs.parse_graph", kr.parse_graph, gtext)
    ctext = call("io.read", req.config.read_text, encoding="utf-8")
    y = call("graphs.parse_config", kr.parse_config, ctext, g.n)
    k = req.k
    if req.kind == "step_k1":
        final = call("dynamics.simulate", kr.simulate, g, k, y, inst.K1_STEPS)
        return call("graphs.format_config", kr.format_config, final)
    if req.kind.startswith("pre_"):
        method = call("cli.choose_method", kr.cli.choose_method, g, k, "auto")
        if method == "pre1":
            w = call("k1.find_predecessor_k1", kr.find_predecessor_k1, g, y)
        elif method == "tree":
            tree = call("graphs.root_tree", kr.root_tree, g, 0)
            w = call("tree_decide.find_predecessor_tree", kr.find_predecessor_tree, tree, k, y)
        else:
            clauses = call("deg3.predecessor_clauses", kr.predecessor_clauses, g, y)
            req.counters["clauses"] = len(clauses.clauses)
            a = call("deg3.solve_2sat", kr.solve_2sat, clauses)
            w = np.array([1 if b else -1 for b in a], dtype=np.int8)
        return "YES\n" + call("graphs.format_config", kr.format_config, w)
    if req.kind == "count_oracle":
        total = call("oracle.count_predecessors_bruteforce", kr.count_predecessors_bruteforce, g, k, y)
    else:
        # _cmd_count routes with is_tree, then checks it again for method "tree"
        call("graphs.is_tree", kr.is_tree, g)
        call("graphs.is_tree", kr.is_tree, g)
        tree = call("graphs.root_tree", kr.root_tree, g, 0)
        total = call("tree_count.count_predecessors_tree", kr.count_predecessors_tree, tree, k, y)
    return call("builtins.str", str, total) + "\n"


def exact_counters(kr, req: Request) -> dict[str, int]:
    """Counters computed outside the timed calls; exact for a given seed."""
    c = {"n": req.n, "m": req.m}
    if req.graph is not None:
        c["bytes_in"] = req.graph.stat().st_size + req.config.stat().st_size
    if req.kind in ("pre_tree", "pre_path", "count_tree", "count_hub", "count_oracle"):
        g = kr.parse_graph(req.graph.read_text(encoding="utf-8"))
        y = kr.parse_config(req.config.read_text(encoding="utf-8"), g.n)
        tree = kr.root_tree(g, 0)
        if req.kind.startswith("pre_"):
            depth = [0] * g.n
            for v in tree.bfs_order[1:]:
                depth[v] = depth[tree.parent[v]] + 1
            c["depth"] = max(depth)
            c["forced_visits"] = sum(kr.compute_forced_states(tree, req.k, y).visits)
        else:
            c["count_digits"] = decimal_digits(req.expect)
        if req.kind == "count_oracle":
            c["candidates"] = 2 ** g.n
    if req.kind == "pre_k1":
        g = kr.parse_graph(req.graph.read_text(encoding="utf-8"))
        part = kr.same_state_partition(g, kr.parse_config(req.config.read_text(encoding="utf-8"), g.n))
        c["same_state_regions"] = part.n_components
        c["locked_regions"] = int(np.count_nonzero(part.component_locked))
    c.update(req.counters)
    return c


def run_probe(kr, probe: Request) -> dict:
    rc, stdout, stderr, _ = run_cli(kr, probe.argv)
    ok = rc == 0 and stdout == decimal_text(probe.expect) + "\n"
    return {"ok": ok, "exit_code": rc, "stderr": stderr.strip(), "n": probe.n,
            "digits": decimal_digits(probe.expect)}
