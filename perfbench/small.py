"""Workload ``sweep-small``: library calls over a seeded stream of tiny instances.

This is how the exhaustive oracle-equivalence tests (criteria 1-3) call the
library: each graph builds its own ``Graph`` and, where it is a tree, its
rooted tree; each (graph, k) pair builds its own ``successor_indices`` table
and answers 32 targets.  The three families of those tests come round-robin:
trees under k = 1, 2 and 3, answered by ``find_predecessor_tree`` and
``count_predecessors_tree``; max-degree-3 graphs under k=2, answered by
``find_predecessor_deg3``; and graphs under k=1, answered by
``find_predecessor_k1``.  ``instances_per_s`` counts the (graph, k) pairs.

Work comes in blocks of ``SWEEP_BLOCK`` graphs per family.  The calls of one
kind on one pair are timed as one batch, and a kind's sample is its mean
seconds per call over a block.  A sample thus spans many instance
sizes, and the trimmed mean of the samples does not jump between size
clusters.

The end-to-end metric list is shared with ``cli-large``, so a sweep run also
reports ``pre_path``, ``count_hub``, ``step_k1`` and ``gen_graph``.  The tests
make none of these calls.  Their tiny analogs run once per block, after the
test families, as side calls.  Side calls are timed on their own and are not
part of ``instances_per_s``.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

import numpy as np

from . import instances as inst
from .reference import Tally, config_index, dense_adjacency, dense_step, expected_graph_file
from .trace import Trace

FAMILIES = ("tree", "deg3", "k1")
MAIN_KINDS = ("pre_tree", "count_tree", "pre_cubic", "pre_k1", "count_oracle")
SIDE_KINDS = ("pre_path", "count_hub", "step_k1", "gen_graph")
KINDS = MAIN_KINDS + SIDE_KINDS
# Kinds whose calls and YES answers are counted as their answers are checked.
ANSWER_KINDS = ("pre_tree", "count_tree", "pre_cubic", "pre_k1", "pre_path", "count_hub")


@dataclass
class Instance:
    family: str
    n: int
    edges: np.ndarray
    pairs: list[tuple[int, list[np.ndarray]]]  # (k, its targets)


@dataclass
class Block:
    main: list[Instance]             # SWEEP_BLOCK graphs of each family, round-robin
    path: Instance                   # side: pre_path
    hub_p: int                       # side: count_hub on hub_spokes(hub_p), all +1
    gen: list[tuple[int, int, int]]  # side: gen_graph (n, m, seed) triples


def blocks(seed: int):
    """Endless seeded stream of blocks."""
    rng = np.random.default_rng([seed, 2])
    while True:
        main = [_instance(f, rng) for _ in range(inst.SWEEP_BLOCK) for f in FAMILIES]
        path = _instance("path", rng)
        hub_p = int(rng.integers(2, inst.SWEEP_HUB_P_MAX + 1))
        gen = []
        for _ in range(inst.SWEEP_GEN_GRAPHS):
            n = int(rng.integers(3, 10))
            gen.append((n, int(rng.integers(0, n * (n - 1) // 2 + 1)), int(rng.integers(0, 2**31))))
        yield Block(main, path, hub_p, gen)


def _instance(family: str, rng) -> Instance:
    if family == "tree":
        n, ks = int(rng.integers(3, 9)), (1, 2, 3)
        edges = inst.prufer_tree(n, rng)
    elif family == "path":
        n, ks = int(rng.integers(3, 9)), (int(rng.integers(1, 4)),)
        perm = rng.permutation(n)
        edges = inst.edge_array(perm[inst.path_edges(n)])
    elif family == "deg3":
        n, ks = int(rng.integers(4, 11)), (2,)
        edges = inst.bounded_degree_graph(n, 3, rng)
    else:
        n, ks = int(rng.integers(3, 10)), (1,)
        edges = inst.gnm_graph(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), rng)
    # half the targets are images of a step (YES), half are uniform (mixed)
    adj, deg = dense_adjacency(n, edges)
    pairs = []
    for k in ks:
        targets = []
        for i in range(inst.SWEEP_TARGETS):
            y = inst.random_config(n, rng)
            targets.append(dense_step(adj, deg, k, y) if i % 2 == 0 else y)
        pairs.append((k, targets))
    return Instance(family, n, edges, pairs)


class Sweep:
    """Runs blocks untraced or traced, and checks every answer after its timed calls."""

    def __init__(self, kr, tally: Tally):
        self.kr = kr
        self.tally = tally
        self.samples = {k: array("d") for k in KINDS}  # seconds per call, one per block
        self.main_seconds = 0.0    # Graph, root_tree, tables and answers of the test families
        self.main_pairs = 0
        self.main_requests: list[int] = []  # trace request ids: one per test-family graph
        self.side_requests: list[int] = []  # and one per block's side calls
        self.calls = {k: 0 for k in ANSWER_KINDS}
        self.yes = {k: 0 for k in ANSWER_KINDS}
        self.candidates = 0
        self._tr: Trace | None = None

    def run(self, block: Block, tr: Trace | None = None) -> None:
        self._tr = tr
        self._seconds = {k: 0.0 for k in KINDS}
        self._count = {k: 0 for k in KINDS}
        k1_graphs = []
        for x in block.main:
            if tr is not None:
                self.main_requests.append(tr.new_request())
            t0 = time.perf_counter()
            g, answers, tables = self._main(x)
            self.main_seconds += time.perf_counter() - t0
            self.main_pairs += len(x.pairs)
            for (k, targets), got, succ in zip(x.pairs, answers, tables):
                self._check(x, k, targets, got, succ)
            if x.family == "k1":
                k1_graphs.append((g, x.pairs[0][1], tables[0]))
        if tr is not None:
            self.side_requests.append(tr.new_request())
        self._side(block, k1_graphs)
        for kind in KINDS:
            self.samples[kind].append(self._seconds[kind] / self._count[kind])

    def _one(self, name: str, fn, *args):
        return fn(*args) if self._tr is None else self._tr.call(name, fn, *args)

    def _batch(self, kind: str, name: str, fn, arglists: list[tuple]) -> list:
        """fn on each argument tuple, timed as one batch of `kind` calls."""
        tr = self._tr
        t0 = time.perf_counter()
        if tr is None:
            out = [fn(*a) for a in arglists]
        else:
            out = [tr.call(name, fn, *a) for a in arglists]
        self._seconds[kind] += time.perf_counter() - t0
        self._count[kind] += len(arglists)
        return out

    def _main(self, x: Instance):
        """The test-family calls on one graph: per pair, its answers by kind and its table."""
        kr = self.kr
        g = self._one("graphs.Graph", kr.Graph, x.n, x.edges)
        if x.family == "tree":
            tree = self._one("graphs.root_tree", kr.root_tree, g, 0)
        answers, tables = [], []
        for k, targets in x.pairs:
            tables.append(self._batch("count_oracle", "oracle.successor_indices", kr.successor_indices,
                                      [(g, k)])[0])
            self.candidates += 1 << x.n
            if x.family == "tree":
                args = [(tree, k, y) for y in targets]
                answers.append({
                    "pre_tree": self._batch("pre_tree", "tree_decide.find_predecessor_tree",
                                            kr.find_predecessor_tree, args),
                    "count_tree": self._batch("count_tree", "tree_count.count_predecessors_tree",
                                              kr.count_predecessors_tree, args),
                })
            elif x.family == "deg3":
                answers.append({"pre_cubic": self._batch("pre_cubic", "deg3.find_predecessor_deg3",
                                                         kr.find_predecessor_deg3, [(g, y) for y in targets])})
            else:
                answers.append({"pre_k1": self._batch("pre_k1", "k1.find_predecessor_k1",
                                                      kr.find_predecessor_k1, [(g, y) for y in targets])})
        return g, answers, tables

    def _side(self, block: Block, k1_graphs) -> None:
        kr = self.kr
        for g, targets, succ in k1_graphs:
            targets = targets[:inst.SWEEP_STEP_TARGETS]
            finals = self._batch("step_k1", "dynamics.simulate", kr.simulate,
                                 [(g, 1, y, inst.K1_STEPS) for y in targets])
            for y, final in zip(targets, finals):
                idx = config_index(y)
                for _ in range(inst.K1_STEPS):
                    idx = int(succ[idx])
                self.tally.add(config_index(np.asarray(final)) == idx)

        x = block.path
        (k, targets), = x.pairs
        g = kr.Graph(x.n, x.edges)
        tree = kr.root_tree(g, 0)
        answers = self._batch("pre_path", "tree_decide.find_predecessor_tree", kr.find_predecessor_tree,
                              [(tree, k, y) for y in targets])
        self._check(x, k, targets, {"pre_path": answers}, kr.successor_indices(g, k))

        p = block.hub_p
        n = 3 * p + 1
        tree = kr.root_tree(kr.Graph(n, inst.hub_spokes_edges(p)), 0)
        counts = self._batch("count_hub", "tree_count.count_predecessors_tree", kr.count_predecessors_tree,
                             [(tree, 2, np.ones(n, dtype=np.int8))] * inst.SWEEP_HUB_CALLS)
        for c in counts:
            self._tally("count_hub", c > 0, c == 2**p)

        for n, m, seed in block.gen:
            # one gen_graph request is both calls, as `gen graph` makes them
            t0 = time.perf_counter()
            g = self._one("generators.random_graph", kr.generators.random_graph, n, m, seed)
            text = self._one("graphs.write_graph", kr.write_graph, g)
            self._seconds["gen_graph"] += time.perf_counter() - t0
            self._count["gen_graph"] += 1
            self.tally.add(text == expected_graph_file(g, n, m))

    def _check(self, x: Instance, k: int, targets, answers: dict[str, list], succ: np.ndarray) -> None:
        self.tally.add(succ.shape == (1 << x.n,))
        counts = np.bincount(succ, minlength=1 << x.n)
        adj, deg = dense_adjacency(x.n, x.edges)
        for kind, got in answers.items():
            for y, a in zip(targets, got):
                want = int(counts[config_index(y)])
                if kind.startswith("count_"):
                    self._tally(kind, a > 0, a == want)
                elif a is None:
                    self._tally(kind, False, want == 0)
                else:
                    w = np.asarray(a)
                    self._tally(kind, True, want > 0 and w.shape == (x.n,)
                                and np.array_equal(dense_step(adj, deg, k, w), y))

    def _tally(self, kind: str, yes: bool, ok: bool) -> None:
        self.tally.add(ok)
        self.calls[kind] += 1
        self.yes[kind] += bool(yes)
