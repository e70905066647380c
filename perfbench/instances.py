"""Seeded inputs for both workloads, built without the package under test.

Graphs come from the benchmark's own generators and are written as text
here, so a change to ``kreversible.generators`` or ``write_graph`` cannot
move the inputs.  Every function is deterministic in its ``rng``.
"""

from __future__ import annotations

import heapq

import numpy as np

# Instance sizes of the cli-large request kinds (see NOTES.md for why).
TREE_N = 100_000
PATH_N = 20_000
CUBIC_N = 50_000
K1_N, K1_M = 100_000, 400_000
K1_STEPS = 20
GEN_N, GEN_M = 100_000, 400_000
COUNT_TREE_N = 20_000
HUB_P = 1_500
ORACLE_N = 20

# Targets per (graph, k) pair in the sweep, as in the oracle-equivalence tests.
SWEEP_TARGETS = 32
# Sweep instances per family in one timed block.
SWEEP_BLOCK = 8
# Side calls per sweep block, for the kinds the tests do not make: simulate on
# the first targets of each k1 instance, count on hub_spokes(p) with p drawn
# from [2, SWEEP_HUB_P_MAX], and generator graphs.
SWEEP_STEP_TARGETS = 4
SWEEP_HUB_CALLS = 8
SWEEP_HUB_P_MAX = 6
SWEEP_GEN_GRAPHS = 4

def edge_array(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.sort(e, axis=1)


def prufer_tree(n: int, rng) -> np.ndarray:
    """Uniform labelled tree on n >= 2 vertices, decoded from a random Pruefer word."""
    if n == 2:
        return edge_array([(0, 1)])
    word = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for x in word:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in word:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edge_array(edges)


def path_edges(n: int) -> np.ndarray:
    v = np.arange(n - 1, dtype=np.int64)
    return np.stack([v, v + 1], axis=1)


def hub_spokes_edges(p: int) -> np.ndarray:
    """Hub 0, spokes 1..p, two leaves per spoke: n = 3p + 1."""
    spokes = np.arange(1, p + 1, dtype=np.int64)
    return edge_array(np.concatenate([
        np.stack([np.zeros(p, dtype=np.int64), spokes], axis=1),
        np.stack([spokes, p + 2 * spokes - 1], axis=1),
        np.stack([spokes, p + 2 * spokes], axis=1),
    ]))


def _is_simple(e: np.ndarray, n: int) -> bool:
    if np.any(e[:, 0] == e[:, 1]):
        return False
    codes = e[:, 0] * n + e[:, 1]
    return np.unique(codes).size == codes.size


def cubic_graph(n: int, rng) -> np.ndarray:
    """Random simple 3-regular graph by stub pairing, retried until simple."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), 3)
    while True:
        e = edge_array(rng.permutation(stubs).reshape(-1, 2))
        if _is_simple(e, n):
            return e


def gnm_graph(n: int, m: int, rng) -> np.ndarray:
    """Uniform simple graph with exactly m edges (n >= 2)."""
    if n * (n - 1) // 2 <= 4096:
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
        return pairs[np.sort(rng.choice(len(pairs), size=m, replace=False))].reshape(-1, 2)
    codes = np.empty(0, dtype=np.int64)
    while codes.size < m:
        u = rng.integers(0, n, size=2 * (m - codes.size) + 16)
        v = rng.integers(0, n, size=u.size)
        keep = u != v
        codes = np.union1d(codes, np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    codes = np.sort(rng.choice(codes, size=m, replace=False))
    return np.stack([codes // n, codes % n], axis=1)


def bounded_degree_graph(n: int, cap: int, rng) -> np.ndarray:
    """Random simple graph: shuffled pairs kept greedily under a degree cap."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = rng.permutation(len(pairs)).tolist()
    want = int(rng.integers(n - 1, n * cap // 2 + 1))
    deg = [0] * n
    edges = []
    for i in order:
        u, v = pairs[i]
        if deg[u] < cap and deg[v] < cap:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
            if len(edges) == want:
                break
    return edge_array(edges)


def random_config(n: int, rng) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=n)


def graph_text(n: int, edges: np.ndarray) -> str:
    """The graph file format: header ``n m``, then one ``u v`` line per edge."""
    body = "\n".join(f"{u} {v}" for u, v in edges.tolist())
    return f"{n} {len(edges)}\n" + (body + "\n" if len(edges) else "")


def config_text(y) -> str:
    return " ".join("+1" if s > 0 else "-1" for s in np.asarray(y).tolist()) + "\n"
