"""Reference answers that share no code path with the package under test.

The update rule is evaluated through adjacency-matrix products (scipy.sparse
for large graphs, dense numpy for tiny ones) instead of the per-edge
``bincount`` route of ``kreversible.dynamics.step``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix


class Tally:
    """Checked operations of one run: every answer the benchmark checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class SparseStepper:
    """One synchronous k-reversible step on a fixed graph via A @ y."""

    def __init__(self, n: int, edges: np.ndarray):
        u, v = edges[:, 0], edges[:, 1]
        ones = np.ones(2 * len(edges), dtype=np.int32)
        self.adj = csr_matrix((ones, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))
        self.deg = np.asarray(self.adj.sum(axis=1)).ravel()

    def step(self, k: int, y: np.ndarray) -> np.ndarray:
        y32 = y.astype(np.int32)
        differing = (self.deg - y32 * (self.adj @ y32)) // 2
        return np.where(differing >= k, -y, y).astype(np.int8)


def dense_step(adj: np.ndarray, deg: np.ndarray, k: int, y: np.ndarray) -> np.ndarray:
    y32 = y.astype(np.int32)
    differing = (deg - y32 * (adj @ y32)) // 2
    return np.where(differing >= k, -y, y).astype(np.int8)


def dense_adjacency(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    adj = np.zeros((n, n), dtype=np.int32)
    adj[edges[:, 0], edges[:, 1]] = 1
    adj[edges[:, 1], edges[:, 0]] = 1
    return adj, adj.sum(axis=1)


def config_index(y: np.ndarray) -> int:
    """Oracle enumeration rank: vertex 0 is the most significant bit, +1 is bit 1."""
    idx = 0
    for s in y.tolist():
        idx = (idx << 1) | (s > 0)
    return idx


def parse_states(text: str, n: int) -> np.ndarray | None:
    """Read a configuration printed by the CLI; None if it is not n +1/-1 tokens."""
    tokens = text.split()
    if len(tokens) != n or not set(tokens) <= {"+1", "-1"}:
        return None
    return np.array([1 if t == "+1" else -1 for t in tokens], dtype=np.int8)


def expected_graph_file(g, n: int, m: int) -> str | None:
    """The text ``write_graph(g)`` must give, as the benchmark formats it.

    None when g is not a simple graph with n vertices and m edges, so no
    output can match.
    """
    eu, ev = g.edge_arrays()
    lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
    codes = lo * n + hi
    if (g.n, len(lo)) != (n, m) or np.any(lo == hi) or np.unique(codes).size != codes.size:
        return None
    order = np.argsort(codes)
    lines = [f"{n} {m}"]
    lines.extend(f"{u} {v}" for u, v in zip(lo[order].tolist(), hi[order].tolist()))
    return "\n".join(lines) + "\n"


def decimal_text(x: int) -> str:
    """Decimal form of a nonnegative int of any size.

    Splits into chunks below the interpreter's int-to-str limit, so the
    limit never has to be raised.
    """
    if x < 10 ** 1000:
        return str(x)
    half = decimal_digits(x) // 2
    hi, lo = divmod(x, 10 ** half)
    return decimal_text(hi) + decimal_text(lo).rjust(half, "0")


def decimal_digits(x: int) -> int:
    """Digit count of a nonnegative int without an int-to-str conversion."""
    if x == 0:
        return 1
    d = int(x.bit_length() * 0.30102999566398120) + 1
    while d > 1 and x < 10 ** (d - 1):
        d -= 1
    while x >= 10 ** d:
        d += 1
    return d
