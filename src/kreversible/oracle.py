"""Exhaustive ground truth for predecessor existence and counting.

Deliberately independent of :mod:`kreversible.dynamics`: candidates are
evaluated in bulk through dense adjacency-matrix arithmetic rather than the
per-edge route used by ``step``, so the two implementations of the update
rule can check each other.

Candidate configurations are indexed 0 .. 2^n - 1 with vertex 0 as the most
significant bit and bit value 1 meaning state +1; ascending index therefore
equals lexicographic order with -1 < +1.  A block of candidates maps to its
successor indices by XOR-ing each candidate's index with the packed flip
mask, so membership tests cost one integer compare per candidate.

Bulk math runs in floating point so it goes through BLAS; every quantity is
a small integer (single states bounded by n, packed indices below 2^26),
hence exact in float32 / float64 respectively.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, as_config
from .dynamics import check_k

__all__ = [
    "DEFAULT_LIMIT",
    "config_index",
    "index_config",
    "enumerate_predecessors",
    "count_predecessors_bruteforce",
    "find_predecessor_bruteforce",
    "successor_indices",
]

DEFAULT_LIMIT = 20
_MAX_LIMIT = 26
_BLOCK = 1 << 16


def _check_limit(g: Graph, limit: int) -> None:
    if limit > _MAX_LIMIT:
        raise ValueError(f"brute-force limit capped at {_MAX_LIMIT} vertices")
    if g.n > limit:
        raise ValueError(
            f"n={g.n} exceeds brute-force limit {limit}; raise the limit explicitly"
        )


def config_index(y) -> int:
    """Rank of a configuration in the enumeration order."""
    idx = 0
    for s in np.asarray(y).tolist():
        idx = (idx << 1) | (s > 0)
    return idx


def index_config(idx: int, n: int) -> np.ndarray:
    """Inverse of config_index."""
    bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
    return (2 * np.array(bits, dtype=np.int8) - 1).astype(np.int8)


def _scan(g: Graph, k: int):
    """Yield (start, candidate block as float32 rows, successor index codes)."""
    n = g.n
    adj = np.zeros((n, n), dtype=np.float32)
    eu, ev = g.edge_arrays()
    adj[eu, ev] = 1.0
    adj[ev, eu] = 1.0
    # flip rule: #differing = (deg - y*s)/2 >= k  <=>  y*s <= deg - 2k.
    # No vertex has more than n - 1 neighbors, so any k above n flips
    # nothing, as k = n + 1 does; the clamp keeps 2k a float.
    thr = adj.sum(axis=1) - 2.0 * min(k, n + 1)
    pow2 = 2.0 ** np.arange(n - 1, -1, -1) if n else np.zeros(0)
    if n == 0:
        yield 0, np.zeros((1, 0), dtype=np.float32), np.zeros(1, dtype=np.int64)
        return
    for lo in range(0, 1 << n, _BLOCK):
        hi = min(lo + _BLOCK, 1 << n)
        idx = np.arange(lo, hi, dtype="<u4")  # little-endian bytes on any host
        raw = np.unpackbits(idx[:, None].view(np.uint8), axis=1, bitorder="little")
        block = raw[:, n - 1::-1].astype(np.float32) * 2.0 - 1.0
        flips = (block * (block @ adj)) <= thr
        codes = flips @ pow2
        yield lo, block, idx.astype(np.int64) ^ codes.astype(np.int64)


def enumerate_predecessors(g: Graph, k: int, target, limit: int = DEFAULT_LIMIT) -> list[np.ndarray]:
    """All y' with one step from y' equal to target, in enumeration order."""
    k = check_k(k)
    _check_limit(g, limit)
    want = config_index(as_config(target, g.n))
    found: list[np.ndarray] = []
    for _, block, codes in _scan(g, k):
        found.extend(row.astype(np.int8) for row in block[codes == want])
    return found


def count_predecessors_bruteforce(g: Graph, k: int, target, limit: int = DEFAULT_LIMIT) -> int:
    """Cardinality of enumerate_predecessors, without materializing it."""
    k = check_k(k)
    _check_limit(g, limit)
    want = config_index(as_config(target, g.n))
    return sum(int(np.count_nonzero(codes == want)) for _, _, codes in _scan(g, k))


def find_predecessor_bruteforce(g: Graph, k: int, target, limit: int = DEFAULT_LIMIT) -> np.ndarray | None:
    """First predecessor in enumeration order, or None; stops early."""
    k = check_k(k)
    _check_limit(g, limit)
    want = config_index(as_config(target, g.n))
    for _, block, codes in _scan(g, k):
        hits = codes == want
        if hits.any():
            return block[int(np.argmax(hits))].astype(np.int8)
    return None


def successor_indices(g: Graph, k: int, limit: int = DEFAULT_LIMIT) -> np.ndarray:
    """For every candidate index, the index of its one-step successor.

    ``np.bincount(successor_indices(g, k), minlength=2**n)`` yields the
    predecessor count of every configuration at once.
    """
    k = check_k(k)
    _check_limit(g, limit)
    out = np.empty(1 << g.n, dtype=np.int64)
    for lo, _, codes in _scan(g, k):
        out[lo:lo + codes.shape[0]] = codes
    return out
