"""Exhaustive ground truth for predecessor existence and counting.

Deliberately independent of :mod:`kreversible.dynamics`: the update rule is
evaluated here bit-sliced over the adjacency lists rather than through the
per-edge numpy route used by ``step``, so the two implementations of the
rule can check each other.

Candidate configurations are indexed 0 .. 2^n - 1 with vertex 0 as the most
significant bit and bit value 1 meaning state +1; ascending index therefore
equals lexicographic order with -1 < +1.

Candidates are scanned in blocks of 2^B, B = min(n, _BLOCK_BITS), and
bit-sliced (Biham 1997): within the block starting at index lo, vertex v's
state plane is a Python int whose bit i is the state of candidate lo + i.
The low B vertices' planes are the same periodic patterns in every block; a
higher vertex's plane is 0 or all ones.  A vertex with d >= k neighbours
flips where at least k of them differ.  XOR-ing its plane with each
neighbour's gives the differing bits, and k rounds of prefix ORs over those
planes count them, each round cut to the d - k + 1 neighbour prefixes that
can still reach k.  The successor plane is the state plane XOR "at least k
differ".  The answers read those planes: a target's predecessors are the
bits set in every successor plane where the target is +1 and in no other.

A block costs O(m * min(k, max degree)) operations on 2^B-bit integers, so
a scan costs O(2^n * m * min(k, max degree) / w) word operations for a
machine word of w bits; every step is exact integer arithmetic.  Blocks of
2^16 candidates keep each plane at 8 KiB, inside the processor's cache.
"""

from __future__ import annotations

from itertools import accumulate
from operator import and_, or_

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
_BLOCK_BITS = 16


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


def _blocks(g: Graph, k: int):
    """Yield (lo, all-ones plane, successor plane of every vertex) per block."""
    n = g.n
    low = min(n, _BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    # bit b of a candidate's offset in the block, for b = low - 1 .. 0: each
    # plane is the one before XOR itself shifted down by 2^b
    low_planes, plane = [], full
    for b in reversed(range(low)):
        plane ^= plane >> (1 << b)
        low_planes.append(plane)
    adj = g.adjacency()
    for lo in range(0, 1 << n, 1 << low):
        x = [full if lo >> (n - 1 - v) & 1 else 0 for v in range(n - low)] + low_planes
        succ = []
        for xv, nbrs in zip(x, adj):
            if len(nbrs) >= k:
                diffs = [xv ^ x[u] for u in nbrs]
                # after round j, row[s]: at least j of the first j + s
                # neighbours differ; s stops at d - k, the most that may agree
                row = [full] * (len(nbrs) - k + 1)
                for j in range(k):
                    row = list(accumulate(map(and_, row, diffs[j:]), or_))
                xv ^= row[-1]
            succ.append(xv)
        yield lo, full, succ


def _matches(g: Graph, k: int, target):
    """Yield (lo, plane of the block's candidates stepping to target) per block."""
    want = (as_config(target, g.n) > 0).tolist()
    for lo, full, succ in _blocks(g, k):
        match = full
        for s, w in zip(succ, want):
            match &= s if w else s ^ full
        yield lo, match


def enumerate_predecessors(g: Graph, k: int, target, limit: int = DEFAULT_LIMIT) -> list[np.ndarray]:
    """All y' with one step from y' equal to target, in enumeration order."""
    k = check_k(k)
    _check_limit(g, limit)
    shifts = np.arange(g.n - 1, -1, -1)
    found: list[np.ndarray] = []
    for lo, match in _matches(g, k, target):
        if not match:
            continue
        raw = np.frombuffer(match.to_bytes((match.bit_length() + 7) >> 3, "little"), np.uint8)
        idx = lo + np.flatnonzero(np.unpackbits(raw, bitorder="little"))
        found.extend((2 * (idx[:, None] >> shifts & 1) - 1).astype(np.int8))
    return found


def count_predecessors_bruteforce(g: Graph, k: int, target, limit: int = DEFAULT_LIMIT) -> int:
    """Cardinality of enumerate_predecessors, without materializing it."""
    k = check_k(k)
    _check_limit(g, limit)
    return sum(match.bit_count() for _, match in _matches(g, k, target))


def find_predecessor_bruteforce(g: Graph, k: int, target, limit: int = DEFAULT_LIMIT) -> np.ndarray | None:
    """First predecessor in enumeration order, or None; stops early."""
    k = check_k(k)
    _check_limit(g, limit)
    for lo, match in _matches(g, k, target):
        if match:
            return index_config(lo + (match & -match).bit_length() - 1, g.n)
    return None


def successor_indices(g: Graph, k: int, limit: int = DEFAULT_LIMIT) -> np.ndarray:
    """For every candidate index, the index of its one-step successor.

    ``np.bincount(successor_indices(g, k), minlength=2**n)`` yields the
    predecessor count of every configuration at once.
    """
    k = check_k(k)
    _check_limit(g, limit)
    n = g.n
    place = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    out = np.empty(1 << n, dtype=np.int64)
    for lo, full, succ in _blocks(g, k):
        size = full.bit_length()
        width = (size + 7) >> 3
        planes = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in succ), np.uint8)
        bits = np.unpackbits(planes.reshape(n, width), axis=1, bitorder="little", count=size)
        out[lo:lo + size] = place @ bits
    return out
