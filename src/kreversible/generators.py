"""Seeded generators for graphs, trees, and configurations.

Every generator is deterministic in its seed so emitted instances are
byte-identical across runs and usable as frozen test fixtures.
"""

from __future__ import annotations

import bisect
import itertools
import random

import numpy as np

from .graphs import Graph

__all__ = [
    "tree_from_pruefer",
    "random_tree",
    "random_config",
    "random_graph",
    "random_bounded_degree_graph",
    "random_regular_graph",
    "hub_spokes_tree",
]


def tree_from_pruefer(seq) -> Graph:
    """Decode a Pruefer sequence over 0..n-1 (n = len(seq) + 2) into a tree."""
    seq = list(seq)
    n = len(seq) + 2
    deg = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"sequence entry {x} out of range")
        deg[x] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = np.random.default_rng(seed)
    return tree_from_pruefer(rng.integers(0, n, size=n - 2).tolist())


def random_config(n: int, seed: int) -> np.ndarray:
    if n < 0:
        raise ValueError(f"configuration size n must be nonnegative, got {n}")
    rng = random.Random(seed)
    return np.array([rng.choice((-1, 1)) for _ in range(n)], dtype=np.int8)


# Largest n for which random_graph draws with random.Random, the sampler of
# its pinned per-seed outputs, and random_bounded_degree_graph lists all
# n(n-1)/2 vertex pairs: at 2048 that is about 2.1 million tuples, and the
# list grows quadratically in n.
_PAIR_LIST_N = 2048


def _distinct_codes(rng, n: int, m: int) -> np.ndarray:
    """At least m distinct pair codes u * n + v (u < v), sorted, by rejection."""
    codes = np.empty(0, dtype=np.int64)
    while codes.size < m:
        want = (m - codes.size) * 2 + 16
        u = rng.integers(0, n, size=want)
        v = rng.integers(0, n, size=want)
        keep = u != v
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        # Sort and drop repeats: the same sorted codes as np.unique, without
        # numpy's much slower hash-based path.
        codes = np.sort(np.concatenate([codes, lo * n + hi]))
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    return codes


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly m edges."""
    if n < 0:
        raise ValueError(f"vertex count n must be nonnegative, got {n}")
    if m < 0:
        raise ValueError(f"edge count m must be nonnegative, got {m}")
    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"m={m} exceeds the {limit} possible edges")
    if n <= _PAIR_LIST_N:
        # Sampling indices draws the same as sampling the list of pairs
        # (u, v), u < v, in lexicographic order, which is never built:
        # ends[u] pairs have a first vertex of at most u, so pair i lies
        # ends[u] - i places from the end of u's run, which is (u, n - 1).
        ends = list(itertools.accumulate(range(n - 1, 0, -1)))
        chosen = random.Random(seed).sample(range(limit), m)
        return Graph(n, [(u := bisect.bisect_right(ends, i), n - (ends[u] - i)) for i in chosen])
    rng = np.random.default_rng(seed)
    if m <= limit // 2:
        codes = np.sort(rng.choice(_distinct_codes(rng, n, m), size=m, replace=False))
    else:
        # Near the complete graph rejection needs ever more rounds, so draw
        # the limit - m missing pairs instead and keep every other pair.
        drop = rng.choice(_distinct_codes(rng, n, limit - m), size=limit - m, replace=False)
        iu, iv = np.triu_indices(n, 1)
        codes = iu * n + iv
        keep = np.ones(limit, dtype=bool)
        keep[np.searchsorted(codes, drop)] = False
        codes = codes[keep]
    return Graph._from_codes(n, codes)  # sorted and distinct: nothing to check


def random_bounded_degree_graph(n: int, max_deg: int, seed: int, m: int | None = None) -> Graph:
    """Random simple graph greedily respecting a degree cap, for n <= 2048."""
    if max_deg < 0:
        raise ValueError(f"degree cap max_deg must be nonnegative, got {max_deg}")
    if m is not None and m < 0:
        raise ValueError(f"edge count m must be nonnegative, got {m}")
    if n > _PAIR_LIST_N:
        raise ValueError(
            f"n must be at most {_PAIR_LIST_N} for a degree-capped graph, got {n}: it shuffles"
            " all n(n-1)/2 pairs; use --regular (random_regular_graph) for larger graphs"
        )
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if m is not None and len(edges) >= m:
            break
        if deg[u] < max_deg and deg[v] < max_deg:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return Graph(n, edges)


_PAIRING_TRIES = 500  # stub pairings random_regular_graph draws before giving up


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph via stub pairing with retries."""
    if d < 0:
        raise ValueError(f"degree d must be nonnegative, got {d}")
    if n * d % 2:
        raise ValueError("n*d must be even")
    if d >= n:
        raise ValueError("degree must be below n")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_PAIRING_TRIES):
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        if np.any(u == v):
            continue
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes = lo * n + hi
        if np.unique(codes).size != codes.size:
            continue
        return Graph(n, np.stack([lo, hi], axis=1))
    raise RuntimeError(f"no simple {d}-regular pairing found in {_PAIRING_TRIES} tries")


def hub_spokes_tree(p: int) -> Graph:
    """Hub joined to p spokes, each spoke joined to two leaves (n = 3p + 1)."""
    if p < 1:
        raise ValueError("need at least one spoke")
    edges = [(0, i) for i in range(1, p + 1)]
    for i in range(1, p + 1):
        edges.append((i, p + 2 * i - 1))
        edges.append((i, p + 2 * i))
    return Graph(3 * p + 1, edges)
