"""Shared fixtures: tiny-instance enumeration and frozen example graphs."""

from __future__ import annotations

import itertools

import numpy as np

from kreversible import Graph, RootedTree
from kreversible.generators import tree_from_pruefer
from kreversible.oracle import index_config


def all_configs(n: int) -> list[np.ndarray]:
    """Every configuration of n vertices, in oracle enumeration order."""
    return [index_config(i, n) for i in range(1 << n)]


def all_graphs(n: int):
    """Every labeled simple graph on n vertices (all edge subsets)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices via Pruefer sequences."""
    if n == 1:
        yield Graph(1, [])
        return
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_pruefer(seq)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def prism_graph() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def built_views(t: RootedTree) -> list[str]:
    """The list views of t built so far: reading a slot through its class
    descriptor never builds one."""
    built = []
    for name in ("parent", "bfs_order", "_cptr"):
        try:
            getattr(RootedTree, name).__get__(t)
        except AttributeError:
            continue
        built.append(name)
    return built
