"""Linear-time predecessor search for the 1-reversible process.

With k = 1, two adjacent vertices sharing a state in the target must share a
state in any predecessor, so the target partitions the graph into maximal
connected same-state regions.  A vertex whose neighbors all agree with it is
*locked* (its predecessor state is forced), and so is any region containing
one.  A predecessor exists iff no two locked regions touch and every vertex
of an unlocked region has a neighbor in another unlocked region; flipping
all unlocked regions then yields a witness.

Graphs of at most ``_LIST_N`` vertices run through plain Python traversal;
larger ones through vectorized labeling, whose flipped candidate one step
of the update rule checks.  Both paths produce identical partitions and
witnesses; ``tests/test_k1.py::test_small_and_large_paths_agree`` runs both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _advance
from .graphs import Graph, as_config, _canonical_labels, _csgraph

__all__ = ["SameStatePartition", "same_state_partition", "find_predecessor_k1"]

# Vertex count above which regions are labeled in numpy.  On G(n, 2n) with
# mixed targets (2-core x86 VM) find_predecessor_k1 took 562 / 1201 us on the
# list path against 552 / 646 us on the numpy path at n = 256 / 512.
_LIST_N = 256


@dataclass(frozen=True)
class SameStatePartition:
    """Maximal connected same-state regions of a target configuration.

    Regions are numbered in order of their smallest vertex.
    """

    component: np.ndarray        # region label per vertex
    component_state: np.ndarray  # shared state per region
    component_locked: np.ndarray # region contains a locked vertex
    vertex_locked: np.ndarray    # all of the vertex's neighbors agree with it

    @property
    def n_components(self) -> int:
        return int(self.component_state.shape[0])


def _partition_small(g: Graph, ys: list[int]):
    adj = g.adjacency()
    n = g.n
    comp = [-1] * n
    comp_state: list[int] = []
    for s in range(n):
        if comp[s] >= 0:
            continue
        cid = len(comp_state)
        st = ys[s]
        comp_state.append(st)
        comp[s] = cid
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if comp[u] < 0 and ys[u] == st:
                    comp[u] = cid
                    stack.append(u)
    vertex_locked = [all(ys[u] == ys[v] for u in adj[v]) for v in range(n)]
    comp_locked = [False] * len(comp_state)
    for v in range(n):
        if vertex_locked[v]:
            comp_locked[comp[v]] = True
    return comp, comp_state, comp_locked, vertex_locked


def _regions(g: Graph, y: np.ndarray):
    """(region label per vertex, in scipy's numbering; region count;
    vertex_locked; component_locked)."""
    from scipy.sparse.csgraph import connected_components

    n = g.n
    eu, ev = g.edge_arrays()
    differs = y[eu] != y[ev]
    # index lists, which numpy takes from faster than it compresses by a mask
    same, cut = np.flatnonzero(~differs), np.flatnonzero(differs)
    # The canonical edges are sorted by (u, v), so the same-state ones are
    # already a CSR of the arcs u -> v, each row's columns ascending.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(eu[same], minlength=n), out=indptr[1:])
    ncomp, labels = connected_components(_csgraph(indptr, ev[same], n), directed=False)
    # under k = 1 a vertex keeps its state iff no neighbour differs from it
    vertex_locked = np.ones(n, dtype=bool)
    vertex_locked[eu[cut]] = vertex_locked[ev[cut]] = False
    component_locked = np.zeros(ncomp, dtype=bool)
    component_locked[labels[vertex_locked]] = True
    return labels, ncomp, vertex_locked, component_locked


def _partition_large(g: Graph, y: np.ndarray):
    raw, ncomp, vertex_locked, _ = _regions(g, y)
    labels = _canonical_labels(raw)
    component_state = np.zeros(ncomp, dtype=np.int8)
    component_state[labels] = y
    component_locked = np.zeros(ncomp, dtype=bool)
    component_locked[labels[vertex_locked]] = True
    return labels, component_state, component_locked, vertex_locked


def same_state_partition(g: Graph, y) -> SameStatePartition:
    y = as_config(y, g.n)
    if g.n <= _LIST_N:
        comp, comp_state, comp_locked, vertex_locked = _partition_small(g, y.tolist())
        return SameStatePartition(
            np.array(comp, dtype=np.int64),
            np.array(comp_state, dtype=np.int8),
            np.array(comp_locked, dtype=bool),
            np.array(vertex_locked, dtype=bool),
        )
    return SameStatePartition(*_partition_large(g, y))


def _find_small(g: Graph, y: np.ndarray) -> np.ndarray | None:
    ys = y.tolist()
    comp, _, comp_locked, _ = _partition_small(g, ys)
    adj = g.adjacency()
    for v in range(g.n):
        sv = ys[v]
        if comp_locked[comp[v]]:
            for u in adj[v]:
                if ys[u] != sv and comp_locked[comp[u]]:
                    return None  # two locked regions touch
        else:
            if not any(ys[u] != sv and not comp_locked[comp[u]] for u in adj[v]):
                return None  # unlocked vertex without unlocked outside support
    return np.array(
        [sv if comp_locked[comp[v]] else -sv for v, sv in enumerate(ys)], dtype=np.int8
    )


def _find_large(g: Graph, y: np.ndarray) -> np.ndarray | None:
    # A predecessor exists iff the one that flips every unlocked region is one.
    labels, _, _, locked = _regions(g, y)
    w = np.where(locked[labels], y, -y)
    return w if np.array_equal(_advance(w, *g.edge_arrays(), g.n, 1), y) else None


def find_predecessor_k1(g: Graph, y) -> np.ndarray | None:
    """Witness predecessor for k = 1, or None if the target has none."""
    y = as_config(y, g.n)
    if g.n <= _LIST_N:
        return _find_small(g, y)
    return _find_large(g, y)
