"""Linear-time predecessor search on trees, for any threshold k.

Working over a rooted tree, ``forced state of v given parent state c`` is
the state v must hold in any predecessor of the target restricted to v's
subtree, with the parent pinned to c.  When both states work the tie breaks
to the parent's target state (root: +1), which can only help the parent's
own transition.  An entry depends only on the children's entries under v's
trial state, so one bottom-up pass over the BFS order fills both parent
contexts of every vertex.  Each vertex's entries are read at most twice, once
per trial state of its parent, and no recursion is involved, so a path of a
million vertices costs no more than any other tree of that size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import RootedTree, config_list
from .dynamics import check_k

__all__ = [
    "UNSET",
    "INFEASIBLE",
    "ForcedStateTable",
    "transition_possible",
    "compute_forced_states",
    "find_predecessor_tree",
]

UNSET = 0
INFEASIBLE = 2


def transition_possible(target: int, current: int, differing: int, k: int) -> bool:
    """Can a vertex in `current` with `differing` opposite neighbors reach `target`?"""
    if current == target:
        return differing < k
    return differing >= k


@dataclass
class ForcedStateTable:
    """Memo table of forced states plus the per-vertex visit counters."""

    tree: RootedTree
    k: int
    root_entry: int
    visits: list[int]
    _minus: list[int]
    _plus: list[int]

    def entry(self, v: int, parent_state: int | None = None) -> int:
        """Forced state of v given the parent's state (None for the root)."""
        if parent_state is None:
            if v != self.tree.root:
                raise ValueError("only the root has a parent-free entry")
            return self.root_entry
        return (self._minus if parent_state < 0 else self._plus)[v]


def compute_forced_states(tree: RootedTree, k: int, y) -> ForcedStateTable:
    k = check_k(k)
    n = tree.graph.n
    ys = config_list(y, n)
    parent = tree.parent
    cptr, cidx = tree.child_slices()
    tm = [UNSET] * n
    tp = [UNSET] * n
    root_out: dict[int, int] = {}
    visits = [0] * n
    visits[tree.root] = 1
    # (parent state, table to fill): the root has one context and no parent
    root_contexts = ((0, root_out),)
    child_contexts = ((-1, tm), (1, tp))

    for v in reversed(tree.bfs_order):
        p = parent[v]
        tgt = ys[v]
        kids = cidx[cptr[v]:cptr[v + 1]]
        # first trial: the parent's target state (root: +1)
        if p is None:
            todo, first = root_contexts, 1
        else:
            todo, first = child_contexts, ys[p]
        for st in (first, -first):
            tbl = tm if st < 0 else tp
            bad = l = 0
            for f in kids:
                visits[f] += 1
                e = tbl[f]
                if e == INFEASIBLE:
                    bad += 1
                elif e == -st:
                    l += 1
            if bad:
                continue
            left = ()
            for ctx in todo:
                if transition_possible(tgt, st, l + (ctx[0] == -st), k):
                    ctx[1][v] = st
                else:
                    left += (ctx,)
            todo = left
            if not todo:
                break
        for _, out in todo:
            out[v] = INFEASIBLE

    return ForcedStateTable(tree, k, root_out[tree.root], visits, tm, tp)


def find_predecessor_tree(tree: RootedTree, k: int, y) -> np.ndarray | None:
    """Witness predecessor of y on the tree, or None if y has none."""
    table = compute_forced_states(tree, k, y)
    if table.root_entry == INFEASIBLE:
        return None
    n = tree.graph.n
    cptr, cidx = tree.child_slices()
    w = [0] * n
    w[tree.root] = table.root_entry
    tm, tp = table._minus, table._plus
    for v in tree.bfs_order:
        tbl = tm if w[v] < 0 else tp
        for fi in range(cptr[v], cptr[v + 1]):
            f = cidx[fi]
            w[f] = tbl[f]
    return np.array(w, dtype=np.int8)
