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

Above ``_CONTRACT_N`` vertices :func:`find_predecessor_tree` runs the same
recurrence as a numpy tree contraction (rake and compress, Miller & Reif
1985).  An entry only compares ``l + [child] + [context]`` with k, so l
matters only by its class (<= k-3, k-2, k-1, >= k) and ``bad`` only as 0 or
1: a vertex's pair of entries (parent at -1, parent at +1) is one lookup in
a 256 x 10 table that does not depend on k.  Each round rakes every vertex
whose children are all settled into its parent's four counters, then
splices out the one-child vertices whose random priority beats that of
their one-child neighbours, composing each one's 9 -> 9 pair map into its
child's map up the tree.  The priorities come from a fixed seed and only
choose the order of the work, so the answer equals the scalar pass bit for
bit.  A path takes O(log n) expected rounds, like any other tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .graphs import RootedTree, as_config, config_list
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
    cptr, order = tree.child_slices()
    tm = [UNSET] * n
    tp = [UNSET] * n
    root_out: dict[int, int] = {}
    visits = [0] * n
    visits[tree.root] = 1
    # (parent state, table to fill): the root has one context and no parent
    root_contexts = ((0, root_out),)
    child_contexts = ((-1, tm), (1, tp))

    for r in range(n - 1, -1, -1):
        v = order[r]
        p = parent[v]
        tgt = ys[v]
        kids = order[cptr[r]:cptr[r + 1]]
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


# Trees with more vertices than this are decided by the contraction, the
# others by the scalar pass: a contraction round costs a fixed few dozen numpy
# calls, and a path needs more rounds than a bushy tree.  On a 2-core x86 VM
# (k=2, medians of 31 calls, scalar against contraction) a random tree took
# 1.3 against 1.0 ms at n=1024 and 3.6 against 1.8 ms at 2048, but a path
# with a random target 0.8 against 1.5 ms at 1024, 2.5 against 2.6 ms at
# 2048 and 3.9 against 3.4 ms at 4096.
_CONTRACT_N = 2048

# Contraction codes: an entry is 0 (state -1), 1 (state +1) or 2
# (INFEASIBLE); a pair (entry under parent -1, entry under parent +1) is
# 3 * a + b.  Column 9 of the pair table stands for "no child left".
_NO_CHILD = 9


@cache
def _pair_table() -> np.ndarray:
    """Pair code of a vertex by (row, remaining child's pair or _NO_CHILD).

    A row packs, high bit first: the vertex's target, its parent's target,
    then for trial state -1 and +1 in turn the class of its raked children's
    l (0: <= k-3, 1: k-2, 2: k-1, 3: >= k) and whether any raked child was
    infeasible.  A class stands for l at k=3, which decides every
    ``l + [child] + [context] >= k`` alike.
    """
    table = np.empty((256, 10), dtype=np.uint8)
    for row, col in product(range(256), range(10)):
        tgt = 1 if row >> 7 else -1
        first = 1 if row >> 6 & 1 else -1
        # per trial state: (class, bad) from the row, plus the child's share
        seen = {-1: [row >> 4 & 3, row >> 3 & 1], 1: [row >> 1 & 3, row & 1]}
        if col != _NO_CHILD:
            for st, e in ((-1, col // 3), (1, col % 3)):
                seen[st][0] += e == (st < 0)
                seen[st][1] += e == 2
        pair = 0
        for ctx in (-1, 1):
            e = 2
            for st in (first, -first):
                cls, bad = seen[st]
                if not bad and transition_possible(tgt, st, cls + (ctx == -st), 3):
                    e = int(st > 0)
                    break
            pair = 3 * pair + e
        table[row, col] = pair
    table.flags.writeable = False  # one cached table serves every call
    return table


# Counter slots per vertex: l and bad under trial -1, l and bad under trial
# +1, and a spare that takes the entries counting toward neither.  _SLOTS
# gives the two slots a child's pair code feeds in its parent.  The l slots
# start at 3 - k, so min(max(counters, 0), _CAPS) holds the row's fields, and
# @ _ROW_OFFSETS turns them into the row's offset in the flattened pair table.
_SLOTS = np.array([[(4, 0, 1)[p // 3], (2, 4, 3)[p % 3]] for p in range(9)])
_CAPS = np.array([3, 1, 3, 1, 0], dtype=np.int32)
_ROW_OFFSETS = 10 * np.array([16, 8, 2, 1, 0], dtype=np.int32)
_ID9 = np.arange(9)


def _contract(parent: np.ndarray, root: int, y: np.ndarray, k: int):
    """The root's entry and every non-root vertex's pair code, by contraction."""
    n = parent.size
    table = _pair_table().reshape(-1)
    ybit = (y > 0).astype(np.int64)
    base = 10 * (ybit << 7 | ybit[parent] << 6)
    # k clamped to n + 1 decides alike (no vertex has n neighbors) and fits int32
    lift = 3 - min(k, n + 1)
    cp = parent.copy()  # parent in the contracted tree
    nonroot = np.flatnonzero(parent >= 0)
    nch = np.bincount(parent[nonroot], minlength=n)  # children left, -1 once gone
    kids = np.zeros(n, dtype=np.int64)  # their id sum: the child itself once one is left
    np.add.at(kids, parent[nonroot], nonroot)
    cnt = np.zeros((n, 5), dtype=np.int32)
    cnt[:, [0, 2]] = lift
    flat = cnt.reshape(-1)
    # per vertex, own pair -> the pair its contracted parent sees, row-major
    up = np.tile(np.arange(9, dtype=np.uint8), n)
    pair = np.zeros(n, dtype=np.uint8)
    prio = np.full(n, -1.0, dtype=np.float32)  # a random priority while a splice candidate
    rng = np.random.default_rng(0x7EE)
    one32 = np.int32(1)
    log = []

    def rows(vs):
        return base[vs] + np.minimum(np.maximum(cnt[vs], 0), _CAPS) @ _ROW_OFFSETS

    act = nonroot
    while act.size:
        # rake: every vertex with no child left reports to its contracted parent
        leaves = act[nch[act] == 0]
        dst = cp[leaves]
        pair[leaves] = table[rows(leaves) + _NO_CHILD]
        np.add.at(flat, (5 * dst[:, None] + _SLOTS[up[9 * leaves + pair[leaves]]]).ravel(), one32)
        np.subtract.at(nch, dst, 1)
        np.subtract.at(kids, dst, leaves)
        nch[leaves] = -1
        # compress: splice the one-child vertices whose priority beats that of
        # any one-child parent and child, so no two spliced vertices touch
        one = act[nch[act] == 1]
        mine = prio[one] = rng.random(one.size, dtype=np.float32)
        sel = one[(mine > prio[cp[one]]) & (mine > prio[kids[one]])]
        prio[one] = -1.0
        if sel.size:
            c = kids[sel]
            c9 = (9 * c)[:, None] + _ID9
            w = table[rows(sel)[:, None] + up[c9]]  # c's own pair -> sel's pair
            up[c9] = up[(9 * sel)[:, None] + w]
            cp[c] = dst = cp[sel]
            np.add.at(kids, dst, c - sel)
            log.append((sel, c, w))
            nch[sel] = -1
        act = act[nch[act] >= 0]
    # replay: a spliced vertex's pair follows from its child's
    for sel, c, w in reversed(log):
        pair[sel] = w[np.arange(sel.size), pair[c]]

    lm, bm, lp, bp, _ = cnt[root].tolist()
    tgt = int(y[root])
    for st, l, bad in ((1, lp, bp), (-1, lm, bm)):
        if not bad and transition_possible(tgt, st, l - lift, k):
            return st, pair
    return INFEASIBLE, pair


# Pointer jumping over maps parent state -> own state, as bits (f(-1), f(+1)):
# 0 constant -1, 1 identity, 2 negation, 3 constant +1.
_COMPOSE = np.array(
    [[2 * (f >> (1 - (g >> 1)) & 1) + (f >> (1 - (g & 1)) & 1) for g in range(4)] for f in range(4)],
    dtype=np.uint8,
)


def _find_contracted(tree: RootedTree, k: int, y) -> np.ndarray | None:
    parent, root = tree.parent_array, tree.root
    y = as_config(y, parent.size)
    root_entry, pair = _contract(parent, root, y, k)
    if root_entry == INFEASIBLE:
        return None
    # An infeasible entry is never read on the way down: stand in the other one.
    a, b = np.divmod(pair, 3)
    a = np.where(a == 2, b, a)
    b = np.where(b == 2, a, b)
    f = (2 * a + b).astype(np.uint8)
    f[root] = 3 if root_entry > 0 else 0
    anc = parent.copy()
    anc[root] = root
    act = np.flatnonzero((f == 1) | (f == 2))
    while act.size:
        f[act] = _COMPOSE[f[act], f[anc[act]]]
        anc[act] = anc[anc[act]]
        act = act[(f[act] == 1) | (f[act] == 2)]
    return np.where(f == 3, 1, -1).astype(np.int8)


def find_predecessor_tree(tree: RootedTree, k: int, y) -> np.ndarray | None:
    """Witness predecessor of y on the tree, or None if y has none."""
    if tree.graph.n > _CONTRACT_N:
        return _find_contracted(tree, check_k(k), y)
    table = compute_forced_states(tree, k, y)
    if table.root_entry == INFEASIBLE:
        return None
    w = [0] * tree.graph.n
    w[tree.root] = table.root_entry
    tm, tp, parent = table._minus, table._plus, tree.parent
    for v in tree.bfs_order[1:]:
        w[v] = (tm if w[parent[v]] < 0 else tp)[v]
    return np.array(w, dtype=np.int8)
