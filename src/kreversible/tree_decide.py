"""Linear-time predecessor search on trees, for any threshold k.

Working over a rooted tree, ``forced state of v given parent state c`` is
the state v must hold in any predecessor of the target restricted to v's
subtree, with the parent pinned to c.  When both states work the tie breaks
to the parent's target state (root: +1), which can only help the parent's
own transition.  An entry only compares ``l + [child] + [context]`` with k,
so l matters only by its class (<= k-3, k-2, k-1, >= k) and the infeasible
children only as none or some: a vertex's pair of entries (parent at -1,
parent at +1) is one lookup in a 256 x 10 table that does not depend on k.
That table and the root's own check are the whole rule, and two engines
read it bottom up.  Up to ``_CONTRACT_N`` vertices a scalar rake walks the
BFS order from the leaves, adding each vertex's pair code into its parent's
counters.  Above, a numpy tree contraction (rake and compress, Miller &
Reif 1985) does the same in rounds: each rakes every vertex whose children
are all settled, then splices out the one-child vertices whose random
priority beats that of their one-child neighbours, composing each one's
9 -> 9 pair map into its child's.  The priorities only order the work, so
both engines give the same codes, and neither recurses: a path of a million
vertices costs no more than any other tree of that size.

``ForcedStateTable.visits`` is derived from the codes when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .graphs import RootedTree, as_config, config_list
from .dynamics import check_k

__all__ = ["INFEASIBLE", "ForcedStateTable", "transition_possible", "compute_forced_states",
           "find_predecessor_tree"]

INFEASIBLE = 2


def transition_possible(target: int, current: int, differing: int, k: int) -> bool:
    """Can a vertex in `current` with `differing` opposite neighbors reach `target`?"""
    if current == target:
        return differing < k
    return differing >= k


# Pair codes: an entry is coded 0 (state -1), 1 (state +1) or 2 (INFEASIBLE),
# as _ENTRY decodes; a pair (entry under parent -1, entry under parent +1)
# is 3 * a + b.  Column 9 of the pair table stands for "no child left".
_ENTRY = (-1, 1, INFEASIBLE)
_NO_CHILD = 9


@dataclass
class ForcedStateTable:
    """Forced states of every vertex, held as the engines' pair codes."""

    tree: RootedTree
    k: int
    root_entry: int
    _pair: list[int] | np.ndarray
    _ys: list[int] | np.ndarray

    def entry(self, v: int, parent_state: int | None = None) -> int:
        """Forced state of v given the parent's state (None for the root)."""
        if not 0 <= v < self.tree.graph.n:
            raise ValueError(f"vertex {v!r} is not in the tree")
        if (parent_state is None) != (v == self.tree.root):
            raise ValueError("the root, and only the root, has a parent-free entry")
        if parent_state is None:
            return self.root_entry
        return _ENTRY[divmod(int(self._pair[v]), 3)[parent_state >= 0]]

    @property
    def visits(self) -> list[int]:
        """Reads of each vertex's entries: one per trial state of its parent,
        which tries a second unless its first, the target of its own parent
        (root: +1), settles both contexts (pair code 4 for +1, 0 for -1)."""
        pa, root = self.tree.parent_array, self.tree.root
        twice = np.asarray(self._pair) != 4 * (np.asarray(self._ys)[pa] > 0)
        twice[root] = self.root_entry != 1
        visits = 1 + twice[pa]
        visits[root] = 1
        return visits.tolist()


def compute_forced_states(tree: RootedTree, k: int, y) -> ForcedStateTable:
    k = check_k(k)
    return ForcedStateTable(tree, k, *_solve(tree, k, y))


# Trees with more vertices than this are decided by the contraction, the
# others by the scalar rake: a contraction round costs a fixed few dozen numpy
# calls, and a path needs more rounds than a bushy tree.  On a 2-core x86 VM
# (k=2, ms, rake against contraction) a random tree took 1.04 against 0.90 at
# n=2048 and a path with a random target 1.02 against 1.53; at 4096 they read
# 2.00 against 1.46 and 2.06 against 2.03.
_CONTRACT_N = 2048


def _pair_code(row: int, col: int) -> int:
    """Pair code of a vertex by (row, remaining child's pair or _NO_CHILD).

    A row packs, high bit first: the vertex's target, its parent's target,
    then for trial state -1 and +1 in turn the class of its raked children's
    l (0: <= k-3, 1: k-2, 2: k-1, 3: >= k) and whether any raked child was
    infeasible.  A class stands for l at k=3, which decides every
    ``l + [child] + [context] >= k`` alike.
    """
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
    return pair


@cache
def _pair_table() -> np.ndarray:
    table = np.array([[_pair_code(r, c) for c in range(10)] for r in range(256)], dtype=np.uint8)
    table.flags.writeable = False  # one cached table serves every call
    return table


# Counter slots per vertex: l and bad under trial -1, l and bad under trial
# +1, and a spare that takes the entries counting toward neither.  _SLOTS
# gives the two slots a child's pair code feeds in its parent.  The l slots
# start at 3 - k, so clamped to 0..3, and bad to 0..1 (_CAPS), they are the
# row's fields; @ _ROW_OFFSETS gives that row's offset in the flat table.
_SLOT_PAIRS = [((4, 0, 1)[p // 3], (2, 4, 3)[p % 3]) for p in range(9)]
_SLOTS = np.array(_SLOT_PAIRS)
_CAPS = np.array([3, 1, 3, 1, 0], dtype=np.int32)
_ROW_OFFSETS = 10 * np.array([16, 8, 2, 1, 0], dtype=np.int32)
_ID9 = np.arange(9)
# The scalar rake's copy of column _NO_CHILD (a tenth of the table's build):
# each row's pair code, with the two slots that code feeds in the parent.
_LEAF_COLUMN = tuple((c, *_SLOT_PAIRS[c]) for c in (_pair_code(r, _NO_CHILD) for r in range(256)))


def _root_entry(tgt: int, counters, k: int) -> int:
    """The root's entry from its counters: no parent, so one context, +1 first."""
    for st, l, bad in ((1, *counters[2:4]), (-1, *counters[:2])):
        if not bad and transition_possible(tgt, st, l - 3 + k, k):
            return st
    return INFEASIBLE


def _rake(tree: RootedTree, k: int, ys: list[int]) -> tuple[int, list[int]]:
    """Root entry and pair codes, leaves first: each vertex's row comes from its
    own counters, and its code goes into its parent's as a contraction rake does."""
    n = len(ys)
    parent, root = tree.parent, tree.root
    column = _LEAF_COLUMN
    plus = [s > 0 for s in ys]
    cnt = [3 - k, 0, 3 - k, 0, 0] * n
    pair = [0] * n
    for v in tree.bfs_order[:0:-1]:
        p = parent[v]
        i = 5 * v
        lm, lp = cnt[i], cnt[i + 2]
        pair[v], sm, sp = column[
            plus[v] << 7 | plus[p] << 6
            | (3 if lm > 3 else lm if lm > 0 else 0) << 4 | (cnt[i + 1] > 0) << 3
            | (3 if lp > 3 else lp if lp > 0 else 0) << 1 | (cnt[i + 3] > 0)
        ]
        j = 5 * p
        cnt[j + sm] += 1
        cnt[j + sp] += 1
    return _root_entry(ys[root], cnt[5 * root:5 * root + 4], k), pair


def _contract(parent: np.ndarray, root: int, y: np.ndarray, k: int):
    """The root's entry and every non-root vertex's pair code, by contraction."""
    n = parent.size
    table = _pair_table().reshape(-1)
    ybit = (y > 0).astype(np.int64)
    base = 10 * (ybit << 7 | ybit[parent] << 6)
    cp = parent.copy()  # parent in the contracted tree
    nonroot = np.flatnonzero(parent >= 0)
    nch = np.bincount(parent[nonroot], minlength=n)  # children left, -1 once gone
    kids = np.zeros(n, dtype=np.int64)  # their id sum: the child itself once one is left
    np.add.at(kids, parent[nonroot], nonroot)
    cnt = np.zeros((n, 5), dtype=np.int32)
    cnt[:, [0, 2]] = 3 - k
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

    return _root_entry(int(y[root]), cnt[root].tolist(), k), pair


# Pointer jumping over maps parent state -> own state, as bits (f(-1), f(+1)):
# 0 constant -1, 1 identity, 2 negation, 3 constant +1.
_COMPOSE = np.array(
    [[2 * (f >> (1 - (g >> 1)) & 1) + (f >> (1 - (g & 1)) & 1) for g in range(4)] for f in range(4)],
    dtype=np.uint8,
)


def _jump(parent: np.ndarray, root: int, root_entry: int, pair: np.ndarray) -> np.ndarray:
    """The witness from the contraction's pair codes, by pointer jumping."""
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


def _solve(tree: RootedTree, k: int, y):
    """(root entry, pair codes, targets) from the engine that suits the size."""
    n = tree.graph.n
    k = min(k, n + 1)  # decides alike, as no vertex has n neighbors, and fits int32
    if n > _CONTRACT_N:
        y = as_config(y, n)
        return (*_contract(tree.parent_array, tree.root, y, k), y)
    ys = config_list(y, n)
    return (*_rake(tree, k, ys), ys)


def find_predecessor_tree(tree: RootedTree, k: int, y) -> np.ndarray | None:
    """Witness predecessor of y on the tree, or None if y has none."""
    root_entry, pair, _ = _solve(tree, check_k(k), y)
    if root_entry == INFEASIBLE:
        return None
    if tree.graph.n > _CONTRACT_N:
        return _jump(tree.parent_array, tree.root, root_entry, pair)
    # top down: each vertex takes its entry under its parent's state
    w = [0] * tree.graph.n
    w[tree.root] = root_entry
    parent = tree.parent
    for v in tree.bfs_order[1:]:
        w[v] = _ENTRY[divmod(pair[v], 3)[w[parent[v]] > 0]]
    return np.array(w, dtype=np.int8)
