"""Exact predecessor counting on trees, for any threshold k.

Per vertex v and parent state, a pair counts the target's predecessors on
v's subtree with v in the parent's target state and opposite it.  Whether a
candidate state for v is consistent depends only on how many children sit in
v's target state, so the children combine through a small counting DP (ways
to have exactly j children off or on target) instead of enumerating child
subsets.  The thresholds only ask for fewer than k children off target (v in
its target state) or for at least k-1 (or k) on target (v opposite), which is
the total minus fewer than k.  So each vertex keeps two rows truncated to k
cells and one running total: a vertex with c children costs O(c·min(k, c))
multiply-adds, and the tree O(n·min(k, Δ)), against O(n²) for full rows.
Counts are exact Python integers; they grow exponentially in n.

Up to ``graphs._SMALL_N`` vertices one scalar loop walks the BFS ranks from
the leaves.  Above it, numpy first settles in int64 the cells of every
vertex whose subtree has at most 62 vertices, whose counts cannot pass
2^61.  It does so in rounds, each taking the vertices whose children are
all settled, and stops once a round readies fewer than
``_ROUND_BREAK_EVEN`` vertices: a path or a caterpillar's spine falls
through at once.  The scalar loop then runs, in Python integers, over the
vertices left, on lists built for them and the settled children they read.
"""

from __future__ import annotations

import numpy as np

from . import graphs
from .graphs import RootedTree, as_config, config_list
from .dynamics import check_k

__all__ = [
    "children_threshold",
    "count_predecessors_tree",
    "count_predecessors_tree_by_subsets",
]


def children_threshold(degree: int, target: int, current: int, parent_state: int | None, k: int) -> int:
    """Minimum number of children in the target state for v's transition.

    ``degree`` is v's degree in the underlying graph; ``parent_state`` is
    None for the root.  A vertex currently agreeing with its target must not
    see k differing neighbors; one disagreeing must see at least k.
    """
    if current == target:
        if parent_state == target:
            return max(degree - k, 0)
        return max(degree - k + 1, 0)
    if parent_state == target:
        return k - 1
    return k


# Fewest vertices a round of _settle must ready to pay for its fixed cost of
# numpy calls, against one scalar iteration each (see ROADMAP.md's "Cutoff
# basis"): below it, the rest of the tree goes to the Python-int loop.
_ROUND_BREAK_EVEN = 32


def _settle(tree: RootedTree, k: int, y: np.ndarray):
    """(ranks, parent, cptr, ys, cells): the tree the int64 rounds leave to
    the scalar loop.

    The rounds settle the parent-frame cells (see count_predecessors_tree)
    of every non-root vertex whose subtree has at most 62 vertices.  A cell
    counts the configurations of v's subtree with v's state and its
    parent's fixed, so it is at most 2^(s-1) on a subtree of s vertices,
    and so is every partial product and sum of the row update: at most
    2^61 for s <= 62, which int64 holds without wrapping.  Each round takes
    the ranks whose children are all settled, if there are at least
    ``_ROUND_BREAK_EVEN``, so a path (one leaf) settles nothing.

    What is left is the upper tree: the ranks not settled and their settled
    children, numbered 0, 1, ... in rank order, so that its vertex i sits
    at its rank i.  ``ranks`` lists its ranks not settled, descending;
    ``parent``, ``cptr`` and ``ys`` are its parents, child pointers and
    targets, and ``cells`` holds its settled vertices' cells as Python ints
    (None elsewhere).  Only these become lists: the loop reads no others.
    """
    parent, order = tree.parent_array, tree.order_array
    n = order.size
    cptr = graphs._child_ptr(parent, order)
    nch = cptr[1:] - cptr[:-1]
    prank = np.repeat(np.arange(n), nch)  # the parent's rank of ranks 1..n-1, ascending
    ybit = y > 0
    kk = min(k, 64)  # a settled vertex has at most 61 children: rows cut at 63 cells are whole
    left = nch.copy()  # children not settled yet
    left[0] += 1  # and one more at the root, which has no parent frame to settle
    size = np.ones(n, dtype=np.int64)  # the subtree's size once its children are settled
    settled = np.zeros(n, dtype=bool)
    # cells[:, :, r]: [[wt_t, wo_o], [wo_t, wt_o]] in count_predecessors_tree's
    # names, so a child's cells read as (stay, shift) for the off and on rows
    cells = np.empty((2, 2, n), dtype=np.int64)
    ready = (nch[1:] == 0).nonzero()[0] + 1
    while True:
        ready = ready[size[ready] <= 62]
        if not ready.size or ready.size < _ROUND_BREAK_EVEN:
            break
        # most children first, so child slot j updates the first rows[j] rows
        nc = nch[ready]
        by = (-nc).argsort()
        rr, nc = ready[by], nc[by]
        top = int(nc[0])
        rows = (-nc).searchsorted(-np.arange(top)).tolist()
        first = cptr[rr]
        # off_on[c, 0] is cell c of the off rows, off_on[c, 1] of the on rows
        off_on = np.zeros((min(kk, top + 1), 2, rr.size), dtype=np.int64)
        off_on[0] = 1
        tot = np.ones(rr.size, dtype=np.int64)
        for j, m in enumerate(rows):
            stay, shift = cells[:, :, first[:m] + j]
            tot[:m] *= stay[1] + shift[1]
            o = off_on[:j + 2, :, :m]
            o[1:] = o[1:] * stay + o[:-1] * shift
            o[0] *= stay
        # the rows' sums, whole and cut at k - 1 cells
        whole = off_on.sum(0)
        cut = whole - off_on[kk - 1] if off_on.shape[0] == kk else whole
        x = np.empty((2, 2, rr.size), dtype=np.int64)
        x[0, 0] = whole[0]
        x[0, 1] = tot - whole[1]
        x[1, 0] = tot - cut[1]
        x[1, 1] = cut[0]
        # a parent with the other target reads each pair reversed
        vs = order[rr]
        cells[:, :, rr] = np.where(ybit[vs] != ybit[parent[vs]], x[:, ::-1], x)
        settled[ready] = True
        p = prank[ready - 1]  # ascending, as ready is
        np.subtract.at(left, p, 1)
        np.add.at(size, p, size[ready])
        run = np.empty(p.size, dtype=bool)
        run[0] = True
        np.not_equal(p[1:], p[:-1], out=run[1:])
        up = p[run]
        ready = up[left[up] == 0]
    edge = (settled[1:] & ~settled[prank]).nonzero()[0] + 1
    keep = ~settled
    keep[edge] = True
    upper = keep.nonzero()[0]
    new = np.cumsum(keep) - 1  # each kept rank's number in the upper tree
    # A rank not settled has all its children kept, and a dropped rank none,
    # so each run of kept children maps to a run of the upper tree.
    up_cptr = upper.searchsorted(cptr[np.append(upper, n)]).tolist()
    up_parent = [None] + new[prank[upper[1:] - 1]].tolist()
    up_cells = [None] * upper.size
    for i, c in zip(new[edge].tolist(), cells[:, :, edge][[0, 1, 1, 0], [0, 0, 1, 1]].T.tolist()):
        up_cells[i] = c
    ranks = (~settled[upper]).nonzero()[0][::-1].tolist()
    return ranks, up_parent, up_cptr, y[order[upper]].tolist(), up_cells


def count_predecessors_tree(tree: RootedTree, k: int, y) -> int:
    """Exact number of predecessors of y on the tree."""
    k = check_k(k)
    n = tree.graph.n
    if n > graphs._SMALL_N:
        # int64 rounds settle the small subtrees; the loop below runs over the
        # upper tree they leave, whose order is the identity
        ranks, parent, cptr, ys, cells = _settle(tree, k, as_config(y, n))
        order = list(range(len(ys)))
    else:
        cells = [None] * n
        ys = config_list(y, n)
        parent = tree.parent
        cptr, order = tree.child_slices()
        ranks = range(n - 1, -1, -1)
    # cells[v], in the frame of v's parent p: with p in its target state, the
    # ways with v in p's target state and with v opposite it; then the same
    # two with p opposite its target.
    for r in ranks:
        v = order[r]
        tgt = ys[v]
        # off[j]: v in its target state, exactly j children off target;
        # on[j]: v in the opposite state, exactly j children on target;
        # both cut at j < k, the only cells the thresholds read.  tot is the
        # opposite state's total over all child states.
        off = [1]
        on = [1]
        tot = 1
        for f in order[cptr[r]:cptr[r + 1]]:
            wt_t, wo_t, wt_o, wo_o = cells[f]
            tot *= wt_o + wo_o
            top = len(off)
            if top < k:
                off.append(off[-1] * wo_t)
                on.append(on[-1] * wt_o)
            for j in range(top - 1, 0, -1):
                off[j] = off[j] * wt_t + off[j - 1] * wo_t
                on[j] = on[j] * wo_o + on[j - 1] * wt_o
            off[0] *= wt_t
            on[0] *= wo_o
        # thresholds per parent context (same branch table as children_threshold,
        # with deg = children + 1 below the root and deg = children at it):
        # at least deg-k (deg-k+1) children on target is at most k-1 (k-2) off,
        # and at least k-1 (k) on is tot minus the first k-1 (k) cells of on
        if r == 0:
            return sum(off) + tot - sum(on)
        # the cells in v's own frame: the parent in v's target state, then opposite
        c = (sum(off), tot - sum(on[:k - 1]), sum(off[:k - 1]), tot - sum(on))
        # a parent with the other target reads both its own state and v's flipped
        cells[v] = c if ys[parent[v]] == tgt else c[::-1]
    raise AssertionError("unreachable: rank 0 is the root")


def count_predecessors_tree_by_subsets(tree: RootedTree, k: int, y, max_children: int = 10) -> int:
    """Reference counter that enumerates child subsets instead of the DP.

    Exponential in the child count (guarded by ``max_children``); kept as an
    independent cross-check for the production DP.
    """
    k = check_k(k)
    n = tree.graph.n
    ys = config_list(y, n)
    deg = tree.graph.degrees().tolist()
    cptr, order = tree.child_slices()
    ctx_minus: list = [None] * n
    ctx_plus: list = [None] * n

    def tally(kids, pair_for_rt, tgt, l):
        total = 0
        for mask in range(1 << len(kids)):
            if bin(mask).count("1") < l:
                continue
            ways = 1
            for i, f in enumerate(kids):
                plus, minus = pair_for_rt[f]
                if (mask >> i) & 1:
                    ways *= plus if tgt > 0 else minus
                else:
                    ways *= minus if tgt > 0 else plus
            total += ways
        return total

    for r in range(n - 1, -1, -1):
        v = order[r]
        kids = order[cptr[r]:cptr[r + 1]]
        if len(kids) > max_children:
            raise ValueError(f"vertex {v} has {len(kids)} children, above the guard")
        d = deg[v]
        tgt = ys[v]
        if r == 0:
            at_plus = tally(kids, ctx_plus, tgt, children_threshold(d, tgt, 1, None, k))
            at_minus = tally(kids, ctx_minus, tgt, children_threshold(d, tgt, -1, None, k))
            return at_plus + at_minus
        ctx_minus[v] = (
            tally(kids, ctx_plus, tgt, children_threshold(d, tgt, 1, -1, k)),
            tally(kids, ctx_minus, tgt, children_threshold(d, tgt, -1, -1, k)),
        )
        ctx_plus[v] = (
            tally(kids, ctx_plus, tgt, children_threshold(d, tgt, 1, 1, k)),
            tally(kids, ctx_minus, tgt, children_threshold(d, tgt, -1, 1, k)),
        )
    raise AssertionError("unreachable: rank 0 is the root")
