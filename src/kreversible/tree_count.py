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
"""

from __future__ import annotations

from .graphs import RootedTree, config_list
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


def count_predecessors_tree(tree: RootedTree, k: int, y) -> int:
    """Exact number of predecessors of y on the tree."""
    k = check_k(k)
    n = tree.graph.n
    ys = config_list(y, n)
    parent = tree.parent
    cptr, order = tree.child_slices()
    # cells[v], in the frame of v's parent p: with p in its target state, the
    # ways with v in p's target state and with v opposite it; then the same
    # two with p opposite its target.
    cells: list = [None] * n
    for r in range(n - 1, -1, -1):
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
