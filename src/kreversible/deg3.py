"""Predecessor search for the 2-reversible process on graphs of max degree 3.

Whether a predecessor exists reduces to a 2SAT instance with one variable
per vertex (true meaning predecessor state +1) and at most three clauses per
vertex.  For a vertex targeting +1: degree 1 pins the vertex to +1; degree 2
demands each neighbor or the vertex itself be +1 and at least one neighbor
+1; degree 3 demands at least two of the three neighbors be +1 regardless of
the vertex's own state.  Targets of -1 use the same clauses with every
literal negated.  One table, ``_CLAUSES_BY_DEGREE``, holds these rules for
every builder.

The instance is solved by strongly connected components of the implication
graph.  Up to ``_TARJAN_N`` variables the arcs are lists and a recursive
Tarjan labels them; above, they are numpy arrays built from the CSR and
scipy's compiled SCC labels them, its label order checked on every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, as_config, max_degree

__all__ = [
    "TwoSatInstance",
    "predecessor_clauses",
    "solve_2sat",
    "find_predecessor_deg3",
    "to_dimacs",
]

Literal = tuple[int, bool]  # (variable id, positive?)

# Variable count above which scipy's compiled SCC beats Tarjan over lists, as
# measured in the crossover table of ROADMAP.md's baseline.
_TARJAN_N = 72

# The clauses of a vertex by its degree, over its slots: slot 0 is the vertex
# itself, slots 1..d its neighbors in ascending order.  Each clause asks at
# least one of its slots to take the vertex's target state.  An isolated or
# degree-1 vertex can never flip under k = 2, so it keeps its target state.
_CLAUSES_BY_DEGREE = (
    ((0,),),
    ((0,),),
    ((0, 1), (0, 2), (1, 2)),
    ((1, 2), (1, 3), (2, 3)),
)


@dataclass
class TwoSatInstance:
    num_vars: int
    clauses: list[tuple[Literal, ...]]  # 1 or 2 literals each


def _checked_target(g: Graph, y) -> np.ndarray:
    if max_degree(g) > 3:
        raise ValueError(f"max degree {max_degree(g)} exceeds 3")
    return as_config(y, g.n)


def predecessor_clauses(g: Graph, y) -> TwoSatInstance:
    """2SAT instance whose satisfying assignments are the predecessors of y."""
    y = _checked_target(g, y)
    adj = g.adjacency()
    clauses: list[tuple[Literal, ...]] = []
    for v, pos in enumerate((y > 0).tolist()):
        slots = (v, *adj[v])
        for cl in _CLAUSES_BY_DEGREE[len(slots) - 1]:
            if len(cl) == 1:
                clauses.append(((slots[cl[0]], pos),))
            else:
                i, j = cl
                clauses.append(((slots[i], pos), (slots[j], pos)))
    return TwoSatInstance(g.n, clauses)


# Implication nodes: literal "x is +1" is node 2x and "x is -1" node 2x + 1,
# so node ^ 1 is the negation.  An arc (i, j) of a clause runs from the
# negation of its literal i to its literal j: clause (a, b) gives -a -> b and
# -b -> a, unit clause (a) gives -a -> a.
_CLAUSE_ARCS = {1: ((0, 0),), 2: ((0, 1), (1, 0))}

# The arcs of a vertex's clauses over its slots, per degree, in clause order.
_ARCS_BY_DEGREE = tuple(
    tuple((cl[i], cl[j]) for cl in clauses for i, j in _CLAUSE_ARCS[len(cl)])
    for clauses in _CLAUSES_BY_DEGREE
)


def _implication_lists(g: Graph, y: np.ndarray) -> tuple[list[int], list[int]]:
    """Implication arcs as lists, in the clause order of predecessor_clauses."""
    adj = g.adjacency()
    src: list[int] = []
    dst: list[int] = []
    for v, neg in enumerate((y < 0).tolist()):
        slots = (v, *adj[v])
        for i, j in _ARCS_BY_DEGREE[len(slots) - 1]:
            src.append(2 * slots[i] + 1 - neg)
            dst.append(2 * slots[j] + neg)
    return src, dst


def _implication_arrays(g: Graph, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Implication arcs as int64 arrays: one gather per degree class."""
    deg = g.degrees()
    indptr, indices = g._csr()
    neg = (y < 0).astype(np.int64)
    src: list[np.ndarray] = []
    dst: list[np.ndarray] = []
    for d, arcs in enumerate(_ARCS_BY_DEGREE):
        verts = np.flatnonzero(deg == d)
        off = neg[verts]
        first = indptr[verts]
        nodes = [2 * verts + off] + [2 * indices[first + j] + off for j in range(d)]
        for i, j in arcs:
            src.append(nodes[i] ^ 1)
            dst.append(nodes[j])
    return np.concatenate(src), np.concatenate(dst)


def _tarjan_components(nn: int, src: list[int], dst: list[int]) -> list[int]:
    """SCC number per node in reverse topological order: textbook recursive
    Tarjan, deterministic for a fixed arc order.  Only ``_TARJAN_N`` or fewer
    variables come here, so it recurses at most 2 * _TARJAN_N frames deep."""
    adj: list[list[int]] = [[] for _ in range(nn)]
    for s, d in zip(src, dst):
        adj[s].append(d)
    index = [-1] * nn
    comp = [-1] * nn  # -1 on a visited node: it is still on the stack
    stack: list[int] = []
    visits, comps = itertools.count(), itertools.count()

    def visit(v: int) -> int:  # returns v's low link
        index[v] = low = next(visits)
        stack.append(v)
        for w in adj[v]:
            if index[w] < 0:
                low = min(low, visit(w))
            elif comp[w] < 0:
                low = min(low, index[w])
        if low == index[v]:
            c = next(comps)
            while comp[v] < 0:
                comp[stack.pop()] = c
        return low

    for v in range(nn):
        if index[v] < 0:
            visit(v)
    return comp


def _scc_labels(nn: int, src, dst) -> np.ndarray:
    """scipy's SCC label per node, checked to be in reverse topological order."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    # One sort of the arc codes gives the CSR that scipy's COO conversion
    # builds: rows ascending, each row's heads ascending, repeats merged.
    # The merge is needed: on a CSR that keeps a repeated arc, scipy 1.17.1's
    # strong components did not return.
    codes = np.sort(src * nn + dst)
    keep = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    codes = codes[keep]
    tails = codes // nn
    indptr = np.zeros(nn + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=nn), out=indptr[1:])
    # float64 weights, the dtype csgraph works in, so it makes no copy.
    adj = csr_matrix((np.ones(codes.size), codes - tails * nn, indptr), shape=(nn, nn))
    _, lab = connected_components(adj, directed=True, connection="strong")
    # scipy does not document its label order, and the assignment rule below
    # is only sound if no arc leads to a higher label.
    if (lab[src] < lab[dst]).any():
        raise RuntimeError("SCC labels are not in reverse topological order")
    return lab


def _solve(num_vars: int, src, dst) -> np.ndarray | None:
    """Witness (+1 for a true variable) of the implication graph, or None.

    A variable is true iff its positive literal's component comes before its
    negation's in reverse topological order.
    """
    if num_vars <= _TARJAN_N:
        comp = _tarjan_components(2 * num_vars, src, dst)
        pos, neg = comp[0::2], comp[1::2]
        if any(map(int.__eq__, pos, neg)):
            return None
        return np.array([1 if p < q else -1 for p, q in zip(pos, neg)], dtype=np.int8)
    lab = _scc_labels(2 * num_vars, src, dst)
    pos, neg = lab[0::2], lab[1::2]
    if (pos == neg).any():
        return None
    return np.where(pos < neg, 1, -1).astype(np.int8)


def solve_2sat(inst: TwoSatInstance) -> list[bool] | None:
    """Satisfying assignment, or None.

    Deterministic for a fixed clause order.  Raises ValueError for a clause
    that does not have 1 or 2 literals, or a literal whose variable id is
    outside 0..num_vars-1.
    """
    nv = inst.num_vars
    src: list[int] = []
    dst: list[int] = []
    for cl in inst.clauses:
        arcs = _CLAUSE_ARCS.get(len(cl))
        if arcs is None:
            raise ValueError("clauses must have 1 or 2 literals")
        nodes = []
        for lit in cl:
            v, positive = lit
            if not 0 <= v < nv:
                raise ValueError(f"literal {lit!r} names a variable outside 0..{nv - 1}")
            nodes.append(2 * v if positive else 2 * v + 1)
        for i, j in arcs:
            src.append(nodes[i] ^ 1)
            dst.append(nodes[j])
    w = _solve(nv, src, dst)
    return None if w is None else (w > 0).tolist()


def find_predecessor_deg3(g: Graph, y) -> np.ndarray | None:
    """Witness predecessor of y under k = 2 on a max-degree-3 graph."""
    y = _checked_target(g, y)
    arcs = _implication_lists if g.n <= _TARJAN_N else _implication_arrays
    return _solve(g.n, *arcs(g, y))


def to_dimacs(inst: TwoSatInstance) -> str:
    """DIMACS CNF serialization (1-based signed variables)."""
    lines = [f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    for cl in inst.clauses:
        lits = " ".join(str(v + 1 if positive else -(v + 1)) for v, positive in cl)
        lines.append(f"{lits} 0")
    return "\n".join(lines) + "\n"
