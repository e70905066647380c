"""Hard-instance generator: from 3-literal formulas to predecessor problems.

An exactly-two formula (every clause satisfied by exactly two true literals)
turns into a graph plus target configuration such that the target has a
predecessor under the k-reversible rule iff the formula is satisfiable.
The gadget repeats two block templates, each written once as data: per
variable, two literal vertices sharing two anchors; per clause, two clause
vertices joined to its three literal vertices; both padded with pendant
families so the thresholds come out right.  The construction is bipartite
and its exact size is linear in the formula.

Exactly-one formulas convert to exactly-two ones by flipping every literal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Graph, _ascii_int, _decode, as_config

__all__ = [
    "ClauseSemantics",
    "Cnf3",
    "Role",
    "RoleTag",
    "GadgetInstance",
    "parse_dimacs",
    "format_dimacs",
    "invert_literals",
    "satisfies_semantics",
    "gadget_sizes",
    "build_gadget",
    "predecessor_from_assignment",
    "format_role_map",
]


class ClauseSemantics(enum.Enum):
    EXACTLY_ONE = 1
    EXACTLY_TWO = 2


class Role(str, enum.Enum):
    LITERAL_POS = "LITERAL_POS"
    LITERAL_NEG = "LITERAL_NEG"
    Z = "Z"
    ZP = "ZP"
    U = "U"
    P = "P"
    W = "W"
    WP = "WP"
    CLAUSE = "CLAUSE"
    CLAUSEP = "CLAUSEP"
    B = "B"
    BP = "BP"


class RoleTag(NamedTuple):
    role: Role
    index: int          # 1-based variable or clause id
    j: int | None = None  # 1-based member within a pendant family


@dataclass(frozen=True)
class Cnf3:
    """3-literal clauses over 1-based variables, DIMACS-style signed literals.

    Every clause must use three distinct variables; the semantics flag says
    how many literals per clause a satisfying assignment makes true.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]
    semantics: ClauseSemantics

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("variable count must be nonnegative")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} must have exactly 3 literals")
            if any(t == 0 or abs(t) > self.num_vars for t in cl):
                raise ValueError(f"literal out of range in clause {cl}")
            if len({abs(t) for t in cl}) != 3:
                raise ValueError(f"clause {cl} must use 3 distinct variables")


def parse_dimacs(text, semantics: ClauseSemantics = ClauseSemantics.EXACTLY_TWO) -> Cnf3:
    """Parse DIMACS CNF ('p cnf N M', 0-terminated 3-literal clauses)."""
    tokens: list[str] = []
    header: tuple[int, int] | None = None
    for line in _decode(text).splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise ValueError("duplicate problem line")
            parts = stripped.split()
            # isdecimal() passes non-ASCII digits on to _ascii_int, which names them
            if len(parts) != 4 or parts[1] != "cnf" or not all(t.isdecimal() for t in parts[2:]):
                raise ValueError(f"bad problem line: {stripped!r}")
            header = (_ascii_int(parts[2]), _ascii_int(parts[3]))
            continue
        tokens.extend(stripped.split())
    if header is None:
        raise ValueError("missing 'p cnf' line")
    num_vars, num_clauses = header
    try:
        ints = [_ascii_int(t) for t in tokens]
    except ValueError:
        raise ValueError("non-integer token in clause data") from None
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for t in ints:
        if t == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(t)
    if current:
        raise ValueError("last clause not 0-terminated")
    if len(clauses) != num_clauses:
        raise ValueError(f"expected {num_clauses} clauses, found {len(clauses)}")
    return Cnf3(num_vars, tuple(clauses), semantics)


def format_dimacs(cnf: Cnf3) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    lines.extend(" ".join(str(t) for t in cl) + " 0" for cl in cnf.clauses)
    return "\n".join(lines) + "\n"


def invert_literals(cnf: Cnf3) -> Cnf3:
    """Flip every literal, swapping exactly-one and exactly-two semantics.

    An assignment making exactly one literal true per clause makes exactly
    two of the flipped literals true, and vice versa; the map is an
    involution.
    """
    flipped = tuple(tuple(-t for t in cl) for cl in cnf.clauses)
    other = (
        ClauseSemantics.EXACTLY_TWO
        if cnf.semantics is ClauseSemantics.EXACTLY_ONE
        else ClauseSemantics.EXACTLY_ONE
    )
    return Cnf3(cnf.num_vars, flipped, other)


def _lit_true(lit: int, assignment) -> bool:
    value = assignment[abs(lit) - 1]
    return bool(value) if lit > 0 else not value


def satisfies_semantics(cnf: Cnf3, assignment) -> bool:
    """True iff every clause has exactly the required number of true literals."""
    if len(assignment) != cnf.num_vars:
        raise ValueError("assignment must cover every variable")
    need = 1 if cnf.semantics is ClauseSemantics.EXACTLY_ONE else 2
    return all(sum(_lit_true(t, assignment) for t in cl) == need for cl in cnf.clauses)


# Largest gadget build_gadget makes: the size is checked before anything is
# allocated, since it grows with the declared variable count and with k.
MAX_GADGET_VERTICES = 10**6


def gadget_sizes(num_vars: int, num_clauses: int, k: int) -> tuple[int, int]:
    """Closed-form (vertices, edges) of the gadget."""
    return (
        num_vars * (6 * k - 6) + num_clauses * (2 * k - 1),
        num_vars * (6 * k - 6) + num_clauses * (2 * k + 3),
    )


@dataclass(frozen=True)
class GadgetInstance:
    """Gadget graph, its target configuration, and the vertex role map."""

    graph: Graph
    target: np.ndarray
    k: int
    roles: tuple[RoleTag, ...]
    cnf: Cnf3


def _expand(heads, families):
    """A block template as block-local (role, member, target) vertices and pendant edges:
    the (role, target) heads, then each family (role, head, size, plus) as
    ``size`` members hung on its head, the first ``plus`` of them at +1."""
    slots = [(role, None, t) for role, t in heads]
    edges = []
    for role, head, size, plus in families:
        for j in range(1, size + 1):
            edges.append((head, len(slots)))
            slots.append((role, j, 1 if j <= plus else -1))
    return slots, edges


def build_gadget(cnf: Cnf3, k: int) -> GadgetInstance:
    """Construct the predecessor-existence instance for an exactly-two formula."""
    if cnf.semantics is not ClauseSemantics.EXACTLY_TWO:
        raise ValueError("gadget construction expects exactly-two semantics")
    if int(k) != k or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    k = int(k)
    nvar, ncl = cnf.num_vars, len(cnf.clauses)
    n_expected, m_expected = gadget_sizes(nvar, ncl, k)
    if n_expected > MAX_GADGET_VERTICES:
        raise ValueError(f"gadget would have {n_expected} vertices, above {MAX_GADGET_VERTICES}")
    n_u, n_w = 2 * k - 3, k - 2
    var_slots, var_edges = _expand(
        ((Role.LITERAL_POS, 1), (Role.LITERAL_NEG, 1), (Role.Z, 1), (Role.ZP, -1)),
        ((Role.U, 0, n_u, k - 1), (Role.P, 1, n_u, k - 1), (Role.W, 2, n_w, 0), (Role.WP, 3, n_w, n_w)),
    )
    var_edges += [(0, 2), (0, 3), (1, 2), (1, 3)]  # both literals meet both anchors
    cl_slots, cl_edges = _expand(
        ((Role.CLAUSE, 1), (Role.CLAUSEP, -1)), ((Role.B, 0, n_w, 0), (Role.BP, 1, k - 1, 0))
    )

    # One copy of the variable block per variable, then one clause block per clause.
    roles: list[RoleTag] = []
    target, edges, start = [], [], 0
    for slots, local, count in ((var_slots, var_edges, nvar), (cl_slots, cl_edges, ncl)):
        roles.extend(RoleTag(role, i, j) for i in range(1, count + 1) for role, j, _ in slots)
        target.append(np.tile(np.array([t for *_, t in slots], dtype=np.int8), count))
        offsets = start + len(slots) * np.arange(count)
        edges.append((offsets[:, None, None] + np.array(local)).reshape(-1, 2))
        start += count * len(slots)
    # Each clause block's two heads join the clause's three literal vertices.
    lits = np.array(cnf.clauses, dtype=np.int64).reshape(-1, 3)
    lit_vertex = (np.abs(lits) - 1) * len(var_slots) + (lits < 0)
    clause_heads = nvar * len(var_slots) + len(cl_slots) * np.arange(ncl)[:, None] + [0, 1]
    edges.append(np.stack([np.repeat(clause_heads, 3), np.tile(lit_vertex, 2).ravel()], axis=1))

    graph = Graph(n_expected, np.concatenate(edges))
    assert len(roles) == n_expected and graph.m == m_expected
    return GadgetInstance(graph, np.concatenate(target), k, tuple(roles), cnf)


def predecessor_from_assignment(inst: GadgetInstance, assignment) -> np.ndarray:
    """Predecessor of the gadget target encoded by a satisfying assignment.

    The assignment must satisfy the source formula with exactly two true
    literals per clause; literal vertices take the assigned truth as state,
    clause vertices both go to +1, and every other vertex keeps its target
    state.
    """
    if not satisfies_semantics(inst.cnf, assignment):
        raise ValueError("assignment does not satisfy the exactly-two formula")
    prior = inst.target.copy()
    for vid, tag in enumerate(inst.roles):
        if tag.role is Role.LITERAL_POS:
            prior[vid] = 1 if assignment[tag.index - 1] else -1
        elif tag.role is Role.LITERAL_NEG:
            prior[vid] = -1 if assignment[tag.index - 1] else 1
        elif tag.role is Role.CLAUSEP:
            prior[vid] = 1
    return as_config(prior, inst.graph.n)


def format_role_map(inst: GadgetInstance) -> str:
    """One line per vertex: 'v <id> <ROLE> <index> [j]' (1-based indices)."""
    lines = []
    for vid, tag in enumerate(inst.roles):
        member = "" if tag.j is None else f" {tag.j}"
        lines.append(f"v {vid} {tag.role.value} {tag.index}{member}")
    return "\n".join(lines) + "\n"
