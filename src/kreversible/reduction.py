"""Hard-instance generator: from 3-literal formulas to predecessor problems.

An exactly-two formula (every clause satisfied by exactly two true literals)
turns into a graph plus target configuration such that the target has a
predecessor under the k-reversible rule iff the formula is satisfiable.
Each variable contributes a pair of literal vertices tied together by two
shared anchors plus pendant vertices that pin the anchors; each clause
contributes a pair of clause vertices adjacent to its three literal
vertices, padded with pendants so the thresholds come out right.  The
construction is bipartite and its exact size is linear in the formula.

Exactly-one formulas convert to exactly-two ones by flipping every literal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Graph, as_config

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
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    tokens: list[str] = []
    header: tuple[int, int] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise ValueError("duplicate problem line")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {stripped!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        tokens.extend(stripped.split())
    if header is None:
        raise ValueError("missing 'p cnf' line")
    num_vars, num_clauses = header
    try:
        ints = [int(t) for t in tokens]
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
    var_block = 6 * k - 6
    cl_block = 2 * k - 1
    n_u = 2 * k - 3  # pendants per literal vertex
    n_w = k - 2      # pendants per anchor (empty when k = 2)

    roles: list[RoleTag] = []
    target: list[int] = []
    edges: list[tuple[int, int]] = []

    def var_base(i: int) -> int:
        return (i - 1) * var_block

    def cl_base(j: int) -> int:
        return nvar * var_block + (j - 1) * cl_block

    def lit_vertex(lit: int) -> int:
        base = var_base(abs(lit))
        return base if lit > 0 else base + 1

    for i in range(1, nvar + 1):
        base = var_base(i)
        x, nx, z, zp = base, base + 1, base + 2, base + 3
        u0 = base + 4
        p0 = u0 + n_u
        w0 = p0 + n_u
        wp0 = w0 + n_w
        roles.append(RoleTag(Role.LITERAL_POS, i))
        roles.append(RoleTag(Role.LITERAL_NEG, i))
        roles.append(RoleTag(Role.Z, i))
        roles.append(RoleTag(Role.ZP, i))
        target.extend([1, 1, 1, -1])
        edges.extend([(x, z), (x, zp), (nx, z), (nx, zp)])
        for j in range(1, n_u + 1):
            roles.append(RoleTag(Role.U, i, j))
            target.append(1 if j <= k - 1 else -1)
            edges.append((x, u0 + j - 1))
        for j in range(1, n_u + 1):
            roles.append(RoleTag(Role.P, i, j))
            target.append(1 if j <= k - 1 else -1)
            edges.append((nx, p0 + j - 1))
        for j in range(1, n_w + 1):
            roles.append(RoleTag(Role.W, i, j))
            target.append(-1)
            edges.append((z, w0 + j - 1))
        for j in range(1, n_w + 1):
            roles.append(RoleTag(Role.WP, i, j))
            target.append(1)
            edges.append((zp, wp0 + j - 1))

    for j, clause in enumerate(cnf.clauses, start=1):
        base = cl_base(j)
        c, cp = base, base + 1
        b0 = base + 2
        bp0 = b0 + n_w
        roles.append(RoleTag(Role.CLAUSE, j))
        roles.append(RoleTag(Role.CLAUSEP, j))
        target.extend([1, -1])
        for l in range(1, n_w + 1):
            roles.append(RoleTag(Role.B, j, l))
            target.append(-1)
            edges.append((c, b0 + l - 1))
        for l in range(1, k):
            roles.append(RoleTag(Role.BP, j, l))
            target.append(-1)
            edges.append((cp, bp0 + l - 1))
        for lit in clause:
            lv = lit_vertex(lit)
            edges.append((c, lv))
            edges.append((cp, lv))

    graph = Graph(n_expected, edges)
    assert len(roles) == n_expected and graph.m == m_expected
    return GadgetInstance(graph, np.array(target, dtype=np.int8), k, tuple(roles), cnf)


def predecessor_from_assignment(inst: GadgetInstance, assignment) -> np.ndarray:
    """Predecessor of the gadget target encoded by a satisfying assignment.

    The assignment must satisfy the source formula with exactly two true
    literals per clause; literal vertices take the assigned truth as state,
    clause vertices both go to +1, and every other vertex keeps its target
    state.
    """
    if not satisfies_semantics(inst.cnf, assignment):
        raise ValueError("assignment does not satisfy the exactly-two formula")
    k = inst.k
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
        if tag.j is None:
            lines.append(f"v {vid} {tag.role.value} {tag.index}")
        else:
            lines.append(f"v {vid} {tag.role.value} {tag.index} {tag.j}")
    return "\n".join(lines) + "\n"
