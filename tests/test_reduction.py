"""Formula handling and the hard-instance gadget construction."""

import itertools

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
import pytest

from kreversible import (
    ClauseSemantics,
    Cnf3,
    Role,
    build_gadget,
    format_dimacs,
    format_role_map,
    gadget_sizes,
    invert_literals,
    is_bipartite,
    parse_dimacs,
    predecessor_from_assignment,
    satisfies_semantics,
    step,
)

E1 = ClauseSemantics.EXACTLY_ONE
E2 = ClauseSemantics.EXACTLY_TWO


def fig_formula() -> Cnf3:
    return Cnf3(3, ((1, -2, -3),), E2)


def test_cnf3_validation():
    with pytest.raises(ValueError, match="distinct"):
        Cnf3(3, ((1, -1, 2),), E2)
    with pytest.raises(ValueError, match="range"):
        Cnf3(2, ((1, 2, 3),), E2)
    with pytest.raises(ValueError, match="3 literals"):
        Cnf3(3, ((1, 2),), E2)


def test_parse_dimacs_roundtrip():
    text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.num_vars == 3 and cnf.clauses == ((1, -2, 3), (-1, 2, -3))
    assert parse_dimacs(format_dimacs(cnf)) == cnf


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 2 3 0\n", "missing 'p cnf'"),
        ("p cnf 3 2\n1 2 3 0\n", "expected 2 clauses"),
        ("p cnf 3 1\n1 2 3\n", "0-terminated"),
        ("p foo 3 1\n1 2 3 0\n", "problem line"),
        ("p cnf 3 1\n1 -\u0662 3 0\n", "non-integer token"),  # int() reads -2
        ("p cnf x 1\n1 2 3 0\n", "bad problem line: 'p cnf x 1'"),
        ("p cnf 3 -1\n", "bad problem line: 'p cnf 3 -1'"),
    ],
)
def test_parse_dimacs_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_dimacs(text)


def test_invert_flips_literals_and_semantics():
    cnf = Cnf3(3, ((1, 2, 3),), E1)
    flipped = invert_literals(cnf)
    assert flipped.clauses == ((-1, -2, -3),)
    assert flipped.semantics is E2
    assert invert_literals(flipped) == cnf


def test_invert_preserves_satisfying_assignments():
    cnf = Cnf3(3, ((1, 2, 3),), E1)
    a = [True, False, False]
    assert satisfies_semantics(cnf, a)
    assert satisfies_semantics(invert_literals(cnf), a)


def test_satisfies_semantics_examples():
    assert satisfies_semantics(fig_formula(), [True, False, True])
    assert not satisfies_semantics(Cnf3(3, ((1, 2, 3),), E2), [True, True, True])
    assert not satisfies_semantics(Cnf3(3, ((1, 2, 3),), E1), [False, False, False])
    with pytest.raises(ValueError, match="every variable"):
        satisfies_semantics(fig_formula(), [True])


def test_gadget_rejects_bad_inputs():
    with pytest.raises(ValueError, match="exactly-two"):
        build_gadget(Cnf3(3, ((1, 2, 3),), E1), 2)
    with pytest.raises(ValueError, match="k must be"):
        build_gadget(fig_formula(), 1)


def test_gadget_single_clause_k3_sizes():
    inst = build_gadget(fig_formula(), 3)
    assert (inst.graph.n, inst.graph.m) == (41, 45) == gadget_sizes(3, 1, 3)
    assert is_bipartite(inst.graph)[0]


def test_gadget_single_clause_k2_sizes():
    inst = build_gadget(fig_formula(), 2)
    assert (inst.graph.n, inst.graph.m) == (21, 25) == gadget_sizes(3, 1, 2)
    # the k = 2 degenerate case drops the W/WP/B pendant families entirely
    present = {tag.role for tag in inst.roles}
    assert Role.W not in present and Role.WP not in present and Role.B not in present
    assert Role.BP in present


def test_gadget_size_closed_forms_hold_generally():
    clauses = ((1, -2, -3), (-1, 2, 4), (2, 3, -4))
    for k in (2, 3, 4, 5):
        for m in (1, 2, 3):
            cnf = Cnf3(4, clauses[:m], E2)
            inst = build_gadget(cnf, k)
            assert (inst.graph.n, inst.graph.m) == gadget_sizes(4, m, k)
            assert is_bipartite(inst.graph)[0]


def test_gadget_degree_facts():
    inst = build_gadget(fig_formula(), 4)
    degs = inst.graph.degrees()
    pendant = {Role.U, Role.P, Role.W, Role.WP, Role.B, Role.BP}
    for v, tag in enumerate(inst.roles):
        if tag.role in pendant:
            assert degs[v] == 1
        elif tag.role in (Role.Z, Role.ZP):
            assert degs[v] == 2 + (4 - 2)


def test_witness_reproduces_target_in_one_step():
    inst = build_gadget(fig_formula(), 3)
    prior = predecessor_from_assignment(inst, [True, False, True])
    assert np.array_equal(step(inst.graph, 3, prior), inst.target)


def test_witness_literal_vertices_are_opposite():
    inst = build_gadget(fig_formula(), 2)
    prior = predecessor_from_assignment(inst, [True, False, True])
    pos = {t.index: v for v, t in enumerate(inst.roles) if t.role is Role.LITERAL_POS}
    neg = {t.index: v for v, t in enumerate(inst.roles) if t.role is Role.LITERAL_NEG}
    for i in (1, 2, 3):
        assert prior[pos[i]] == -prior[neg[i]]


def test_witness_rejects_non_satisfying_assignment():
    inst = build_gadget(fig_formula(), 3)
    # complement of a valid exactly-two assignment satisfies exactly one
    with pytest.raises(ValueError, match="does not satisfy"):
        predecessor_from_assignment(inst, [False, True, False])


def _all_clauses_over(vars3):
    a, b, c = vars3
    for sa, sb, sc in itertools.product((1, -1), repeat=3):
        yield (sa * a, sb * b, sc * c)


def test_completeness_every_satisfying_assignment_yields_witness():
    clause_pool = list(_all_clauses_over((1, 2, 3)))
    formulas = []
    for m in (1, 2, 3):
        formulas.extend(itertools.combinations(clause_pool, m))
    assignments = list(itertools.product((False, True), repeat=3))
    for clauses in formulas:
        cnf = Cnf3(3, tuple(clauses), E2)
        sat = [a for a in assignments if satisfies_semantics(cnf, a)]
        for k in (2, 3, 4):
            inst = build_gadget(cnf, k)
            for a in sat:
                prior = predecessor_from_assignment(inst, a)
                assert np.array_equal(step(inst.graph, k, prior), inst.target)


def test_completeness_sampled_four_variable_formulas():
    import random

    rng = random.Random(12)
    pool = [
        tuple(s * v for s, v in zip(signs, vars3))
        for vars3 in itertools.combinations(range(1, 5), 3)
        for signs in itertools.product((1, -1), repeat=3)
    ]
    assignments = list(itertools.product((False, True), repeat=4))
    for _ in range(60):
        clauses = tuple(rng.sample(pool, rng.randrange(1, 4)))
        cnf = Cnf3(4, clauses, E2)
        sat = [a for a in assignments if satisfies_semantics(cnf, a)]
        for k in (2, 3, 4):
            inst = build_gadget(cnf, k)
            for a in sat:
                prior = predecessor_from_assignment(inst, a)
                assert np.array_equal(step(inst.graph, k, prior), inst.target)


def test_role_map_format():
    inst = build_gadget(fig_formula(), 2)
    lines = format_role_map(inst).strip().splitlines()
    assert len(lines) == inst.graph.n
    assert lines[0] == "v 0 LITERAL_POS 1"
    assert lines[4] == "v 4 U 1 1"
    assert all(ln.startswith("v ") for ln in lines)


@st.composite
def dimacs_texts(draw):
    """A small DIMACS text, often well formed, with up to three edits.

    The declared variable count starts small, since a formula that parses
    is built into a gadget whose size grows with it; a token edit may still
    make it huge.
    """
    nvar = draw(st.integers(0, 5))
    lit = st.integers(-nvar - 1, nvar + 1)
    clauses = draw(st.lists(st.lists(lit, min_size=3, max_size=3), max_size=4))
    rows = [["p", "cnf", str(nvar), str(len(clauses))]]
    rows += [[str(t) for t in cl] + ["0"] for cl in clauses]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, max(len(rows[r]) - 1, 0)))
        edit = draw(st.sampled_from(
            ["token", "drop_token", "drop_line", "dup_header", "comment", "merge"]))
        if edit in ("token", "drop_token") and not rows[r]:
            continue
        if edit == "token":
            rows[r][c] = draw(st.sampled_from(
                ["0", "-0", "+1", "x", "1.0", "٣", "1_0", "c", "p", "cnf",
                 "9" * 20, "-" + "9" * 20, "9" * 5000, ""]))
        elif edit == "drop_token":
            del rows[r][c]
        elif edit == "drop_line":
            del rows[r]
        elif edit == "dup_header":
            rows.insert(r, ["p", "cnf", "1", "0"])
        elif edit == "comment":
            rows.insert(r, ["c", draw(st.text(max_size=8))])
        elif r + 1 < len(rows):
            rows[r:r + 2] = [rows[r] + rows[r + 1]]
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(sep.join(row) for row in rows) + draw(st.sampled_from(["", eol]))


def _dimacs_outcome(text):
    try:
        return parse_dimacs(text)
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(st.one_of(dimacs_texts(), st.text(max_size=60), st.binary(max_size=60)))
@example(text="p cnf 3 1\n1 2 3 0\n")
@example(text=b"p cnf 3 1\n1 2 \xff 0\n")  # not UTF-8
@example(text="p cnf 3 1\n1 2 " + "9" * 5000 + " 0\n")  # past the int digit limit
def test_parse_dimacs_returns_formula_or_value_error(text):
    assert isinstance(_dimacs_outcome(text), (Cnf3, ValueError))


@settings(max_examples=150, deadline=None)
@given(
    dimacs_texts(),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["exactly-two", "exactly-one"]),
    st.booleans(),
)
@example(text="p cnf 3 1\n1 -2 3 0\n", k=2, semantics="exactly-two", raw=False)
@example(text="p cnf 0 0\n", k=2, semantics="exactly-two", raw=False)
def test_reduce_cli_exits_cleanly_on_any_cnf(text, k, semantics, raw):
    import contextlib
    import io
    import os
    import tempfile

    from kreversible.cli import main

    parsed = _dimacs_outcome(text)
    # a huge declared variable count parses, but builds a huge gadget
    assume(not isinstance(parsed, Cnf3) or parsed.num_vars <= 5)
    with tempfile.TemporaryDirectory() as tmp:
        cnf = os.path.join(tmp, "f.cnf")
        with open(cnf, "wb") as fh:
            fh.write(text.encode("utf-8") + (b"\xff" if raw else b""))
        err = io.StringIO()
        prefix = os.path.join(tmp, "out")
        with contextlib.redirect_stderr(err):
            code = main(["reduce", "--cnf", cnf, "--k", str(k),
                         "--out-prefix", prefix, "--semantics", semantics])
    if raw or k < 2 or isinstance(parsed, ValueError):
        assert code == 2 and err.getvalue().startswith("error: ")
    else:
        assert code == 0
