"""Max-degree-3 / k=2 solver: clause tables, 2SAT, oracle equivalence."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import kreversible
from kreversible import deg3
from kreversible import (
    Graph,
    TwoSatInstance,
    count_predecessors_tree,
    find_predecessor_deg3,
    find_predecessor_tree,
    is_predecessor,
    predecessor_clauses,
    root_tree,
    solve_2sat,
    step,
    successor_indices,
    to_dimacs,
)
from kreversible.generators import (
    random_bounded_degree_graph,
    random_config,
    random_regular_graph,
    random_tree,
)
from kreversible.oracle import config_index
from helpers import (
    all_configs,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    prism_graph,
    star_graph,
)


def test_clauses_k2_pair():
    inst = predecessor_clauses(Graph(2, [(0, 1)]), [1, -1])
    assert inst.clauses == [((0, True),), ((1, False),)]
    w = find_predecessor_deg3(Graph(2, [(0, 1)]), [1, -1])
    assert w.tolist() == [1, -1]


def test_clauses_triangle_count_and_witness():
    g = cycle_graph(3)
    inst = predecessor_clauses(g, [1, 1, 1])
    assert len(inst.clauses) == 9
    w = find_predecessor_deg3(g, [1, 1, 1])
    assert w is not None and is_predecessor(g, 2, w, [1, 1, 1])


def test_clauses_star_unsatisfiable():
    g = star_graph(3)
    assert find_predecessor_deg3(g, [-1, 1, 1, 1]) is None


def test_degree_guard():
    with pytest.raises(ValueError, match="degree"):
        predecessor_clauses(star_graph(4), [1] * 5)
    with pytest.raises(ValueError, match="degree"):
        find_predecessor_deg3(complete_graph(5), [1] * 5)


def test_negative_target_negates_all_literals():
    g = path_graph(3)
    pos = predecessor_clauses(g, [1, 1, 1]).clauses
    neg = predecessor_clauses(g, [-1, -1, -1]).clauses
    assert neg == [tuple((v, not s) for v, s in cl) for cl in pos]


def test_clause_budget_at_most_three_per_vertex():
    for s in range(30):
        n = 4 + (s % 7)
        g = random_bounded_degree_graph(n, 3, seed=s)
        inst = predecessor_clauses(g, random_config(n, seed=s))
        assert len(inst.clauses) <= 3 * n


def test_solve_2sat_units_and_conflicts():
    assert solve_2sat(TwoSatInstance(1, [((0, True),)])) == [True]
    assert solve_2sat(TwoSatInstance(1, [((0, True),), ((0, False),)])) is None
    a = solve_2sat(TwoSatInstance(2, [((0, True), (1, True)), ((0, False), (1, True))]))
    assert a is not None and a[1] is True


def test_solve_2sat_against_truth_tables():
    import itertools
    import random

    rng = random.Random(5)
    for _ in range(200):
        nv = rng.randrange(1, 6)
        ncl = rng.randrange(0, 9)
        clauses = []
        for _ in range(ncl):
            width = rng.choice((1, 2))
            clauses.append(
                tuple((rng.randrange(nv), rng.random() < 0.5) for _ in range(width))
            )
        inst = TwoSatInstance(nv, clauses)
        got = solve_2sat(inst)
        satisfiable = any(
            all(any(bits[v] == pos for v, pos in cl) for cl in clauses)
            for bits in itertools.product((False, True), repeat=nv)
        )
        assert (got is not None) == satisfiable
        if got is not None:
            assert all(any(got[v] == pos for v, pos in cl) for cl in clauses)


def _structured_graphs() -> list[Graph]:
    return [
        path_graph(2), path_graph(4), path_graph(6),
        cycle_graph(3), cycle_graph(4), cycle_graph(5), cycle_graph(8),
        complete_graph(4), prism_graph(), petersen_graph(),
        star_graph(3), Graph(1, []), Graph(3, [(0, 1)]),
    ]


def test_oracle_equivalence_structured_graphs():
    for g in _structured_graphs():
        counts = np.bincount(successor_indices(g, 2), minlength=1 << g.n)
        stride = 1 if g.n <= 8 else 5
        for idx, y in enumerate(all_configs(g.n)[::stride]):
            w = find_predecessor_deg3(g, y)
            assert (w is not None) == (counts[idx * stride] > 0)
            if w is not None:
                assert is_predecessor(g, 2, w, y)


def test_oracle_equivalence_random_graphs():
    for s in range(120):
        n = 3 + (s % 8)
        g = random_bounded_degree_graph(n, 3, seed=2000 + s)
        counts = np.bincount(successor_indices(g, 2), minlength=1 << n)
        for j in range(10):
            y = random_config(n, seed=40_000 + 100 * s + j)
            w = find_predecessor_deg3(g, y)
            assert (w is not None) == (counts[config_index(y)] > 0)
            if w is not None:
                assert is_predecessor(g, 2, w, y)


def test_agreement_with_tree_solvers_on_deg3_trees():
    for s in range(40):
        n = 4 + (s % 8)
        g = random_tree(n, seed=3200 + s)
        if int(g.degrees().max()) > 3:
            continue
        t = root_tree(g, 0)
        for j in range(10):
            y = random_config(n, seed=800 * s + j)
            via_sat = find_predecessor_deg3(g, y) is not None
            assert via_sat == (find_predecessor_tree(t, 2, y) is not None)
            assert via_sat == (count_predecessors_tree(t, 2, y) > 0)


def test_dimacs_dump_format():
    inst = predecessor_clauses(Graph(2, [(0, 1)]), [1, -1])
    text = to_dimacs(inst)
    lines = text.strip().splitlines()
    assert lines[0] == "p cnf 2 2"
    assert lines[1] == "1 0"
    assert lines[2] == "-2 0"


def test_dimacs_dump_pinned():
    # SHA-256 recorded from the hand-unrolled clause builder, before the
    # clause rules moved into one degree table; every degree 0..3 occurs.
    g = random_bounded_degree_graph(200, 3, seed=9, m=240)
    assert np.bincount(g.degrees()).tolist() == [8, 28, 40, 124]
    text = to_dimacs(predecessor_clauses(g, random_config(200, seed=9)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d6166d01a0139a5607c9af713c026d0f8519ba038d76582bcc5a3e5dd472324b"
    )


def test_solve_2sat_rejects_out_of_range_variable_ids():
    with pytest.raises(ValueError, match=r"\(-1, True\)"):
        solve_2sat(TwoSatInstance(1, [((-1, True),)]))
    with pytest.raises(ValueError, match=r"\(2, False\)"):
        solve_2sat(TwoSatInstance(2, [((0, True), (2, False))]))


# find_predecessor_deg3 and solve_2sat run Tarjan's list path at or below
# deg3._TARJAN_N variables and scipy's compiled SCC above it; each cutoff
# forces one path on any instance.
_SCC_PATHS = {"list": 10**9, "compiled": 0}
_CUTOFF = deg3._TARJAN_N  # read before any test patches it


def _deg3_instances():
    """(graph, targets): the structured graphs with every target, random
    max-degree-3 graphs of up to 12 vertices, each degree class included,
    and graphs around the path cutoff and up to 512 vertices: cubic ones
    (maximal greedy ones at odd n) and sparse bounded-degree ones, half
    their targets images of a step."""
    for g in _structured_graphs():
        yield g, all_configs(g.n)
    for s in range(40):
        n = 3 + (s % 10)
        g = random_bounded_degree_graph(n, 3, seed=7000 + s, m=None if s % 2 else n + s % 3)
        yield g, [random_config(n, seed=9000 + 100 * s + j) for j in range(12)]
    for s, n in enumerate((_CUTOFF - 1, _CUTOFF, _CUTOFF + 1, 200, 512)):
        dense = random_regular_graph(n, 3, seed=s) if n % 2 == 0 else random_bounded_degree_graph(n, 3, seed=s)
        for g in (dense, random_bounded_degree_graph(n, 3, seed=s, m=n)):
            configs = [random_config(n, seed=9500 + 10 * s + j) for j in range(8)]
            yield g, [step(g, 2, y) if j % 2 else y for j, y in enumerate(configs)]


def test_small_and_large_paths_agree(monkeypatch):
    for cutoff in _SCC_PATHS.values():
        monkeypatch.setattr(deg3, "_TARJAN_N", cutoff)
        assert find_predecessor_deg3(Graph(2, [(0, 1)]), [1, -1]).tolist() == [1, -1]
    for g, targets in _deg3_instances():
        # the oracle for graphs it can enumerate, else the list path's answer
        counts = np.bincount(successor_indices(g, 2), minlength=1 << g.n) if g.n <= 12 else None
        for j, y in enumerate(targets):
            expected = None if counts is None else counts[config_index(y)] > 0
            for cutoff in _SCC_PATHS.values():
                monkeypatch.setattr(deg3, "_TARJAN_N", cutoff)
                w = find_predecessor_deg3(g, y)
                if expected is None:
                    expected = w is not None
                    assert expected or j % 2 == 0  # an image of a step has a predecessor
                assert (w is not None) == expected
                if w is not None:
                    assert w.dtype == np.int8 and is_predecessor(g, 2, w, y)
                a = solve_2sat(predecessor_clauses(g, y))
                assert (a is not None) == expected
                if a is not None:
                    assert is_predecessor(g, 2, [1 if b else -1 for b in a], y)


def test_scc_label_order_is_checked(monkeypatch):
    # Reversing scipy's labels keeps the partition but puts it in
    # topological order, which flips the forced witness [1, -1] of an edge.
    import scipy.sparse.csgraph as csgraph

    real = csgraph.connected_components
    seen = []

    def reversed_labels(*args, **kwargs):
        ncomp, lab = real(*args, **kwargs)
        seen.append(ncomp - 1 - lab)
        return ncomp, seen[-1]

    monkeypatch.setattr(csgraph, "connected_components", reversed_labels)
    monkeypatch.setattr(deg3, "_TARJAN_N", 0)
    g, y = Graph(2, [(0, 1)]), [1, -1]
    with pytest.raises(RuntimeError, match="topological"):
        find_predecessor_deg3(g, y)
    lab = seen[-1]
    assert not is_predecessor(g, 2, np.where(lab[0::2] < lab[1::2], 1, -1), y)
    with pytest.raises(RuntimeError, match="topological"):
        solve_2sat(predecessor_clauses(g, y))


def test_small_twosat_routes_never_import_scipy():
    # The sweep-sized 2SAT instances, and all others up to the path cutoff,
    # stay on the list path, so they must not pay scipy's import time and
    # memory.
    code = (
        "import sys\n"
        "import kreversible as kr\n"
        "from kreversible.route import choose_method\n"
        "g = kr.Graph(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7), (3, 8)])\n"
        "n = kr.deg3._TARJAN_N\n"
        "cubic = kr.Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)])\n"
        "for g, x in [(g, [1, -1, -1, 1, 1, -1, 1, -1, -1, 1]), (cubic, [1, -1, -1] * (n // 3) + [1] * (n % 3))]:\n"
        "    assert choose_method(g, 2, 'auto') == 'twosat'\n"
        "    y = kr.step(g, 2, x)\n"
        "    assert kr.find_predecessor_deg3(g, y) is not None\n"
        "    assert kr.find_predecessor(g, 2, y) is not None\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run_python(code) == "[]"


def _run_python(code: str, timeout: float | None = None) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreversible.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=timeout)
    return out.stdout.strip()


def test_repeated_implication_arcs_reach_the_compiled_scc_merged():
    # C4 under the all-+1 target asks each of its six pairs twice (clause
    # (1, 3) from vertices 0 and 2, and so on): 12 repeated arcs.  On a CSR
    # that keeps them, scipy's strong components did not return, so the
    # call runs in a subprocess whose timeout turns a hang into a failure.
    code = (
        "import kreversible as kr\n"
        "kr.deg3._TARJAN_N = 0\n"
        "g = kr.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])\n"
        "w = kr.find_predecessor_deg3(g, [1, 1, 1, 1])\n"
        "assert kr.is_predecessor(g, 2, w, [1, 1, 1, 1])\n"
        "print(w.tolist())\n"
    )
    assert _run_python(code, timeout=30) == "[1, 1, 1, 1]"
