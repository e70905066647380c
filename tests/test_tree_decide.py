"""Tree predecessor search: forced-state table, witnesses, visit bounds."""

import numpy as np
import pytest

from kreversible import (
    INFEASIBLE,
    Graph,
    compute_forced_states,
    count_predecessors_tree,
    find_predecessor_tree,
    is_predecessor,
    root_tree,
    step,
    successor_indices,
    transition_possible,
    tree_decide,
)
from kreversible.generators import hub_spokes_tree, random_config, random_tree
from kreversible.oracle import config_index
from helpers import all_configs, all_labeled_trees, built_views, path_graph, star_graph


def test_transition_possible_branches():
    # staying with no pressure is always fine
    assert transition_possible(1, 1, 0, 1)
    assert transition_possible(1, 1, 0, 7)
    # flipping needs at least k differing neighbors
    assert not transition_possible(1, -1, 1, 2)
    assert transition_possible(1, -1, 2, 2)
    # k differing neighbors force a flip, so staying is impossible
    assert not transition_possible(-1, -1, 2, 2)
    assert transition_possible(-1, -1, 1, 2)


def test_forced_states_p3_garden_of_eden():
    t = root_tree(path_graph(3), 0)
    table = compute_forced_states(t, 2, [1, -1, 1])
    assert table.root_entry == INFEASIBLE


def test_forced_states_single_vertex():
    from kreversible import Graph

    t = root_tree(Graph(1, []), 0)
    for k in (1, 2, 3):
        assert compute_forced_states(t, k, [1]).root_entry == 1
        assert compute_forced_states(t, k, [-1]).root_entry == -1


def test_forced_states_p3_uniform_target():
    t = root_tree(path_graph(3), 0)
    table = compute_forced_states(t, 2, [1, 1, 1])
    assert table.root_entry == 1
    assert table.entry(2, 1) == 1
    # both parent contexts are filled: the leaf is forced to +1 either way
    assert table.entry(2, -1) == 1
    # the first trial settles every context, so each vertex is read once
    assert table.visits == [1, 1, 1]
    # the leaf is genuinely pinned: both parent contexts force +1
    table2 = compute_forced_states(t, 2, [1, -1, 1])
    assert table2.entry(2, 1) == 1 and table2.entry(2, -1) == 1


def test_entry_access_rules():
    t = root_tree(path_graph(3), 0)
    table = compute_forced_states(t, 2, [1, 1, 1])
    with pytest.raises(ValueError, match="root"):
        table.entry(1, None)
    # the root has no parent state, so it has no entry under one
    for state in (-1, 1):
        with pytest.raises(ValueError, match="root"):
            table.entry(0, state)
    # ids outside the tree, -1 included, are refused rather than wrapped
    for v in (-1, 3):
        for state in (None, -1, 1):
            with pytest.raises(ValueError, match="not in the tree"):
                table.entry(v, state)


def test_decide_examples():
    p3 = root_tree(path_graph(3), 0)
    assert find_predecessor_tree(p3, 2, [1, -1, 1]) is None
    w = find_predecessor_tree(p3, 2, [1, 1, 1])
    assert w is not None and is_predecessor(path_graph(3), 2, w, [1, 1, 1])
    star = star_graph(3)
    assert find_predecessor_tree(root_tree(star, 0), 2, [-1, 1, 1, 1]) is None


def test_oracle_equivalence_exhaustive_small_trees():
    for n in range(1, 6):
        configs = all_configs(n)
        for g in all_labeled_trees(n):
            t = root_tree(g, 0)
            for k in (1, 2, 3, 4):
                counts = np.bincount(successor_indices(g, k), minlength=1 << n)
                for idx, y in enumerate(configs):
                    w = find_predecessor_tree(t, k, y)
                    assert (w is not None) == (counts[idx] > 0)
                    if w is not None:
                        assert is_predecessor(g, k, w, y)


def test_oracle_equivalence_random_trees():
    for s in range(40):
        n = 8 + (s % 5)
        g = random_tree(n, seed=700 + s)
        t = root_tree(g, 0)
        for k in (1, 2, 3):
            counts = np.bincount(successor_indices(g, k), minlength=1 << n)
            for j in range(12):
                y = random_config(n, seed=9000 + 100 * s + j)
                w = find_predecessor_tree(t, k, y)
                assert (w is not None) == (counts[config_index(y)] > 0)
                if w is not None:
                    assert is_predecessor(g, k, w, y)


def test_visit_bound_small_exhaustive():
    # The SHA-256 covers the root entry, both entries of every other vertex
    # and the visit counts, recorded from the trial loop that counted visits
    # as it read entries; the derived counts must reproduce it bit for bit.
    import hashlib

    digest = hashlib.sha256()
    for g in all_labeled_trees(6):
        t = root_tree(g, 0)
        for k in (1, 2, 3):
            for y in all_configs(6)[::7]:
                table = compute_forced_states(t, k, y)
                assert max(table.visits) <= 2
                rows = [table.root_entry] + [table.entry(v, c) for v in range(1, 6) for c in (-1, 1)]
                digest.update(np.array(rows + table.visits, dtype=np.int8).tobytes())
    assert digest.hexdigest() == "6019772b46dd4e361d6105d5b4e21a4e7c26f9ee004bce3b4692149bc2d15124"


def test_decision_independent_of_root():
    for s in range(15):
        g = random_tree(7, seed=50 + s)
        for k in (1, 2, 3):
            for y in all_configs(7)[::11]:
                answers = {
                    find_predecessor_tree(root_tree(g, r), k, y) is not None
                    for r in range(7)
                }
                assert len(answers) == 1


def test_deep_path_needs_no_native_recursion():
    n = 5000
    g = path_graph(n)
    t = root_tree(g, 0)
    y = np.ones(n, dtype=np.int8)
    w = find_predecessor_tree(t, 2, y)
    assert w is not None and is_predecessor(g, 2, w, y)
    table = compute_forced_states(t, 2, y)
    assert max(table.visits) <= 2


def _witness_bytes():
    """Every witness of a fixed instance set, b"N" for none, concatenated."""
    from kreversible import step

    def one(t, k, y):
        w = find_predecessor_tree(t, k, y)
        return b"N" if w is None else w.astype(np.int8).tobytes()

    for n in range(1, 6):
        configs = all_configs(n)
        for g in all_labeled_trees(n):
            for r in sorted({0, n - 1}):
                t = root_tree(g, r)
                for k in (1, 2, 3):
                    for y in configs:
                        yield one(t, k, y)
    graphs = [random_tree(2000, seed=s) for s in (11, 12, 13)] + [path_graph(2000)]
    for i, g in enumerate(graphs):
        t = root_tree(g, 0)
        for k in (2, 3):
            y = random_config(2000, seed=300 + 10 * i + k)
            yield one(t, k, y)
            yield one(t, k, step(g, k, y))


def test_witnesses_are_pinned():
    # SHA-256 over the concatenated witnesses, recorded from the lazy
    # explicit-stack evaluation; the bottom-up pass must reproduce it bit
    # for bit.
    import hashlib

    digest = hashlib.sha256(b"".join(_witness_bytes())).hexdigest()
    assert digest == "61f2c4b416b774137b89e7b9267643c85b7fb79140134be5c9dabb1047d2166b"


def _large_trees(n=2000):
    """Random trees, a path, a caterpillar, a star and a hub tree near n vertices."""
    half = n // 2
    caterpillar = Graph(n, [(i, i + 1) for i in range(half - 1)] + [(j - half, j) for j in range(half, n)])
    return [random_tree(n, seed=21), random_tree(n, seed=22), path_graph(n), caterpillar,
            star_graph(n - 1), hub_spokes_tree((n - 1) // 3)]


def _cases_small():
    for n in range(1, 6):
        configs = all_configs(n)
        for g in all_labeled_trees(n):
            t = root_tree(g, 0)
            for k in (1, 2, 3):
                for y in configs:
                    yield t, k, y


def _cases_large():
    for i, g in enumerate(_large_trees()):
        t = root_tree(g, 0)
        for k in (1, 2, 3, 4, g.n + 5, 2**63, 10**400):
            y = random_config(g.n, seed=400 + i)
            yield t, k, y
            yield t, k, step(g, k, random_config(g.n, seed=500 + i))


def _table_rows(table):
    """Root entry, both entries of every other vertex, and the visit counts."""
    t = table.tree
    entries = [table.entry(v, c) for v in range(t.graph.n) if v != t.root for c in (-1, 1)]
    return table.root_entry, entries, table.visits


@pytest.mark.parametrize("cases", [_cases_small, _cases_large], ids=["all-trees-n<=5", "n=2000"])
def test_contraction_matches_scalar_pass(monkeypatch, cases):
    cases = list(cases())
    runs, tables = [], []
    for cutoff in (10**9, -1):  # the scalar pass everywhere, then the contraction everywhere
        monkeypatch.setattr(tree_decide, "_CONTRACT_N", cutoff)
        runs.append([find_predecessor_tree(t, k, y) for t, k, y in cases])
        tables.append([_table_rows(compute_forced_states(t, k, y)) for t, k, y in cases])
    for (t, k, y), a, b in zip(cases, *runs):
        assert (a is None) == (b is None)
        if b is not None:
            assert b.dtype == np.int8 and np.array_equal(a, b)
            assert is_predecessor(t.graph, k, b, y)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("cutoff", [10**9, -1], ids=["scalar", "contraction"])
def test_large_decision_independent_of_root(monkeypatch, cutoff):
    monkeypatch.setattr(tree_decide, "_CONTRACT_N", cutoff)
    n = 2000
    for g in (random_tree(n, seed=31), path_graph(n)):
        for k in (1, 2, 3):
            for y in (random_config(n, seed=32 + k), step(g, k, random_config(n, seed=35 + k))):
                answers = set()
                for r in (0, n // 2, n - 1):
                    w = find_predecessor_tree(root_tree(g, r), k, y)
                    answers.add(w is not None)
                    assert w is None or is_predecessor(g, k, w, y)
                assert len(answers) == 1


def test_contraction_builds_no_list_view():
    # above _CONTRACT_N the decision reads only parent_array, and above
    # graphs._SMALL_N the count only the arrays: no Python list view
    n = tree_decide._CONTRACT_N + 1
    for g in (random_tree(n, seed=41), path_graph(n)):
        t = root_tree(g, 0)
        for k in (1, 2, 3):
            y = random_config(n, seed=42 + k)
            for target in (y, step(g, k, y)):
                w = find_predecessor_tree(t, k, target)
                assert w is None or is_predecessor(g, k, w, target)
                compute_forced_states(t, k, target).visits
                assert (count_predecessors_tree(t, k, target) > 0) == (w is not None)
        assert built_views(t) == []
    # the scalar rake reads parent and bfs_order, never the child slices
    t = root_tree(random_tree(n - 1, seed=41), 0)
    find_predecessor_tree(t, 2, random_config(n - 1, seed=43))
    assert built_views(t) == ["parent", "bfs_order"]
