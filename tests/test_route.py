"""The routing table: library entry points against the per-solver functions and the oracle."""

import numpy as np
import pytest

import kreversible as kr
from kreversible import deg3, k1, tree_decide
from kreversible.generators import random_bounded_degree_graph, random_config, random_graph
from kreversible.oracle import config_index
from kreversible.route import ROUTES, route
from helpers import all_configs, all_labeled_trees, complete_graph, cycle_graph, path_graph


def _per_solver(name, g, k, y):
    """The witness and count of the solver a row names, called directly."""
    if name == "pre1":
        return kr.find_predecessor_k1(g, y), None
    if name == "tree":
        t = kr.root_tree(g, 0)
        return kr.find_predecessor_tree(t, k, y), kr.count_predecessors_tree(t, k, y)
    if name == "twosat":
        return kr.find_predecessor_deg3(g, y), None
    if name == "fixed":
        return np.asarray(y, dtype=np.int8), 1
    return kr.find_predecessor_bruteforce(g, k, y), kr.count_predecessors_bruteforce(g, k, y)


def _check_against_oracle(g, k, targets, seen=None):
    """find_predecessor / count_predecessors on each target: equal to the routed
    solvers' own answers, and true to the successor table."""
    table = np.bincount(kr.successor_indices(g, k), minlength=1 << g.n)
    decider = route(g, k)[0].name
    counter = route(g, k, counting=True)[0].name
    if seen is not None:
        seen.update((decider, counter))
    for y in targets:
        want = int(table[config_index(y)])
        witness = _per_solver(decider, g, k, y)[0]
        got = kr.find_predecessor(g, k, y)
        if witness is None:
            assert got is None and want == 0, (g, k, y)
        else:
            assert np.array_equal(got, witness) and kr.is_predecessor(g, k, got, y), (g, k, y)
        assert kr.count_predecessors(g, k, y) == _per_solver(counter, g, k, y)[1] == want


def test_library_entry_points_on_all_small_trees():
    for n in range(1, 6):
        targets = all_configs(n)
        for g in all_labeled_trees(n):
            for k in (1, 2, 3):
                _check_against_oracle(g, k, targets)


def test_library_entry_points_on_random_graphs():
    rng = np.random.default_rng(5)
    seen = set()
    for i in range(200):
        n = int(rng.integers(2, 11))
        deg3 = random_bounded_degree_graph(n, 3, seed=i)
        gnm = random_graph(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), seed=i)
        for g in (deg3, gnm):
            targets = [random_config(n, 1000 * i + j) for j in range(4)]
            for k in (1, 2, 3, 4):
                _check_against_oracle(g, k, targets, seen)
    assert seen == {r.name for r in ROUTES}


def test_fixed_route_agrees_with_the_oracle():
    # k above every degree: step is the identity, so y is its only predecessor
    for i in range(60):
        n = 1 + i % 9
        g = random_graph(n, min(i % 7, n * (n - 1) // 2), seed=i)
        k = kr.max_degree(g) + 1 + i % 2
        assert route(g, k)[0].name in ("pre1", "tree", "twosat", "fixed")
        for y in all_configs(n)[:: max(1, (1 << n) // 16)]:
            assert np.array_equal(route(g, k, "fixed")[0].decide(g, k, y),
                                  kr.find_predecessor_bruteforce(g, k, y))
            assert kr.count_predecessors(g, k, y, method="fixed") == 1
            assert kr.count_predecessors_bruteforce(g, k, y) == 1


def test_two_path_forest_is_not_rejected():
    # two disjoint 20-vertex paths: not a tree, max degree 2 < k=3
    g = kr.Graph(40, [(i, i + 1) for i in range(39) if i != 19])
    y = random_config(40, 3)
    assert route(g, 3)[0].name == "fixed"
    assert np.array_equal(kr.find_predecessor(g, 3, y), y)
    assert kr.count_predecessors(g, 3, y) == 1
    for solve in (kr.find_predecessor, kr.count_predecessors):
        with pytest.raises(ValueError, match="does not match"):
            solve(g, 3, y[:39])


def test_method_lists_follow_the_table():
    assert [r.name for r in ROUTES] == ["pre1", "tree", "twosat", "fixed", "oracle"]
    assert [r.name for r in ROUTES if r.count] == ["tree", "fixed", "oracle"]
    with pytest.raises(ValueError, match="unknown method 'twosat'"):
        kr.count_predecessors(cycle_graph(4), 2, [1] * 4, method="twosat")
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        kr.find_predecessor(path_graph(3), 2, [1] * 3, method="nope")
    with pytest.raises(ValueError, match="counting is available"):
        kr.count_predecessors(complete_graph(5), 3, [1] * 5, oracle_limit=4)


def _bad_targets(n):
    """Length-n targets with a state that is not -1 or +1, each of which a
    cast to int8 would turn into a valid one, or that int8 cannot hold."""
    rest = [1] * (n - 1)
    return [
        np.array([255] + rest, dtype=np.uint8),  # int8 reads -1
        np.array([257] + rest),  # int8 reads +1
        [1.5] + rest,  # int8 reads 1
        [-1.9] + rest,  # int8 reads -1
        [300] + rest,
        [0] + rest,
        [None] + rest,
        ["1"] + rest,
    ]


# One instance per row of the table, and per solver path where a row has two.
_EVERY_PATH = [
    (path_graph(3), 1, "pre1"),
    (path_graph(k1._LIST_N + 1), 1, "pre1"),
    (path_graph(3), 2, "tree"),
    (path_graph(tree_decide._CONTRACT_N + 1), 2, "tree"),
    (cycle_graph(4), 2, "twosat"),
    (cycle_graph(deg3._TARJAN_N + 1), 2, "twosat"),
    (path_graph(3), 3, "fixed"),
    (cycle_graph(4), 2, "oracle"),
]


@pytest.mark.parametrize("g,k,method", _EVERY_PATH, ids=lambda x: str(x))
def test_bad_targets_are_refused_on_every_route(g, k, method):
    counts = route(g, k, method)[0].count is not None
    for y in _bad_targets(g.n):
        with pytest.raises(ValueError, match=r"states must be -1 or \+1"):
            kr.find_predecessor(g, k, y, method=method)
        if counts:
            with pytest.raises(ValueError, match=r"states must be -1 or \+1"):
                kr.count_predecessors(g, k, y, method=method)
        with pytest.raises(ValueError, match=r"states must be -1 or \+1"):
            kr.step(g, k, y)
