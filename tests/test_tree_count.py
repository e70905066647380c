"""Tree predecessor counting: thresholds, exact counts, closed-form family."""

import time

import numpy as np
import pytest

from kreversible import (
    Graph,
    children_threshold,
    count_predecessors_bruteforce,
    count_predecessors_tree,
    count_predecessors_tree_by_subsets,
    find_predecessor_tree,
    root_tree,
    successor_indices,
)
from kreversible.generators import hub_spokes_tree, random_config, random_tree
from helpers import all_configs, all_labeled_trees, path_graph, star_graph


def test_children_threshold_branches():
    # staying in the target state against a disagreeing parent
    assert children_threshold(3, 1, 1, -1, 2) == 2
    # leaves never need children (clamped at zero)
    assert children_threshold(1, 1, 1, 1, 2) == 0
    # flipping with the parent's help needs k-1 children
    assert children_threshold(3, 1, -1, 1, 2) == 1
    # flipping without help needs k children
    assert children_threshold(3, 1, -1, -1, 2) == 2
    # the root (no parent) behaves like a disagreeing parent context
    assert children_threshold(3, 1, 1, None, 2) == 2
    assert children_threshold(3, 1, -1, None, 2) == 2


def test_count_frozen_examples():
    p3 = root_tree(path_graph(3), 0)
    assert count_predecessors_tree(p3, 2, [1, 1, 1]) == 2
    assert count_predecessors_tree(p3, 2, [1, -1, 1]) == 0
    single = root_tree(Graph(1, []), 0)
    assert count_predecessors_tree(single, 3, [-1]) == 1


def test_count_hub_spokes_p3():
    g = hub_spokes_tree(3)
    t = root_tree(g, 0)
    assert count_predecessors_tree(t, 2, [1] * 10) == 8
    assert count_predecessors_bruteforce(g, 2, [1] * 10) == 8


def test_oracle_equivalence_exhaustive_small_trees():
    for n in range(1, 6):
        configs = all_configs(n)
        for g in all_labeled_trees(n):
            t = root_tree(g, 0)
            for k in (1, 2, 3, 4):
                counts = np.bincount(successor_indices(g, k), minlength=1 << n)
                for idx, y in enumerate(configs):
                    assert count_predecessors_tree(t, k, y) == int(counts[idx])


def test_oracle_equivalence_every_root_and_k_above_child_counts():
    for n in range(1, 6):
        configs = all_configs(n)
        for g in all_labeled_trees(n):
            for k in range(1, 6):
                counts = np.bincount(successor_indices(g, k), minlength=1 << n)
                for root in range(n):
                    t = root_tree(g, root)
                    for idx, y in enumerate(configs):
                        assert count_predecessors_tree(t, k, y) == int(counts[idx])


def test_subset_route_matches_dp_route_on_wide_vertices():
    # stars, a hub and a caterpillar whose vertices have 8 to 14 children;
    # k runs past the child count, so rows are cut below, at and above it
    legs = [(s, 3 + 9 * s + i) for s in range(3) for i in range(9)]
    caterpillar = Graph(30, [(0, 1), (1, 2)] + legs)
    cases = [
        (star_graph(14), 0),
        (star_graph(12), 5),
        (hub_spokes_tree(9), 0),
        (hub_spokes_tree(10), 4),
        (caterpillar, 1),
    ]
    for j, (g, root) in enumerate(cases):
        t = root_tree(g, root)
        widest = max(t.n_children(v) for v in range(g.n))
        assert 8 <= widest <= 14
        for k in range(1, widest + 3):
            y = random_config(g.n, seed=9100 + 50 * j + k)
            assert count_predecessors_tree(t, k, y) == count_predecessors_tree_by_subsets(
                t, k, y, max_children=14
            )


def test_subset_route_matches_dp_route():
    for s in range(25):
        n = 6 + (s % 4)
        g = random_tree(n, seed=300 + s)
        t = root_tree(g, 0)
        for k in (1, 2, 3):
            for j in range(8):
                y = random_config(n, seed=7000 + 100 * s + j)
                assert count_predecessors_tree(t, k, y) == count_predecessors_tree_by_subsets(t, k, y)


def test_subset_route_guards_wide_vertices():
    t = root_tree(hub_spokes_tree(12), 0)
    with pytest.raises(ValueError, match="children"):
        count_predecessors_tree_by_subsets(t, 2, [1] * 37)


def test_count_positive_iff_witness_exists():
    for s in range(30):
        n = 5 + (s % 6)
        g = random_tree(n, seed=880 + s)
        t = root_tree(g, 0)
        for k in (1, 2, 3):
            for j in range(8):
                y = random_config(n, seed=600 * s + j)
                assert (count_predecessors_tree(t, k, y) > 0) == (
                    find_predecessor_tree(t, k, y) is not None
                )


def test_count_sign_symmetry():
    for s in range(30):
        n = 5 + (s % 7)
        g = random_tree(n, seed=444 + s)
        t = root_tree(g, 0)
        y = random_config(n, seed=555 + s)
        for k in (1, 2, 3):
            assert count_predecessors_tree(t, k, y) == count_predecessors_tree(t, k, -y)


def test_hub_spokes_family_closed_form():
    # first re-derive the closed form from the brute force for small p
    for p in (2, 3, 4):
        g = hub_spokes_tree(p)
        y = [1] * (3 * p + 1)
        brute = count_predecessors_bruteforce(g, 2, y)
        assert brute == 2**p
        assert count_predecessors_tree(root_tree(g, 0), 2, y) == brute
    # the family's count keeps matching 2^p far beyond brute-force reach
    for p in (10, 33, 128):
        g = hub_spokes_tree(p)
        t = root_tree(g, 0)
        c = count_predecessors_tree(t, 2, [1] * (3 * p + 1))
        assert c == 2**p
        assert c >= 2**p - p - 1


def test_hub_spokes_6000_counts_fast():
    # a hub with 6000 children: the work must not grow with the square of
    # a vertex's child count
    t = root_tree(hub_spokes_tree(6000), 0)
    start = time.perf_counter()
    assert count_predecessors_tree(t, 2, [1] * 18001) == 2**6000
    assert time.perf_counter() - start < 3.0


def test_count_rejects_bad_k():
    t = root_tree(path_graph(2), 0)
    with pytest.raises(ValueError, match="k must be"):
        count_predecessors_tree(t, 0, [1, 1])


def test_count_rejects_bad_configuration():
    t = root_tree(path_graph(3), 0)
    with pytest.raises(ValueError, match="length"):
        count_predecessors_tree(t, 2, [1, 1])
    with pytest.raises(ValueError, match="states"):
        count_predecessors_tree(t, 2, [1, 0, 1])
