"""k = 1 solver: partition structure, frozen answers, oracle equivalence."""

import dataclasses

import numpy as np
import pytest

from kreversible import k1
from kreversible import (
    Graph,
    find_predecessor_k1,
    is_predecessor,
    same_state_partition,
    successor_indices,
)
from kreversible.generators import random_config, random_graph
from kreversible.oracle import config_index
from helpers import all_configs, all_graphs, complete_graph, cycle_graph, path_graph


def test_partition_p4_two_locked_regions():
    part = same_state_partition(path_graph(4), [1, 1, -1, -1])
    assert part.component.tolist() == [0, 0, 1, 1]
    assert part.vertex_locked.tolist() == [True, False, False, True]
    assert part.component_locked.tolist() == [True, True]
    assert part.component_state.tolist() == [1, -1]


def test_partition_alternating_cycle_all_unlocked():
    part = same_state_partition(cycle_graph(4), [1, -1, 1, -1])
    assert part.n_components == 4
    assert not part.vertex_locked.any()
    assert not part.component_locked.any()


def test_partition_uniform_graph_single_locked_region():
    part = same_state_partition(complete_graph(4), [1, 1, 1, 1])
    assert part.n_components == 1
    assert part.component_locked.tolist() == [True]


def test_decide_examples():
    # adjacent locked regions: no predecessor
    assert find_predecessor_k1(path_graph(4), [1, 1, -1, -1]) is None
    # alternating cycle: flip everything
    w = find_predecessor_k1(cycle_graph(4), [1, -1, 1, -1])
    assert w.tolist() == [-1, 1, -1, 1]
    assert is_predecessor(cycle_graph(4), 1, w, [1, -1, 1, -1])
    # uniform connected graph: the target is its own predecessor
    w = find_predecessor_k1(complete_graph(4), [1, 1, 1, 1])
    assert w.tolist() == [1, 1, 1, 1]


def test_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        find_predecessor_k1(path_graph(3), [1, 1])


def test_witness_flips_exactly_unlocked_regions():
    g = random_graph(9, 14, seed=21)
    for s in range(40):
        y = random_config(9, seed=100 + s)
        w = find_predecessor_k1(g, y)
        if w is None:
            continue
        part = same_state_partition(g, y)
        unlocked = ~part.component_locked[part.component]
        assert np.array_equal(w != y, unlocked)


def test_oracle_equivalence_exhaustive_small():
    # every graph on <= 4 vertices (disconnected included), every target
    for n in range(1, 5):
        configs = all_configs(n)
        for g in all_graphs(n):
            counts = np.bincount(successor_indices(g, 1), minlength=1 << n)
            for idx, y in enumerate(configs):
                w = find_predecessor_k1(g, y)
                assert (w is not None) == (counts[idx] > 0)
                if w is not None:
                    assert is_predecessor(g, 1, w, y)


def test_oracle_equivalence_random_medium():
    for s in range(60):
        n = 5 + (s % 6)
        g = random_graph(n, min(2 * n, n * (n - 1) // 2), seed=500 + s)
        counts = np.bincount(successor_indices(g, 1), minlength=1 << n)
        for t in range(16):
            y = random_config(n, seed=1000 * s + t)
            w = find_predecessor_k1(g, y)
            assert (w is not None) == (counts[config_index(y)] > 0)
            if w is not None:
                assert is_predecessor(g, 1, w, y)


def test_disconnected_components_decided_independently():
    # P4 plus a disjoint edge: the answer is the AND over components
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert find_predecessor_k1(g, [1, 1, -1, -1, 1, 1]) is None
    y = np.array([1, -1, 1, -1, 1, 1], dtype=np.int8)
    w = find_predecessor_k1(g, y)
    assert w is not None and is_predecessor(g, 1, w, y)
    # isolated vertices are locked singletons and keep their state
    iso = Graph(3, [(0, 1)])
    w = find_predecessor_k1(iso, [1, 1, -1])
    assert w is not None and w.tolist() == [1, 1, -1]


# k1 takes its list path at or below k1._LIST_N vertices and its numpy
# path above it; each cutoff forces one path on any graph.
_K1_PATHS = {"list": 10**9, "numpy": 0}


def _k1_instances():
    """(graph, targets): every graph up to 4 vertices with every target, and
    the graphs and targets of test_oracle_equivalence_random_medium."""
    for n in range(1, 5):
        for g in all_graphs(n):
            yield g, all_configs(n)
    for s in range(60):
        n = 5 + (s % 6)
        g = random_graph(n, min(2 * n, n * (n - 1) // 2), seed=500 + s)
        yield g, [random_config(n, seed=1000 * s + t) for t in range(16)]


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


def test_small_and_large_paths_agree(monkeypatch):
    for g, targets in _k1_instances():
        counts = np.bincount(successor_indices(g, 1), minlength=1 << g.n)
        for y in targets:
            runs = []
            for cutoff in _K1_PATHS.values():
                monkeypatch.setattr(k1, "_LIST_N", cutoff)
                runs.append((same_state_partition(g, y), find_predecessor_k1(g, y)))
            (part, w), (part_np, w_np) = runs
            for field in dataclasses.fields(part):
                assert _same_array(getattr(part, field.name), getattr(part_np, field.name))
            assert (w is None) == (w_np is None)
            assert (w is not None) == (counts[config_index(y)] > 0)
            if w is not None:
                assert _same_array(w, w_np)
                assert is_predecessor(g, 1, w, y)
