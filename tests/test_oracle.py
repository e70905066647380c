"""Brute-force enumeration: frozen values and consistency with the dynamics."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreversible import (
    Graph,
    count_predecessors_bruteforce,
    count_predecessors_tree,
    enumerate_predecessors,
    find_predecessor_bruteforce,
    is_predecessor,
    max_degree,
    root_tree,
    step,
    successor_indices,
)
from kreversible import oracle
from kreversible.generators import hub_spokes_tree, random_config, random_graph, tree_from_pruefer
from kreversible.oracle import config_index, index_config
from helpers import all_configs, all_graphs, path_graph


def test_enumerate_p3_fixed_point_targets():
    preds = enumerate_predecessors(path_graph(3), 2, [1, 1, 1])
    assert [p.tolist() for p in preds] == [[1, -1, 1], [1, 1, 1]]
    assert count_predecessors_bruteforce(path_graph(3), 2, [1, 1, 1]) == 2


def test_enumerate_garden_of_eden():
    assert enumerate_predecessors(path_graph(3), 2, [1, -1, 1]) == []
    assert count_predecessors_bruteforce(path_graph(3), 2, [1, -1, 1]) == 0


def test_enumerate_single_vertex():
    preds = enumerate_predecessors(Graph(1, []), 3, [1])
    assert [p.tolist() for p in preds] == [[1]]


def test_count_hub_spokes_lower_bound_family():
    g = hub_spokes_tree(3)
    assert count_predecessors_bruteforce(g, 2, [1] * 10) == 8
    assert 8 >= 2**3 - 3 - 1


def test_count_is_one_above_max_degree():
    g = random_graph(8, 12, seed=3)
    y = random_config(8, seed=4)
    assert count_predecessors_bruteforce(g, max_degree(g) + 1, y) == 1


def test_limit_enforced():
    g = Graph(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(ValueError, match="limit"):
        enumerate_predecessors(g, 1, [1] * 21)
    # explicit override allows it
    assert count_predecessors_bruteforce(g, 21, [1] * 21, limit=21) == 1


def test_enumeration_order_is_lexicographic():
    # indices of returned predecessors must increase
    g = path_graph(4)
    preds = enumerate_predecessors(g, 1, [1, 1, -1, -1])
    idxs = [config_index(p) for p in preds]
    assert idxs == sorted(idxs)


def test_index_config_roundtrip():
    for idx in range(1 << 5):
        assert config_index(index_config(idx, 5)) == idx


def test_every_enumerated_candidate_verifies():
    g = random_graph(7, 9, seed=11)
    for y in all_configs(7)[::13]:
        preds = enumerate_predecessors(g, 2, y)
        for p in preds:
            assert is_predecessor(g, 2, p, y)
        assert len(preds) == count_predecessors_bruteforce(g, 2, y)


@st.composite
def instance(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
    k = draw(st.integers(1, 4))
    return g, k


@settings(max_examples=60, deadline=None)
@given(instance())
def test_matrix_route_agrees_with_edge_route(inst):
    # the oracle evaluates the rule on bit-sliced candidate planes over the
    # adjacency lists; step evaluates it through edge arrays
    g, k = inst
    table = successor_indices(g, k)
    for idx in range(1 << g.n):
        y = index_config(idx, g.n)
        assert int(table[idx]) == config_index(step(g, k, y))


def test_find_predecessor_bruteforce_first_match():
    g = path_graph(3)
    w = find_predecessor_bruteforce(g, 2, [1, 1, 1])
    assert w is not None and w.tolist() == [1, -1, 1]
    assert find_predecessor_bruteforce(g, 2, [1, -1, 1]) is None


def _answers(g, k, targets):
    """Every oracle answer on g at k, as plain lists."""
    found = [find_predecessor_bruteforce(g, k, y) for y in targets]
    return (
        successor_indices(g, k).tolist(),
        [count_predecessors_bruteforce(g, k, y) for y in targets],
        [None if w is None else w.tolist() for w in found],
        [[p.tolist() for p in enumerate_predecessors(g, k, y)] for y in targets],
    )


def test_block_loop_matches_one_block(monkeypatch):
    # blocks of 1, 2 and 4 candidates take every tiny graph through many blocks
    for n in range(6):
        configs = all_configs(n)
        for g in all_graphs(n):
            for k in sorted({1, 2, 3, max_degree(g) + 1}):
                table = successor_indices(g, k)
                assert table.tolist() == [config_index(step(g, k, y)) for y in configs]
                targets = [configs[int(table[len(table) // 3])]]
                want = _answers(g, k, targets)
                for bits in (0, 1, 2):
                    with monkeypatch.context() as mp:
                        mp.setattr(oracle, "_BLOCK_BITS", bits)
                        assert _answers(g, k, targets) == want, (g.edges, k, bits)


def test_many_blocks_at_n22():
    rng = random.Random(22)
    n = 22
    assert n > oracle._BLOCK_BITS
    seq = [rng.randrange(n) for _ in range(n - 2)]
    for g in (path_graph(n), tree_from_pruefer(seq)):
        y = step(g, 2, [rng.choice((-1, 1)) for _ in range(n)])
        count = count_predecessors_bruteforce(g, 2, y, limit=n)
        assert count >= 1 and count == count_predecessors_tree(root_tree(g, 0), 2, y)
        first = find_predecessor_bruteforce(g, 2, y, limit=n)
        preds = enumerate_predecessors(g, 2, y, limit=n)
        assert len(preds) == count and preds[0].tolist() == first.tolist()
        assert is_predecessor(g, 2, first, y)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 10**400], ids=["k1", "k2", "k10**400"])
def test_smallest_graphs(n, k):
    g = path_graph(n)
    configs = all_configs(n)
    table = successor_indices(g, k)
    assert table.dtype == np.int64
    assert table.tolist() == [config_index(step(g, k, y)) for y in configs]
    for y in configs:
        preds = [p for p in configs if config_index(step(g, k, p)) == config_index(y)]
        assert count_predecessors_bruteforce(g, k, y) == len(preds)
        assert [p.tolist() for p in enumerate_predecessors(g, k, y)] == [p.tolist() for p in preds]
        first = find_predecessor_bruteforce(g, k, y)
        assert (first is None) == (not preds)
        assert first is None or first.tolist() == preds[0].tolist()


def test_count_memory_stays_small():
    # a 2^n x n candidate matrix at n = 20 would take tens of MiB
    g = tree_from_pruefer([(7 * i) % 20 for i in range(18)])
    y = [1, -1] * 10
    tracemalloc.start()
    try:
        count_predecessors_bruteforce(g, 2, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
