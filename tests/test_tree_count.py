"""Tree predecessor counting: thresholds, exact counts, closed-form family."""

import sys
import time

import numpy as np
import pytest

from kreversible import graphs, tree_count
from kreversible import (
    Graph,
    children_threshold,
    count_predecessors_bruteforce,
    count_predecessors_tree,
    count_predecessors_tree_by_subsets,
    find_predecessor_tree,
    root_tree,
    step,
    successor_indices,
)
from kreversible.generators import hub_spokes_tree, random_config, random_tree
from helpers import all_configs, all_labeled_trees, path_graph, star_graph

# count_predecessors_tree runs its scalar loop at or below graphs._SMALL_N
# vertices.  Above it, int64 rounds settle the small subtrees first and the
# loop takes the other vertices: "rounds" forces a round whenever a vertex
# is ready, "loop" forbids every round, so the loop reads only its own cells.
_ENGINES = {"scalar": None, "rounds": 0, "loop": sys.maxsize}


def _each_engine(monkeypatch):
    """Yields each engine's name while count_predecessors_tree runs it."""
    for name, break_even in _ENGINES.items():
        with monkeypatch.context() as m:
            if break_even is not None:
                m.setattr(graphs, "_SMALL_N", 0)
                m.setattr(tree_count, "_ROUND_BREAK_EVEN", break_even)
            yield name


def _scalar_count(tree, k, y, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(graphs, "_SMALL_N", sys.maxsize)
        return count_predecessors_tree(tree, k, y)


def _caterpillar(spine: int, legs: int) -> Graph:
    """A path of ``spine`` vertices, each with ``legs`` leaves of its own."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + legs * i + j) for i in range(spine) for j in range(legs)]
    return Graph(spine * (legs + 1), edges)


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


def test_oracle_equivalence_exhaustive_small_trees(monkeypatch):
    for _ in _each_engine(monkeypatch):
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


def test_subset_route_matches_dp_route_on_wide_vertices(monkeypatch):
    # stars, a hub and a caterpillar whose vertices have 8 to 14 children;
    # k runs past the child count, so rows are cut below, at and above it
    for _ in _each_engine(monkeypatch):
        cases = [
            (star_graph(14), 0),
            (star_graph(12), 5),
            (hub_spokes_tree(9), 0),
            (hub_spokes_tree(10), 4),
            (_caterpillar(3, 9), 1),
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


def test_subset_route_matches_dp_route(monkeypatch):
    for _ in _each_engine(monkeypatch):
        for s in range(25):
            n = 6 + (s % 4)
            g = random_tree(n, seed=300 + s)
            t = root_tree(g, 0)
            for k in (1, 2, 3):
                for j in range(8):
                    y = random_config(n, seed=7000 + 100 * s + j)
                    assert count_predecessors_tree(t, k, y) == count_predecessors_tree_by_subsets(t, k, y)


def _count_cases():
    """(tree, k, target): random trees with random roots, paths, stars,
    caterpillars and hubs of 1 to 139 vertices, with k in {1, 2, 3, the max
    degree, one above it, 10^400} and half the targets images of a step."""
    rng = np.random.default_rng(77)
    shapes = [random_tree(n, seed=s) for n in (1, 2, 5, 8, 9, 33, 64, 139) for s in range(3)]
    shapes += [path_graph(n) for n in (2, 9, 70, 139)]
    shapes += [star_graph(8), star_graph(70), _caterpillar(3, 2), _caterpillar(12, 5),
               hub_spokes_tree(3), hub_spokes_tree(40)]
    for j, g in enumerate(shapes):
        t = root_tree(g, int(rng.integers(g.n)))
        delta = int(g.degrees().max(initial=0))
        for k in sorted({1, 2, 3, max(delta, 1), delta + 1, 10**400}):
            for i in range(2):
                y = random_config(g.n, seed=1000 * j + 10 * min(k, 99) + i)
                yield t, k, step(t.graph, k, y) if i else y


def test_engines_match_the_scalar_dp(monkeypatch):
    for _ in _each_engine(monkeypatch):
        for t, k, y in _count_cases():
            want = _scalar_count(t, k, y, monkeypatch)
            assert count_predecessors_tree(t, k, y) == want
            if t.graph.n <= 9:
                assert count_predecessors_tree_by_subsets(t, k, y) == want


@pytest.mark.parametrize("s", [61, 62, 63, 64])
def test_rounds_leave_subtrees_above_62_vertices_to_python_ints(monkeypatch, s):
    # Below the root, a star of s vertices whose centre targets -1 and whose
    # leaves target +1: at k = 1 its cells count about 2^(s-1) states, so at
    # s = 64 they would wrap in int64.  The rounds settle the star at most
    # up to 62 vertices, and the counts stay exact either way.
    g = Graph(s + 2, [(0, 1), (0, s + 1)] + [(1, i) for i in range(2, s + 1)])
    monkeypatch.setattr(tree_count, "_ROUND_BREAK_EVEN", 0)
    t = root_tree(g, 0)
    for tops in ([1, 1], [1, -1], [-1, 1]):
        y = np.array([tops[0], -1] + [1] * (s - 1) + [tops[1]], dtype=np.int8)
        want = _scalar_count(t, 1, y, monkeypatch)
        assert want >= 2 ** (s - 3)
        assert (1 in tree_count._settle(t, 1, y)[0]) == (s > 62)  # the centre has BFS rank 1
        with monkeypatch.context() as m:
            m.setattr(graphs, "_SMALL_N", 0)
            assert count_predecessors_tree(t, 1, y) == want


def test_large_counts_agree_with_the_decision_and_the_sign_flip():
    # Beyond the oracle's reach: on trees of 10^4 to 2.2*10^4 vertices, with
    # the default cutoffs, a count is positive exactly when the decision
    # finds a witness, and a target and its negation count alike.
    for g in (random_tree(22_000, seed=5), _caterpillar(2_000, 4), hub_spokes_tree(5_000)):
        t = root_tree(g, 0)
        for k in (1, 2, 3):
            for i in range(2):
                y = random_config(g.n, seed=70 * k + i)
                y = step(g, k, y) if i else y
                c = count_predecessors_tree(t, k, y)
                assert (c > 0) == (find_predecessor_tree(t, k, y) is not None)
                assert c > 0 or i == 0  # an image of a step has a predecessor
                assert count_predecessors_tree(t, k, -y) == c


def test_count_lists_only_the_upper_tree(monkeypatch):
    # Above _SMALL_N the scalar loop's lists cover the ranks the int64 rounds
    # leave and the settled children those read, not the whole tree.
    g = random_tree(20_000, seed=9)
    t = root_tree(g, 0)
    y = step(g, 2, random_config(g.n, seed=3))
    ranks, parent, cptr, ys, cells = tree_count._settle(t, 2, y)
    assert len(ys) == len(parent) == len(cells) == len(cptr) - 1 < g.n // 4
    left = set(ranks)
    assert all((c is None) == (i in left) for i, c in enumerate(cells))
    count = count_predecessors_tree(t, 2, y)
    monkeypatch.setattr(graphs, "_SMALL_N", g.n)  # the scalar loop alone
    assert count_predecessors_tree(root_tree(g, 0), 2, y) == count > 0


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
