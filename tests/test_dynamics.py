"""The synchronous update rule and predecessor verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kreversible as kr
from kreversible import Graph, is_predecessor, max_degree, simulate, step
from kreversible.dynamics import check_k
from kreversible.generators import (
    hub_spokes_tree,
    random_bounded_degree_graph,
    random_graph,
    random_regular_graph,
    random_tree,
)
from helpers import all_configs, cycle_graph, path_graph, relabel


def test_step_flips_pressured_middle():
    # middle vertex of P3 sees two disagreeing neighbors, the ends see one
    assert step(path_graph(3), 2, [1, -1, 1]).tolist() == [1, 1, 1]


def test_step_isolated_vertex_never_flips():
    for k in (1, 2, 5):
        assert step(Graph(1, []), k, [1]).tolist() == [1]


def test_step_rejects_bad_input():
    g = path_graph(3)
    with pytest.raises(ValueError, match="length"):
        step(g, 1, [1, 1])
    with pytest.raises(ValueError, match="states"):
        step(g, 1, [1, 0, 1])
    with pytest.raises(ValueError, match="k must be"):
        step(g, 0, [1, 1, 1])


def test_non_integer_k_is_a_value_error():
    g = path_graph(3)
    for k in (float("inf"), float("nan"), None, "2", 0, 1.5):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            check_k(k)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            kr.count_predecessors(g, k, [1, 1, 1])
        with pytest.raises(ValueError, match="k must be a positive integer"):
            kr.find_predecessor(g, k, [1, 1, 1])


def test_simulate_identity_and_fixed_point():
    g = path_graph(3)
    y = np.array([1, -1, 1], dtype=np.int8)
    assert np.array_equal(simulate(g, 2, y, 0), y)
    assert simulate(g, 2, y, 2).tolist() == [1, 1, 1]
    with pytest.raises(ValueError, match="nonnegative"):
        simulate(g, 2, y, -1)


def test_simulate_period_two_cycle():
    # alternating C4 under k=1: every vertex flips every step
    y = [1, -1, 1, -1]
    assert simulate(cycle_graph(4), 1, y, 1).tolist() == [-1, 1, -1, 1]
    assert simulate(cycle_graph(4), 1, y, 2).tolist() == y


def _iterate(g, k, y, t):
    """Reference: plain t-fold iteration of step, no early stop."""
    y = np.asarray(y, dtype=np.int8)
    for _ in range(t):
        y = step(g, k, y)
    return y


def _families():
    yield "tree", random_tree(12, seed=1)
    yield "path", path_graph(9)
    yield "cycle", cycle_graph(8)
    yield "cubic", random_regular_graph(12, 3, seed=2)
    yield "deg3", random_bounded_degree_graph(11, 3, seed=3)
    yield "gnm", random_graph(10, 25, seed=4)
    yield "hub", hub_spokes_tree(3)


def test_simulate_early_stop_matches_plain_iteration():
    rng = np.random.default_rng(5)
    for name, g in _families():
        for k in (1, 2, 3):
            for _ in range(4):
                y = rng.choice(np.array([-1, 1], dtype=np.int8), size=g.n)
                for t in range(13):
                    assert np.array_equal(simulate(g, k, y, t), _iterate(g, k, y, t)), (name, k, t)
                # well past any transient, the orbit has period at most 2
                for t, ref in ((10**12, 2 * g.n + 40), (10**12 + 1, 2 * g.n + 41)):
                    assert np.array_equal(simulate(g, k, y, t), _iterate(g, k, y, ref)), (name, k, t)


def test_is_predecessor_examples():
    g = path_graph(3)
    assert is_predecessor(g, 2, [1, -1, 1], [1, 1, 1])
    assert not is_predecessor(g, 2, [1, 1, 1], [1, -1, 1])
    # all-equal configuration on a connected graph is its own predecessor
    assert is_predecessor(cycle_graph(5), 1, [1] * 5, [1] * 5)


@st.composite
def small_instance(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
    y = np.array(draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)), dtype=np.int8)
    k = draw(st.integers(1, 4))
    return g, k, y


@settings(max_examples=120, deadline=None)
@given(small_instance())
def test_step_sign_symmetry(inst):
    g, k, y = inst
    assert np.array_equal(step(g, k, -y), -step(g, k, y))


@settings(max_examples=120, deadline=None)
@given(small_instance(), st.randoms(use_true_random=False))
def test_step_relabeling_equivariance(inst, rnd):
    g, k, y = inst
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    py = np.empty(g.n, dtype=np.int8)
    for v in range(g.n):
        py[perm[v]] = y[v]
    expected = np.empty(g.n, dtype=np.int8)
    sy = step(g, k, y)
    for v in range(g.n):
        expected[perm[v]] = sy[v]
    assert np.array_equal(step(h, k, py), expected)


@settings(max_examples=80, deadline=None)
@given(small_instance())
def test_step_identity_above_max_degree(inst):
    g, _, y = inst
    assert np.array_equal(step(g, max_degree(g) + 1, y), y)


@settings(max_examples=80, deadline=None)
@given(small_instance())
def test_degree_one_vertices_freeze_for_k2(inst):
    g, _, y = inst
    out = step(g, 2, y)
    for v in range(g.n):
        if g.degree(v) <= 1:
            assert out[v] == y[v]


def test_step_locality():
    # flipping y at v can change the step image only at v and its neighbors
    g = path_graph(6)
    for y in all_configs(6):
        base = step(g, 2, y)
        for v in range(6):
            y2 = y.copy()
            y2[v] = -y2[v]
            out = step(g, 2, y2)
            affected = {v, *g.neighbors(v)}
            for u in range(6):
                if u not in affected:
                    assert out[u] == base[u]


def _int_step(g, k, y):
    """Reference: the update rule over adjacency lists with Python int counts."""
    adj = g.adjacency()
    return [-s if sum(y[u] != s for u in adj[v]) >= k else s for v, s in enumerate(y)]


@pytest.mark.parametrize("g", [Graph(0), Graph(1), random_graph(7, 12, seed=3),
                               random_graph(600, 2400, seed=4)], ids=lambda g: f"n{g.n}")
def test_step_takes_any_k_past_n(g):
    # the weighted counts are float64: a k past 2**1023 must not reach them
    n = g.n
    rng = np.random.default_rng(n)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    for k in (n - 1, n, n + 1, 2**63, 10**400):
        if k < 1:
            continue
        ref = [y.tolist()]
        for _ in range(3):
            ref.append(_int_step(g, k, ref[-1]))
        out = step(g, k, y)
        assert out.dtype == np.int8 and out is not y and not np.shares_memory(out, y)
        assert out.tolist() == ref[1], k
        assert simulate(g, k, y, 3).tolist() == ref[3], k
        assert is_predecessor(g, k, y, ref[1])
        assert is_predecessor(g, k, ref[1], ref[2])
