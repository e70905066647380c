"""Acceptance suite: every criterion runs standalone and prints a PASS/FAIL line.

Run with output visible:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import itertools
import multiprocessing
import time

import numpy as np

from kreversible import (
    ClauseSemantics,
    Cnf3,
    build_gadget,
    compute_forced_states,
    count_predecessors_bruteforce,
    count_predecessors_tree,
    find_predecessor_deg3,
    find_predecessor_k1,
    find_predecessor_tree,
    is_bipartite,
    is_predecessor,
    predecessor_from_assignment,
    root_tree,
    satisfies_semantics,
    step,
    successor_indices,
)
from kreversible.generators import (
    hub_spokes_tree,
    random_bounded_degree_graph,
    random_config,
    random_graph,
    random_regular_graph,
    random_tree,
    tree_from_pruefer,
)
from kreversible.graphs import Graph
from kreversible.oracle import config_index, index_config

from helpers import all_configs, all_graphs, relabel


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------- criterion 1

def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    adj = g.adjacency()
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def _atlas_connected(n: int):
    import networkx as nx

    for G in nx.graph_atlas_g():
        if G.number_of_nodes() == n and nx.is_connected(G):
            mapping = {u: i for i, u in enumerate(sorted(G.nodes()))}
            yield Graph(n, [(mapping[u], mapping[v]) for u, v in G.edges()])


def test_criterion_1_k1_oracle_equivalence():
    started = time.perf_counter()
    checked = mismatches = graphs_seen = 0
    for n in range(1, 8):
        source = (
            (g for g in all_graphs(n) if _connected(g)) if n <= 5 else _atlas_connected(n)
        )
        configs = all_configs(n)
        for g in source:
            graphs_seen += 1
            counts = np.bincount(successor_indices(g, 1), minlength=1 << n).tolist()
            for idx, y in enumerate(configs):
                w = find_predecessor_k1(g, y)
                ok = (w is not None) == (counts[idx] > 0)
                if w is not None:
                    ok = ok and is_predecessor(g, 1, w, y)
                checked += 1
                mismatches += not ok
    elapsed = time.perf_counter() - started
    # connected labeled graphs for n<=5 plus atlas classes for n=6,7
    assert graphs_seen == (1 + 1 + 4 + 38 + 728) + 112 + 853
    _report(
        "criterion-1 Pre(1) oracle equivalence",
        mismatches == 0,
        f"{checked} instances over {graphs_seen} connected graphs, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2

def _check_tree(g: Graph, configs) -> tuple[int, int]:
    checked = bad = 0
    t = root_tree(g, 0)
    n = g.n
    for k in (1, 2, 3, 4):
        counts = np.bincount(successor_indices(g, k), minlength=1 << n).tolist()
        for idx, y in enumerate(configs):
            w = find_predecessor_tree(t, k, y)
            c = count_predecessors_tree(t, k, y)
            ok = c == counts[idx] and (w is not None) == (counts[idx] > 0)
            checked += 1
            bad += not ok
    return checked, bad


def _pruefer_chunk_worker(task: tuple[int, int, int]) -> tuple[int, int]:
    n, lo, hi = task
    configs = all_configs(n)
    checked = bad = 0
    for code in range(lo, hi):
        digits = []
        x = code
        for _ in range(n - 2):
            digits.append(x % n)
            x //= n
        c1, b1 = _check_tree(tree_from_pruefer(digits), configs)
        checked += c1
        bad += b1
    return checked, bad


def _random_tree_worker(task: tuple[int, int, int]) -> tuple[int, int]:
    n, seed_lo, seed_hi = task
    checked = bad = 0
    for seed in range(seed_lo, seed_hi):
        g = random_tree(n, seed=seed)
        t = root_tree(g, 0)
        rng = np.random.default_rng(seed)
        targets = [index_config(int(i), n) for i in rng.integers(0, 1 << n, size=32)]
        targets.append(np.ones(n, dtype=np.int8))
        targets.append(-np.ones(n, dtype=np.int8))
        for k in (1, 2, 3, 4):
            counts = np.bincount(successor_indices(g, k), minlength=1 << n).tolist()
            for y in targets:
                w = find_predecessor_tree(t, k, y)
                c = count_predecessors_tree(t, k, y)
                ok = c == counts[config_index(y)] and (w is not None) == (c > 0)
                checked += 1
                bad += not ok
    return checked, bad


def test_criterion_2_tree_oracle_equivalence():
    started = time.perf_counter()
    checked = bad = 0
    # n <= 5 inline: every labeled tree, every configuration
    for n in range(1, 6):
        configs = all_configs(n)
        trees = (
            [Graph(1, [])] if n == 1 else [Graph(2, [(0, 1)])] if n == 2
            else [tree_from_pruefer(s) for s in itertools.product(range(n), repeat=n - 2)]
        )
        for g in trees:
            c1, b1 = _check_tree(g, configs)
            checked += c1
            bad += b1

    tasks = []
    for n in (6, 7):
        total = n ** (n - 2)
        chunk = 200
        tasks += [(n, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    rtasks = [(n, lo, lo + 50) for n in (8, 9) for lo in range(0, 500, 50)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        for c1, b1 in pool.imap_unordered(_pruefer_chunk_worker, tasks):
            checked += c1
            bad += b1
        for c1, b1 in pool.imap_unordered(_random_tree_worker, rtasks):
            checked += c1
            bad += b1
    elapsed = time.perf_counter() - started
    expected = (
        sum(4 * n ** max(n - 2, 0) * (1 << n) for n in range(1, 8))
        + 2 * 500 * 4 * 34
    )
    assert checked == expected, (checked, expected)
    _report(
        "criterion-2 tree decide+count oracle equivalence",
        bad == 0,
        f"{checked} instances (all labeled trees n<=7, 500 random n=8,9), "
        f"{bad} mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_deg3_oracle_equivalence():
    started = time.perf_counter()
    checked = bad = 0
    for i in range(2000):
        n = 4 + (i % 7)
        g = random_bounded_degree_graph(n, 3, seed=i, m=(i * 7) % (2 * n))
        counts = np.bincount(successor_indices(g, 2), minlength=1 << n)
        for j in range(4):
            y = random_config(n, seed=100_000 + 4 * i + j)
            w = find_predecessor_deg3(g, y)
            ok = (w is not None) == (counts[config_index(y)] > 0)
            if w is not None:
                ok = ok and is_predecessor(g, 2, w, y)
            checked += 1
            bad += not ok
    elapsed = time.perf_counter() - started
    _report(
        "criterion-3 max-degree-3 k=2 oracle equivalence",
        bad == 0,
        f"2000 graphs, {checked} targets, {bad} mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_single_clause_k3_instance():
    cnf = Cnf3(3, ((1, -2, -3),), ClauseSemantics.EXACTLY_TWO)
    inst = build_gadget(cnf, 3)
    ok = (inst.graph.n, inst.graph.m) == (41, 45)
    ok = ok and is_bipartite(inst.graph)[0]
    prior = predecessor_from_assignment(inst, [True, False, True])
    ok = ok and bool(np.array_equal(step(inst.graph, 3, prior), inst.target))
    _report(
        "criterion-4 single-clause k=3 instance reproduction",
        ok,
        f"n={inst.graph.n}, m={inst.graph.m}, bipartite, witness steps to target",
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_hub_spokes_family():
    ok = True
    details = []
    for p in (2, 3, 4):
        g = hub_spokes_tree(p)
        y = [1] * (3 * p + 1)
        brute = count_predecessors_bruteforce(g, 2, y)
        fast = count_predecessors_tree(root_tree(g, 0), 2, y)
        ok = ok and brute == fast == 2**p
        details.append(f"p={p}:{fast}")
    ok = ok and count_predecessors_tree(root_tree(hub_spokes_tree(3), 0), 2, [1] * 10) == 8
    for p in range(2, 11):
        c = count_predecessors_tree(root_tree(hub_spokes_tree(p), 0), 2, [1] * (3 * p + 1))
        ok = ok and c >= 2**p - p - 1
    for p in (16, 64, 128):
        c = count_predecessors_tree(root_tree(hub_spokes_tree(p), 0), 2, [1] * (3 * p + 1))
        ok = ok and c == 2**p
    _report(
        "criterion-5 hub-and-spokes counting family",
        ok,
        "oracle match p<=4 (" + " ".join(details) + "), bound p<=10, closed form to p=128",
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_visit_bound():
    started = time.perf_counter()
    worst = 0
    for i in range(100):
        n = 10_000
        g = random_tree(n, seed=5000 + i)
        t = root_tree(g, 0)
        k = 2 + (i % 3)
        y = random_config(n, seed=6000 + i)
        if i % 2:
            y = step(g, k, y)  # exercise the YES path too
        table = compute_forced_states(t, k, y)
        worst = max(worst, max(table.visits))
    elapsed = time.perf_counter() - started
    _report(
        "criterion-6 memoized visit bound",
        worst <= 4,
        f"100 random trees n=10^4, max visits per vertex = {worst}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_scaling_smoke():
    details = []
    ok = True

    n = 10**6
    g = random_tree(n, seed=77)
    t = root_tree(g, 0)
    y = step(g, 2, random_config(n, seed=78))
    t0 = time.perf_counter()
    w = find_predecessor_tree(t, 2, y)
    dt = time.perf_counter() - t0
    ok = ok and dt < 10 and w is not None
    details.append(f"tree n=10^6: {dt:.1f}s<10s")

    # A path is the deepest tree: rooting and deciding it must cost no more
    # than the random tree above.
    g = Graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
    y = step(g, 2, random_config(n, seed=85))
    t0 = time.perf_counter()
    w = find_predecessor_tree(root_tree(g, 0), 2, y)
    dt = time.perf_counter() - t0
    ok = ok and dt < 10 and w is not None
    details.append(f"path n=10^6: {dt:.1f}s<10s")

    g = random_tree(2000, seed=79)
    t = root_tree(g, 0)
    y = step(g, 2, random_config(2000, seed=80))
    t0 = time.perf_counter()
    count_predecessors_tree(t, 2, y)
    dt = time.perf_counter() - t0
    ok = ok and dt < 30
    details.append(f"count n=2000: {dt:.2f}s<30s")

    g = random_regular_graph(10**5, 3, seed=81)
    y = step(g, 2, random_config(10**5, seed=82))
    t0 = time.perf_counter()
    w = find_predecessor_deg3(g, y)
    dt = time.perf_counter() - t0
    ok = ok and dt < 5 and w is not None
    details.append(f"deg3 cubic n=10^5: {dt:.1f}s<5s")

    g = random_graph(10**6, 4 * 10**6, seed=83)
    y = step(g, 1, random_config(10**6, seed=84))
    t0 = time.perf_counter()
    w = find_predecessor_k1(g, y)
    dt = time.perf_counter() - t0
    ok = ok and dt < 10 and w is not None
    details.append(f"k1 n=10^6 m=4*10^6: {dt:.1f}s<10s")

    _report("criterion-7 scaling smoke", ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_reduction_soundness_small_scale():
    started = time.perf_counter()
    pool = [
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    formulas = [(c,) for c in pool]
    formulas += [tuple(p) for p in itertools.combinations_with_replacement(pool, 2)]
    assignments = list(itertools.product((False, True), repeat=3))
    sat_checked = unsat_checked = bad = 0
    for clauses in formulas:
        cnf = Cnf3(3, clauses, ClauseSemantics.EXACTLY_TWO)
        inst = build_gadget(cnf, 2)
        assert inst.graph.n <= 24  # fits the raised brute-force limit
        sat = [a for a in assignments if satisfies_semantics(cnf, a)]
        if sat:
            sat_checked += 1
            for a in sat:
                prior = predecessor_from_assignment(inst, a)
                if not np.array_equal(step(inst.graph, 2, prior), inst.target):
                    bad += 1
        else:
            unsat_checked += 1
            if count_predecessors_bruteforce(inst.graph, 2, inst.target, limit=24) != 0:
                bad += 1
    elapsed = time.perf_counter() - started
    assert sat_checked + unsat_checked == 44
    _report(
        "criterion-8 reduction completeness+soundness (N=3, M<=2, k=2)",
        bad == 0 and unsat_checked > 0,
        f"{sat_checked} satisfiable verified, {unsat_checked} unsatisfiable "
        f"gadgets with empty predecessor sets, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_symmetry_suite():
    started = time.perf_counter()
    bad = 0
    rng = np.random.default_rng(424242)

    for i in range(334):  # sign symmetry of the update rule
        n = 2 + (i % 30)
        g = random_graph(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), seed=9100 + i)
        y = random_config(n, seed=9200 + i)
        k = 1 + (i % 4)
        bad += not np.array_equal(step(g, k, -y), -step(g, k, y))

    for i in range(333):  # relabeling equivariance
        n = 2 + (i % 20)
        g = random_graph(n, int(rng.integers(0, n * (n - 1) // 2 + 1)), seed=9500 + i)
        y = random_config(n, seed=9600 + i)
        k = 1 + (i % 4)
        perm = rng.permutation(n).tolist()
        py = np.empty(n, dtype=np.int8)
        expected = np.empty(n, dtype=np.int8)
        sy = step(g, k, y)
        for v in range(n):
            py[perm[v]] = y[v]
            expected[perm[v]] = sy[v]
        bad += not np.array_equal(step(relabel(g, perm), k, py), expected)

    for i in range(333):  # counting is sign symmetric
        n = 2 + (i % 13)
        g = random_tree(n, seed=9800 + i)
        t = root_tree(g, 0)
        y = random_config(n, seed=9900 + i)
        k = 1 + (i % 4)
        bad += count_predecessors_tree(t, k, y) != count_predecessors_tree(t, k, -y)

    elapsed = time.perf_counter() - started
    _report(
        "criterion-9 symmetry suite",
        bad == 0,
        f"1000 instances (334 sign, 333 relabeling, 333 count), {bad} failures, {elapsed:.1f}s",
    )
