"""Parsing, serialization, and structural queries."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kreversible
from kreversible import graphs
from kreversible import (
    Graph,
    connected_components,
    format_config,
    is_bipartite,
    is_tree,
    max_degree,
    parse_config,
    parse_graph,
    root_tree,
    write_graph,
)
from kreversible.graphs import (
    _parse_config_canonical,
    _parse_config_tokens,
    _parse_graph_canonical,
    _parse_graph_lines,
)
from kreversible.generators import random_graph, random_tree, tree_from_pruefer
from helpers import (all_graphs, all_labeled_trees, built_views, cycle_graph, path_graph, relabel,
                     star_graph)


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert g.edges == [(0, 1), (1, 2)]


def test_parse_isolated_vertex():
    g = parse_graph("1 0\n")
    assert g.n == 1 and g.m == 0


def test_parse_comments_and_blanks():
    g = parse_graph("# a path\n\n3 2\n0 1\n\n# middle\n1 2\n")
    assert g.edges == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3 2\n0 1\n0 1\n", "duplicate edge"),
        ("3 2\n0 1\n2 2\n", "loop"),
        ("3 2\n0 1\n0 3\n", "out of range"),
        ("3 2\n0 1\n", "edge lines"),
        ("3 2\n0 1\n1 2\n0 2\n", "edge lines"),
        ("3\n", "header"),
        ("x y\n1 2\n", "integers"),
        ("", "empty"),
        ("2 1\n0 1 2\n", "edge line"),
        ("2 1\n99999999999999999999 1\n", "edge endpoint out of range"),
    ],
)
def test_parse_graph_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_graph(text)


def test_graph_roundtrip_bytes():
    g = parse_graph(b"4 2\n3 2\n0 1\n")
    assert parse_graph(write_graph(g)) == g


def test_parse_config_tokens():
    assert parse_config("+1 -1 +1", 3).tolist() == [1, -1, 1]
    assert parse_config("+ - +", 3).tolist() == [1, -1, 1]
    with pytest.raises(ValueError, match="expected 3"):
        parse_config("+1 -1", 3)
    with pytest.raises(ValueError, match="unknown state token"):
        parse_config("+1 0 -1", 3)


@pytest.mark.parametrize("y", [[0, 2, 1], [1, -2], np.array([255], dtype=np.uint8), [1.5]])
def test_format_config_refuses_non_states(y):
    # any value but -1 and +1 is refused, not printed as the sign it has
    with pytest.raises(ValueError, match="states must be -1 or \\+1"):
        format_config(y)


def test_config_roundtrip():
    y = parse_config("+ - - +", 4)
    assert format_config(y) == "+1 -1 -1 +1\n"
    assert np.array_equal(parse_config(format_config(y), 4), y)


def test_root_tree_path():
    t = root_tree(path_graph(3), 0)
    assert t.parent == [None, 0, 1]
    assert [t.children(v) for v in range(3)] == [[1], [2], []]


def test_root_tree_star():
    t = root_tree(star_graph(3), 0)
    assert t.children(0) == [1, 2, 3]
    assert all(t.parent[v] == 0 for v in (1, 2, 3))


@pytest.mark.parametrize("v", [-1, 3, 10**400])
def test_children_refuse_ids_outside_the_tree(v):
    # -1 is the root's parent in parent_array, so it must not read as an id
    t = root_tree(path_graph(3), 1)
    with pytest.raises(ValueError, match="not in the tree"):
        t.children(v)
    with pytest.raises(ValueError, match="not in the tree"):
        t.n_children(v)


@pytest.mark.parametrize("v", [-1, 4, 10**400])
def test_graph_accessors_refuse_ids_outside_the_graph(v):
    # -1 must not read as the last vertex, nor n as one past it
    g = path_graph(4)
    with pytest.raises(ValueError, match="not in the graph"):
        g.degree(v)
    with pytest.raises(ValueError, match="not in the graph"):
        g.neighbors(v)


def test_neighbors_is_a_copy():
    g = path_graph(3)
    g.neighbors(1).append(7)
    assert g.neighbors(1) == [0, 2] and g.adjacency()[1] == [0, 2]


def test_root_tree_rejects_non_trees():
    with pytest.raises(ValueError, match="not a tree"):
        root_tree(cycle_graph(3), 0)


def test_root_tree_rejects_disconnected():
    # m = n - 1 but vertex 3 is isolated
    with pytest.raises(ValueError, match="disconnected"):
        root_tree(Graph(4, [(0, 1), (1, 2), (0, 2)]), 0)


def test_structural_predicates():
    p3, c3 = path_graph(3), cycle_graph(3)
    assert is_tree(p3) and max_degree(p3) == 2
    assert is_bipartite(p3)[0]
    assert not is_tree(c3)
    assert not is_bipartite(c3)[0]
    assert connected_components(Graph(2, [])) == [[0], [1]]


def test_bipartite_witness_coloring():
    ok, colors = is_bipartite(cycle_graph(6))
    assert ok
    for u, v in cycle_graph(6).edges:
        assert colors[u] != colors[v]


def _bipartite_by_bfs(g):
    """Reference: BFS 2-coloring from each component's smallest vertex, at color 0."""
    adj = g.adjacency()
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = [s]
        for v in queue:
            for u in adj[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False, None
    return True, color


def test_bipartite_double_cover_matches_bfs():
    graphs_ = [g for n in range(6) for g in all_graphs(n)]
    graphs_ += [random_graph(n, m, seed) for seed in range(3) for n in (6, 7, 8)
                for m in range(0, n * (n - 1) // 2 + 1, 3)]
    graphs_ += [random_tree(200, seed) for seed in range(5)] + [Graph(7, [(5, 6), (1, 5)])]
    for g in graphs_:
        ok, colors = is_bipartite(g)
        want_ok, want_colors = _bipartite_by_bfs(g)
        assert ok == want_ok, g.edges
        if ok:
            assert colors.dtype == np.int8 and colors.tolist() == want_colors, g.edges
        else:
            assert colors is None


def test_rooted_tree_child_partition():
    for g in all_labeled_trees(6):
        t = root_tree(g, 0)
        seen = []
        for v in range(6):
            seen.extend(t.children(v))
        assert sorted(seen) == [v for v in range(6) if v != 0]
        assert all(t.children(v) == sorted(t.children(v)) for v in range(6))


# _bfs_from takes the list loop at or below graphs._SMALL_N vertices and
# scipy's compiled BFS above it; each cutoff forces one path on any graph.
_BFS_PATHS = {"list": sys.maxsize, "scipy": -1}


def _bfs_trees(n):
    rng = np.random.default_rng(n)
    yield path_graph(n)
    if n > 2:
        for _ in range(3):
            yield tree_from_pruefer(rng.integers(0, n, size=n - 2).tolist())


@pytest.mark.parametrize("n", [1, 2, graphs._SMALL_N, graphs._SMALL_N + 1, 2000])
def test_bfs_paths_root_trees_alike(monkeypatch, n):
    for g in _bfs_trees(n):
        for root in sorted({0, n // 2, n - 1}):
            rooted = {}
            for name, cutoff in _BFS_PATHS.items():
                monkeypatch.setattr(graphs, "_SMALL_N", cutoff)
                assert is_tree(g)
                rooted[name] = root_tree(g, root)
            a, b = rooted["list"], rooted["scipy"]
            assert a.parent == b.parent
            assert a.bfs_order == b.bfs_order
            assert a.child_slices() == b.child_slices()
            # children(v) reads parent_array, independently of cptr
            cptr, order = a.child_slices()
            assert all(order[cptr[r]:cptr[r + 1]] == a.children(order[r]) for r in range(n))
            assert [i for r in range(n) for i in range(cptr[r], cptr[r + 1])] == list(range(1, n))
            for t in (a, b):
                assert sorted(t.bfs_order) == list(range(n))
                pos = {v: i for i, v in enumerate(t.bfs_order)}
                assert pos[root] == 0
                assert all(pos[t.parent[v]] < pos[v] for v in range(n) if v != root)


@pytest.mark.parametrize("n", [1, 7, 600, 2049])  # both sides of tree_decide._CONTRACT_N
@pytest.mark.parametrize("bfs", _BFS_PATHS)
def test_list_views_match_the_arrays(monkeypatch, bfs, n):
    monkeypatch.setattr(graphs, "_SMALL_N", _BFS_PATHS[bfs])
    for g in _bfs_trees(n):
        root = n // 2
        t = root_tree(g, root)
        pa, order = t.parent_array, t.order_array
        assert pa.dtype == order.dtype == np.int64
        # the list BFS hands its three lists over; scipy's arrays get each
        # view on its first read
        views = ["parent", "bfs_order", "_cptr"]
        assert built_views(t) == (views if bfs == "list" else [])
        want = pa.tolist()
        want[root] = None
        assert t.parent == want
        assert built_views(t) == (views if bfs == "list" else ["parent"])
        cptr, bfs_order = t.child_slices()
        assert bfs_order == order.tolist() and bfs_order is t.bfs_order
        assert built_views(t) == views
        # rank r's children, in ascending id, are the run after rank r-1's
        runs = [order[pa[order] == v].tolist() for v in order.tolist()]
        assert all(run == sorted(run) for run in runs)
        assert [bfs_order[cptr[r]:cptr[r + 1]] for r in range(n)] == runs
        assert cptr[0] == 1 and cptr[-1] == n
        # a second read returns the cached object
        assert t.parent is t.parent and t.bfs_order is t.bfs_order
        assert t.child_slices()[0] is cptr
        with pytest.raises(AttributeError, match="no attribute 'cptr'"):
            t.cptr


@pytest.mark.parametrize("g", [
    cycle_graph(40),
    # m = n - 1: a triangle plus a path, so the graph is disconnected
    Graph(40, [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(3, 39)]),
    # m < n - 1: two paths
    Graph(40, [(i, i + 1) for i in range(19)] + [(i, i + 1) for i in range(20, 39)]),
], ids=["cycle", "disconnected-m=n-1", "forest"])
def test_bfs_paths_reject_non_trees_alike(monkeypatch, g):
    errors, verdicts, searches = {}, {}, {}
    for name, cutoff in _BFS_PATHS.items():
        monkeypatch.setattr(graphs, "_SMALL_N", cutoff)
        verdicts[name] = is_tree(g)
        with pytest.raises(ValueError, match="not a tree") as exc:
            root_tree(g, 0)
        errors[name] = str(exc.value)
        parent, order, _ = graphs._bfs_from(g, 0)  # lists on the list path, arrays on scipy's
        searches[name] = (np.asarray(parent).tolist(), sorted(np.asarray(order).tolist()))
    assert errors["list"] == errors["scipy"]
    assert verdicts == {"list": False, "scipy": False}
    assert searches["list"] == searches["scipy"]
    parent, reached = searches["list"]
    assert all(parent[v] == -1 for v in set(range(g.n)) - set(reached))


def test_small_tree_routes_never_import_scipy():
    # Tiny-instance callers (the oracle-equivalence sweeps) must not pay
    # scipy's import time and memory.
    code = (
        "import sys\n"
        "import kreversible as kr\n"
        "g = kr.Graph(7, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])\n"
        "assert kr.is_tree(g)\n"
        "t = kr.root_tree(g, 0)\n"
        "y = kr.step(g, 2, [1, -1, 1, -1, 1, -1, 1])\n"
        "assert kr.find_predecessor_tree(t, 2, y) is not None\n"
        "assert kr.count_predecessors_tree(t, 2, y) > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreversible.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@st.composite
def graph_and_perm(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    perm = draw(st.permutations(range(n)))
    return Graph(n, edges), list(perm)


@settings(max_examples=60, deadline=None)
@given(graph_and_perm())
def test_relabeling_preserves_structure(gp):
    g, perm = gp
    h = relabel(g, perm)
    assert h.m == g.m
    for v in range(g.n):
        assert sorted(perm[u] for u in g.neighbors(v)) == h.neighbors(perm[v])


@settings(max_examples=60, deadline=None)
@given(graph_and_perm())
def test_graph_write_parse_roundtrip(gp):
    g, _ = gp
    assert parse_graph(write_graph(g)) == g


def test_header_counts_must_fit_in_int64():
    with pytest.raises(ValueError, match="fit in int64"):
        parse_graph("99999999999999999999 0\n")
    with pytest.raises(ValueError, match="fit in int64"):
        Graph(2**63, [])


def test_edge_codes_must_fit_in_int64():
    # Above isqrt(2**63 - 1) vertices an edge code u*n+v can wrap around:
    # the edge (2**33 - 2, 2**33 - 1) at n = 2**33 would code to -8589934593.
    # The graph is refused before any array of n entries is allocated.
    limit = graphs._MAX_CODED_N
    assert limit**2 <= 2**63 - 1 < (limit + 1) ** 2
    for n, edge in [(2**33, (0, 1)), (2**33, (2**33 - 2, 2**33 - 1)), (limit + 1, (0, 1))]:
        with pytest.raises(ValueError, match=f"at most {limit}"):
            Graph(n, [edge])
        text = f"{n} 1\n{edge[0]} {edge[1]}\n"
        for parse in (parse_graph, _parse_graph_lines):
            with pytest.raises(ValueError, match=f"at most {limit}"):
                parse(text)


@pytest.mark.parametrize(
    "n,edges,fragment",
    [
        (3, [(0, 1.7)], "endpoints must be integers"),  # a cast to int64 read (0, 1)
        (3, np.array([[0.0, 1.0]]), "endpoints must be integers"),
        (3, [(0, float("nan"))], "endpoints must be integers"),
        (3, [(False, True)], "endpoints must be integers"),
        (3, [(0, None)], "endpoints must be integers"),
        (3, [("0", "1")], "endpoints must be integers"),
        (2, [(0, 2**63)], "out of range"),  # numpy makes this list float64
        (2, [(0, 2**64)], "out of range"),  # and this one object
        (2, np.array([[0, 2**63]], dtype=np.uint64), "out of range"),  # would wrap in int64
        (3.5, [], "vertex count must be an integer"),
        (True, [], "vertex count must be an integer"),
        ("3", [], "vertex count must be an integer"),
    ],
)
def test_graph_refuses_non_integer_input(n, edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        Graph(n, edges)


def test_graph_accepts_integer_like_input():
    g = Graph(np.int64(3), np.array([[1, 0]], dtype=np.uint8))
    assert type(g.n) is int and g.n == 3 and g.edges == [(0, 1)]
    assert Graph(3, []).m == 0  # numpy makes an empty list float64
    assert Graph(3, np.empty((0, 2))).m == 0


def _reference_graph(n, edges):
    """(sorted canonical edges, ascending neighbor lists) by plain Python,
    or the text of the ValueError Graph raises on the same edge list."""
    pairs = [(int(u), int(v)) for u, v in edges]
    if any(not 0 <= w < n for pair in pairs for w in pair):
        return "edge endpoint out of range"
    for u, v in pairs:  # the first loop in input order
        if u == v:
            return f"loop at vertex {u}"
    canon = sorted((min(p), max(p)) for p in pairs)
    for a, b in zip(canon, canon[1:]):  # the smallest duplicated pair
        if a == b:
            return f"duplicate edge {a[0]} {a[1]}"
    adj = [[] for _ in range(n)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    return canon, [sorted(nbrs) for nbrs in adj]


def _write_graph_lines(g):
    """write_graph's format, one f-string per edge."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


@st.composite
def edge_lists(draw):
    """(n, edges): a simple graph's edges in any order, either endpoint first,
    sometimes with up to two loops, repeated edges or endpoints >= n inserted."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    faults = draw(st.lists(st.sampled_from(["loop", "repeat", "reversed", "range"]), max_size=2))
    if draw(st.booleans()):
        faults = []
    for fault in faults:
        at = draw(st.integers(0, len(edges)))
        if fault == "loop" and n:
            w = draw(st.integers(0, n - 1))
            edges.insert(at, (w, w))
        elif fault in ("repeat", "reversed") and edges:
            u, v = edges[draw(st.integers(0, len(edges) - 1))]
            edges.insert(at, (u, v) if fault == "repeat" else (v, u))
        elif fault == "range":
            w = (draw(st.integers(0, n + 2)), draw(st.integers(n, n + 2)))
            edges.insert(at, w if draw(st.booleans()) else w[::-1])
    if draw(st.booleans()):
        return n, np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, edges


@settings(max_examples=300, deadline=None)
@given(edge_lists())
@example(case=(0, []))
@example(case=(3, []))
@example(case=(0, np.zeros((0, 2), dtype=np.int64)))
def test_graph_matches_python_reference(case):
    n, edges = case
    expected = _reference_graph(n, edges)
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        assert str(exc) == expected
        return
    canon, adj = expected
    assert (g.n, g.m) == (n, len(canon))
    assert g.edges == canon
    assert [g.neighbors(v) for v in range(n)] == adj
    assert g.adjacency() == adj
    assert g.degrees().tolist() == [len(nbrs) for nbrs in adj]
    assert write_graph(g) == _write_graph_lines(g)


@settings(max_examples=200, deadline=None)
@given(edge_lists())
@example(case=(0, []))
@example(case=(3, []))
def test_csr_matches_python_reference(case):
    # the CSR is built on first use; it lists each vertex's ascending neighbours
    n, edges = case
    expected = _reference_graph(n, edges)
    if isinstance(expected, str):
        return
    _, adj = expected
    indptr, indices = Graph(n, edges)._csr()
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.tolist() == np.cumsum([0] + [len(nbrs) for nbrs in adj]).tolist()
    assert indices.tolist() == [u for nbrs in adj for u in nbrs]


# Ids on both sides of every digit boundary up to 7 digits.
_BOUNDARY_IDS = sorted({0} | {x for p in range(1, 7) for x in (10**p - 1, 10**p)})


@pytest.mark.parametrize("cutoff", [-1, 10**9])  # the numpy pass, the `%` format
@pytest.mark.parametrize(
    "g",
    [
        Graph(0),
        Graph(1),
        Graph(2),
        Graph(2, [(0, 1)]),
        Graph(10**6 + 1),
        Graph(10**6 + 1, list(zip(_BOUNDARY_IDS, _BOUNDARY_IDS[1:]))),
        Graph(10**6 + 1, [(x, 10**6) for x in _BOUNDARY_IDS[:-1]] + [(0, x) for x in _BOUNDARY_IDS[1:-1]]),
    ],
    ids=repr,
)
def test_write_graph_paths_agree_at_digit_boundaries(monkeypatch, cutoff, g):
    monkeypatch.setattr(graphs, "_MATRIX_WRITE_M", cutoff)
    text = write_graph(g)
    assert text == _write_graph_lines(g)
    assert parse_graph(text) == g


def test_decimal_bytes_reaches_ten_digits():
    # A Graph with ids this large would need a ~24 GB indptr, so the digit
    # helper is called on its own.
    vals = [0, 1, 9] + [x for p in range(1, 10) for x in (10**p - 1, 10**p)]
    vals += [graphs._MAX_CODED_N - 1, 2**32 - 1]
    v = np.array(vals, dtype=np.uint32)
    out = graphs._decimal_bytes(v, np.uint8(10))
    assert out.tobytes().decode("ascii") == "".join(f"{x}\n" for x in vals)
    pairs = v[:-1].reshape(-1, 2)
    out = graphs._decimal_bytes(pairs, (ord(" "), ord("\n")))
    assert out.tobytes().decode("ascii") == "".join(f"{a} {b}\n" for a, b in pairs.tolist())
    assert graphs._decimal_bytes(np.empty(0, dtype=np.uint32), np.uint8(10)).size == 0


@pytest.mark.parametrize("text", [
    "1 0", "1 0\n", "\n5 0", "3 1\n0 2", b"3 1\n\n0 2\n\n",
    "3 2\n0\t1\n1 \t 2\n",  # tabs
    "3   2\n  0  1\n1    2   \n",  # runs of spaces
    "\n\n3 2\n\n0 1\n\n\n1 2\n\n",  # blank lines
])
def test_short_canonical_files_take_the_fast_path(text):
    assert _parse_graph_canonical(text) == _parse_graph_lines(text)


@pytest.mark.parametrize("text", [
    "3\n2\n0 1\n1 2\n",  # a 1-token header
    "3 2\n0\n1 1 2\n",  # a 1-token line, then a 3-token one
    "3 2 0\n1 1 2\n",  # 3 tokens a line
    "3 1\n0 1 2\n",  # a 3-token edge line, odd token count
])
def test_canonical_fast_path_declines_odd_lines(text):
    assert _parse_graph_canonical(text) is None
    with pytest.raises(ValueError):
        _parse_graph_lines(text)


def _outcome(parse, *args):
    """A parser's result, or the message of the ValueError it raised."""
    try:
        return parse(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


# Stray characters: str.splitlines line breaks the fast path must not accept,
# a non-ASCII digit, and a byte just past '9'.
_STRAY = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u0663", ":", "\r"]


@st.composite
def graph_texts(draw):
    """(canonical, text): a canonical graph file with up to two edits.

    The edits "blank" and "no_tail" keep the canonical shape; every other
    edit reaches a corner of the grammar that only the line parser reads.
    """
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs and draw(st.booleans()):
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    else:  # loops, duplicates and out-of-range endpoints
        edges = draw(st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=6))
    rows = [[str(n), str(len(edges))]] + [[str(u), str(v)] for u, v in edges]
    eol, tail, stray = "\n", "\n", None
    edits = draw(st.lists(st.sampled_from([
        "blank", "comment", "crlf", "plus", "zeros", "d19", "d20", "bad", "drop_line", "add_line",
        "one_token", "three_tokens", "merge", "reflow", "stray", "no_tail",
    ]), max_size=2))
    canonical = all(e in ("blank", "no_tail") for e in edits)
    for edit in edits:  # rows: token lists, and str for blank and comment lines
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, 1))
        data = isinstance(rows[r], list)
        if edit == "blank":
            rows.insert(r, draw(st.sampled_from(["", " ", "\t "])))
        elif edit == "comment":
            rows.insert(r, draw(st.sampled_from(["# note", " #0 1", "#"])))
        elif edit == "crlf":
            eol = tail = draw(st.sampled_from(["\r\n", "\r"]))
        elif edit == "no_tail":
            tail = ""
        elif edit in ("plus", "zeros", "d19", "d20", "bad") and data and len(rows[r]) > c:
            tok = rows[r][c]
            if edit == "plus":
                tok = "+" + tok
            elif edit == "zeros":
                tok = "0" * draw(st.integers(1, 20)) + tok
            elif edit == "d19":  # 10**18 fits in int64, so it is never the vertex count
                big = ["9" * 19, "0" * 18 + tok[-1]]
                first = c == 0 and not any(isinstance(row, list) for row in rows[:r])
                tok = draw(st.sampled_from(big if first else big + ["1" + "0" * 18]))
            elif edit == "d20":
                tok = draw(st.sampled_from(["9" * 20, "1" + "0" * 19, "0" * 19 + tok[-1]]))
            else:
                tok = draw(st.sampled_from(["x", "-1", "1.0", "\u0663", "1:2"]))
            rows[r][c] = tok
        elif edit == "drop_line" and len(rows) > 1:
            del rows[draw(st.integers(1, len(rows) - 1))]
        elif edit == "add_line":
            rows.append(["0", "1"])
        elif edit == "one_token" and data:
            rows[r] = rows[r][:1]
        elif edit == "three_tokens" and data:
            rows[r] = rows[r] + ["0"]
        elif edit == "merge" and data and r + 1 < len(rows) and isinstance(rows[r + 1], list):
            rows[r:r + 2] = [rows[r] + rows[r + 1]]
        elif edit == "reflow":  # same tokens, lines of 1 to 3 tokens
            flat = [t for row in rows if isinstance(row, list) for t in row]
            rows = []
            while flat:
                k = draw(st.integers(1, 3))
                rows.append(flat[:k])
                flat = flat[k:]
        elif edit == "stray":
            stray = draw(st.sampled_from(_STRAY))
    sep = st.sampled_from([" ", "\t", "  ", " \t"])
    lines = []
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
            continue
        line = draw(sep).join(row)
        if draw(st.integers(0, 3)) == 3:
            line = draw(sep) + line + draw(sep)
        lines.append(line)
    text = eol.join(lines) + tail
    if stray is not None:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + stray + text[at:]
    if draw(st.booleans()):
        return canonical, text.encode("utf-8")
    return canonical, text


@settings(max_examples=300, deadline=None)
@given(graph_texts())
@example(case=(False, "99999999999999999999 0\n"))  # np.fromstring would clamp it
@example(case=(False, "3\n1\n0\n1\n"))  # one token per line
@example(case=(False, "3 1 0 1\n"))  # two pairs on one line
@example(case=(False, "3 1\n0 1\n1 2\n"))  # one line too many
@example(case=(False, "3 1\n0 1:\n"))  # ':' follows '9'
@example(case=(False, "3 1\n0\x0b1\n"))  # a line break to str.splitlines
def test_graph_fast_path_agrees_with_line_parser(case):
    canonical, text = case
    expected = _outcome(_parse_graph_lines, text)
    if canonical:
        assert _same(_outcome(_parse_graph_canonical, text), expected)
    assert _same(_outcome(parse_graph, text), expected)


def _chunks(text, workers):
    """The chunks parse_graph cuts text into on ``workers`` CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_WORKERS", workers)
        cuts = graphs._line_cuts(text)
    return [text[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


@settings(max_examples=300, deadline=None)
@given(graph_texts(), st.sampled_from([1, 2, 3]))
@example(case=(True, "3 2\n0 1\n1 2\n"), workers=2)
@example(case=(True, "4 3\n2 3\n0 1\n1 2\n"), workers=3)  # runs out of order: a merge
def test_chunked_parse_agrees_with_line_parser(case, workers):
    _, text = case
    expected = _outcome(_parse_graph_lines, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_WORKERS", workers)
        mp.setattr(graphs, "_THREAD_BYTES", 0)
        assert _same(_outcome(parse_graph, text), expected)


_PAD = "\n" * 24  # blank lines that push the next line past a cut


@pytest.mark.parametrize("text, workers, cut", [
    # blank lines on both sides of the cut
    ("3 2\n0 1\n" + _PAD + "1 2\n", 2, lambda c: c[1].startswith("\n")),
    # a last chunk of blanks, spaces and tabs only
    ("3 2\n0 1\n1 2\n" + " \t\n" * 12, 2, lambda c: not c[-1].split()),
    # 18 and 19 digits (with leading zeros) on the line after a cut
    ("3 2\n0 1\n" + _PAD + "000000000000000001 2\n", 2, lambda c: c[1].split()[0] == "0" * 17 + "1"),
    ("3 2\n0 1\n" + _PAD + "0000000000000000001 2\n", 2, lambda c: len(c[1].split()[0]) == 19),
    ("3 2\n0 1\n" + _PAD + "1 2 \n", 2, lambda c: c[1].endswith(" \n")),
    # tabs, and a file that does not end with a newline
    ("3 2\n0\t1\n" + _PAD + "1\t\t2", 2, lambda c: c[1].endswith("2")),
    # a duplicate edge split across chunks, and one within a chunk
    ("3 2\n0 1\n" + _PAD + "1 0\n", 2, lambda c: "1 0" in c[1]),
    ("3 3\n0 1\n" + _PAD + "1 2\n2 1\n", 2, lambda c: "1 2\n2 1" in c[1]),
    # a loop in chunk 2
    ("4 3\n0 1\n" + _PAD + "1 2\n" + _PAD + "3 3\n", 3, lambda c: "3 3" in c[2]),
    # out of range, and one edge line too many or too few, in the last chunk
    ("3 2\n0 1\n" + _PAD + "1 3\n", 2, lambda c: "1 3" in c[1]),
    ("3 1\n0 1\n" + _PAD + "1 2\n", 2, lambda c: "1 2" in c[1]),
    ("3 3\n0 1\n" + _PAD + "1 2\n", 2, lambda c: "1 2" in c[1]),
    # a header split from its line, and a stray byte after a cut
    ("3\n2\n" + _PAD + "0 1\n1 2\n", 2, lambda c: "0 1" in c[1]),
    ("3 2\n0 1\n" + _PAD + "1 2\r\n", 2, lambda c: "\r" in c[1]),
    # the runs' ranges do not ascend, so a merge orders them
    ("5 3\n3 4\n" + _PAD + "0 1\n" + _PAD + "1 2\n", 3, lambda c: "0 1" in c[1]),
])
def test_chunk_cuts_agree_with_line_parser(text, workers, cut):
    chunks = _chunks(text, workers)
    assert len(chunks) == workers and "".join(chunks) == text and cut(chunks)
    expected = _outcome(_parse_graph_lines, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_WORKERS", workers)
        mp.setattr(graphs, "_THREAD_BYTES", 0)
        for t in (text, text.encode()):
            assert _same(_outcome(parse_graph, t), expected)
            # the chunks decide every canonical valid file themselves
            a = graphs._ascii_bytes(t)
            chunked = graphs._parse_graph_chunks(t, a)
            valid = isinstance(expected, Graph) and graphs._canonical_token_count(a) is not None
            assert chunked == (expected if valid else None)


def test_chunks_read_large_files(monkeypatch):
    # gen's layout as str and bytes, and its edges reversed, which the runs'
    # merge puts back in order; up to 8 threads switching every microsecond
    g = random_graph(3000, 12_000, 4)
    text = write_graph(g)
    body = text.splitlines(keepends=True)
    monkeypatch.setattr(graphs, "_THREAD_BYTES", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in (text, text.encode(), body[0] + "".join(body[:0:-1])):
            for workers in (2, 3, 8):
                monkeypatch.setattr(graphs, "_WORKERS", workers)
                assert graphs._parse_graph_chunks(t, graphs._ascii_bytes(t)) == g
                assert parse_graph(t) == g
                assert write_graph(g) == text
    finally:
        sys.setswitchinterval(interval)


def test_one_cpu_runs_the_one_chunk_path(monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    def no_chunks(*args):
        raise AssertionError("the file was cut into chunks")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(graphs, "_parse_graph_chunks", no_chunks)
    monkeypatch.setattr(graphs, "_WORKERS", 1)
    monkeypatch.setattr(graphs, "_THREAD_BYTES", 0)
    g = random_graph(500, 2000, 2)
    text = write_graph(g)
    assert text == _write_graph_lines(g)
    assert parse_graph(text) == g


def test_chunked_reads_and_writes_leave_no_thread(monkeypatch):
    monkeypatch.setattr(graphs, "_WORKERS", 3)
    monkeypatch.setattr(graphs, "_THREAD_BYTES", 0)
    before = threading.active_count()
    g = random_graph(500, 2000, 3)
    assert parse_graph(write_graph(g)) == g
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("shift", [-1, 0, 1])  # m just below, at and above the cutoff
def test_chunked_write_matches_one_chunk(monkeypatch, workers, shift):
    g = random_graph(1000, 600 + shift, 5)  # ids of 3 digits: 8 bytes a row
    monkeypatch.setattr(graphs, "_THREAD_BYTES", 8 * 600)
    monkeypatch.setattr(graphs, "_WORKERS", 1)
    one = write_graph(g)
    monkeypatch.setattr(graphs, "_WORKERS", workers)
    calls = []
    on_threads = graphs._on_threads
    monkeypatch.setattr(graphs, "_on_threads", lambda fn, jobs: calls.append(len(jobs)) or on_threads(fn, jobs))
    assert write_graph(g) == one == _write_graph_lines(g)
    assert calls == [workers if shift > 0 else 1]


@st.composite
def config_texts(draw):
    """(n, canonical, text): a ``+1 -1 ...`` file, with up to two edits."""
    n = draw(st.integers(0, 12))
    toks = draw(st.lists(st.sampled_from(["+1", "-1"]), min_size=n, max_size=n))
    seps = [draw(st.sampled_from([" ", "\n"])) for _ in toks]
    lead = ""
    edits = draw(st.lists(st.sampled_from(
        ["no_tail", "sep", "token", "drop", "add", "lead"]), max_size=2))
    canonical = all(e == "no_tail" for e in edits)
    for edit in edits:
        i = draw(st.integers(0, max(len(toks) - 1, 0)))
        if edit == "no_tail" and seps:
            seps[-1] = ""
        elif edit == "sep" and seps:
            seps[i] = draw(st.sampled_from(["\t", "  ", "\r\n", "", "x", "1", "\x0b", "\x85"]))
        elif edit == "token" and toks:
            toks[i] = draw(st.sampled_from(["+", "-", "0", "1", "x", "+0", "-x", "++", "1+", "\u0663"]))
        elif edit == "drop" and toks:
            del toks[i], seps[i]
        elif edit == "add":
            toks.insert(i, draw(st.sampled_from(["+1", "-1"])))
            seps.insert(i, " ")
        elif edit == "lead":
            lead = draw(st.sampled_from([" ", "\n", "\t"]))
    text = lead + "".join(t + s for t, s in zip(toks, seps))
    if draw(st.booleans()):
        return n, canonical, text.encode("utf-8")
    return n, canonical, text


@settings(max_examples=300, deadline=None)
@given(config_texts())
@example(case=(2, False, "+0 -1\n"))
@example(case=(2, False, "01 -1\n"))
@example(case=(2, False, "+1x-1\n"))
@example(case=(2, False, "+1 -1 +1\n"))
def test_config_fast_path_agrees_with_token_parser(case):
    n, canonical, text = case
    expected = _outcome(_parse_config_tokens, text, n)
    if canonical:
        assert _same(_parse_config_canonical(text, n), expected)
    assert _same(_outcome(parse_config, text, n), expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1, 1]), max_size=40))
def test_format_config_roundtrip(states):
    y = np.array(states, dtype=np.int8)
    text = format_config(y)
    assert text == " ".join("+1" if s > 0 else "-1" for s in states) + "\n"
    if states:
        assert np.array_equal(_parse_config_canonical(text, len(states)), y)
    assert _same(parse_config(text, len(states)), y)
