"""Command-line interface: routing, formats, exit codes, file round trips."""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kreversible import (
    Graph,
    count_predecessors_tree,
    format_config,
    parse_config,
    parse_graph,
    root_tree,
    step,
    write_graph,
)
import kreversible
from kreversible import graphs
from kreversible.cli import _DECIMAL_BITS, _decimal, choose_method, main
from kreversible.generators import random_config, random_regular_graph, random_tree
from helpers import complete_graph, cycle_graph, path_graph

P3 = "3 2\n0 1\n1 2\n"
GOE = "+1 -1 +1\n"
ALL_PLUS3 = "+1 +1 +1\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_choose_method_auto_routing():
    p3 = path_graph(3)
    assert choose_method(p3, 1, "auto") == "pre1"
    assert choose_method(p3, 3, "auto") == "tree"
    assert choose_method(cycle_graph(5), 2, "auto") == "twosat"
    # max degree 2 < k=3: no vertex can flip, at any size
    assert choose_method(cycle_graph(5), 3, "auto") == "fixed"
    assert choose_method(complete_graph(5), 3, "auto") == "oracle"
    big = cycle_graph(30)
    assert choose_method(big, 2, "auto") == "twosat"
    assert choose_method(big, 3, "auto") == "fixed"
    with pytest.raises(ValueError, match="NP-complete"):
        choose_method(random_regular_graph(30, 3, 1), 3, "auto")


def test_choose_method_validates_explicit_requests():
    with pytest.raises(ValueError, match="tree"):
        choose_method(cycle_graph(4), 2, "tree")
    with pytest.raises(ValueError, match="k=1"):
        choose_method(path_graph(3), 2, "pre1")
    with pytest.raises(ValueError, match="k=2"):
        choose_method(cycle_graph(4), 3, "twosat")
    with pytest.raises(ValueError, match="oracle"):
        choose_method(cycle_graph(25), 4, "oracle")
    with pytest.raises(ValueError, match="max degree"):
        choose_method(cycle_graph(4), 2, "fixed")


def test_step_command(tmp_path, capsys):
    rc = main([
        "step", "--graph", write(tmp_path, "g", P3),
        "--config", write(tmp_path, "y", GOE), "--k", "2",
    ])
    assert rc == 0
    assert capsys.readouterr().out == "+1 +1 +1\n"


def test_step_command_multiple_steps(tmp_path, capsys):
    rc = main([
        "step", "--graph", write(tmp_path, "g", "4 4\n0 1\n1 2\n2 3\n0 3\n"),
        "--config", write(tmp_path, "y", "+1 -1 +1 -1\n"), "--k", "1", "--steps", "2",
    ])
    assert rc == 0
    assert capsys.readouterr().out == "+1 -1 +1 -1\n"
    # the period-2 orbit is detected, so an astronomic step count returns at once
    for steps, out in (("1000000000000", "+1 -1 +1 -1\n"), ("1000000000001", "-1 +1 -1 +1\n")):
        rc = main([
            "step", "--graph", str(tmp_path / "g"), "--config", str(tmp_path / "y"),
            "--k", "1", "--steps", steps,
        ])
        assert rc == 0
        assert capsys.readouterr().out == out


def test_verify_command(tmp_path, capsys):
    g = write(tmp_path, "g", P3)
    assert main(["verify", "--graph", g, "--config", write(tmp_path, "t", ALL_PLUS3),
                 "--candidate", write(tmp_path, "c", GOE), "--k", "2"]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert main(["verify", "--graph", g, "--config", write(tmp_path, "t2", GOE),
                 "--candidate", write(tmp_path, "c2", ALL_PLUS3), "--k", "2"]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_pre_no_on_garden_of_eden(tmp_path, capsys):
    rc = main(["pre", "--graph", write(tmp_path, "g", P3),
               "--config", write(tmp_path, "y", GOE), "--k", "2"])
    assert rc == 1
    assert capsys.readouterr().out == "NO\n"


def test_pre_yes_witness_feeds_verify(tmp_path, capsys):
    g = write(tmp_path, "g", P3)
    y = write(tmp_path, "y", ALL_PLUS3)
    for method in ("auto", "tree", "twosat", "oracle"):
        rc = main(["pre", "--graph", g, "--config", y, "--k", "2", "--method", method])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0 and out[0] == "YES"
        cand = write(tmp_path, f"w_{method}", out[1] + "\n")
        assert main(["verify", "--graph", g, "--config", y,
                     "--candidate", cand, "--k", "2"]) == 0
        capsys.readouterr()


def test_pre_methods_agree_on_overlap(tmp_path, capsys):
    # k=1 on a path: pre1, tree, and oracle must all apply and agree
    g = write(tmp_path, "g", "4 3\n0 1\n1 2\n2 3\n")
    y = write(tmp_path, "y", "+1 +1 -1 -1\n")
    codes = set()
    for method in ("pre1", "tree", "oracle"):
        codes.add(main(["pre", "--graph", g, "--config", y, "--k", "1", "--method", method]))
        capsys.readouterr()
    assert codes == {1}


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # main keeps one parser per process; back-to-back calls with different
    # subcommands, after a usage error, answer as a fresh parser does
    from kreversible import cli

    g, y, goe = write(tmp_path, "g", P3), write(tmp_path, "y", ALL_PLUS3), write(tmp_path, "e", GOE)
    requests = [
        ["pre", "--graph", g, "--config", y, "--k", "2"],
        ["count", "--graph", g, "--config", goe, "--k", "2", "--method", "oracle"],
        ["step", "--graph", g, "--config", goe, "--k", "1", "--steps", "3"],
        ["verify", "--graph", g, "--config", y, "--k", "2", "--candidate", goe],
        ["gen", "tree", "--n", "6", "--seed", "4"],
        ["pre", "--graph", g, "--config", goe, "--k", "1"],
    ]

    def run(argv):
        rc = main(argv)
        return rc, capsys.readouterr()

    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["pre", "--graph", g, "--config", y, "--k", "two"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    parser = cli._build_parser()
    assert [run(argv) for argv in requests] == fresh
    assert cli._build_parser() is parser


def test_pre_invalid_method_is_usage_error(tmp_path, capsys):
    rc = main(["pre", "--graph", write(tmp_path, "g", "3 3\n0 1\n1 2\n0 2\n"),
               "--config", write(tmp_path, "y", ALL_PLUS3), "--k", "2", "--method", "tree"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_count_command(tmp_path, capsys):
    g = write(tmp_path, "g", P3)
    assert main(["count", "--graph", g, "--config", write(tmp_path, "y1", ALL_PLUS3),
                 "--k", "2"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["count", "--graph", g, "--config", write(tmp_path, "y2", GOE),
                 "--k", "2"]) == 1
    assert capsys.readouterr().out == "0\n"


def test_count_hub_spokes_example(tmp_path, capsys):
    from kreversible.generators import hub_spokes_tree
    from kreversible import write_graph

    g = write(tmp_path, "g", write_graph(hub_spokes_tree(3)))
    y = write(tmp_path, "y", " ".join(["+1"] * 10) + "\n")
    for method in ("tree", "oracle", "auto"):
        rc = main(["count", "--graph", g, "--config", y, "--k", "2", "--method", method])
        assert rc == 0
        assert capsys.readouterr().out == "8\n"


def test_count_routes_with_one_tree_check(tmp_path, capsys, monkeypatch):
    # routing roots the tree once: one BFS per tree request, none off the tree route
    from kreversible import graphs

    calls = []
    bfs = graphs._bfs_from

    def counting_bfs(g, root):
        calls.append(g.n)
        return bfs(g, root)

    monkeypatch.setattr(graphs, "_bfs_from", counting_bfs)
    g = write(tmp_path, "g", P3)
    y = write(tmp_path, "y", ALL_PLUS3)
    for command, out in (("pre", "YES"), ("count", "2")):
        for method in ("auto", "tree"):
            calls.clear()
            rc = main([command, "--graph", g, "--config", y, "--k", "2", "--method", method])
            assert rc == 0 and capsys.readouterr().out.splitlines()[0] == out
            assert len(calls) == 1, (command, method)
    calls.clear()
    assert main(["pre", "--graph", g, "--config", y, "--k", "1"]) == 0
    c4 = write(tmp_path, "c4", "4 4\n0 1\n1 2\n2 3\n0 3\n")
    y4 = write(tmp_path, "y4", "+1 +1 +1 +1\n")
    assert main(["pre", "--graph", c4, "--config", y4, "--k", "2", "--method", "twosat"]) == 0
    assert main(["pre", "--graph", c4, "--config", y4, "--k", "2"]) == 0
    capsys.readouterr()
    assert calls == []
    tri = write(tmp_path, "t", "3 3\n0 1\n1 2\n0 2\n")
    assert main(["count", "--graph", tri, "--config", y, "--k", "2", "--method", "tree"]) == 2
    assert "method tree requires a tree graph" in capsys.readouterr().err
    assert main(["count", "--graph", tri, "--config", y, "--k", "2", "--oracle-limit", "2"]) == 2
    assert "counting is available" in capsys.readouterr().err


def test_csr_is_built_only_for_compiled_consumers(tmp_path, capsys, monkeypatch):
    # k=1 requests, step and gen graph never read the CSR, even above every
    # size cutoff; scipy's BFS (a tree above graphs._SMALL_N) and the array
    # 2SAT builder (above deg3._TARJAN_N) build it once
    builds = []
    csr = Graph._csr

    def counting_csr(g):
        if g._indptr is None:
            builds.append(g.n)
        return csr(g)

    monkeypatch.setattr(Graph, "_csr", counting_csr)
    gpath = str(tmp_path / "g")
    assert main(["gen", "graph", "--n", "3000", "--m", "6000", "--seed", "1", "--out", gpath]) == 0
    y = write(tmp_path, "y", format_config(random_config(3000, 2)))
    assert main(["pre", "--graph", gpath, "--config", y, "--k", "1"]) in (0, 1)
    assert main(["step", "--graph", gpath, "--config", y, "--k", "1", "--steps", "20"]) == 0
    assert builds == []
    tree = write(tmp_path, "t", write_graph(random_tree(600, 3)))
    y = write(tmp_path, "yt", format_config(random_config(600, 4)))
    assert main(["pre", "--graph", tree, "--config", y, "--k", "2"]) in (0, 1)
    assert builds == [600]
    cubic = write(tmp_path, "c", write_graph(random_regular_graph(100, 3, 5)))
    y = write(tmp_path, "yc", format_config(random_config(100, 6)))
    assert main(["pre", "--graph", cubic, "--config", y, "--k", "2"]) in (0, 1)
    assert builds == [600, 100]
    capsys.readouterr()


def test_forest_above_max_degree_is_its_own_predecessor(tmp_path, capsys):
    # two disjoint 20-vertex paths at k=3: not a tree, but no vertex can flip
    forest = Graph(40, [(i, i + 1) for i in range(39) if i != 19])
    y = format_config(random_config(40, 5))
    argv = ["--graph", write(tmp_path, "g", write_graph(forest)),
            "--config", write(tmp_path, "y", y), "--k", "3"]
    assert main(["pre", *argv]) == 0
    assert capsys.readouterr().out == "YES\n" + y
    assert main(["count", *argv]) == 0
    assert capsys.readouterr().out == "1\n"


def test_count_prints_past_the_int_to_str_limit(tmp_path, capsys):
    g = path_graph(4000)
    y = np.ones(g.n, dtype=np.int8)
    expected = count_predecessors_tree(root_tree(g, 0), 2, y)
    argv = ["count", "--graph", write(tmp_path, "g", write_graph(g)),
            "--config", write(tmp_path, "y", format_config(y)), "--k", "2"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert expected > 10 ** 640
        rc = main(argv)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == 0
    assert capsys.readouterr().out == f"{expected}\n"


def test_count_printer_splits_large_ints_exactly():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rng = random.Random(8)
        for bits in (1, 64, _DECIMAL_BITS, _DECIMAL_BITS + 1, 2 * _DECIMAL_BITS, 2 * _DECIMAL_BITS + 1, 50_001):
            for x in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
                assert str(_decimal(x)) == str(x)
        assert str(_decimal(0)) == "0"
    finally:
        sys.set_int_max_str_digits(limit)


def test_tiny_request_starts_no_thread(tmp_path):
    # A fresh interpreter answering a tiny `pre` reads and writes in one
    # chunk: no thread, and no concurrent.futures import.
    code = (
        "import sys, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: started.append(self) or start(self)\n"
        "from kreversible.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, len(started), threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    argv = ["pre", "--graph", write(tmp_path, "g", P3), "--config", write(tmp_path, "y", ALL_PLUS3), "--k", "1"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreversible.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["YES", ALL_PLUS3.strip(), "0 0 1 False"]


def test_out_of_memory_in_a_reader_thread_is_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "_WORKERS", 2)
    monkeypatch.setattr(graphs, "_THREAD_BYTES", 0)
    chunk_codes = graphs._chunk_codes

    def helper_fails(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 12.0 MiB for an array")
        return chunk_codes(*args)

    monkeypatch.setattr(graphs, "_chunk_codes", helper_fails)
    before = threading.active_count()
    rc = main(["pre", "--graph", write(tmp_path, "g", P3), "--config", write(tmp_path, "y", GOE), "--k", "1"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 12.0 MiB for an array\n"
    assert threading.active_count() == before


def test_oversized_inputs_are_exit_2(tmp_path, capsys, monkeypatch):
    y = write(tmp_path, "y", "+1 +1\n")
    rc = main(["pre", "--graph", write(tmp_path, "g", "2 1\n99999999999999999999 1\n"),
               "--config", y, "--k", "1"])
    assert rc == 2
    assert "edge endpoint out of range" in capsys.readouterr().err

    def out_of_memory(self, n, edges=()):
        raise MemoryError(f"Unable to allocate the CSR arrays of {n} vertices")

    # Stands in for the allocation a 5·10^9-vertex header asks for.
    monkeypatch.setattr(Graph, "__init__", out_of_memory)
    rc = main(["pre", "--graph", write(tmp_path, "h", "5000000000 0\n"),
               "--config", y, "--k", "1"])
    assert rc == 2
    assert "out of memory" in capsys.readouterr().err


def test_vertex_count_past_edge_code_range_is_exit_2(tmp_path, capsys):
    # 2**33 vertices with an edge: u*n+v could wrap in int64, so the graph
    # is refused before its 2**33-entry CSR row pointer is allocated.
    rc = main(["pre", "--graph", write(tmp_path, "g", f"{2**33} 1\n0 1\n"),
               "--config", write(tmp_path, "y", "+1 +1\n"), "--k", "1"])
    assert rc == 2
    assert "vertex count must be at most 3037000499" in capsys.readouterr().err


def test_reduce_witness_verify_pipeline(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 -2 -3 0\n")
    prefix = str(tmp_path / "fig1")
    assert main(["reduce", "--cnf", cnf, "--k", "3", "--out-prefix", prefix]) == 0
    g = parse_graph((tmp_path / "fig1.graph").read_text())
    assert (g.n, g.m) == (41, 45)
    target = parse_config((tmp_path / "fig1.config").read_text(), 41)
    map_lines = (tmp_path / "fig1.map").read_text().strip().splitlines()
    assert len(map_lines) == 41 and map_lines[0] == "v 0 LITERAL_POS 1"

    assignment = write(tmp_path, "a.txt", "1 0 1\n")
    assert main(["witness", "--cnf", cnf, "--k", "3", "--assignment", assignment]) == 0
    prior = parse_config(capsys.readouterr().out, 41)
    assert np.array_equal(step(g, 3, prior), target)


def test_reduce_exactly_one_input_is_inverted(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n-1 2 3 0\n")
    prefix = str(tmp_path / "inv")
    assert main(["reduce", "--cnf", cnf, "--k", "2", "--out-prefix", prefix,
                 "--semantics", "exactly-one"]) == 0
    # inverted formula is (1 -2 -3); its gadget equals the direct exactly-two build
    direct = write(tmp_path, "d.cnf", "p cnf 3 1\n1 -2 -3 0\n")
    prefix2 = str(tmp_path / "dir")
    assert main(["reduce", "--cnf", direct, "--k", "2", "--out-prefix", prefix2]) == 0
    assert (tmp_path / "inv.graph").read_text() == (tmp_path / "dir.graph").read_text()
    assert (tmp_path / "inv.config").read_text() == (tmp_path / "dir.config").read_text()


def test_reduce_rejects_oversized_gadgets(tmp_path, capsys):
    # the size is checked before any allocation, so each input fails at once
    one_var = write(tmp_path, "one.cnf", "p cnf 1 0\n")
    many_vars = write(tmp_path, "many.cnf", "p cnf 100000 0\n")
    huge = write(tmp_path, "huge.cnf", "p cnf 1000000000 0\n")
    assignment = write(tmp_path, "a.txt", "1\n")
    for argv in (
        ["reduce", "--cnf", many_vars, "--k", "3", "--out-prefix", str(tmp_path / "x")],
        ["reduce", "--cnf", huge, "--k", "2", "--out-prefix", str(tmp_path / "x")],
        ["reduce", "--cnf", one_var, "--k", "1000000000", "--out-prefix", str(tmp_path / "x")],
        ["witness", "--cnf", one_var, "--k", "1000000000", "--assignment", assignment],
    ):
        assert main(argv) == 2
        assert "above 1000000" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_reduce_and_witness_bytes_are_pinned(tmp_path, capsys):
    # SHA-256 over the reduce files (.graph, .config, .map) and the witness
    # output, recorded from the hand-written gadget; at k = 2 the W, WP and
    # B families are empty.  Any rewrite of build_gadget must keep these bytes.
    import hashlib

    formulas = {
        "one-clause": ("p cnf 3 1\n1 -2 -3 0\n", "1 0 1\n"),
        "no-clause": ("p cnf 2 0\n", "1 0\n"),
        "no-variable": ("p cnf 0 0\n", ""),
        "four-clause": ("p cnf 5 4\n1 2 3 0\n-3 4 5 0\n1 -2 -5 0\n2 -3 -4 0\n", "1 1 0 1 0\n"),
    }
    pinned = {
        ("one-clause", 2): "d8e9c67aef9978cfae3a3694f38a789803643de4326fd1c29c9b00399500fc64",
        ("one-clause", 3): "8d14e165440e9d2391b93581bc7c15dfa821ccae25b03f68b22bc7f460e6901c",
        ("one-clause", 5): "b94a2a8cf1e7fb39e6b272e2bd487c878c5bb22c30135121918654acc509828b",
        ("no-clause", 2): "60b4b1e649a6f4b249512457a8836e2578dff05f14d0a616794d46db45500331",
        ("no-clause", 3): "88bee8a372212359926d1b62fe72bf164482c8005682b2b2dec2c6ed4f495206",
        ("no-clause", 5): "ed7fe6f48a13b5ec71232efda56fd824fe2ba857b710a0739908efbc392bbf45",
        ("no-variable", 2): "29939f086c301633c271bcf9f9d59a9cc388ce1368f431f568308e42b00cec37",
        ("no-variable", 3): "29939f086c301633c271bcf9f9d59a9cc388ce1368f431f568308e42b00cec37",
        ("no-variable", 5): "29939f086c301633c271bcf9f9d59a9cc388ce1368f431f568308e42b00cec37",
        ("four-clause", 2): "91f5d8e876c7a76f9b9ff77810e9e5d13bbd759688434dc6ea8fcbc8a9a69ad2",
        ("four-clause", 3): "18ac7062a3cd19d24bab7613c939c7ba4f7bbea148b54ed10d1fd79953a50c17",
        ("four-clause", 5): "9a4b37d2e06df4ea858d9197b85a54e71b7016ba9758fd85c52866868ab358ee",
    }
    prefix = str(tmp_path / "g")
    for (name, k), digest in pinned.items():
        cnf_text, assignment_text = formulas[name]
        cnf = write(tmp_path, "f.cnf", cnf_text)
        assignment = write(tmp_path, "a.txt", assignment_text)
        assert main(["reduce", "--cnf", cnf, "--k", str(k), "--out-prefix", prefix]) == 0
        assert main(["witness", "--cnf", cnf, "--k", str(k), "--assignment", assignment]) == 0
        h = hashlib.sha256()
        for suffix in (".graph", ".config", ".map"):
            h.update((tmp_path / ("g" + suffix)).read_bytes())
        h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest, (name, k)


def test_witness_rejects_bad_assignment(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 -2 -3 0\n")
    assignment = write(tmp_path, "a.txt", "0 1 0\n")
    rc = main(["witness", "--cnf", cnf, "--k", "2", "--assignment", assignment])
    assert rc == 2
    assert "does not satisfy" in capsys.readouterr().err


def test_dump_cnf_flag(tmp_path, capsys):
    g = write(tmp_path, "g", "3 3\n0 1\n1 2\n0 2\n")
    y = write(tmp_path, "y", ALL_PLUS3)
    dump = str(tmp_path / "inst.cnf")
    assert main(["pre", "--graph", g, "--config", y, "--k", "2", "--dump-cnf", dump]) == 0
    capsys.readouterr()
    text = (tmp_path / "inst.cnf").read_text()
    assert text.startswith("p cnf 3 9")
    # only meaningful for the twosat route
    rc = main(["pre", "--graph", g, "--config", y, "--k", "3", "--dump-cnf", dump])
    assert rc == 2


def test_gen_is_byte_identical_per_seed(tmp_path, capsys):
    for args in (
        ["gen", "tree", "--n", "40", "--seed", "7"],
        ["gen", "graph", "--n", "12", "--m", "20", "--seed", "7"],
        ["gen", "graph", "--n", "30", "--max-degree", "3", "--seed", "9"],
        ["gen", "graph", "--n", "20", "--regular", "3", "--seed", "3"],
        ["gen", "config", "--n", "25", "--seed", "1"],
    ):
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first


def test_random_graph_output_is_pinned_per_seed():
    # SHA-256 of write_graph(random_graph(n, m, seed)), recorded from the
    # np.unique-based generator; any rewrite must keep these bytes.
    import hashlib

    from kreversible import graphs
    from kreversible.generators import random_graph

    pinned = {
        (5000, 20000, 0): "b349be1b573c903a8836a93a50f04bec694e375a2a594f1de6a5de17258f60f7",
        (5000, 20000, 1): "38910a647b164afd32e61e5d43afb381496487fb5b126e02136068b5dc6d850c",
        (5000, 20000, 7): "2582428f5e9f722ecfca265c159a90aba9a49be9f88ba95f3c709919dfdd379e",
        (5000, 20000, 2024): "93be7555226c4bd71c943696425edf39c2ce8231706a06947399cabd7db7783a",
        (2049, 1, 5): "5892379de7a21cc3d021b1fc94aebd0f6d50eeeae52b4531b501983f17c3e478",
        # The benchmark's gen graph size, 5-digit ids, formatted in numpy ...
        (100_000, 400_000, 0): "775a7c8e2c5ff8f405ef4b92e1505b5a0e2a43f547f5636e591c700585183f7c",
        (100_000, 400_000, 1): "cd40ceb757630016ed4a0f5e6e30ff0bd7f0f425ec95254143175e01c0ee9a49",
        # ... and ids crossing from 1 to 2 digits under the `%` format.
        (12, 66, 0): "a7860f42ed2e9e7d092b8e58d71aef574bde8a04cbf7dc9352e32b1a32fdd545",
        (12, 40, 5): "2e57f1724573451ee87a2ba602d14251d5e42b3062fc4c2b4d496da898df9b60",
    }
    assert 66 <= graphs._MATRIX_WRITE_M < 400_000
    for args, digest in pinned.items():
        text = write_graph(random_graph(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, args


def test_random_graph_near_complete():
    # draws the few missing pairs, not the edges: rejection sampling of
    # random_graph(3000, 4_490_000, 3)'s edges did not finish in 35 s
    import time

    from kreversible.generators import random_graph

    cases = [(2049, 2049 * 2048 // 2 - 10, 0), (2049, 2049 * 2048 // 2, 1), (3000, 4_490_000, 3)]
    for n, m, seed in cases:
        started = time.perf_counter()
        g = random_graph(n, m, seed)
        assert time.perf_counter() - started < 30
        eu, ev = g.edge_arrays()
        assert g.m == m and (eu != ev).all()
        assert np.unique(np.minimum(eu, ev) * n + np.maximum(eu, ev)).size == m


def test_gen_outputs_parse_and_validate(tmp_path, capsys):
    assert main(["gen", "tree", "--n", "15", "--seed", "2"]) == 0
    g = parse_graph(capsys.readouterr().out)
    from kreversible import is_tree

    assert is_tree(g) and g.n == 15
    assert main(["gen", "graph", "--n", "14", "--regular", "3", "--seed", "4"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert set(g.degrees().tolist()) == {3}
    assert main(["gen", "config", "--n", "6", "--seed", "3"]) == 0
    parse_config(capsys.readouterr().out, 6)


# Each message starts with the parameter it refuses, which names the case.
@pytest.mark.parametrize("argv, message", [
    (["gen", "config", "--n", "-5", "--seed", "1"], "n must be nonnegative"),
    (["gen", "graph", "--n", "5", "--m", "-1", "--seed", "1"], "m must be nonnegative"),
    (["gen", "graph", "--n", "5", "--max-degree", "3", "--m", "-1", "--seed", "1"], "m must be nonnegative"),
    (["gen", "graph", "--n", "5", "--max-degree", "-1", "--seed", "1"], "max_deg must be nonnegative"),
    (["gen", "graph", "--n", "6", "--regular", "-2", "--seed", "1"], "d must be nonnegative"),
    # the degree-capped generator shuffles all n(n-1)/2 pairs
    (["gen", "graph", "--n", "2049", "--max-degree", "3", "--m", "5", "--seed", "1"],
     "n must be at most 2048 for a degree-capped graph, got 2049"),
], ids=lambda v: v.split()[0] if isinstance(v, str) else None)
def test_gen_rejects_negative_sizes(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pre", "count"])
def test_oracle_takes_any_k(tmp_path, capsys, command):
    g, c = write(tmp_path, "p3.graph", P3), write(tmp_path, "goe.config", GOE)
    outputs = []
    for k in (4, 10**400):  # n + 1, and a k past float range
        rc = main([command, "--graph", g, "--config", c, "--k", str(k), "--method", "oracle"])
        assert rc in (0, 1)
        outputs.append((rc, capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_gen_graph_requires_an_edge_budget(capsys):
    rc = main(["gen", "graph", "--n", "10", "--seed", "1"])
    assert rc == 2
    assert "needs --m" in capsys.readouterr().err


def test_missing_file_is_exit_2(tmp_path, capsys):
    rc = main(["pre", "--graph", str(tmp_path / "nope"), "--config", str(tmp_path / "x"),
               "--k", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- fuzzing

@st.composite
def _graph_bytes(draw):
    """A valid graph file on at most 30 vertices, one with a byte changed, or any bytes."""
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "raw"]))
    if kind == "raw":
        return draw(st.binary(max_size=40))
    n = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    data = text.encode()
    if kind == "mutated":
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + draw(st.binary(min_size=0, max_size=2)) + data[i + 1:]
    return data


def _config_bytes(n):
    states = st.lists(st.sampled_from(["+1", "-1", "+", "-"]), min_size=n, max_size=n)
    return st.one_of(states.map(lambda ts: (" ".join(ts) + "\n").encode()), st.binary(max_size=40))


def _ints():
    return st.one_of(st.integers(-5, 10), st.sampled_from([2**63, 10**400]), st.integers(-5, 10**400))


@st.composite
def _requests(draw):
    graph = draw(_graph_bytes())
    head = graph.split(b"\n", 1)[0].split()
    n = int(head[0]) if len(head) == 2 and head[0].isdigit() and len(head[0]) < 3 else 3
    command = draw(st.sampled_from(["pre", "count", "step", "verify"]))
    files = {"graph": graph, "config": draw(_config_bytes(n))}
    flags = ["--k", str(draw(_ints()))]
    if command == "step":
        flags += ["--steps", str(draw(_ints()))]
    elif command == "verify":
        files["candidate"] = draw(_config_bytes(n))
    else:
        methods = ["auto", "tree", "fixed", "oracle"] + (["pre1", "twosat"] if command == "pre" else [])
        flags += ["--method", draw(st.sampled_from(methods))]
        # Limits of 13 to 26 (the default is 20) would let one call scan up to
        # 2^26 candidates; a limit above 26 is refused before any scan.
        flags += ["--oracle-limit", str(draw(st.one_of(st.integers(-5, 12), st.integers(27, 10**400))))]
    return command, files, flags


@settings(deadline=None, max_examples=300)
@given(_requests())
@example(("count", {"graph": P3.encode(), "config": GOE.encode()},
          ["--k", str(10**400), "--method", "oracle", "--oracle-limit", "5"]))
def test_cli_fuzz_exits_cleanly(request):
    command, files, flags = request
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for name, data in files.items():
            path = Path(tmp) / name
            path.write_bytes(data)
            argv += [f"--{name}", str(path)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(argv + flags)
            except SystemExit as exc:  # argparse exits by itself on a usage error
                rc = exc.code
    assert rc in (0, 1, 2)
