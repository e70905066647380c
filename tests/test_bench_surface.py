"""The benchmark calls the package by name; every name it uses must resolve,
and every attribute it reads off a package object must exist."""

import importlib
import re
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_package_name_the_benchmark_uses_resolves():
    # the same imports as perfbench/measure.py's load_package
    kr = importlib.import_module("kreversible")
    importlib.import_module("kreversible.cli")
    names = {m for path in BENCH.glob("*.py")
             for m in re.findall(r"\bkr\.([A-Za-z_][\w.]*[\w])", path.read_text(encoding="utf-8"))}
    assert "cli.choose_method" in names and len(names) > 20
    for name in sorted(names):
        obj = kr
        for part in name.split("."):
            assert hasattr(obj, part), f"kr.{name} (used by perfbench) does not resolve"
            obj = getattr(obj, part)


def test_every_attribute_the_benchmark_reads_exists():
    # perfbench reads these attributes off package objects (perfbench/large.py,
    # the --trace 1 replay and its counters); the resolver above sees only kr.<name>
    kr = importlib.import_module("kreversible")
    g = kr.Graph(3, [(0, 1), (1, 2)])
    y = np.array([1, -1, 1], dtype=np.int8)
    tree = kr.root_tree(g, 0)
    part = kr.same_state_partition(g, y)
    reads = {
        "tree.bfs_order": tree,
        "tree.parent": tree,
        ".visits": kr.compute_forced_states(tree, 2, y),
        "part.n_components": part,
        "part.component_locked": part,
        "clauses.clauses": kr.predecessor_clauses(g, y),
    }
    text = "".join(path.read_text(encoding="utf-8") for path in BENCH.glob("*.py"))
    for read, obj in reads.items():
        assert read in text, f"perfbench no longer reads {read}: update this list"
        attr = read.rsplit(".", 1)[1]
        assert hasattr(obj, attr), f"{type(obj).__name__}.{attr} (read by perfbench) is gone"
