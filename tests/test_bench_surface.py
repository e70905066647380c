"""The benchmark calls the package by name; every name it uses must resolve."""

import importlib
import re
from pathlib import Path

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
