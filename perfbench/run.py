"""Benchmark of the kreversible CLI and library; see perfbench/NOTES.md.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the workload untraced and prints every end-to-end
metric.  ``--trace 1`` replays both workloads with a span around each call
into the package and prints every per-layer metric.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The
package is imported from ``src/`` of the checkout; without it the run
exits with a nonzero code and prints no result.

This process builds the inputs, times ``setup_s`` and then starts one child,
``measure.py``, which runs the workload and reports its figures.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import instances as inst  # noqa: E402
from perfbench import large  # noqa: E402
from perfbench.measure import describe, load_package, per_layer_units  # noqa: E402
from perfbench.reference import Tally  # noqa: E402

WORKLOADS = ("cli-large", "sweep-small")

# setup_s: fresh interpreters, each importing the CLI and answering one tiny
# `pre`.  Half run before the measured workload and half after it, so a slow
# phase of the host does not land on all of them; one more warms the file
# cache first and is not counted.
SETUP_SAMPLES = 16

E2E_UNITS = {f"{kind}_s": "s" for kind in large.KINDS}
E2E_UNITS.update({"instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"})


class SetupTimer:
    """Seconds for a fresh interpreter to import the CLI and answer a tiny `pre`."""

    def __init__(self, work: Path, tally: Tally):
        graph = work / "setup.graph"
        config = work / "setup.config"
        graph.write_text(inst.graph_text(3, inst.path_edges(3)), encoding="utf-8")
        config.write_text("+1 +1 +1\n", encoding="utf-8")
        code = "import sys; from kreversible.cli import main; sys.exit(main(sys.argv[1:]))"
        self.argv = [sys.executable, "-c", code, "pre", "--graph", str(graph), "--config", str(config), "--k", "1"]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.tally = tally
        self.times: list[float] = []
        self.sample()  # warm-up

    def sample(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        # all +1 on a path under k=1 is its own unique predecessor
        self.tally.add(proc.returncode == 0 and proc.stdout == "YES\n+1 +1 +1\n")
        return elapsed

    def measure(self, count: int) -> None:
        self.times.extend(self.sample() for _ in range(count))


def run_workload(args, work: Path) -> dict:
    """Run measure.py on this workload and return the figures it wrote."""
    argv = [sys.executable, str(ROOT / "perfbench" / "measure.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    sys.stdout.flush()
    proc = subprocess.run(argv, cwd=ROOT, timeout=args.seconds + 90)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: measure.py exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    kr = load_package()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    tally = Tally()
    try:
        if args.trace or args.workload == "cli-large":
            with open(work / "requests.pkl", "wb") as f:
                pickle.dump(large.build(args.seed, work, kr), f)
        if args.trace:
            result = run_workload(args, work)
            metrics, units = result["metrics"], per_layer_units()
        else:
            setup = SetupTimer(work, tally)
            setup.measure(SETUP_SAMPLES // 2)
            result = run_workload(args, work)
            setup.measure(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            print(describe("setup_s", setup.times))
            metrics, units = result["metrics"], E2E_UNITS
            metrics["setup_s"] = statistics.median(setup.times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {sorted(missing)}")
    attempted = tally.attempted + result["attempted"]
    failed = tally.failed + result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
