"""The measured process of a benchmark run; ``run.py`` starts it.

    python3 perfbench/measure.py --workload cli-large --seed 1 --seconds 50 --trace 0 --work DIR

It runs one workload untraced, or the traced replay of both, in this one
process, and writes its figures to ``DIR/result.json``.  ``cli-large``
requests are read from ``DIR/requests.pkl``, which ``run.py`` builds
beforehand, so that building the inputs and their references does not count
towards this process's peak memory.  numpy and BLAS run with their defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import itertools
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import large, small  # noqa: E402
from perfbench.reference import Tally  # noqa: E402
from perfbench.trace import Trace  # noqa: E402

# Share of the samples dropped at each end before a kind's latencies are averaged.
TRIM = 0.2

# Traced runs do a fixed amount of work, so their counters are exact per seed.
TRACE_LARGE_ROUNDS = 3
TRACE_SWEEP_BLOCKS = 60

# Spans of the traced replay, per cli-large kind, in call order.
_READ = ("io.read", "graphs.parse_graph", "graphs.parse_config")
_TREE_COUNT = _READ + ("graphs.is_tree", "graphs.root_tree", "tree_count.count_predecessors_tree", "builtins.str")
LARGE_SPANS = {
    "pre_tree": _READ + ("cli.choose_method", "graphs.root_tree", "tree_decide.find_predecessor_tree",
                         "graphs.format_config"),
    "pre_path": _READ + ("cli.choose_method", "graphs.root_tree", "tree_decide.find_predecessor_tree",
                         "graphs.format_config"),
    "pre_cubic": _READ + ("cli.choose_method", "deg3.predecessor_clauses", "deg3.solve_2sat",
                          "graphs.format_config"),
    "pre_k1": _READ + ("cli.choose_method", "k1.find_predecessor_k1", "graphs.format_config"),
    "step_k1": _READ + ("dynamics.simulate", "graphs.format_config"),
    "gen_graph": ("generators.random_graph", "graphs.write_graph", "io.write"),
    "count_tree": _TREE_COUNT,
    "count_hub": _TREE_COUNT,
    "count_oracle": _READ + ("oracle.count_predecessors_bruteforce", "builtins.str"),
}
# Exact counters per cli-large kind (m is left out where it is n - 1 or repeats pre_k1).
LARGE_COUNTERS = {
    "pre_tree": ("n", "bytes_in", "bytes_out", "depth", "forced_visits"),
    "pre_path": ("n", "bytes_in", "bytes_out", "depth", "forced_visits"),
    "pre_cubic": ("n", "m", "bytes_in", "bytes_out", "clauses"),
    "pre_k1": ("n", "m", "bytes_in", "bytes_out", "same_state_regions", "locked_regions"),
    "step_k1": ("bytes_out",),
    "gen_graph": ("n", "m", "bytes_out"),
    "count_tree": ("n", "bytes_in", "bytes_out", "count_digits"),
    "count_hub": ("n", "bytes_in", "bytes_out", "count_digits"),
    "count_oracle": ("n", "bytes_in", "bytes_out", "count_digits", "candidates"),
}
# Spans of the sweep: per (graph, k) pair of the test families, and per block of side calls.
SWEEP_SPANS = (
    "graphs.Graph", "graphs.root_tree", "oracle.successor_indices",
    "tree_decide.find_predecessor_tree", "tree_count.count_predecessors_tree",
    "deg3.find_predecessor_deg3", "k1.find_predecessor_k1",
)
SWEEP_SIDE_SPANS = (
    "tree_decide.find_predecessor_tree", "tree_count.count_predecessors_tree", "dynamics.simulate",
    "generators.random_graph", "graphs.write_graph",
)
# count_tree answers the pre_tree targets, and every hub count is a YES, so
# only these call and YES counters carry information.
SWEEP_CALLS = ("pre_tree", "pre_cubic", "pre_k1", "pre_path", "count_hub")
SWEEP_YES = ("pre_tree", "pre_cubic", "pre_k1", "pre_path")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for kind, spans in LARGE_SPANS.items():
        units.update({f"{kind}.{s}_s": "s" for s in spans})
        units[f"{kind}.untraced_s"] = "s"
        units.update({f"{kind}.{c}": "count" for c in LARGE_COUNTERS[kind]})
    units.update({"probe.cli_failed": "count", "probe.count_digits": "count"})
    units.update({f"sweep.{s}_s": "s" for s in SWEEP_SPANS})
    units["sweep.untraced_s"] = "s"
    units.update({f"sweep.side.{s}_s": "s" for s in SWEEP_SIDE_SPANS})
    units.update({f"sweep.{kind}.calls": "count" for kind in SWEEP_CALLS})
    units.update({f"sweep.{kind}.yes": "count" for kind in SWEEP_YES})
    units["sweep.oracle.candidates"] = "count"
    return units


def load_package():
    """Import kreversible from src/ of this checkout, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        kr = importlib.import_module("kreversible")
        importlib.import_module("kreversible.cli")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import kreversible from {src}: {exc}") from None
    if Path(kr.__file__).resolve().parent != src / "kreversible":
        raise SystemExit(f"perfbench: kreversible imported from {kr.__file__}, not from {src}")
    return kr


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def load_requests(work: Path):
    with open(work / "requests.pkl", "rb") as f:
        return pickle.load(f)


def measure_cli_large(kr, seed: int, seconds: float, work: Path, tally: Tally):
    """Per-kind latencies of CLI requests, and requests per timed second."""
    reqs, probe = load_requests(work)
    order = np.random.default_rng([seed, 3])
    for kind in large.KINDS:  # warm-up, checked but not timed
        large.request(kr, reqs[kind], tally)
    latency: dict[str, list[float]] = {k: [] for k in large.KINDS}
    # rounds of all kinds in shuffled order; the clock may stop a round early
    schedule = itertools.chain.from_iterable(order.permutation(large.ROUND) for _ in itertools.count())
    start = time.perf_counter()
    for i, kind in enumerate(schedule):
        if i >= len(large.ROUND) and time.perf_counter() - start >= seconds:
            break
        latency[kind].append(large.request(kr, reqs[kind], tally)[1])
    report_probe(large.run_probe(kr, probe))
    total = [dt for v in latency.values() for dt in v]
    return latency, len(total) / sum(total)


def measure_sweep_small(kr, seed: int, seconds: float, work: Path, tally: Tally):
    """Per-kind seconds per call, one sample per block, and (graph, k) pairs per timed second."""
    stream = small.blocks(seed)
    warm = small.Sweep(kr, tally)  # two checked but untimed blocks
    warm.run(next(stream))
    warm.run(next(stream))
    sweep = small.Sweep(kr, tally)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        sweep.run(next(stream))
    return sweep.samples, sweep.main_pairs / sweep.main_seconds


def trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean of the values left after dropping the lowest and highest ``cut`` share."""
    v = sorted(values)
    drop = int(len(v) * cut)
    return statistics.fmean(v[drop:len(v) - drop])


def describe(name: str, values) -> str:
    shown = " ".join(f"{v:.4g}" for v in values[:12]) + (" ..." if len(values) > 12 else "")
    return (f"{name}: trimmed mean {trimmed_mean(values):.6g} s, median {statistics.median(values):.6g} s, "
            f"mean {statistics.fmean(values):.6g} s over {len(values)} samples [{shown}]")


def run_untraced(kr, workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict[str, float]:
    measure = measure_cli_large if workload == "cli-large" else measure_sweep_small
    latency, per_s = measure(kr, seed, seconds, work, tally)
    metrics = {}
    for kind in large.KINDS:
        print(describe(f"{kind}_s", latency[kind]))
        metrics[f"{kind}_s"] = trimmed_mean(latency[kind])
    metrics["instances_per_s"] = per_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def report_probe(result: dict) -> None:
    status = "ok" if result["ok"] else "FAILED (known defect)"
    print(f"probe count n={result['n']} ({result['digits']} digits): {status}; "
          f"exit {result['exit_code']}; {result['stderr'][:120]}")


def trace_cli_large(kr, seed: int, work: Path, tally: Tally, tr: Trace) -> dict[str, float]:
    """Each request untraced, then replayed with spans; per-kind layer medians and counters."""
    reqs, probe = load_requests(work)
    order = np.random.default_rng([seed, 3])
    untraced: dict[str, list[float]] = {k: [] for k in large.KINDS}
    replays: dict[str, list[int]] = {k: [] for k in large.KINDS}
    bytes_out: dict[str, int] = {}
    for kind in large.KINDS:  # warm-up
        large.request(kr, reqs[kind], tally)
    for _ in range(TRACE_LARGE_ROUNDS):
        for kind in order.permutation(large.KINDS):
            req = reqs[kind]
            untraced[kind].append(large.request(kr, req, tally)[1])
            out = large.replay(kr, tr, req)
            replays[kind].append(tr.request)
            tally.add(large.check(req, 0, out))
            bytes_out[kind] = req.out.stat().st_size if req.out else len(out.encode())
    metrics: dict[str, float] = {}
    print("kind: untraced median s | traced span sum s | gap | largest layers (share of traced)")
    for kind in large.KINDS:
        spans = tr.medians(replays[kind])
        metrics.update({f"{kind}.{name}_s": value for name, value in spans.items()})
        metrics[f"{kind}.untraced_s"] = statistics.median(untraced[kind])
        traced = statistics.median(tr.request_totals(replays[kind]))
        counters = large.exact_counters(kr, reqs[kind])
        counters["bytes_out"] = bytes_out[kind]
        metrics.update({f"{kind}.{c}": counters[c] for c in LARGE_COUNTERS[kind]})
        top = sorted(spans.items(), key=lambda kv: -kv[1])[:3]
        share = ", ".join(f"{n} {v / traced:.0%}" for n, v in top)
        print(f"{kind}: {metrics[f'{kind}.untraced_s']:.4f} | {traced:.4f} | "
              f"{metrics[f'{kind}.untraced_s'] - traced:+.4f} | {share}")
    result = large.run_probe(kr, probe)
    report_probe(result)
    metrics["probe.cli_failed"] = int(not result["ok"])
    metrics["probe.count_digits"] = result["digits"]
    return metrics


def trace_sweep_small(kr, seed: int, tally: Tally, tr: Trace) -> dict[str, float]:
    """Untraced and traced blocks in turn; layer seconds per (graph, k) pair and call counters.

    Side spans are seconds per block.
    """
    stream = small.blocks(seed)
    sweep = small.Sweep(kr, tally)
    sweep.run(next(stream))  # warm-up
    plain_seconds = plain_pairs = traced_pairs = 0
    for _ in range(TRACE_SWEEP_BLOCKS):
        s0, p0 = sweep.main_seconds, sweep.main_pairs
        sweep.run(next(stream))
        plain_seconds += sweep.main_seconds - s0
        plain_pairs += sweep.main_pairs - p0
        p0 = sweep.main_pairs
        sweep.run(next(stream), tr)
        traced_pairs += sweep.main_pairs - p0
    main = tr.per_request(sweep.main_requests)
    side = tr.per_request(sweep.side_requests)
    metrics = {f"sweep.{name}_s": sum(main[name]) / traced_pairs for name in SWEEP_SPANS}
    metrics["sweep.untraced_s"] = plain_seconds / plain_pairs
    metrics.update({f"sweep.side.{name}_s": statistics.fmean(side[name]) for name in SWEEP_SIDE_SPANS})
    metrics.update({f"sweep.{kind}.calls": sweep.calls[kind] for kind in SWEEP_CALLS})
    metrics.update({f"sweep.{kind}.yes": sweep.yes[kind] for kind in SWEEP_YES})
    metrics["sweep.oracle.candidates"] = sweep.candidates
    traced = sum(tr.request_totals(sweep.main_requests)) / traced_pairs
    share = ", ".join(f"{n} {metrics[f'sweep.{n}_s'] / traced:.0%}" for n in SWEEP_SPANS)
    print(f"sweep per (graph, k) pair: untraced {metrics['sweep.untraced_s']:.6f} s | traced {traced:.6f} s | "
          f"layers: {share}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", type=Path, required=True)
    args = p.parse_args(argv)
    kr = load_package()
    print("environment:", json.dumps(environment()))
    tally = Tally()
    if args.trace:
        tr = Trace()
        metrics = trace_cli_large(kr, args.seed, args.work, tally, tr)
        metrics.update(trace_sweep_small(kr, args.seed, tally, tr))
    else:
        metrics = run_untraced(kr, args.workload, args.seed, args.seconds, args.work, tally)
    result = {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
