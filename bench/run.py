"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload moebius-exact --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics (wall_s, items_per_s,
setup_s, peak_rss_mib); with --trace 1 the per-layer metrics from a traced
run, with the tracing overhead, and writes the spans to bench/out/.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  End-to-end times are in seconds of a reference host,
by the calibration rounds of calibration.py.  The engine is imported from
src/ next to this directory; without it the run fails with exit code 2.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
from calibration import Calibration
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 30
MIN_UNITS = 2
CAL_SHARE = 0.1   # calibration after each unit, as a share of the unit's time


def fresh_import():
    """Import the engine anew, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "quasicluster"]:
        del sys.modules[name]
    qc = importlib.import_module("quasicluster")
    if SRC not in Path(qc.__file__).resolve().parents:
        raise ImportError(f"quasicluster imported from {qc.__file__}, not {SRC}")
    return qc


def set_up(workload, seed: int):
    """Median of several full set-ups (import, fixture, quiver, seed), in
    reference seconds, by a calibration round after each set-up."""
    times, cal = [], Calibration()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        qc = fresh_import()
        state = workload.setup(qc, seed)
        times.append(time.perf_counter() - t0)
        cal.run(0)
    print(f"set-up times: median {statistics.median(times):.5f} s of {len(times)}; "
          f"{cal.summary()}")
    return qc, state, statistics.median(times) * cal.speed()


def timed(fn, *args):
    """One unit of work and its wall time, after collecting the last one's garbage."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, and whether checked outputs held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = False
            print(f"FAIL {label}: {'; '.join(problems[:5])}", file=sys.stderr)


def end_to_end(workload, qc, state, seconds, tally):
    walls, cal, ref, out = [], Calibration(), None, None
    start = time.perf_counter()
    while len(walls) < MIN_UNITS or time.perf_counter() - start < seconds:
        out = None   # free the previous graph before building the next
        out, wall = timed(workload.unit, qc, state)
        if not walls:   # high-water mark of set-up and one unit, before any check
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(wall)
        cal.run(CAL_SHARE * wall)
        if ref is None:
            ref = workload.reference(out)
        tally.check(f"unit {len(walls)}", workload.check_unit(out, ref))
    items = workload.items(out)
    wall_s = statistics.median(walls) * cal.speed()
    print(f"{workload.name}: {items} items per unit, {workload.counts(out)}")
    print(f"unit times {' '.join(f'{w:.3f}' for w in walls)} s, "
          f"median {statistics.median(walls):.4f} s")
    print(cal.summary())
    return {
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "peak_rss_mib": (peak, "MiB"),
    }, out


def per_layer(workload, qc, state, seconds, tally):
    tracer = spans.Tracer(qc)
    plain, traced, self_s = [], [], {name: [] for name in spans.ALL_NAMES}
    first = snapshot = out = ref = None
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        out = None
        out, wall = timed(workload.unit, qc, state)
        plain.append(wall)
        if ref is None:   # traced units are checked against an untraced one
            ref = workload.reference(out)
        out = None
        tracer.install()
        try:
            out, wall = timed(workload.unit, qc, state)
        finally:
            tracer.uninstall()
        traced.append(wall)
        summary = tracer.summary()
        for name, (_, s) in summary.items():
            self_s[name].append(s)
        calls = {name: c for name, (c, _) in summary.items()}
        counts = workload.layer_counts(out)
        counts["distinct_exchange"] = len(tracer.exchange_keys)
        problems = workload.check_unit(out, ref)
        if first is None:
            first, snapshot = (calls, counts), tracer.snapshot()
        elif (calls, counts) != first:
            problems.append("call counts or ratios differ between traced units")
        tally.check(f"traced unit {len(traced)}", problems)
        tracer.reset()
    calls, counts = first

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(self_s[name]), "s")
    mutations = calls["algebra.mutate_seed"]
    bases = {
        "algebra.distinct_exchange_ratio":
            (counts["distinct_exchange"], calls["algebra.exchange_value"],
             "distinct relations", "exchange_value calls"),
        "algebra.edge_ratio": (counts.get("edges", 0), mutations,
                               "distinct edges", "mutate_seed calls"),
        "algebra.new_cluster_ratio": (counts.get("new_clusters", 0), mutations,
                                      "new clusters", "mutate_seed calls"),
        "pquiver.classify_per_mutation":
            (calls["pquiver.classify_vertex"], calls["pquiver.mutate"],
             "classify_vertex calls", "PartitionedQuiver.mutate calls"),
    }
    for name, (num, den, num_label, den_label) in bases.items():
        metrics[name] = (ratio(num, den), "ratio")
        print(f"{name} = {num} {num_label} / {den} {den_label}")
    metrics["laurent.max_num_terms"] = (counts.get("max_num_terms", 0), "count")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / statistics.median(plain), "ratio")
    metrics["trace.spans"] = (len(snapshot[0]), "count")
    print(f"tracing overhead {overhead:.3f} s: traced {statistics.median(traced):.3f} s "
          f"against untraced {statistics.median(plain):.3f} s "
          f"(medians of {len(traced)} and {len(plain)} units), of which "
          f"{statistics.median(self_s[spans.PROBE]):.3f} s in {calls[spans.PROBE]} "
          f"exchange-key probes")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}.tsv.gz"
    spans.Tracer.write(snapshot, path)
    print(f"{len(snapshot[0])} spans of the first traced unit written to "
          f"{path.relative_to(HERE.parent)}")
    return metrics, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    # time imports from cached bytecode, as an installed package would run,
    # whatever PYTHONDONTWRITEBYTECODE says
    sys.dont_write_bytecode = False
    try:
        qc, state, setup_s = set_up(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the engine: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    if args.trace:
        metrics, out = per_layer(workload, qc, state, args.seconds, tally)
    else:
        metrics, out = end_to_end(workload, qc, state, args.seconds, tally)
        metrics["setup_s"] = (setup_s, "s")
    for label, problems in workload.check_final(qc, state, out, args.seed).items():
        tally.check(label, problems)
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:>16.6g} {unit}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
