"""Steadiness check: run the workloads repeatedly and report their spread.

    python3 bench/steady.py --rounds 10
    python3 bench/steady.py --rounds 10 --compare bench/out/steady-<earlier>.json

Each round runs every workload once, each in its own process with seed
(first seed + round); even rounds run the workloads in the listed order and
odd rounds in reverse, so that slow phases of a shared host do not always hit
the same workload.  For every workload and metric it prints the median, the
first and third quartiles, the spread (q3 - q1) / median and the spread
against the metric's bound in BENCHMARK.json.  With --compare it also prints
how far each median moved, in the worse direction, since an earlier set.
The verdict is "unresolved" where the spread of either set exceeds the
bound (such a set cannot tell a change of that size from noise), otherwise
"worse" where the median moved by more than the bound, otherwise "ok".
Every run uses run_seconds and the workloads of BENCHMARK.json.  Raw results
go to bench/out/steady-<UTC time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
    return values


def quartiles(vals: list[float]) -> tuple[float, float, float, float]:
    """Median, q1, q3 (of statistics.quantiles) and spread (q3 - q1) / median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = []
    for r in range(args.rounds):
        for w in (names if r % 2 == 0 else names[::-1]):
            seed = args.first_seed + r
            t0 = time.perf_counter()
            result = run_one(w, seed, seconds, args.trace)
            runs.append({"round": r, "workload": w, "seed": seed, "result": result})
            print(f"round {r} {w} seed {seed}: {time.perf_counter() - t0:.0f} s, "
                  f"{result['attempted']} attempted, {result['failed']} failed, "
                  f"correct {result['correct']}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / time.strftime("steady-%Y%m%dT%H%M%SZ.json", time.gmtime())
    path.write_text(json.dumps({"seconds": seconds, "trace": args.trace,
                                "runs": runs}, indent=1))
    print(f"raw results: {path.relative_to(ROOT)}")

    before = collect(json.loads(args.compare.read_text())["runs"]) if args.compare else {}
    print(f"{'workload':16} {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'sp/bd':>6}" + (f" {'moved':>7}" if before else "")
          + "  verdict")
    for (w, name), vals in collect(runs).items():
        med, q1, q3, spread = quartiles(vals)
        bound = declared.get(name, {}).get("bound")
        line = (f"{w:16} {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                + (f"{bound:6.3f} {spread / bound:6.2f}" if bound else f"{'':6} {'':6}"))
        # a set whose spread exceeds the bound cannot tell a change of the
        # bound's size from noise: its figures are unresolved, not passed
        verdict = "unresolved" if bound and spread > bound else ""
        if (w, name) in before:
            old, _, _, old_spread = quartiles(before[(w, name)])
            moved = (med - old) / old if old else 0.0
            if declared.get(name, {}).get("better") == "higher":
                moved = -moved
            line += f" {moved:+7.3f}"
            if bound and old_spread > bound:
                verdict = "unresolved"
            if bound and not verdict:
                verdict = "worse" if moved > bound else "ok"
        elif bound and not verdict:
            verdict = "ok"
        print(f"{line}  {verdict}".rstrip())
    for w in names:
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs
                  if r["workload"] == w}
        print(f"{w}: failed/attempted per run {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
