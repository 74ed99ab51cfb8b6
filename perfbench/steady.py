"""Steadiness runs: the benchmark on several seeds, one run at a time.

    python3 perfbench/steady.py [--seeds 1-10] [--seconds 30] [workload ...]

For each workload and end-to-end metric it prints the median of the runs
and the quartile spread (Q3 - Q1) / median, with the quartiles taken as
``statistics.quantiles(values, n=4)`` gives them, and the bound from
BENCHMARK.json.  The per-run JSON lines and the summary are written to
``perfbench/out/steady-<stamp>.json``.
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


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args(argv)
    runs: dict[str, list[dict]] = {}
    for name in args.workloads:
        runs[name] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs[name].append(result)
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    summary = []
    for name, results in runs.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            row = {"workload": name, "metric": m["name"], "median": med,
                   "spread": (q3 - q1) / med, "bound": m["bound"], "unit": m["unit"]}
            summary.append(row)
            print(f"{name:20s} {m['name']:14s} {med:12.5g} {m['unit']:9s} "
                  f"spread {row['spread']:6.3f}  bound {m['bound']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"steady-{stamp}.json").write_text(
        json.dumps({"seeds": args.seeds, "runs": runs, "summary": summary}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
