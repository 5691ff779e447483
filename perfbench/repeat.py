"""Repeat benchmark runs over several seeds and summarize their spread.

    python3 perfbench/repeat.py --workloads round-sketch,collect,analyze \\
        --seeds 1-10 [--trace 0] [--seconds S] [--json summary.json]

Each run is a separate ``run.py`` process. For every metric it prints the
median of the runs, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread: the distance between the quartiles as a share
of the median. ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, default=None, help="write the summary here")
    args = parser.parse_args()

    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            report = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed{seed}"
                                 / f"report-trace{args.trace}.json").read_text())
            details = report["per_layer" if args.trace else "end_to_end"]
            for name, metric in {**details, **result["metrics"]}.items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s  " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if args.trace == 0))
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        summary[workload]["run_wall_s"] = summarize(walls)
        for name, s in summary[workload].items():
            print(f"  {workload:<13} {name:<36} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}  n={s['n']}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
