"""Benchmark of the mobagg package: one workload per process.

    python3 perfbench/run.py --workload {round-sketch,collect,analyze} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``
and writes only under ``perfbench/out/``. The workloads are described in
``workloads.py`` and the metrics in ``BENCHMARK.json``.

With ``--trace 0`` the run warms up, then runs timed operations until
``--seconds`` have passed (and at least the workload's ``min_ops``), and
reports the end-to-end metrics. With
``--trace 1`` it runs untraced operations for half the time, then one more
operation with every layer wrapped (see ``spans.py``), and reports the
per-layer metrics of that operation, the tracing overhead (traced minus
untraced operation time) and the span coverage (layer self time over the
traced operation's wall time). Each run leaves its spans and a full report
in ``perfbench/out/<workload>-seed<N>/``.

Every line but the last is a human-readable report. The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every output passed the benchmark's own oracle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("round-sketch", "collect", "analyze")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall times of fresh processes that import the package and run set-up."""
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def run_for(workload, seconds: float, min_ops: int) -> list[float]:
    """Timed operations back to back until ``seconds`` have passed and ``min_ops`` ran."""
    samples: list[float] = []
    end = time.perf_counter() + seconds
    for n in itertools.count(1):
        samples += workload.op()
        if n >= min_ops and time.perf_counter() >= end:
            return samples


def traced_op(workload, untraced: list[float], out_dir: Path, problems: list[str]) -> dict:
    """One operation with every layer wrapped; returns the per-layer metrics."""
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install(workload.transport)
        t0 = time.perf_counter()
        samples = workload.op()
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.write(out_dir / "spans.npz")

    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_s"] = (statistics.median(samples) - statistics.median(untraced), "s")
    self_time = sum(span["self_s"] for span in tracer.totals().values())
    layers["trace.coverage"] = (self_time / wall, "ratio")
    # frame bytes seen by the wire and the transport must match the round reports
    up, down = workload.op_bytes()
    delivered = tracer.counters["transport.deliver.bytes"]
    encoded = tracer.counters["wire.encode.vector_bytes"]
    if delivered != up + down or encoded != up:
        problems.append(f"traced bytes do not reconcile: delivered {delivered:.0f}, "
                        f"vector frames {encoded:.0f}, reports up {up} down {down}")
    return layers


def print_table(title: str, rows: dict) -> None:
    print(f"== {title}")
    for name, row in rows.items():
        value, unit, *rest = row
        extra = "" if not rest else f"  n={rest[0]}" + (f"  {rest[1]}" if rest[1] else "")
        print(f"  {name:<40} {value:>16.6g} {unit:<6}{extra}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mobagg" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'mobagg'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = setup_seconds(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import workloads

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    problems: list[str] = []
    try:
        workload.warm_up()
        if args.trace:
            samples = run_for(workload, args.seconds / 2, 1)
        else:
            samples = run_for(workload, args.seconds, workload.min_ops)
        e2e = {
            "setup_s": (statistics.median(setup), "s", len(setup), "median, fresh processes"),
            "op_s": (statistics.median(samples), "s", len(samples),
                     f"median per {workload.op_unit}"),
            **workload.report(),
        }
        layers = traced_op(workload, samples, out_dir, problems) if args.trace else {}
    finally:
        workload.close()
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1, "")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 caller")
    print_table("end to end" + (" (untraced operations)" if args.trace else ""), e2e)
    if layers:
        print_table("per layer (one traced operation)", layers)
    problems = workload.problems + problems
    for problem in problems:
        print(f"FAILED: {problem}")

    (out_dir / f"report-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "end_to_end": {k: dict(zip(("value", "unit", "n", "note"), v)) for k, v in e2e.items()},
        "per_layer": {k: dict(zip(("value", "unit"), v)) for k, v in layers.items()},
        "problems": problems,
    }, indent=1) + "\n")

    produced = layers if args.trace else e2e
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value, unit, *_ = produced[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
