"""The ll2fun benchmark.

    python3 perfbench/run.py --workload scan|store|wide|all --seed N \
        --seconds S --trace 0|1

Generates the seeded workload, runs the pipeline (`.ll` text -> `.fun`
text -> evaluator -> final state) in rounds for about S seconds, checks
every output against oracles that do not share the code under test, and
prints each metric with its unit.  The last line of standard output is a
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are its per-layer ones, computed from spans, and the
spans are written to perfbench/out/.  `--workload all` runs every
workload, one after another, each in its own process.

The program under test is imported from this checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKLOADS = ("scan", "store", "wide")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Put this checkout's src/ first on the path and make sure `ll2fun`
    comes from there, not from an installed copy."""
    sys.path.insert(0, str(SRC))
    import ll2fun
    found = Path(ll2fun.__file__).resolve().parent
    if found != SRC / "ll2fun":
        raise ImportError(f"ll2fun imported from {found}, not from {SRC}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_one(args, manifest: dict) -> int:
    import_program()
    import measure
    from workloads import generate

    w = generate(args.workload, args.seed)
    print(f"workload {w.name}, seed {args.seed}: {w.size}")
    if args.trace:
        half = generate(args.workload, args.seed, half=True)
        values, ops, tracer, overhead = measure.measure_traced(w, half, args.seconds, args.seed)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{w.name}-{args.seed}.json"
        path.write_text(json.dumps({"workload": w.name, "seed": args.seed,
                                    "overhead_s": overhead, "spans": tracer.to_json()}))
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}; "
              f"tracing overhead {overhead:+.4f} s per round")
        specs = manifest["per_layer"]
    else:
        values, wall, ops = measure.measure(w, args.seconds)
        print("wall-clock medians, uncorrected: "
              + ", ".join(f"{name} {value:.6g} s" for name, value in wall.items()))
        specs = manifest["end_to_end"]

    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    print(f"{ops.attempted} operations ({ops.calls} calls), {ops.failed} failed "
          f"({ops.failed_calls} calls); outputs {'correct' if ops.correct else 'WRONG'}")
    print(result_line(ops.correct, ops.attempted, ops.failed, metrics))
    return 0


def run_all(args, manifest: dict) -> int:
    """Each workload in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:<6} {metric:<28} {value:>16.6g} {unit}")
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        if args.workload == "all":
            return run_all(args, manifest)
        return run_one(args, manifest)
    except (OSError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
