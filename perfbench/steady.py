"""Run a workload under several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload batch-mixed --runs 10 \
        [--first-seed 1] [--seconds 20] [--trace 0] [--name NAME]

Each run is a separate ``run.py`` process.  The spread of a metric is
the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
summary, with every value and the environment fingerprint of the runs,
is written to ``perfbench/_out/steady/<NAME>.json`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness


def spread(values) -> float:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--name", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, fingerprints, failures = {}, [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(harness.BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=harness.ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += not result["correct"]
        tag = f"{args.workload}-seed{seed}-trace{args.trace}"
        with open(os.path.join(harness.OUT_DIR, "results", tag + ".json")) as fh:
            fingerprints.append(json.load(fh)["fingerprint"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = {
        "workload": args.workload,
        "seconds": seconds,
        "trace": args.trace,
        "fingerprint": fingerprints[0] if fingerprints else None,
        "failures": failures,
        "metrics": {
            name: {"values": vals, "median": statistics.median(vals),
                   "spread": spread(vals), "bound": bounds.get(name)}
            for name, vals in values.items()
        },
    }
    name = args.name or f"{args.workload}-trace{args.trace}"
    harness.write_json(harness.out_path("steady", name + ".json"), summary)
    for metric, info in summary["metrics"].items():
        bound = info["bound"]
        flag = ""
        if bound is not None:
            flag = "ok" if info["spread"] <= bound / 3 else (
                "within bound" if info["spread"] <= bound else "TOO NOISY")
        print(f"{metric:28s} median {info['median']:14.6g} "
              f"spread {info['spread']:.4f} bound {bound} {flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
