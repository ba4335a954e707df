"""Benchmark entry point.

    python3 perfbench/run.py --workload {batch-mixed,serve-lookup,all}
                             --seed N --seconds S --trace {0,1}

Generates every input from ``--seed``, measures for about ``--seconds``
seconds, checks every answer and prints, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the run records spans
around each layer call and the metrics are the per-layer ones.  The
lines before it print each workload's own figures by name, and the full
result (with the environment fingerprint) is written under
``perfbench/_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness

WORKLOADS = ("batch-mixed", "serve-lookup")


def _load_spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _module(workload: str):
    if workload == "batch-mixed":
        import wl_batch as mod
    else:
        import wl_serve as mod
    return mod


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    segments_before = set(harness.arena_segments())
    status_before = harness.git_status()
    report = _module(workload).run(seed, seconds, trace)
    outcome = report["outcome"]
    leaked = sorted(set(harness.arena_segments()) - segments_before)
    if leaked:
        outcome.fail(len(leaked), f"shared-memory segments left: {leaked}")
    if harness.git_status() != status_before:
        outcome.fail(1, "the run changed the git working tree")
    values = dict(report["end_to_end"])
    values.setdefault(
        "peak_rss_mb", (harness.peak_rss_mb(), "MiB"))
    values["ok_frac"] = (outcome.ok_frac, "fraction")
    if trace:
        values = report["layers"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {}
    for name in names:
        value, unit = values.get(name, (0.0, None))
        metrics[name] = {"value": float(value), "unit": unit or _unit(
            spec, name)}
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        report["tracer"].dump(harness.out_path("traces", tag + ".json"))
        if report.get("churn_tracer"):
            report["churn_tracer"].dump(
                harness.out_path("traces", tag + "-churn.json"))
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    harness.write_json(harness.out_path("results", tag + ".json"), {
        "workload": workload,
        "seconds": seconds,
        "trace": bool(trace),
        "fingerprint": harness.fingerprint(seed),
        "result": result,
        "named": {k: {"value": v, "unit": u}
                  for k, (v, u) in report["named"].items()},
        "notes": outcome.notes,
        "samples": report.get("samples", {}),
    })
    for name, (value, unit) in report["named"].items():
        print(f"{workload:13s} {name:22s} {value:14.4f} {unit}")
    for note in outcome.notes:
        print(f"{workload:13s} FAILED: {note}")
    return result


def _unit(spec: dict, name: str) -> str:
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    return ""


def _run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child ``run.py``; echo its output, return
    its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=harness.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.ensure_source()
    spec = _load_spec()
    seconds = args.seconds or spec["run_seconds"]
    t0 = time.perf_counter()
    if args.workload != "all":
        try:
            final = run_one(args.workload, args.seed, seconds,
                            bool(args.trace), spec)
        finally:
            harness.stop_resource_tracker()
    else:
        # Each workload runs in a process of its own, so that its peak
        # RSS and its heap are its own, not the previous workload's.
        results = [_run_child(w, args.seed, seconds, args.trace)
                   for w in WORKLOADS]
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{w}/{name}": metric
                for w, r in zip(WORKLOADS, results)
                for name, metric in r["metrics"].items()
            },
        }
    print(f"# wall {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
