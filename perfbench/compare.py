"""Compare two sets of runs of one workload, written by ``steady.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the two sets ran in different environments: the
fingerprint keys in ``harness.COMPARABLE_KEYS`` must match, as must the
workload, run length and trace flag.  A metric regresses when the new
median is worse than the base median by more than the
metric's bound in ``BENCHMARK.json``.  When the base set's own spread
is wider than the bound, the comparison cannot resolve a change of that
size and the metric is reported UNRESOLVED.  Exit 1 if any metric
regressed or is unresolved.
"""

from __future__ import annotations

import json
import os
import sys

import harness


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    for key in ("workload", "seconds", "trace"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]!r} vs {new[key]!r})")
            return 2
    fb, fn = base["fingerprint"] or {}, new["fingerprint"] or {}
    differ = [k for k in harness.COMPARABLE_KEYS if fb.get(k) != fn.get(k)]
    if differ:
        print("refused: environment fingerprints differ: " + ", ".join(
            f"{k}={fb.get(k)!r} vs {fn.get(k)!r}" for k in differ))
        return 2
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]
              + spec["per_layer"]}
    flagged = 0
    print(f"{base['workload']}: {fb.get('git_sha')} -> {fn.get('git_sha')}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None or not b["median"]:
            continue
        change = n["median"] / b["median"] - 1.0
        worse = -change if better.get(name) == "higher" else change
        verdict = ""
        if b["bound"] is not None:
            if worse > b["bound"]:
                verdict = "REGRESSION"
            elif b["spread"] > b["bound"]:
                verdict = f"UNRESOLVED (base spread {b['spread']:.1%})"
            else:
                verdict = "ok"
            flagged += verdict != "ok"
            verdict = f"(bound {b['bound']:.1%}) {verdict}"
        print(f"{name:28s} {b['median']:14.6g} -> {n['median']:14.6g} "
              f"({change:+.1%}) {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
