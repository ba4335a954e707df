"""The benchmark's server launcher for serve-lookup (runs as a child).

    python3 perfbench/server.py --data INPUTS.npz [--trace]

Builds the stack the way ``repro.cli serve`` does — a ``HintIndex``
over the given intervals, a ``BatchingQueryService`` in ids mode with
its default ``max_batch``/``max_delay_ms``, a ``QueryServer`` on an
ephemeral port — and prints ``{"port": N}`` once it listens.  It then
reads commands from standard input, answering each with one JSON line:

* ``stats`` — the service's ``ServiceMetrics`` snapshot;
* ``stop`` (or end of input) — drain, close, and report peak RSS, the
  final snapshot, the index build time and size and, with ``--trace``,
  the path of the span dump.

With ``--trace`` the launcher installs two proxies inside this process:
a backend whose ``execute()`` times every flush (``service.exec``) and a
service subclass whose ``submit`` records each query's sojourn from
submit to its future completing (``service.sojourn``).  The group of a
sojourn span is ``st << 17 | end``, which the client uses to match it
to its own request span.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import harness
from tracing import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    harness.ensure_source()

    import numpy as np

    from repro.core.strategies import run_strategy
    from repro.hint.index import HintIndex
    from repro.intervals.collection import IntervalCollection
    from repro.net import serve_in_thread
    from repro.service import BatchingQueryService

    tracer = Tracer(enabled=args.trace)

    class TimedBackend:
        """``execute()``-shaped proxy timing each flush on the index."""

        def __init__(self, index):
            self.index = index
            self.flushes = 0

        def execute(self, batch, *, strategy, mode):
            self.flushes += 1
            with tracer.span("service.exec", self.flushes):
                return run_strategy(strategy, self.index, batch, mode=mode)

    class TracedService(BatchingQueryService):
        def submit(self, q_st, q_end, **kwargs):
            t0 = time.monotonic()
            future = super().submit(q_st, q_end, **kwargs)
            group = (int(q_st) << harness.M) | int(q_end)
            future.add_done_callback(
                lambda _f: tracer.add("service.sojourn", t0,
                                      time.monotonic(), group))
            return future

    with np.load(args.data) as data:
        coll = IntervalCollection(data["st"], data["end"], copy=False)
    t0 = time.perf_counter()
    index = HintIndex(coll, m=harness.M)
    build_s = time.perf_counter() - t0
    if args.trace:
        service = TracedService(TimedBackend(index), mode="ids")
    else:
        service = BatchingQueryService(index, mode="ids")
    handle = serve_in_thread(service, owns_service=True)
    print(json.dumps({"port": handle.port}), flush=True)

    def snapshot() -> dict:
        return dataclasses.asdict(service.metrics.snapshot())

    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(snapshot()), flush=True)
            elif line.strip() == "stop":
                break
    finally:
        handle.close()
    report = {"rss_mb": harness.peak_rss_mb(), "stats": snapshot(),
              "build_s": build_s, "index_mb": index.nbytes() / 2**20}
    if args.trace:
        path = harness.out_path("traces", f"server-{os.getpid()}.json")
        tracer.dump(path)
        report["spans"] = path
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
