"""batch-mixed: a closed loop of mixed-extent batches through the engine.

One caller sends batches of ``BATCH`` queries to
``ExecutionEngine(HintIndex(...))`` with default settings over a TAXIS
clone of ``CARDINALITY`` intervals (m=17).  Each batch is 7/8 narrow
(<= 0.1% of the domain) and 1/8 wide (~1%) queries; count-mode and
ids-mode batches alternate: each round is one ids batch and then
``COUNT_REPEAT`` count batches (one count batch is little work, so the
count figures need many more of them).  Every batch is timed on its
own; the rates come from the median batch time of each mode.

The traced run then runs the churn section (``wl_churn.py``) for the
``cache`` and ``hint``-mutation layers, which batch-mixed does not use.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import harness
import wl_churn
from harness import DOMAIN, M, Outcome, RankOracle
from tracing import Tracer

CARDINALITY = 1_000_000
BATCH = 2048
NARROW_MAX = DOMAIN // 1000  # 0.1% of the domain
WIDE = DOMAIN // 100  # 1% of the domain
DISTINCT_BATCHES = 8
COUNT_REPEAT = 16
SETUP_REPS = 3
#: Percentile of the count-batch latencies reported as ``tail_ms``
#: (several hundred batches per run leave tens of samples beyond it).
TAIL = 95.0
IDS_CHECKS_PER_BATCH = 6
MODES = ("count", "ids")
BACKENDS = ("serial", "threads", "processes", "compiled", "threads+compiled")


def make_inputs(seed: int):
    from repro.intervals.batch import QueryBatch
    from repro.workloads.realistic import make_realistic_clone

    coll = make_realistic_clone(
        "TAXIS", cardinality=CARDINALITY, seed=seed
    ).normalized(M)
    rng = np.random.default_rng([seed, 1])
    batches = []
    for _ in range(DISTINCT_BATCHES):
        n_narrow = BATCH * 7 // 8
        extent = np.concatenate([
            rng.integers(1, NARROW_MAX + 1, n_narrow),
            np.full(BATCH - n_narrow, WIDE),
        ])
        st = rng.integers(0, DOMAIN - extent + 1)
        perm = rng.permutation(BATCH)
        st, extent = st[perm], extent[perm]
        batches.append(QueryBatch(st, st + extent - 1))
    return coll, batches


def _check(result, batch, mode, oracle, rng) -> bool:
    expected = oracle.counts(batch.st, batch.end)
    if not np.array_equal(np.asarray(result.counts), expected):
        return False
    if mode == "ids":
        for pos in rng.choice(len(batch), IDS_CHECKS_PER_BATCH, replace=False):
            want = oracle.ids_of(int(batch.st[pos]), int(batch.end[pos]))
            if not harness.ids_match(result.ids(int(pos)), want):
                return False
    return True


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.core.strategies import run_strategy
    from repro.engine import ExecutionEngine
    from repro.hint.index import HintIndex
    from repro.kernels.compiled import compiled_run

    coll, batches = make_inputs(seed)
    oracle = RankOracle(coll.st, coll.end, coll.ids)
    check_rng = np.random.default_rng([seed, 2])
    outcome = Outcome()
    tracer = Tracer(enabled=trace)

    # ---- set-up: build, construct, first answer per mode ------------- #
    setups = []
    engine = None
    for rep in range(SETUP_REPS):
        if engine is not None:
            engine.close()
            engine = None
            gc.collect()
        gc.collect()
        warm = []
        t0 = time.perf_counter()
        with tracer.span("hint.build", rep):
            index = HintIndex(coll, m=M)
        engine = ExecutionEngine(index)
        for mode, batch in zip(MODES, batches):
            with tracer.span("engine.first." + mode, rep):
                warm.append((mode, batch, engine.execute(batch, mode=mode)))
        setups.append(time.perf_counter() - t0)
        for mode, batch, result in warm:
            outcome.record(_check(result, batch, mode, oracle, check_rng),
                           f"setup {mode} answer wrong")
        del warm

    # ---- closed loop: one ids batch, then COUNT_REPEAT count batches -- #
    times = {"count": [], "ids": []}
    traced = {"count": [], "ids": []}
    n_batch = 0
    t_start = time.perf_counter()
    try:
        while (time.perf_counter() - t_start < seconds
               or len(times["ids"]) < 3 or (trace and not traced["ids"])):
            # With tracing on, the first half runs untraced (the baseline
            # of trace.overhead_frac); the second half records spans and
            # also calls the core and kernel layers directly on the same
            # batches.
            tracing_now = (trace and
                           time.perf_counter() - t_start >= seconds / 2)
            tracer.enabled = tracing_now
            sink = traced if tracing_now else times
            for mode in ("ids", "count"):
                reps = COUNT_REPEAT if mode == "count" else 1
                todo = [batches[(n_batch + i) % DISTINCT_BATCHES]
                        for i in range(reps)]
                gc.collect()
                results = []
                for i, batch in enumerate(todo):
                    t0 = time.perf_counter()
                    with tracer.span("engine." + mode, n_batch + i):
                        results.append(engine.execute(batch, mode=mode))
                    sink[mode].append(time.perf_counter() - t0)
                for batch, result in zip(todo, results):
                    outcome.record(
                        _check(result, batch, mode, oracle, check_rng),
                        f"{mode} batch answer wrong")
                del results
                if tracing_now:
                    for layer, fn in (("core", run_strategy),
                                      ("kernels", compiled_run)):
                        gc.collect()
                        with tracer.span(f"{layer}.{mode}", n_batch):
                            result = fn("partition-based", index, todo[0],
                                        mode=mode)
                        outcome.record(
                            _check(result, todo[0], mode, oracle, check_rng),
                            f"direct {layer} {mode} answer wrong")
                        del result
                n_batch += reps
        ledger = engine.backend_policy.snapshot()
    finally:
        engine.close()

    count_s = harness.median(times["count"])
    named = {
        "count_qps": (BATCH / count_s, "1/s"),
        "ids_qps": (BATCH / harness.median(times["ids"]), "1/s"),
        "count_p50_ms": (count_s * 1e3, "ms"),
        f"count_p{TAIL:g}_ms": (
            harness.percentile(times["count"], TAIL) * 1e3, "ms"),
        "count_batches": (len(times["count"]), "count"),
        "ids_batches": (len(times["ids"]), "count"),
    }
    end_to_end = {
        "setup_s": (harness.median(setups), "s"),
        "main_qps": named["count_qps"],
        "side_qps": named["ids_qps"],
        "p50_ms": named["count_p50_ms"],
        "tail_ms": named[f"count_p{TAIL:g}_ms"],
    }
    layers = {}
    if trace:
        spans = tracer.spans
        layers["hint.build_s"] = (harness.median(
            [s[2] - s[1] for s in spans if s[0] == "hint.build"]), "s")
        layers["hint.index_mb"] = (index.nbytes() / 2**20, "MiB")
        for mode in MODES:
            engine_t = {s[4]: s[2] - s[1] for s in spans
                        if s[0] == "engine." + mode}
            core_t = {s[4]: s[2] - s[1] for s in spans
                      if s[0] == "core." + mode}
            kern_t = {s[4]: s[2] - s[1] for s in spans
                      if s[0] == "kernels." + mode}
            both = [g for g in core_t if g in kern_t and g in engine_t]
            layers[f"core.{mode}_ms"] = (
                harness.median(list(core_t.values())) * 1e3, "ms")
            layers[f"kernels.{mode}_ms"] = (
                harness.median(list(kern_t.values())) * 1e3, "ms")
            layers[f"engine.{mode}_ms"] = (
                harness.median(list(engine_t.values())) * 1e3, "ms")
            layers[f"engine.excess_{mode}_ms"] = (harness.median(
                [engine_t[g] - min(core_t[g], kern_t[g]) for g in both]
            ) * 1e3, "ms")
            layers[f"engine.first_{mode}_s"] = (harness.median(
                [s[2] - s[1] for s in spans
                 if s[0] == "engine.first." + mode]), "s")
            bucket = f"b{BATCH.bit_length()}"
            for backend in BACKENDS:
                n = sum(cell["count"] for key, cell in ledger.items()
                        if key.split("|")[1:] == [mode, bucket, backend])
                name = backend.replace("+", "_")
                layers[f"engine.batches.{mode}.{name}"] = (n, "count")
        base = sum(harness.median(times[k]) for k in times)
        with_spans = sum(harness.median(traced[k]) for k in traced)
        layers["trace.overhead_frac"] = (with_spans / base - 1.0, "fraction")
        churn = wl_churn.run(seed, seconds / 2, outcome)
        layers.update(churn["layers"])
        named.update(churn["named"])
    return {
        "outcome": outcome,
        "end_to_end": end_to_end,
        "layers": layers,
        "named": named,
        "tracer": tracer,
        "churn_tracer": churn["tracer"] if trace else None,
        "samples": {"setup_s": setups, "ids_s": times["ids"]},
    }
