"""churn: Zipf-skewed cached reads beside inserts and deletes (traced).

This section measures the ``cache`` and ``hint``-mutation layers.  It
runs only inside the traced run of batch-mixed (``run.py --workload
batch-mixed --trace 1``); it is not a workload of its own, because its
end-to-end figures were too noisy to bound (see README.md).

One caller runs a closed loop over ``CachingExecutor(DynamicHint(...))``
(default cache budget, ``rebuild_threshold`` 4096) holding a TAXIS clone
of ``CARDINALITY`` intervals.  Each cycle sends one ids read batch of
``READ_BATCH`` Zipf-skewed queries (``zipfian_queries``, s=1.1, a
universe of ``UNIVERSE`` templates whose answers fit the cache), then
``WRITES_PER_CYCLE`` alternating inserts and deletes.  ``CYCLES_PER_PERIOD``
cycles insert exactly ``rebuild_threshold`` intervals, so every period
ends with one rebuild; the section runs whole periods, at least
``MIN_PERIODS``.  A benchmark-side mirror of the live intervals checks
every answer.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import harness
from harness import DOMAIN, M, Outcome, RankOracle
from tracing import Tracer

CARDINALITY = 200_000
READ_BATCH = 256
UNIVERSE = 4096
ZIPF_S = 1.1
EXTENT_PCT = 0.1
REBUILD_THRESHOLD = 4096
WRITES_PER_CYCLE = 256  # half inserts, half deletes
CYCLES_PER_PERIOD = REBUILD_THRESHOLD // (WRITES_PER_CYCLE // 2)
MIN_PERIODS = 2
WARM_BATCHES = 8
IDS_CHECKS_PER_BATCH = 4
MAX_CYCLES = 4096


def make_inputs(seed: int):
    from repro.workloads.queries import zipfian_queries
    from repro.workloads.realistic import make_realistic_clone

    base = make_realistic_clone(
        "TAXIS", cardinality=CARDINALITY, seed=seed).normalized(M)
    fresh = make_realistic_clone(
        "TAXIS", cardinality=MAX_CYCLES * WRITES_PER_CYCLE // 2,
        seed=seed + 7919).normalized(M)
    reads = zipfian_queries(
        (MAX_CYCLES + WARM_BATCHES) * READ_BATCH,
        DOMAIN, EXTENT_PCT, s=ZIPF_S, universe=UNIVERSE, seed=seed)
    return base, fresh, reads


class Mirror:
    """The live intervals, kept beside the index to check its answers."""

    def __init__(self, base, capacity: int):
        self.st = np.zeros(capacity, dtype=np.int64)
        self.end = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        n = len(base)
        self.st[:n], self.end[:n] = base.st, base.end
        self.alive[:n] = True
        self.live = list(range(n))

    def insert(self, id_: int, st: int, end: int) -> None:
        self.st[id_], self.end[id_] = st, end
        self.alive[id_] = True
        self.live.append(id_)

    def delete_at(self, pos: int) -> int:
        id_ = self.live[pos]
        self.live[pos] = self.live[-1]
        self.live.pop()
        self.alive[id_] = False
        return id_

    def oracle(self) -> RankOracle:
        ids = np.flatnonzero(self.alive)
        return RankOracle(self.st[ids], self.end[ids], ids)


def _check(result, st, end, oracle, rng) -> bool:
    if not np.array_equal(np.asarray(result.counts), oracle.counts(st, end)):
        return False
    for pos in rng.choice(len(st), min(IDS_CHECKS_PER_BATCH, len(st)),
                          replace=False):
        want = oracle.ids_of(int(st[pos]), int(end[pos]))
        if not harness.ids_match(result.ids(int(pos)), want):
            return False
    return True


def run(seed: int, seconds: float, outcome: Outcome) -> dict:
    """Run the traced churn loop for about *seconds*; return its layers,
    its own figures by name and its tracer."""
    from repro.cache import CachingExecutor
    from repro.hint.dynamic import DynamicHint
    from repro.intervals.batch import QueryBatch

    tracer = Tracer()

    class TimedDynamicHint(DynamicHint):
        """Times the per-query calls the cache makes on a miss."""

        def query(self, q_st, q_end):
            with tracer.span("hint.query"):
                return super().query(q_st, q_end)

        def query_count(self, q_st, q_end):
            with tracer.span("hint.query"):
                return super().query_count(q_st, q_end)

    base, fresh, reads = make_inputs(seed)
    check_rng = np.random.default_rng([seed, 2])
    write_rng = np.random.default_rng([seed, 6])

    def batch_at(k: int):
        lo = k * READ_BATCH
        return reads.st[lo:lo + READ_BATCH], reads.end[lo:lo + READ_BATCH]

    # ---- set-up: build, wrap, warm the cache up to a verified answer - #
    dyn = TimedDynamicHint(base, m=M, rebuild_threshold=REBUILD_THRESHOLD)
    cached = CachingExecutor(dyn)
    base_oracle = RankOracle(base.st, base.end, base.ids)
    for k in range(WARM_BATCHES):
        st, end = batch_at(k)
        result = cached.execute(QueryBatch(st, end), mode="ids")
        outcome.record(_check(result, st, end, base_oracle, check_rng),
                       "churn warm-up answer wrong")
    del result

    # ---- closed loop of whole rebuild periods ------------------------ #
    mirror = Mirror(base, CARDINALITY + len(fresh))
    # Move everything alive now (the program's modules, the inputs, the
    # mirror) out of the collector's reach, so that the collection
    # before each sample scans only what the loop has allocated since.
    gc.collect()
    gc.freeze()
    reads_s, writes = [], []  # per read batch; (seconds, rebuilt) per write
    stats0 = cached.stats()
    rebuilds0 = dyn.rebuilds
    n_fresh = cycle = periods = 0
    oracle = mirror.oracle()
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or periods < MIN_PERIODS:
        for _ in range(CYCLES_PER_PERIOD):
            if cycle >= MAX_CYCLES:
                raise RuntimeError("churn ran out of generated inputs")
            st, end = batch_at(WARM_BATCHES + cycle)
            batch = QueryBatch(st, end)
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span("cache.execute", cycle):
                result = cached.execute(batch, mode="ids")
            reads_s.append(time.perf_counter() - t0)
            outcome.record(_check(result, st, end, oracle, check_rng),
                           "churn read batch answer wrong")
            del result

            plan = []
            for k in range(WRITES_PER_CYCLE):
                if k % 2 == 0:
                    plan.append(("insert", int(fresh.st[n_fresh]),
                                 int(fresh.end[n_fresh])))
                    n_fresh += 1
                else:
                    plan.append(("delete",
                                 int(write_rng.integers(len(mirror.live))),
                                 None))
            gc.collect()
            for kind, a, b in plan:
                before = dyn.rebuilds
                t0 = time.perf_counter()
                if kind == "insert":
                    new_id = dyn.insert(a, b)
                else:
                    dyn.delete(mirror.live[a])
                writes.append((time.perf_counter() - t0,
                               dyn.rebuilds != before))
                if kind == "insert":
                    mirror.insert(new_id, a, b)
                else:
                    mirror.delete_at(a)
            outcome.record(len(dyn) == len(mirror.live),
                           "churn live size drifted")
            oracle = mirror.oracle()
            cycle += 1
        periods += 1
    gc.unfreeze()
    stats = cached.stats()
    rebuilds = dyn.rebuilds - rebuilds0
    if rebuilds != periods:
        outcome.fail(1, f"churn: {rebuilds} rebuilds in {periods} periods")

    spans = tracer.spans
    # cache.execute spans by index; the hint.query spans of a read batch
    # run one after another inside it, so their summed time is the part
    # the execute span's children cover.
    execute = {i: s[2] - s[1] for i, s in enumerate(spans)
               if s[0] == "cache.execute"}
    miss = dict.fromkeys(execute, 0.0)
    for s in spans:
        if s[0] == "hint.query" and s[3] in miss:
            miss[s[3]] += s[2] - s[1]
    hit_frac = (stats.hits - stats0.hits) / max(
        1, stats.hits - stats0.hits + stats.misses - stats0.misses)
    layers = {
        "hint.rebuilds": (rebuilds, "count"),
        "hint.rebuild_ms": (harness.median(
            [dt for dt, rebuilt in writes if rebuilt]) * 1e3, "ms"),
        "hint.mutation_us": (harness.median(
            [dt for dt, rebuilt in writes if not rebuilt]) * 1e6, "us"),
        "cache.hit_frac": (hit_frac, "fraction"),
        "cache.invalidated_per_write": (
            (stats.invalidated_entries - stats0.invalidated_entries)
            / len(writes), "entries"),
        "cache.flushes": (
            stats.invalidation_flushes - stats0.invalidation_flushes,
            "count"),
        "cache.execute_ms": (harness.median(list(execute.values())) * 1e3,
                             "ms"),
        "cache.miss_ms": (harness.median(list(miss.values())) * 1e3, "ms"),
        "cache.self_ms": (harness.median(
            [execute[i] - miss[i] for i in execute]) * 1e3, "ms"),
        "cache.resident_mb": (stats.bytes_resident / 2**20, "MiB"),
    }
    named = {
        "churn.read_qps": (READ_BATCH / harness.median(reads_s), "1/s"),
        "churn.write_qps": (
            len(writes) / sum(dt for dt, _ in writes), "1/s"),
        "churn.periods": (periods, "count"),
    }
    return {"layers": layers, "named": named, "tracer": tracer}
