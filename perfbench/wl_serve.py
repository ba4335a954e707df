"""serve-lookup: narrow ids lookups over TCP to a batching server.

The server (``server.py``, a child process) serves a TAXIS clone of
``CARDINALITY`` intervals through ``BatchingQueryService`` in ids mode
with the default ``max_batch``/``max_delay_ms``.  This process is the
one client; it opens ``CONNECTIONS`` connections and runs three phases:

* capacity — a closed loop of narrow lookups keeping ``WINDOW``
  requests in flight per connection, more in all than the service's
  ``max_batch``, so the server is saturated and size flushes happen;
  completions per second is ``capacity_qps``;
* wide — the same closed loop with lookups ten times wider, so each
  answer carries about ten times as many ids (``wide_qps``);
* open — Poisson arrivals of narrow lookups at the fixed ``OPEN_RATE``,
  a fifth of the capacity or less even while the machine runs slow, so
  the latency tail does not ride the queueing knee; each request is
  timed from when it was due to be sent.

The phases repeat in short rounds (``ROUND`` seconds each) until the
run's time is up; the rates are completions over the counted time of
all rounds and the latencies percentiles over every open-phase request
of the run.  A traced run
adds a fourth phase with one request in flight per connection, whose
round trip is ``net.rtt1_ms``.

A narrow lookup covers ``NARROW_EXTENT`` domain units and its answer
holds about a hundred ids; a wide one covers ``WIDE_EXTENT`` units and
holds about a thousand — both far below the protocol's ``MAX_FRAME``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import subprocess
import sys
import time

import numpy as np

import harness
from harness import DOMAIN, M, Outcome, RankOracle
from tracing import Tracer

CARDINALITY = 1_000_000
NARROW_EXTENT = DOMAIN // 10_000
WIDE_EXTENT = DOMAIN // 1_000
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Requests in flight per connection in the closed phases; all
#: connections together keep more than ``max_batch`` (256) queued.
WINDOW = 256
OPEN_RATE = 300.0
SETUP_REPS = 3
REQUEST_TIMEOUT = 10.0
#: Every SAMPLE_EVERY-th answer is checked id by id against a scan.
SAMPLE_EVERY = 64
#: Seconds of each phase in a round.
ROUND = {"capacity": 1.2, "wide": 1.2, "open": 2.4, "light": 0.6}
#: Seconds at the start of a closed phase that fill the pipeline and
#: are not counted in its rate.
FILL = 0.3
MAX_REQUESTS = 1_000_000
#: Percentile of the open-loop latencies reported as ``tail_ms``.  A
#: run's p99 and p95 rest on its ~60 and ~300 slowest requests, which
#: the one or two latency spikes a run meets fill (ten-run spreads
#: 0.28-0.44), so the p90 is the bounded figure; the p95 and p99 are
#: printed beside it.
TAIL = 90.0


class _Server:
    """A ``server.py`` child with a line-oriented control channel."""

    def __init__(self, data_path: str, trace: bool):
        cmd = [sys.executable, os.path.join(harness.BENCH_DIR, "server.py"),
               "--data", data_path]
        if trace:
            cmd.append("--trace")
        env = dict(os.environ, PYTHONPATH=harness.SRC)
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=harness.ROOT,
        )
        self.port = self._read(60.0)["port"]

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError("server did not answer on its control channel")
        return json.loads(line)

    def command(self, what: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(what + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def stop(self) -> dict:
        try:
            report = self.command("stop")
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(30.0)
            except subprocess.TimeoutExpired:
                self.kill()
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(30.0)


class _Client:
    """Request bookkeeping shared by every phase of one run."""

    def __init__(self, seed: int, extent: int, oracle: RankOracle,
                 outcome: Outcome, tracer: Tracer):
        rng = np.random.default_rng([seed, 3, extent])
        self.extent = extent
        self.starts = rng.integers(0, DOMAIN - extent + 1, MAX_REQUESTS)
        self.expected = oracle.counts(self.starts, self.starts + extent - 1)
        self.arrival_rng = np.random.default_rng([seed, 4])
        self.lengths = np.full(MAX_REQUESTS, -1, dtype=np.int64)
        self.sampled = {}
        self.next = 0
        self.oracle = oracle
        self.outcome = outcome
        self.tracer = tracer
        self.errors = []

    async def request(self, client, phase: str, due=None):
        qi = self.next % MAX_REQUESTS
        self.next += 1
        a = int(self.starts[qi])
        b = a + self.extent - 1
        t_send = time.monotonic()
        try:
            value = await asyncio.wait_for(client.query(a, b),
                                           REQUEST_TIMEOUT)
        except Exception as exc:  # counted as a failed operation
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
            self.lengths[qi] = -2
            return None
        t_recv = time.monotonic()
        self.lengths[qi] = len(value)
        if qi % SAMPLE_EVERY == 0:
            self.sampled[qi] = value
        self.tracer.add("net.request." + phase, t_send, t_recv,
                        (a << M) | b)
        return t_recv - (t_send if due is None else due)

    def verify(self) -> None:
        """Check every answer's size and the sampled answers' ids."""
        used = min(self.next, MAX_REQUESTS)
        got, want = self.lengths[:used], self.expected[:used]
        ok = got == want
        for qi, value in self.sampled.items():
            a = int(self.starts[qi])
            ok[qi] &= harness.ids_match(
                value, self.oracle.ids_of(a, a + self.extent - 1))
        for qi in np.flatnonzero(~ok)[:5]:
            self.outcome.notes.append(
                f"request {qi}: {got[qi]} ids, expected {want[qi]}")
        self.outcome.attempted += used
        self.outcome.failed += int((~ok).sum())
        self.lengths[:used] = -1
        self.sampled.clear()
        self.next = 0
        self.outcome.notes.extend(self.errors[:5])
        self.errors.clear()


async def _closed(state: _Client, clients, window: int, seconds: float,
                  phase: str):
    start = time.monotonic() + FILL
    end = start - FILL + seconds
    latencies = []
    done = [0]

    async def worker(client):
        while time.monotonic() < end:
            lat = await state.request(client, phase)
            if lat is not None:
                latencies.append(lat)
                # Answers that arrive while the pipeline fills or after
                # the phase ends are not counted.
                done[0] += start <= time.monotonic() <= end

    t0, cpu0 = time.monotonic(), time.process_time()
    await asyncio.gather(*(worker(c) for c in clients for _ in range(window)))
    wall = time.monotonic() - t0
    return (done[0] / (seconds - FILL), (time.process_time() - cpu0) / wall,
            latencies)


async def _open(state: _Client, clients, rate: float, seconds: float):
    gaps = state.arrival_rng.exponential(1.0 / rate, int(rate * seconds * 2))
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    t0 = time.monotonic()
    tasks, lateness = [], []
    for k, offset in enumerate(offsets):
        due = t0 + float(offset)
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.monotonic() - due)
        tasks.append(asyncio.ensure_future(
            state.request(clients[k % len(clients)], "open", due)))
    latencies = [lat for lat in await asyncio.gather(*tasks)
                 if lat is not None]
    return latencies, lateness


async def _connect(port: int):
    from repro.net import AsyncQueryClient

    return [await AsyncQueryClient.connect("127.0.0.1", port)
            for _ in range(CONNECTIONS)]


async def _first_answer(port: int):
    clients = await _connect(port)
    try:
        return await asyncio.wait_for(clients[0].query(0, NARROW_EXTENT - 1),
                                      REQUEST_TIMEOUT)
    finally:
        for c in clients:
            await c.close()


async def _rounds(narrow: _Client, wide: _Client, port: int,
                  seconds: float, phases) -> dict:
    """Repeat the given phases in short rounds until *seconds* pass, so
    every figure samples the whole run."""
    clients = await _connect(port)
    figures = {"capacity": [], "cpu": [], "wide": [], "rtt": [],
               "open": [], "late": []}
    t_end = time.monotonic() + seconds
    try:
        while time.monotonic() < t_end or not figures["capacity"]:
            # The client's own collections would stall every request in
            # flight, so the generator collects between rounds instead.
            gc.collect()
            gc.disable()
            if "capacity" in phases:
                cap, cpu, _ = await _closed(narrow, clients, WINDOW,
                                            ROUND["capacity"], "capacity")
                figures["capacity"].append(cap)
                figures["cpu"].append(cpu)
            if "wide" in phases:
                rate, _, _ = await _closed(wide, clients, WINDOW,
                                           ROUND["wide"], "wide")
                figures["wide"].append(rate)
            if "light" in phases:
                _, _, rtt = await _closed(narrow, clients, 1, ROUND["light"],
                                          "light")
                figures["rtt"].extend(rtt)
            if "open" in phases:
                lat, late = await _open(narrow, clients, OPEN_RATE,
                                        ROUND["open"])
                figures["open"].extend(lat)
                figures["late"].extend(late)
            gc.enable()
    finally:
        gc.enable()
        for c in clients:
            await c.close()
    return figures


def _start(data_path: str, trace: bool, oracle, outcome):
    """Start a server; ``(server, seconds until the first answer)``."""
    t0 = time.perf_counter()
    server = _Server(data_path, trace)
    try:
        value = asyncio.run(_first_answer(server.port))
    except Exception as exc:
        outcome.fail(1, f"first answer failed: {exc!r}")
        return server, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    outcome.record(
        harness.ids_match(value, oracle.ids_of(0, NARROW_EXTENT - 1)),
        "first answer wrong")
    return server, elapsed


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.workloads.realistic import make_realistic_clone

    coll = make_realistic_clone(
        "TAXIS", cardinality=CARDINALITY, seed=seed).normalized(M)
    data_path = harness.out_path("inputs", f"serve-seed{seed}.npz")
    np.savez(data_path, st=coll.st, end=coll.end)
    oracle = RankOracle(coll.st, coll.end, coll.ids)
    outcome = Outcome()
    tracer = Tracer(enabled=trace)
    narrow = _Client(seed, NARROW_EXTENT, oracle, outcome, tracer)
    wide = _Client(seed, WIDE_EXTENT, oracle, outcome, tracer)

    setups = []
    server = None
    try:
        for _rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server, elapsed = _start(data_path, False, oracle, outcome)
            setups.append(elapsed)
        untraced = None
        if trace:
            tracer.enabled = False
            untraced = asyncio.run(_rounds(
                narrow, wide, server.port, seconds / 4, ("capacity",)))
            narrow.verify()
            server.stop()
            tracer.enabled = True
            server, _ = _start(data_path, True, oracle, outcome)
        before = server.command("stats")
        phases = ("capacity", "wide", "open")
        if trace:
            phases += ("light",)
        figures = asyncio.run(_rounds(
            narrow, wide, server.port,
            seconds * 3 / 4 if trace else seconds, phases))
        after = server.command("stats")
        report = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
        os.unlink(data_path)
    figures["answer_bytes"] = [
        _frame_size(value) for value in narrow.sampled.values()]
    narrow.verify()
    wide.verify()

    named = {
        "capacity_qps": (_rate(figures["capacity"]), "1/s"),
        "wide_qps": (_rate(figures["wide"]), "1/s"),
        "p50_ms": (harness.median(figures["open"]) * 1e3, "ms"),
        **{f"p{q:g}_ms": (harness.percentile(figures["open"], q) * 1e3, "ms")
           for q in (TAIL, 95, 99)},
        "open_rate": (OPEN_RATE, "1/s"),
        "open_samples": (len(figures["open"]), "count"),
    }
    end_to_end = {
        "setup_s": (harness.median(setups), "s"),
        "peak_rss_mb": (report["rss_mb"], "MiB"),
        "main_qps": named["capacity_qps"],
        "side_qps": named["wide_qps"],
        "p50_ms": named["p50_ms"],
        "tail_ms": named[f"p{TAIL:g}_ms"],
    }
    layers = {}
    if trace:
        layers.update(_layers(tracer, report, before, after, figures))
        layers["trace.overhead_frac"] = (
            _rate(untraced["capacity"])
            / _rate(figures["capacity"]) - 1.0, "fraction")
    return {"outcome": outcome, "end_to_end": end_to_end, "layers": layers,
            "named": named, "tracer": tracer,
            "samples": {"setup_s": setups, "capacity": figures["capacity"],
                        "wide": figures["wide"]}}


def _rate(per_round) -> float:
    """Completions per second over all rounds of a closed phase.

    Every round counts the same number of seconds, so the mean of the
    per-round rates is the run's completions over its counted time.
    """
    return float(np.mean(per_round))


def _layers(tracer, report, before, after, figures) -> dict:
    with open(report["spans"]) as fh:
        server_spans = json.load(fh)["spans"]
    os.unlink(report["spans"])
    tracer.spans.extend(server_spans)
    flushes = sum(after["flushes_by_reason"].values()) - sum(
        before["flushes_by_reason"].values())
    sojourn = {}
    for name, start, end, _parent, group, _pid in server_spans:
        if name == "service.sojourn":
            sojourn.setdefault(group, []).append((start, end))
    net_self, sojourns = [], []
    for name, start, end, _parent, group, _pid in tracer.spans:
        if name != "net.request.open":
            continue
        for s_start, s_end in sojourn.get(group, ()):
            if start <= s_start and s_end <= end:
                net_self.append(end - start - (s_end - s_start))
                sojourns.append(s_end - s_start)
                break
    exec_ms = [end - start for name, start, end, *_ in server_spans
               if name == "service.exec"]
    return {
        "hint.build_s": (report["build_s"], "s"),
        "hint.index_mb": (report["index_mb"], "MiB"),
        "service.batch_mean": (
            (after["completed"] - before["completed"]) / max(flushes, 1),
            "queries"),
        "service.size_flush_frac": (
            (after["flushes_by_reason"].get("size", 0)
             - before["flushes_by_reason"].get("size", 0)) / max(flushes, 1),
            "fraction"),
        "service.queue_max": (after["max_queue_depth"], "queries"),
        "service.exec_ms": (harness.median(exec_ms) * 1e3, "ms"),
        "service.sojourn_p50_ms": (harness.median(sojourns) * 1e3, "ms"),
        "service.sojourn_p99_ms": (harness.percentile(sojourns, 99) * 1e3,
                                   "ms"),
        "net.self_p50_ms": (harness.median(net_self) * 1e3, "ms"),
        "net.self_p99_ms": (harness.percentile(net_self, 99) * 1e3, "ms"),
        "net.rtt1_ms": (harness.median(figures["rtt"]) * 1e3, "ms"),
        "net.answer_bytes": (float(np.mean(figures["answer_bytes"])),
                             "bytes"),
        "client.cpu_frac": (harness.median(figures["cpu"]), "fraction"),
        "client.late_p99_ms": (harness.percentile(figures["late"], 99) * 1e3,
                               "ms"),
    }


def _frame_size(value) -> int:
    """Bytes of the RESULT frame that carried *value*."""
    from repro.net.protocol import ResultFrame, encode_frame

    return len(encode_frame(ResultFrame(1, "ids", tuple(value))))
