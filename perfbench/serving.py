"""The serving workload: open-loop traffic through ``python -m repro grid``.

One generator process (this one) drives the grid's router over at most
``nproc`` pipelined connections.  Arrivals are open loop at fixed intervals
on a rate ladder; every request is timed from when it was *due*, so a
stall charges every request scheduled behind it, and the generator's own
lateness is reported as ``loadgen.lag_p90_ms``.  Every payload is new and
all of them are made from the seed before the clock starts.

A request answered OK, correct and within the deadline is *good*.  Typed
refusals (``OVERLOADED``, ``DEADLINE_EXCEEDED``) and late replies are
misses: they count against the latency, goodput and rate metrics and are
reported per rate.  A request counts as *failed* only when the system
misbehaves: a wrong reply, an untyped error, or no reply at all.

OK replies are compared, after the ladder and outside the timed path, with
the benchmark's own bitpacked run of the same network at the same scale.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import resource
import signal
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import RUN_DIR, Metrics, Tracer, child_env, log, percentile

#: The grid's defaults serve these apps (2 workers, ``auto`` backends).
APPS = ("Snort", "Bro217", "LV", "Brill")
#: Latency limit: the per-request deadline, the goodput cut-off and the
#: backlog-drain allowance.
DEADLINE_MS = 250.0
#: Open-loop rate ladder: (arrivals per second, seconds).  The latency phase
#: is long because one 2-vCPU host moves its median by tens of percent
#: between short windows.  The ladder stops at 256 rps because one Python
#: generator lags by tens of ms above that.
LADDER: Tuple[Tuple[int, float], ...] = ((4, 2.0), (16, 15.0), (64, 4.0), (256, 4.0))
LATENCY_RATE = 16  # serve.p50_ms/p90_ms are taken over this phase
PAYLOAD_LEN = 1024
SCALE = 16
#: A run whose generator ran later than this (p90) is invalid.
LAG_BOUND_MS = 20.0
#: Seconds of reference simulation spent checking replies per (app, rate);
#: past it the rest of that group is left unchecked (at least two are).
CHECK_BUDGET_S = 0.1
DRAIN_TIMEOUT_S = 30.0
PHASE_GAP_S = 0.2
#: The generator shares the host with the system under test; running the
#: latter at a lower priority keeps the generator's sends on schedule.
SUT_NICE = 5


@dataclass
class Request:
    rate: int
    index: int
    app: str
    payload: bytes = field(repr=False)
    t_sched: float = 0.0
    t_sent: float = 0.0
    t_done: float = 0.0
    status: str = "LOST"  # "OK", a typed error code, or "LOST"
    raw: Optional[bytes] = field(default=None, repr=False)  # undecoded reply header
    reports: Optional[List[Tuple[int, int]]] = field(default=None, repr=False)
    truncated: bool = False
    queue_ms: float = 0.0
    exec_ms: float = 0.0
    batch_size: int = 0
    correct: Optional[bool] = None  # None: OK reply left unchecked

    @property
    def latency_s(self) -> float:
        return self.t_done - self.t_sched

    @property
    def lag_ms(self) -> float:
        return 1e3 * (self.t_sent - self.t_sched)

    @property
    def good(self) -> bool:
        return (self.status == "OK" and self.correct is not False
                and self.latency_s <= DEADLINE_MS / 1e3)

    @property
    def late_ok(self) -> bool:
        return self.status == "OK" and self.t_done - self.t_sent > DEADLINE_MS / 1e3


# -- inputs ---------------------------------------------------------------------


def build_networks() -> Dict[str, object]:
    from repro.workloads.registry import get_app

    return {app: get_app(app).build(SCALE) for app in APPS}


def make_requests(seed: int, networks: Dict[str, object]) -> List[Request]:
    """The whole ladder's requests, payloads included, in arrival order.

    Apps take turns in a seeded order; each payload is the app's own
    ``make_input`` under a seed derived from the benchmark's.
    """
    from repro.workloads.registry import get_app

    order = random.Random(seed)
    made = {app: 0 for app in APPS}
    requests: List[Request] = []
    for rate, seconds in LADDER:
        apps = list(APPS)
        for index in range(int(rate * seconds)):
            if index % len(apps) == 0:
                order.shuffle(apps)
            app = apps[index % len(apps)]
            payload_seed = zlib.crc32(f"{seed}:{app}:{made[app]}".encode())
            made[app] += 1
            payload = get_app(app).make_input(networks[app], PAYLOAD_LEN,
                                              seed=payload_seed)
            requests.append(Request(rate=rate, index=index, app=app, payload=payload))
    return requests


# -- the system under test ------------------------------------------------------------


def _lower_priority() -> None:
    os.nice(SUT_NICE)


class Grid:
    """One ``python -m repro grid`` process group on a free port."""

    def __init__(self) -> None:
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self._log = None

    async def launch(self) -> float:
        """Start the grid; seconds from launch until the first ping succeeds."""
        os.makedirs(RUN_DIR, exist_ok=True)
        self._log = open(os.path.join(RUN_DIR, "grid.log"), "wb")
        argv = [sys.executable, "-m", "repro", "grid", "--apps", ",".join(APPS),
                "--port", "0"]
        began = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *argv, env=child_env(), stdout=asyncio.subprocess.PIPE,
            stderr=self._log, start_new_session=True, preexec_fn=_lower_priority)
        pattern = re.compile(rb"listening on [^ ]*:(\d+)")
        while self.port is None:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 120.0)
            if not line:
                raise RuntimeError("the grid exited before listening")
            found = pattern.search(line)
            if found:
                self.port = int(found.group(1))
        client = await self.client()
        try:
            await client.ping()
        finally:
            await client.close()
        return time.perf_counter() - began

    async def client(self):
        from repro.serve.client import AsyncServeClient

        return await AsyncServeClient.open(port=self.port, retry_for=10.0)

    async def stats(self) -> dict:
        client = await self.client()
        try:
            return await client.stats()
        finally:
            await client.close()

    async def stop(self) -> None:
        """Shutdown frame first, then signals to the whole process group."""
        if self.proc is None:
            return
        try:
            if self.proc.returncode is None and self.port is not None:
                client = await self.client()
                try:
                    await asyncio.wait_for(client.shutdown(), 10.0)
                finally:
                    await client.close()
                await asyncio.wait_for(self.proc.wait(), 30.0)
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            log(f"polite shutdown failed: {exc!r}")
        finally:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(self.proc.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    await asyncio.wait_for(self.proc.wait(), 10.0)
                except asyncio.TimeoutError:
                    continue
            await self.proc.wait()
            await self.proc.stdout.read()
            self._log.close()
            self.proc = None


# -- open-loop generator --------------------------------------------------------------


class Connection:
    """One pipelined connection of the generator.

    Replies are matched to requests by the id near the head of the reply
    header and stored raw; they are decoded only after the ladder, so the
    generator's per-reply work stays small and its sends stay on schedule.
    """

    _ID = re.compile(rb'"id":(\d+)')

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 on_reply) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, Request] = {}
        self._next_id = 0
        self._on_reply = on_reply
        self.task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int, on_reply) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, on_reply)

    def send(self, request: Request) -> None:
        from repro.serve.protocol import request_frame

        self._next_id += 1
        self.pending[self._next_id] = request
        frame = request_frame(self._next_id, request.app, request.payload,
                              deadline_ms=DEADLINE_MS)
        request.t_sent = time.perf_counter()
        self.writer.write(frame)

    async def _read_loop(self) -> None:
        from repro.serve.protocol import PREAMBLE_SIZE, decode_preamble

        while True:
            try:
                preamble = await self.reader.readexactly(PREAMBLE_SIZE)
                header_len, payload_len = decode_preamble(preamble)
                body = await self.reader.readexactly(header_len + payload_len)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            done = time.perf_counter()
            found = self._ID.search(body, 0, 64)
            request = self.pending.pop(int(found.group(1)), None) if found else None
            if request is None:
                log(f"unmatched reply: {body[:80]!r}")
                continue
            request.t_done = done
            request.raw = body[:header_len]
            self._on_reply()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)


async def drive(grid: Grid, requests: List[Request],
                stats_per_phase: Optional[Dict[int, dict]] = None) -> float:
    """Send the ladder phase by phase, waiting for each phase to drain.

    Returns the seconds spent fetching stats documents between phases.
    """
    n_connections = max(1, min(2, os.cpu_count() or 1))
    outstanding = 0
    drained = asyncio.Event()

    def on_reply() -> None:
        nonlocal outstanding
        outstanding -= 1
        if outstanding == 0:
            drained.set()

    connections = [await Connection.open(grid.port, on_reply)
                   for _ in range(n_connections)]
    fetch_s = 0.0
    try:
        for rate, _seconds in LADDER:
            phase = [r for r in requests if r.rate == rate]
            drained.clear()
            outstanding += len(phase)
            start = time.perf_counter() + 0.05
            for request in phase:
                request.t_sched = start + request.index / rate
                delay = request.t_sched - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                connections[request.index % n_connections].send(request)
            try:
                await asyncio.wait_for(drained.wait(), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                log(f"{outstanding} requests unanswered after the {rate} rps phase")
                break
            if stats_per_phase is not None:
                began = time.perf_counter()
                stats_per_phase[rate] = await grid.stats()
                fetch_s += time.perf_counter() - began
            await asyncio.sleep(PHASE_GAP_S)
    finally:
        for connection in connections:
            await connection.close()
    return fetch_s


def decode_replies(requests: List[Request]) -> None:
    """Turn the raw reply headers into statuses and reply fields."""
    for request in requests:
        if request.raw is None:
            continue  # no reply: stays LOST
        header = json.loads(request.raw)
        request.raw = None
        if header.get("type") == "reply":
            request.status = "OK"
            request.reports = [(int(p), int(s)) for p, s in header["reports"]]
            request.truncated = bool(header["reports_truncated"])
            request.queue_ms = float(header["queue_ms"])
            request.exec_ms = float(header["exec_ms"])
            request.batch_size = int(header["batch_size"])
        elif header.get("type") == "error":
            request.status = str(header.get("code"))


# -- output check ---------------------------------------------------------------------


def check_replies(requests: List[Request], networks: Dict[str, object],
                  seed: int) -> Tuple[int, int]:
    """Compare OK replies with bitpacked runs; returns (checked, wrong).

    Per (app, rate), replies are checked in a seeded order until the check
    budget is spent (at least two each): every reply of the cheap apps, a
    sample of the costly ones.  A reply must carry the first ``max_reports``
    reports and the truncation flag exactly.
    """
    from repro.serve.server import DEFAULT_MAX_REPORTS
    from repro.sim.compiled import compile_network
    from repro.sim.engine import run

    compiled = {app: compile_network(net) for app, net in networks.items()}
    groups: Dict[Tuple[str, int], List[Request]] = {}
    for request in requests:
        if request.status == "OK":
            groups.setdefault((request.app, request.rate), []).append(request)
    checked = wrong = 0
    for (app, rate), group in sorted(groups.items()):
        random.Random(f"{seed}:{app}:{rate}").shuffle(group)
        began = time.perf_counter()
        for position, request in enumerate(group):
            if position >= 2 and time.perf_counter() - began > CHECK_BUDGET_S:
                break
            result = run(compiled[app], request.payload, track_enabled=False)
            reports = [(int(p), int(s)) for p, s in result.reports.tolist()]
            request.correct = (request.reports == reports[:DEFAULT_MAX_REPORTS]
                               and request.truncated == (len(reports)
                                                         > DEFAULT_MAX_REPORTS))
            checked += 1
            if not request.correct:
                wrong += 1
                log(f"wrong reply: {app} at {rate} rps, request {request.index}")
    return checked, wrong


# -- metrics --------------------------------------------------------------------------


def _phase(requests: List[Request], rate: int) -> List[Request]:
    return [r for r in requests if r.rate == rate]


def end_to_end(requests: List[Request], metrics: Metrics) -> Dict[int, float]:
    """Goodput and wall metrics; returns each rate's goodput.

    ``goodput_rps`` counts good requests over the whole ladder's offered
    time.  A single overloaded rung is no steady measure: a collapsed queue
    lets through only the requests that arrive before it has filled.  The
    latency percentiles are layer metrics (``serve.p50_ms``/``p90_ms``):
    they follow the host's speed, which moves them by a fifth or more from
    run to run on a 2-vCPU host.
    """
    goodput: Dict[int, float] = {}
    for rate, seconds in LADDER:
        phase = _phase(requests, rate)
        good = sum(1 for r in phase if r.good)
        goodput[rate] = good / seconds
        drain_s = max(r.t_done for r in phase) - phase[-1].t_sched
        ok = [1e3 * r.latency_s for r in phase if r.status == "OK"]
        log(f"{rate} rps: sent {len(phase)} good {good} ok {len(ok)} "
            f"p50/p90 ok {percentile(ok, 50):.1f}/{percentile(ok, 90):.1f} ms "
            f"drain {1e3 * drain_s:.0f} ms")
    offered_s = sum(seconds for _rate, seconds in LADDER)
    metrics.put("goodput_rps", sum(1 for r in requests if r.good) / offered_s, "1/s")
    first = min(r.t_sched for r in requests)
    metrics.put("wall_s", max(r.t_done for r in requests) - first, "s")
    return goodput


def latency_metrics(requests: List[Request], metrics: Metrics) -> None:
    """p50/p90 over the latency phase, from each request's scheduled arrival.

    A refused, failed or wrong request is a miss: it counts as at least the
    deadline, however fast the refusal came back.  Each app's latencies
    form their own cluster and the apps take equal turns, so the mixture's
    median sits on a cluster boundary and jumps between neighbours from run
    to run; ``serve.p50_ms`` averages the apps' medians instead.
    """
    calm = _phase(requests, LATENCY_RATE)
    latencies = [1e3 * (r.latency_s if r.status == "OK" and r.correct is not False
                        else max(r.latency_s, DEADLINE_MS / 1e3))
                 for r in calm]
    medians = [percentile([lat for r, lat in zip(calm, latencies) if r.app == app], 50)
               for app in APPS]
    metrics.put("serve.p50_ms", sum(medians) / len(medians), "ms")
    metrics.put("serve.p90_ms", percentile(latencies, 90), "ms")


def max_rate(requests: List[Request]) -> float:
    """The highest rung at which at least 90% of requests are good and the
    last reply arrives within the deadline of the last arrival, as the
    offered rate the generator actually sent (0 when no rung passes)."""
    best = 0.0
    for rate, _seconds in LADDER:
        phase = _phase(requests, rate)
        good = sum(1 for r in phase if r.good)
        drain_s = max(r.t_done for r in phase) - phase[-1].t_sched
        if good >= 0.9 * len(phase) and drain_s <= DEADLINE_MS / 1e3:
            best = (len(phase) - 1) / (phase[-1].t_sent - phase[0].t_sent)
    return best


def _or0(value: float) -> float:
    return 0.0 if value != value else value  # nan (no samples) reads as 0


def serving_layers(requests: List[Request], metrics: Metrics) -> None:
    """Per-rate and per-app layer metrics read from replies and error codes."""
    for rate, _seconds in LADDER:
        phase = _phase(requests, rate)
        ok = [r for r in phase if r.status == "OK"]
        queue = [r.queue_ms for r in ok]
        tag = f"r{rate}"
        metrics.put(f"serve.queue_ms_p50.{tag}", _or0(percentile(queue, 50)), "ms")
        metrics.put(f"serve.queue_ms_p90.{tag}", _or0(percentile(queue, 90)), "ms")
        metrics.put(f"serve.batch_mean.{tag}",
                    sum(r.batch_size for r in ok) / len(ok) if ok else 0.0, "count")
        metrics.put(f"serve.rejected.{tag}",
                    sum(1 for r in phase if r.status == "OVERLOADED"), "count")
        metrics.put(f"serve.expired.{tag}",
                    sum(1 for r in phase if r.status == "DEADLINE_EXCEEDED"), "count")
        metrics.put(f"serve.late_ok.{tag}", sum(1 for r in phase if r.late_ok),
                    "count")
    latency_metrics(requests, metrics)
    calm = [r for r in _phase(requests, LATENCY_RATE) if r.status == "OK"]
    exec_ms = [r.exec_ms for r in calm]
    metrics.put("serve.exec_ms_p50", _or0(percentile(exec_ms, 50)), "ms")
    metrics.put("serve.exec_ms_p90", _or0(percentile(exec_ms, 90)), "ms")
    for app in APPS:
        mine = [r.exec_ms for r in calm if r.app == app]
        metrics.put(f"serve.exec_ms_p90.{app}", _or0(percentile(mine, 90)), "ms")
    # What the router hop, the sockets and reply encoding add to a request.
    transit = [1e3 * r.latency_s - r.lag_ms - r.queue_ms - r.exec_ms for r in calm]
    metrics.put("serve.transit_ms_p50", _or0(percentile(transit, 50)), "ms")
    metrics.put("loadgen.lag_p90_ms", percentile([r.lag_ms for r in requests], 90),
                "ms")
    explained = sum(r.lag_ms + r.queue_ms + r.exec_ms for r in calm)
    total = sum(1e3 * r.latency_s for r in calm)
    metrics.put("trace.coverage", explained / total if total else 0.0, "ratio")


# -- layer measurements outside the timed path ---------------------------------------


def build_entries(tracer: Tracer, metrics: Metrics) -> Dict[str, object]:
    """``build_store`` with the grid's defaults, timed directly with the
    pipeline layers traced; returns the served engine entry per app."""
    import repro.experiments.pipeline as pipeline
    from pipeline_child import install_tracing
    from repro.experiments.config import ExperimentConfig
    from repro.grid import GridOptions, build_store
    from repro.serve.state import ServeState

    config = ExperimentConfig(scale=SCALE)
    install_tracing(tracer)
    tracer.wrap(pipeline, "compile_dfa", "sim.compile_dfa")
    tracer.wrap(pipeline, "compile_lazydfa", "sim.compile_lazydfa")
    try:
        with tracer.span("grid.store_build") as span:
            store = build_store(list(APPS), config, backend=GridOptions().backend)
    finally:
        tracer.unwrap_all()
    metrics.put("grid.store_build_s", span.duration, "s")
    state = ServeState(config, backend=GridOptions().backend)
    return {app: state.add_stored(store.apps[app]) for app in APPS}


def replay_engines(entries: Dict[str, object], requests: List[Request],
                   metrics: Metrics) -> None:
    """Replay the latency phase's payloads, in arrival order, through each
    app's selected engine; read the lazy-DFA cache counters around it."""
    symbols = builds = fallback = evictions = 0
    for app, entry in entries.items():
        payloads = [r.payload for r in _phase(requests, LATENCY_RATE) if r.app == app]
        lazy = entry.lazydfa if entry.backend == "lazydfa" else None
        before = lazy.cache_stats() if lazy is not None else None
        began = time.perf_counter()
        for payload in payloads:
            entry.execute_batch([payload])
        elapsed = time.perf_counter() - began
        n_bytes = sum(len(p) for p in payloads)
        metrics.put(f"sim.us_per_byte.{app}", 1e6 * elapsed / n_bytes, "us")
        if lazy is not None:
            after = lazy.cache_stats()
            symbols += n_bytes
            builds += after["cell_builds"] - before["cell_builds"]
            fallback += after["fallback_steps"] - before["fallback_steps"]
            evictions += after["evictions"] - before["evictions"]
    # Share of lazy-DFA symbol steps that followed an already-built cell.
    metrics.put("sim.lazydfa_hit_rate",
                1.0 - (builds + fallback) / symbols if symbols else 0.0, "ratio")
    metrics.put("sim.lazydfa_evictions", evictions, "count")
    metrics.put("sim.fallback_steps", fallback, "count")


# -- one run --------------------------------------------------------------------------


async def _serve_ladder(requests: List[Request],
                        stats: Optional[Dict[int, dict]]) -> Tuple[float, float]:
    grid = Grid()
    try:
        setup_s = await grid.launch()
        fetch_s = await drive(grid, requests, stats)
    finally:
        await grid.stop()
    return setup_s, fetch_s


def run_serving(seed: int, trace: bool, metrics: Metrics) -> Tuple[bool, int, int]:
    """Run the grid workload; returns (correct, attempted, failed).

    The traced run differs from the untraced one only in fetching the grid's
    stats document between phases (its share of the ladder's wall time is
    ``trace.overhead_frac``) and in the layer measurements made after the
    grid has stopped.
    """
    from pipeline import layer_metrics

    networks = build_networks()
    requests = make_requests(seed, networks)
    stats: Optional[Dict[int, dict]] = {} if trace else None
    setup_s, fetch_s = asyncio.run(_serve_ladder(requests, stats))
    decode_replies(requests)
    checked, wrong = check_replies(requests, networks, seed)
    log(f"grid_fresh: checked {checked} OK replies, {wrong} wrong")
    failed = wrong + sum(1 for r in requests
                         if r.status not in ("OK", "OVERLOADED", "DEADLINE_EXCEEDED"))
    lag_p90 = percentile([r.lag_ms for r in requests], 90)
    valid = lag_p90 <= LAG_BOUND_MS
    if not valid:
        log(f"generator lag p90 {lag_p90:.1f} ms above {LAG_BOUND_MS} ms: run invalid")

    e2e = Metrics()
    goodput = end_to_end(requests, e2e)
    if not trace:
        metrics.values.update(e2e.values)
        metrics.put("setup_s", setup_s, "s")
        metrics.put("peak_rss_mb",
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    else:
        metrics.put("serve.max_rate_rps", max_rate(requests), "1/s")
        for rate in (64, 256):
            metrics.put(f"serve.goodput_rps.r{rate}", goodput[rate], "1/s")
        serving_layers(requests, metrics)
        metrics.put("trace.overhead_frac", fetch_s / e2e.values["wall_s"][0], "ratio")
        grid = stats.get(LADDER[-1][0], {}).get("grid", {})
        metrics.put("grid.spills", grid.get("spills", 0), "count")
        metrics.put("grid.failovers", grid.get("failovers", 0), "count")
        tracer = Tracer()
        entries = build_entries(tracer, metrics)
        replay_engines(entries, requests, metrics)
        layer_metrics(tracer.self_times(), tracer.counts, 0, metrics)
    return valid and wrong == 0, len(requests), failed
