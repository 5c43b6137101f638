"""The benchmark's workloads against a ``repro serve`` subprocess.

Each workload builds its request streams from the run seed, starts the
server, warms it up until ``/metrics`` shows ``session.plan_compiles`` flat,
runs its timed phase, stops the server, and hands the answers it wants
checked to the correctness gate.  Traced runs measure the timed phase twice
on one server: first with span recording paused (the baseline, half
length), then recording, so the difference is the tracing overhead.
"""
from __future__ import annotations

import json
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from build import SERVE_SAMPLES, cold_pool
from reference import reference_scores
from client import (
    BenchmarkError,
    Connection,
    Record,
    ServerProcess,
    closed_loop,
    execute,
    open_loop,
    run_threads,
)

N_ARCHS = 15_625
ZIPF_S = 1.1
HOT_ARCHS_PER_REQUEST = 8
NOMINAL_RATE = 10.0
LATENCY_LIMIT_MS = 100.0
# Rungs above the nominal 10 req/s, spaced by sqrt(2) so that a p99
# boundary near 20 req/s falls between rungs rather than on one.
LADDER = (14.0, 20.0, 28.0, 40.0, 57.0, 80.0, 113.0, 160.0)
RUNG_S = 2.0
SWEEP_CANDIDATES = 500
# Highest percentiles with at least ten samples beyond them at 20 s:
# ~115 sweep requests, ~350 closed-loop churn reads.
SWEEP_TAIL = 0.90
CHURN_TAIL = 0.97
WINDOW = 16
WINDOW_POOL = 512
DECISION_POLL_S = 0.2
DECISION_TIMEOUT_S = 10.0
# Answers replayed on the reference: a seeded share of the hot reads, and
# of nas_sweep's 500-row requests (all rows of each; replaying every row
# costs as much CPU as the timed phase itself).
VERIFY_SHARE = 0.25
SWEEP_VERIFY_SHARE = 1 / 3


@dataclass
class Phase:
    """The read records of one timed phase and ``/metrics`` around it."""

    records: list[Record]
    start: float
    end: float
    before: dict
    after: dict


@dataclass
class Outcome:
    """Everything a workload measured, before reduction to metrics."""

    tail_q: float
    setup_s: float = 0.0
    phase: Phase | None = None
    baseline: Phase | None = None  # traced runs: same traffic, recording paused
    extra: list[Record] = field(default_factory=list)  # ladder rungs, writes
    ladder: list[tuple[float, float, bool]] = field(default_factory=list)
    rss_mb: float = 0.0
    spans: list[dict] | None = None
    verify: list[Record] = field(default_factory=list)
    churn: "ChurnControl | None" = None


class Context:
    """Shared inputs of one run."""

    def __init__(self, root: Path, env: dict, artifacts: Path, run_dir: Path, seed: int,
                 seconds: float, trace: bool, reference):
        self.root, self.env, self.artifacts, self.run_dir = root, env, artifacts, run_dir
        self.seed, self.seconds, self.trace, self.ref = seed, seconds, trace, reference
        self.devices = list(reference.task.test_devices)

    def rng(self, stream: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream.encode()])

    def spawn(self) -> ServerProcess:
        cli = ["serve", "--checkpoint", str(self.artifacts / "checkpoint.npz"),
               "--plans", str(self.artifacts / "plans"), "--samples", str(SERVE_SAMPLES),
               "--port", "0"]
        trace_path = self.run_dir / "spans.json" if self.trace else None
        return ServerProcess(self.root, self.env, self.run_dir / "server.log", cli, trace_path)


# ---------------------------------------------------------------- streams
class Zipf:
    """Zipf(``s``) over ``n`` items, popularity decoupled from item index."""

    def __init__(self, n: int, rng: np.random.Generator, s: float = ZIPF_S):
        weights = np.arange(1, n + 1, dtype=np.float64) ** -s
        self.cdf = np.cumsum(weights) / weights.sum()
        self.items = rng.permutation(n)
        self.rng = rng

    def draw(self) -> int:
        return int(self.items[min(np.searchsorted(self.cdf, self.rng.random()), len(self.cdf) - 1)])

    def distinct(self, k: int) -> list[int]:
        out: list[int] = []
        while len(out) < k:
            item = self.draw()
            if item not in out:
                out.append(item)
        return out


class HotStream:
    """``hot_zipf`` requests: a Zipf device, 8 distinct Zipf architectures."""

    def __init__(self, devices: list[str], rng: np.random.Generator):
        self.devices = devices
        self.device = Zipf(len(devices), rng)
        self.arch = Zipf(N_ARCHS, rng)
        self.rng = rng

    def record(self, due: float = 0.0) -> Record:
        return Record("predict", self.devices[self.device.draw()],
                      self.arch.distinct(HOT_ARCHS_PER_REQUEST), due)

    def __iter__(self):
        return self

    def __next__(self) -> Record:
        return self.record()

    def schedule(self, rate: float, seconds: float) -> list[Record]:
        """``rate * seconds`` Poisson arrivals (uniform order statistics)."""
        n = max(1, int(round(rate * seconds)))
        return [self.record(due) for due in np.sort(self.rng.uniform(0.0, seconds, n))]


class SweepStream:
    """``nas_sweep`` requests: 500 candidates per request, devices round-robin,
    drawn without replacement from a per-device permutation."""

    def __init__(self, devices: list[str], rng: np.random.Generator):
        self.devices = devices
        self.perms = {d: rng.permutation(N_ARCHS) for d in devices}
        self.pos = dict.fromkeys(devices, 0)
        self.turn = 0

    def __iter__(self):
        return self

    def __next__(self) -> Record:
        device = self.devices[self.turn % len(self.devices)]
        self.turn += 1
        start = self.pos[device]
        if start + SWEEP_CANDIDATES > N_ARCHS:
            raise StopIteration  # every (device, arch) pair was asked once
        self.pos[device] = start + SWEEP_CANDIDATES
        archs = self.perms[device][start:start + SWEEP_CANDIDATES]
        return Record("predict", device, [int(i) for i in archs], 0.0)


# ----------------------------------------------------------------- phases
def send(conn: Connection, rec: Record) -> Record:
    """Send one untimed request (warm-up); a failure is fatal."""
    rec.due = rec.ready = time.perf_counter()
    execute(conn, rec)
    if not rec.ok:
        raise BenchmarkError(f"{rec.kind} {rec.device} answered {rec.status}: {rec.reply}")
    return rec


def warm_up(conns: list[Connection], records, round_size: int, max_rounds: int = 60) -> None:
    """Closed-loop rounds until ``session.plan_compiles`` is flat over a round."""
    previous = None
    for _ in range(max_rounds):
        for i in range(round_size):
            send(conns[i % len(conns)], next(records))
        compiles = conns[0].metrics()["session"]["plan_compiles"]
        if compiles == previous:
            return
        previous = compiles
    raise BenchmarkError(f"plan compiles still rising after {max_rounds} warm-up rounds")


def start_server(ctx: Context, out: Outcome, warm) -> tuple[ServerProcess, list[Connection]]:
    """Spawn, connect and warm up; set-up time runs from spawn to warm."""
    server = ctx.spawn()
    conns = [Connection(server.host, server.port) for _ in range(2)]
    try:
        warm(conns)
    except BaseException:
        stop_server(server, conns, out)
        raise
    out.setup_s = time.perf_counter() - server.started
    return server, conns


def stop_server(server: ServerProcess, conns: list[Connection], out: Outcome) -> None:
    out.rss_mb = server.peak_rss_mb()
    for conn in conns:
        conn.close()
    server.stop()
    if server.trace_path is not None and server.trace_path.exists():
        out.spans = json.loads(server.trace_path.read_text())


def measure(conns: list[Connection], run) -> Phase:
    before = conns[0].metrics()
    start = time.perf_counter()
    records = run()
    end = time.perf_counter()
    return Phase(records, start, end, before, conns[0].metrics())


def run_phases(ctx: Context, server: ServerProcess, conns, prepare, out: Outcome) -> None:
    """The timed phase, preceded on traced runs by the paused-recording
    baseline.  ``prepare(seconds, name)`` builds a phase's inputs, untimed,
    and returns the function that runs it and returns its read records."""
    if ctx.trace:
        run = prepare(ctx.seconds / 2, "baseline")
        server.signal(signal.SIGUSR2)
        time.sleep(0.05)
        out.baseline = measure(conns, run)
        server.signal(signal.SIGUSR1)
        time.sleep(0.05)
    out.phase = measure(conns, prepare(ctx.seconds, "timed"))


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(0, min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1))]


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


# --------------------------------------------------------------- workloads
def hot_zipf(ctx: Context) -> Outcome:
    """Open loop, Poisson 10 req/s of 8 Zipf(1.1) architectures on Zipf(1.1)
    devices over two keep-alive connections; then the rate ladder."""
    out = Outcome(tail_q=1.0 - 10.0 / round(NOMINAL_RATE * ctx.seconds))
    stream = HotStream(ctx.devices, ctx.rng("hot"))
    server, conns = start_server(
        ctx, out, lambda conns: warm_up(conns, HotStream(ctx.devices, ctx.rng("hot-warm")), 10))
    try:
        def prepare(seconds, _name):
            recs = stream.schedule(NOMINAL_RATE, seconds)

            def run():
                open_loop(conns, recs, time.perf_counter())
                return recs

            return run

        run_phases(ctx, server, conns, prepare, out)
        if not ctx.trace:
            out.ladder.append(rung_result(NOMINAL_RATE, out.phase.records))
            for rate in LADDER if out.ladder[-1][2] else ():
                recs = stream.schedule(rate, RUNG_S)
                open_loop(conns, recs, time.perf_counter())
                out.extra += recs
                out.ladder.append(rung_result(rate, recs))
                if not out.ladder[-1][2]:
                    break
    finally:
        stop_server(server, conns, out)
    sample = ctx.rng("hot-verify")
    out.verify = [r for r in out.phase.records + out.extra
                  if r.ok and sample.random() < VERIFY_SHARE]
    return out


def rung_result(rate: float, recs: list[Record]) -> tuple[float, float, bool]:
    """(rate, p99 from due, passed): p99 within the limit, nothing dropped
    or failed -- a growing backlog shows as both."""
    p99 = nearest_rank([r.latency_ms for r in recs], 0.99)
    return rate, p99, p99 <= LATENCY_LIMIT_MS and all(r.ok for r in recs)


def nas_sweep(ctx: Context) -> Outcome:
    """Closed loop on one connection, 500 never-repeated candidates per
    request; the phase ends early if every (device, arch) pair was asked."""
    out = Outcome(tail_q=SWEEP_TAIL)
    stream = SweepStream(ctx.devices, ctx.rng("sweep"))
    server, conns = start_server(
        ctx, out, lambda conns: warm_up(conns[:1], stream, len(ctx.devices)))
    try:
        run_phases(ctx, server, conns,
                   lambda seconds, _: lambda: closed_loop(conns[0], stream, seconds), out)
    finally:
        stop_server(server, conns, out)
    sample = ctx.rng("sweep-verify")
    out.verify = [r for r in out.phase.records if r.ok and sample.random() < SWEEP_VERIFY_SHARE]
    return out


class ChurnControl:
    """``device_churn`` writes: per device, a first-touch ``/predict``, then
    a ``/measurements`` window whose latencies come from another device's
    frozen table, then ``/metrics`` polls until the adaptation manager has
    decided on that device."""

    def __init__(self, ctx: Context, rng: np.random.Generator):
        self.ctx = ctx
        self.rng = rng
        self.cold = [str(d) for d in rng.permutation(cold_pool(ctx.ref.task))]
        self.donors = np.load(ctx.artifacts / "donors.npz")
        self.touches: list[Record] = []
        self.windows: list[Record] = []
        self.polls: list[Record] = []
        self.decided: dict[int, float] = {}  # id(window) -> seconds to decision

    def take_cold(self) -> str:
        """A device this run has not touched; the reference loads its adapt."""
        device = self.cold.pop(0)
        self.ctx.ref.load_warmup(self.ctx.artifacts / "reference", devices=[device])
        return device

    def touch(self, device: str, due: float = 0.0) -> Record:
        archs = self.rng.choice(N_ARCHS, HOT_ARCHS_PER_REQUEST, replace=False)
        return Record("cold", device, [int(i) for i in archs], due)

    def window(self, device: str, due: float) -> Record:
        """16 architectures whose donor-table latencies rank against the
        served scores, so the drift detector must fire: half from above the
        served median and below the donor median, half the reverse.  That
        bounds their Spearman correlation by -0.5."""
        from repro.serving.adaptation import rank_correlation

        pool = self.rng.choice(N_ARCHS, WINDOW_POOL, replace=False)
        served = reference_scores(self.ctx.ref, device, pool)
        high_served = served > np.median(served)
        for donor in self.rng.permutation(sorted(self.donors.files)):
            observed = self.donors[donor][pool]
            high_observed = observed > np.median(observed)
            halves = [np.flatnonzero(high_served & ~high_observed),
                      np.flatnonzero(~high_served & high_observed)]
            if min(len(h) for h in halves) >= WINDOW // 2:
                break
        else:
            raise BenchmarkError(f"no donor table ranks against {device} on the window pool")
        pick = np.concatenate([self.rng.choice(h, WINDOW // 2, replace=False) for h in halves])
        rho = rank_correlation(served[pick], observed[pick])
        if rho is None or rho > -0.5:
            raise BenchmarkError(f"drift window for {device} has Spearman {rho}")
        return Record("measure", device, [int(i) for i in pool[pick]], due,
                      latencies=[float(v) for v in observed[pick]])

    def events(self, devices: list[str], seconds: float) -> list[Record]:
        """Touch, window and decision polls per device, evenly over ``seconds``."""
        step = seconds / len(devices)
        recs = []
        for k, device in enumerate(devices):
            touch = self.touch(device, k * step)
            window = self.window(device, touch.due + step / 2)
            polls = [Record("poll", device, [], window.due + j * DECISION_POLL_S, window=window)
                     for j in range(1, int(DECISION_TIMEOUT_S / DECISION_POLL_S) + 1)]
            self.touches.append(touch)
            self.windows.append(window)
            self.polls += polls
            recs += [touch, window, *polls]
        return recs

    def skip(self, rec: Record) -> bool:
        return rec.kind == "poll" and id(rec.window) in self.decided

    def after(self, rec: Record) -> None:
        if rec.kind != "poll" or not rec.ok:
            return
        window, snap = rec.window, rec.reply
        rec.reply = {}
        if not window.ok or rec.sent < window.done:
            return
        state = snap.get("adaptation", {}).get("devices", {}).get(rec.device, {})
        if state.get("promotions", 0) + state.get("rejections", 0) + state.get("failures", 0):
            self.decided.setdefault(id(window), rec.done - window.done)

    def close(self) -> None:
        """A window the adaptation manager never decided on has failed."""
        for window in self.windows:
            if window.ok and id(window) not in self.decided:
                window.status = 0


def device_churn(ctx: Context) -> Outcome:
    """Closed-loop hot reads on one connection beside the open-loop writes
    of :class:`ChurnControl` on the other."""
    out = Outcome(tail_q=CHURN_TAIL)
    reads = HotStream(ctx.devices, ctx.rng("churn"))
    control = ChurnControl(ctx, ctx.rng("churn-control"))
    # Five bundled devices plus three cold ones fill the eight-device LRU in
    # warm-up.  Each timed touch then evicts the oldest warm-up device, and
    # one evicted device comes back and is adapted again.  At most three
    # devices carry measurement windows, so all of them stay resident: the
    # adaptation loop re-checks (and would re-adapt) each of them per wake.
    warm_devices = [control.take_cold() for _ in range(3)]
    first = [control.touch(device) for device in warm_devices]
    devices = {"timed": [control.take_cold(), warm_devices[0]]}
    if ctx.trace:
        devices["baseline"] = [control.take_cold()]

    def warm(conns):
        for rec in first:  # the run's first cold adapt pays one-time costs
            send(conns[1], rec)
        warm_up(conns, HotStream(ctx.devices, ctx.rng("churn-warm")), 10)

    server, conns = start_server(ctx, out, warm)
    try:
        def prepare(seconds, name):
            writes = control.events(devices[name], seconds)

            def run():
                t0 = time.perf_counter()
                recs: list[Record] = []
                run_threads([
                    lambda: recs.extend(closed_loop(conns[0], reads, seconds)),
                    lambda: open_loop(conns[1:], writes, t0, control.skip, control.after),
                ])
                return recs

            return run

        run_phases(ctx, server, conns, prepare, out)
    finally:
        stop_server(server, conns, out)
    control.close()
    sample = ctx.rng("churn-verify")
    out.verify = first + [r for r in control.touches if r.ok] + [
        r for r in out.phase.records if r.ok and sample.random() < VERIFY_SHARE]
    out.extra = control.touches + control.windows + [
        r for r in control.polls if not (r.skipped or r.dropped)]
    out.churn = control
    return out


WORKLOADS = {"hot_zipf": hot_zipf, "nas_sweep": nas_sweep, "device_churn": device_churn}


def end_to_end(out: Outcome) -> tuple[dict, dict]:
    """(metrics for every workload, metrics only this workload exercises)."""
    phase = out.phase
    ok = [r for r in phase.records if r.ok]
    latencies = [r.latency_ms for r in ok]
    common = {
        "setup_s": out.setup_s,
        "predict_p50_ms": median(latencies),
        "predict_tail_ms": nearest_rank(latencies, out.tail_q),
        "archs_per_s": sum(len(r.indices) for r in ok) / (phase.end - phase.start),
        "server_rss_mb": out.rss_mb,
    }
    extra = {}
    if out.ladder:
        passed = [rate for rate, _, good in out.ladder if good]
        extra["max_rate_rps"] = max(passed) if passed else 0.0
    if out.churn is not None:
        churn = out.churn
        extra["cold_ttfp_ms"] = median([r.latency_ms for r in churn.touches if r.ok])
        extra["adapt_decision_s"] = median(list(churn.decided.values()))
        extra["ingest_p50_ms"] = median([r.service_ms for r in churn.windows if r.ok])
    return common, extra
