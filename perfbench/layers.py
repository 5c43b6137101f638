"""Per-layer metrics of a traced run: spans, client stamps and ``/metrics`` deltas.

Only spans inside the traced phase count.  A layer's self time is its span
minus its child spans.  Server spans are matched to the load generator's
requests by time: each HTTP handler thread serves one keep-alive connection,
so a thread maps to the connection whose requests contain most of its
``handle_predict`` spans, and within a connection requests run one at a time.
"""
from __future__ import annotations

from collections import Counter, defaultdict

from workloads import Outcome, median, nearest_rank


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


def _delta(phase, *path) -> float:
    def get(snap):
        for key in path:
            snap = snap.get(key, {}) if isinstance(snap, dict) else {}
        return snap if isinstance(snap, (int, float)) else 0

    return get(phase.after) - get(phase.before)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _match_handlers(records, handlers) -> list[tuple]:
    """(client record, handle_predict span) pairs."""
    votes: dict[int, Counter] = defaultdict(Counter)
    for span in handlers:
        for rec in records:
            if rec.sent <= span["start"] and span["end"] <= rec.done:
                votes[span["thread"]][rec.conn] += 1
    conn_of = {thread: c.most_common(1)[0][0] for thread, c in votes.items()}
    by_conn = defaultdict(list)
    for span in handlers:
        if span["thread"] in conn_of:
            by_conn[conn_of[span["thread"]]].append(span)
    pairs = []
    for rec in records:
        for span in by_conn[rec.conn]:
            if rec.sent <= span["start"] and span["end"] <= rec.done:
                pairs.append((rec, span))
                break
    return pairs


def _carrier(submit: dict, dispatches: list[dict]) -> dict | None:
    """The ``predict_batch`` dispatch that served a ``submit``: same device,
    inside the submit span, holding its indices contiguously; the last one."""
    mine = submit["attrs"]["indices"]
    found = None
    for span in dispatches:
        if span["start"] < submit["start"] or span["end"] > submit["end"]:
            continue
        attrs = span["attrs"]
        if attrs["device"] != submit["attrs"]["device"]:
            continue
        theirs = attrs["indices"]
        for pos in (p for p, v in enumerate(theirs) if v == mine[0]):
            if theirs[pos:pos + len(mine)] == mine:
                found = span
                break
    return found


def per_layer(out: Outcome) -> tuple[dict, dict]:
    """(metrics for every workload, metrics only this workload exercises)."""
    phase = out.phase
    spans = [s for s in out.spans if phase.start <= s["start"] and s["end"] <= phase.end]
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    reads = [r for r in phase.records if r.ok]

    handlers = named["server.handle_predict"]
    pairs = _match_handlers(reads, handlers)
    submit_of = {c["parent"]: c for c in named["batcher.submit"]}
    queue_waits = []
    for submit in named["batcher.submit"]:
        carrier = _carrier(submit, named["session.predict_batch"])
        if carrier is not None:
            queue_waits.append(_ms(submit) - _ms(carrier))

    def self_ms(span):
        return _ms(span) - sum(_ms(c) for c in children[span["id"]])

    adapts = named["session.adapt"]
    blocked = sum(1 for r in reads if any(a["start"] < r.done and r.sent < a["end"] for a in adapts))
    encode_n = sum(s["attrs"]["n"] for s in named["encode.batch"])
    compiled_n = sum(s["attrs"]["n"] for s in named["compiled.predict"])
    first = {}
    for span in out.spans:
        first.setdefault(span["name"], span)
    lag = [r.send_lag_ms for r in phase.records if r.sent > 0]
    common = {
        "loadgen.send_lag_p99_ms": nearest_rank(lag, 0.99),
        "server.wire_ms": median([r.service_ms - _ms(h) for r, h in pairs]),
        "server.handle_self_ms": median(
            [_ms(h) - (_ms(submit_of[h["id"]]) if h["id"] in submit_of else 0.0) for h in handlers]
        ),
        "batcher.queue_wait_ms": median(queue_waits),
        "batcher.requests_per_batch": _ratio(
            _delta(phase, "batched_requests_total"), _delta(phase, "batches_total")
        ),
        "session.predict_self_ms": median([self_ms(s) for s in named["session.predict_batch"]]),
        "session.score_hit_frac": _ratio(
            _delta(phase, "session", "score_hits"),
            sum(_delta(phase, "session", k) for k in ("score_hits", "score_misses", "score_bypass")),
        ),
        "session.encode_hit_frac": _ratio(
            _delta(phase, "session", "encode_hits"),
            sum(_delta(phase, "session", k) for k in ("encode_hits", "encode_misses")),
        ),
        "session.plan_compiles": _delta(phase, "session", "plan_compiles"),
        "session.device_evictions": _delta(phase, "session", "device_evictions"),
        "session.blocked_reads": blocked,
        "encode.us_per_arch": _ratio(sum(_ms(s) for s in named["encode.batch"]) * 1e3, encode_n),
        "compiled.us_per_arch": _ratio(sum(_ms(s) for s in named["compiled.predict"]) * 1e3, compiled_n),
        "compiled.calls_per_request": _ratio(len(named["compiled.predict"]), len(handlers)),
        "compiled.plan_buffer_mb": phase.after.get("plan_buffer_bytes", 0) / 2**20,
        "setup.checkpoint_load_s": _ms(first["setup.checkpoint_load"]) / 1e3,
        "setup.load_warmup_s": _ms(first["setup.load_warmup"]) / 1e3,
        "trace.overhead_ms": median([r.latency_ms for r in reads])
        - median([r.latency_ms for r in out.baseline.records if r.ok]),
    }
    extra = {}
    if out.churn is not None:
        checks = named["adaptation.check"]
        wake = []
        for ingest in named["adaptation.ingest"]:
            later = [c["start"] for c in checks
                     if c["attrs"]["device"] == ingest["attrs"]["device"] and c["start"] >= ingest["end"]]
            if later:
                wake.append((min(later) - ingest["end"]) * 1e3)
        readapts = named["adaptation.readapt"]
        extra = {
            "session.adapt_s": sum(_ms(s) for s in adapts) / 1e3,
            "sampler.select_s": median([_ms(s) / 1e3 for s in named["sampler.select"]]),
            "training.candidate_s": median([_ms(s) / 1e3 for s in named["training.candidate"]]),
            "adaptation.ingest_ms": median([_ms(s) for s in named["adaptation.ingest"]]),
            "adaptation.wake_to_check_ms": median(wake),
            "adaptation.readapt_s": median([_ms(s) / 1e3 for s in readapts]),
            "adaptation.promoted_frac": _ratio(
                sum(1 for s in readapts if s["attrs"]["promoted"]), len(readapts)
            ),
        }
    return common, extra
