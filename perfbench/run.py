"""Serving benchmark: ``repro serve`` end to end under named workloads.

Usage::

    python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root (it needs ``src/``).  The first run builds the
deterministic N1 checkpoint and plan bundle into ``.bench_build/perfbench``
(see ``build.py``); later runs reuse it.  Each run starts the real ``repro
serve`` CLI as a subprocess, drives it from this process with the seeded
load generator, replays a seeded sample of the answers (and every cold
first touch) bit for bit on an in-process reference session, and prints a
table followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The exit code is 0 only for a complete run with every checked answer right.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "predict_p50_ms": "ms",
    "predict_tail_ms": "ms",
    "archs_per_s": "archs/s",
    "server_rss_mb": "MB",
}
PER_LAYER = {
    "loadgen.send_lag_p99_ms": "ms",
    "server.wire_ms": "ms",
    "server.handle_self_ms": "ms",
    "batcher.queue_wait_ms": "ms",
    "batcher.requests_per_batch": "count",
    "session.predict_self_ms": "ms",
    "session.score_hit_frac": "fraction",
    "session.encode_hit_frac": "fraction",
    "session.plan_compiles": "count",
    "session.device_evictions": "count",
    "session.blocked_reads": "count",
    "encode.us_per_arch": "us",
    "compiled.us_per_arch": "us",
    "compiled.calls_per_request": "count",
    "compiled.plan_buffer_mb": "MB",
    "setup.checkpoint_load_s": "s",
    "setup.load_warmup_s": "s",
    "trace.overhead_ms": "ms",
}
# Reported in the table, on the workloads that exercise them.
WORKLOAD_ONLY = {
    "failed_frac": "fraction",
    "max_rate_rps": "req/s",
    "cold_ttfp_ms": "ms",
    "adapt_decision_s": "s",
    "ingest_p50_ms": "ms",
    "session.adapt_s": "s",
    "sampler.select_s": "s",
    "training.candidate_s": "s",
    "adaptation.ingest_ms": "ms",
    "adaptation.wake_to_check_ms": "ms",
    "adaptation.readapt_s": "s",
    "adaptation.promoted_frac": "fraction",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    from build import ensure_built
    from client import BenchmarkError, server_env
    from reference import mismatches, reference_session

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = server_env(ROOT)
    artifacts = ensure_built(ROOT)
    run_dir = ROOT / ".bench_build" / "perfbench" / "runs" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        ref = reference_session(artifacts)
        ctx = workloads.Context(ROOT, env, artifacts, run_dir, args.seed, args.seconds,
                                bool(args.trace), ref)
        try:
            out = workloads.WORKLOADS[args.workload](ctx)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        t_verify = time.perf_counter()
        bad = mismatches(ref, out.verify)
        t_verify = time.perf_counter() - t_verify
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace and out.spans is None:
        print("error: the traced server wrote no spans", file=sys.stderr)
        return 1

    # Ladder rungs past capacity shed load by design: their drops are the
    # rung's verdict, not failed requests.  Every other record counts, and
    # so does every verified answer.
    attempted = out.phase.records + [r for r in out.extra if not r.dropped]
    if out.baseline is not None:
        attempted += out.baseline.records
    counted = {id(r) for r in attempted}
    attempted += [r for r in out.verify if id(r) not in counted]
    wrong = {id(r) for r in bad}
    failures = [r for r in attempted if not r.ok or id(r) in wrong]
    for rec in failures:
        reason = "wrong bits" if id(rec) in wrong else f"status {rec.status} {rec.reply}"
        print(f"failed: {rec.kind} {rec.device}: {reason}", file=sys.stderr)
    if args.trace:
        import layers

        metrics, extra = layers.per_layer(out)
        units = PER_LAYER
    else:
        metrics, extra = workloads.end_to_end(out)
        units = END_TO_END
    extra["failed_frac"] = len(failures) / len(attempted)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  verified {len(out.verify)} answers in {t_verify:.1f} s, "
          f"{len(bad)} wrong")
    for name, value in {**metrics, **extra}.items():
        print(f"  {name:<30} {value:>14.6g} {units.get(name) or WORKLOAD_ONLY[name]}")
    unmeasured = [name for name in units if not math.isfinite(metrics[name])]
    if unmeasured:
        print(f"error: no value for {unmeasured}", file=sys.stderr)
        return 1
    correct = not failures
    result = {
        "correct": correct,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
