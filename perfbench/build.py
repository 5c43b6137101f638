"""Deterministic serving artifacts for the benchmark, built once per source tree.

The benchmark serves task N1 (NASBench-201: 15,625 architectures) from a
pretrained checkpoint plus a ``repro compile``-style plan bundle.  Building
them pretrains and adapts, which takes tens of seconds, so the artifacts are
cached under ``.bench_build/perfbench/<key>`` where ``<key>`` hashes every
file of ``src/`` and this file: a checkout builds once, and any change to the
program or to the recipe below rebuilds.

Artifacts:

* ``checkpoint.npz`` -- the pretrained N1 checkpoint (small pretrain
  recipe, ``quick_config(8)`` otherwise, so ``repro serve --samples 8``
  accepts it);
* ``plans/`` -- bundle the server warms from: the five test devices, with
  plans for every bucket the workloads' request sizes decompose into;
* ``reference/`` -- adapted checkpoints of the cold-device pool, written by
  the same deterministic ``(seed, device)`` adapt the server runs on first
  touch; the correctness gate compares the server's cold adapts to them;
* ``zcp.npy`` -- the full-table ZCP supplementary matrix, so the reference
  session in the benchmark process skips recomputing it;
* ``donors.npz`` -- the frozen latency tables of the task's training
  devices, the source of ``device_churn``'s drifting measurements.
"""
from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

MODEL_SEED = 0
TASK = "N1"
SERVE_SAMPLES = 8
# Every bucket ``plan_buckets`` produces for 8-row and 500-row requests and
# for coalesced batch windows up to ``max_batch`` = 64.
BUNDLE_BUCKETS = [4, 8, 16, 32, 64, 128, 256]
# Devices a run may touch cold: registry devices outside the task.
COLD_POOL_SIZE = 24
RECIPE = "pretrain=32x2/b16 samples=8 buckets=4..256 cold=24 v1"


def source_key(root: Path) -> str:
    """Hash of the program sources and this recipe."""
    h = hashlib.sha256(RECIPE.encode())
    files = sorted((root / "src").rglob("*.py")) + [Path(__file__)]
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cold_pool(task) -> list[str]:
    """Registry devices of the task's space that the task never names."""
    from repro.hardware.registry import devices_for_space

    named = set(task.train_devices) | set(task.test_devices)
    return [d for d in devices_for_space(task.space) if d not in named][:COLD_POOL_SIZE]


def _build(out: Path) -> None:
    import numpy as np

    from repro.predictors.training import PretrainConfig
    from repro.serving import PredictorSession
    from repro.serving.artifacts import write_bundle
    from repro.transfer.pipeline import quick_config

    cfg = quick_config(
        SERVE_SAMPLES, pretrain=PretrainConfig(samples_per_device=32, epochs=2, batch_size=16)
    )
    session = PredictorSession(TASK, cfg, seed=MODEL_SEED, max_hot_devices=64).pretrain()
    session.save(out / "checkpoint.npz")
    write_bundle(session, out / "plans", list(session.task.test_devices), BUNDLE_BUCKETS)
    write_bundle(session, out / "reference", cold_pool(session.task), [8])
    np.save(out / "zcp.npy", session.pipeline.supplementary)
    dataset = session.pipeline.dataset
    np.savez(out / "donors.npz", **{d: dataset.latencies(d) for d in session.task.train_devices})


def ensure_built(root: Path) -> Path:
    """Return the artifact directory for this source tree, building it if absent."""
    base = root / ".bench_build" / "perfbench"
    out = base / source_key(root)
    if (out / "done").exists():
        return out
    tmp = base / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        _build(tmp)
        (tmp / "done").write_text("ok\n")
        shutil.rmtree(out, ignore_errors=True)
        tmp.rename(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out
