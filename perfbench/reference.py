"""Correctness gate: replay served answers on an in-process reference session.

The reference is a :class:`~repro.serving.session.PredictorSession` over the
same checkpoint and bundle with ``quick_config(8)``, as ``repro serve
--samples 8`` builds it.  Cold devices load the adapted checkpoints that the
build wrote with the same deterministic ``(seed, device)`` adapt.  The
server's JSON floats are shortest round-trip reprs, so a served score equals
its reference bit for bit or the answer is wrong.
"""
from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import numpy as np

VERIFY_CHUNK = 256  # the largest bundled plan bucket: no new traces


def reference_session(artifacts: Path):
    from repro.encodings import base as encodings
    from repro.serving import PredictorSession
    from repro.spaces.registry import get_space
    from repro.transfer.pipeline import quick_config

    from build import SERVE_SAMPLES, TASK
    from repro import get_task

    # The ZCP table the build computed with this same code: skips ~4 s of
    # feature extraction per run in the benchmark process.
    space = get_space(get_task(TASK).space)
    encodings._ENCODING_CACHE.setdefault((space.name, "zcp"), np.load(artifacts / "zcp.npy"))
    session = PredictorSession.from_checkpoint(
        artifacts / "checkpoint.npz", config=quick_config(SERVE_SAMPLES), max_hot_devices=256
    )
    session.load_warmup(artifacts / "plans")
    return session


def reference_scores(session, device: str, idx) -> np.ndarray:
    """Reference scores for ``idx`` on ``device``, in bundled bucket sizes."""
    idx = np.asarray(idx, dtype=np.int64)
    return np.concatenate([
        np.asarray(session.predict_batch(device, idx[start:start + VERIFY_CHUNK]), dtype=np.float64)
        for start in range(0, len(idx), VERIFY_CHUNK)
    ])


def mismatches(session, records) -> list:
    """Records whose scores differ from the reference in any bit."""
    wanted: dict[str, set[int]] = defaultdict(set)
    for rec in records:
        wanted[rec.device].update(rec.indices)
    expected: dict[tuple[str, int], float] = {}
    for device, archs in wanted.items():
        idx = sorted(archs)
        expected.update(zip(((device, i) for i in idx), reference_scores(session, device, idx)))
    bad = []
    for rec in records:
        got = np.asarray(rec.reply.get("scores", []), dtype=np.float64)
        want = np.array([expected[(rec.device, i)] for i in rec.indices], dtype=np.float64)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            bad.append(rec)
    return bad
