"""In-memory span recording around the public functions of each serving layer.

Installed by :mod:`launcher` in the server process before ``repro.cli.main``
runs.  Each wrapped call records ``(name, start, end, span_id, parent_id,
thread, attrs)``; the parent is the innermost wrapped call open on the same
thread, so a ``/predict`` handler span parents its ``MicroBatcher.submit``
span.  Times are ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by every
process on the host), so server spans line up with the load generator's
send and receive stamps.  Spans stay in memory and are written once, at exit.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, describe=None, when=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``describe(args, kwargs, result)`` returns the span's attributes;
        it runs after the call, outside the timed interval.  ``when(args,
        kwargs)``, checked before the call, limits recording to the calls it
        accepts.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = describe(args, kwargs, result) if describe else None
                tracer.spans.append((name, t0, t1, sid, parent, threading.get_ident(), info))

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "id", "parent", "thread", "attrs")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def _timed_sampler_factory(tracer: Tracer, make_sampler):
    """``make_sampler`` whose samplers record a ``sampler.select`` span."""

    @functools.wraps(make_sampler)
    def factory(*args, **kwargs):
        sampler = make_sampler(*args, **kwargs)
        tracer.wrap(sampler, "select", "sampler.select")
        return sampler

    return factory


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro.serving.session as session_mod
    from repro.predictors.nasflat import NASFLATPredictor
    from repro.predictors.space_tensors import SpaceTensors
    from repro.serving.adaptation import AdaptationManager
    from repro.serving.server import MicroBatcher, PredictorServer
    from repro.serving.session import PredictorSession

    def request(args, kwargs, result):
        return {"device": args[1], "indices": [int(i) for i in args[2]]}

    def device(args, kwargs, result):
        return {"device": args[1]}

    def rows(args, kwargs, result):
        return {"n": len(args[1])}

    def compiled_rows(args, kwargs, result):
        return {"n": len(args[2]) if len(args) > 2 else len(kwargs["ops"])}

    def readapt(args, kwargs, result):
        return {"promoted": bool(result and result.get("promoted"))}

    tracer.wrap(PredictorServer, "handle_predict", "server.handle_predict")
    tracer.wrap(MicroBatcher, "submit", "batcher.submit", request)
    tracer.wrap(PredictorSession, "predict_batch", "session.predict_batch", request)
    tracer.wrap(PredictorSession, "from_checkpoint", "setup.checkpoint_load")
    tracer.wrap(PredictorSession, "load_warmup", "setup.load_warmup")
    tracer.wrap(PredictorSession, "adapt_candidate", "training.candidate")
    tracer.wrap(PredictorSession, "readapt", "adaptation.readapt", readapt)
    tracer.wrap(SpaceTensors, "batch", "encode.batch", rows)
    tracer.wrap(NASFLATPredictor, "compiled_predict", "compiled.predict", compiled_rows)
    tracer.wrap(AdaptationManager, "ingest", "adaptation.ingest", device)
    tracer.wrap(AdaptationManager, "check_device", "adaptation.check", device)
    # ``adapt`` runs on every predict; record only the calls that adapt
    # (device not resident, or pinned indices).
    tracer.wrap(
        PredictorSession,
        "adapt",
        "session.adapt",
        when=lambda args, kwargs: len(args) > 2
        or kwargs.get("indices") is not None
        or args[1] not in args[0].hot_devices,
    )
    session_mod.make_sampler = _timed_sampler_factory(tracer, session_mod.make_sampler)
