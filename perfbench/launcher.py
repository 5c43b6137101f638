"""Start the ``repro`` CLI, optionally with per-layer tracing installed.

Usage: ``python3 perfbench/launcher.py <trace-file|-> <repro cli args...>``

With a trace file, the wrappers of :mod:`tracing` are installed before
``repro.cli.main`` runs, recording from the start (so set-up spans are
kept).  ``SIGUSR2`` pauses recording and ``SIGUSR1`` resumes it, which lets
one server measure the same traffic untraced and traced.  The spans are
written to the trace file when ``main`` returns (``SIGINT`` drains and stops
the server).  With ``-`` the CLI runs untouched.
"""
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _die_with_parent() -> None:
    """Linux: have the kernel kill this server if the benchmark dies first."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def run(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    _die_with_parent()
    from repro.cli import main

    if trace_path == "-":
        return main(cli_args)
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    try:
        return main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
