"""The ``repro serve`` subprocess and the single-process load generator.

The generator drives at most two keep-alive HTTP/1.1 connections, one per
thread: the calling thread runs the first connection and one extra thread
runs the second.  Every request is recorded with the ``time.perf_counter()``
stamps it was due at, sent at and answered at, so an open loop is timed from
its due time and reports its own lateness.
"""
from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

READY_RE = re.compile(r"^Serving task \S+ on (http://\S+)")
BACKLOG_DROP_S = 2.0  # a request this late when its connection frees up is dropped
REQUEST_TIMEOUT_S = 60.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result."""


@dataclass
class Record:
    """One request as the load generator saw it."""

    kind: str  # "predict" | "cold" | "measure" | "poll"
    device: str
    indices: list
    due: float
    ready: float = 0.0  # connection free and request due
    sent: float = 0.0
    done: float = 0.0
    conn: int = 0
    latencies: list | None = None  # observed latencies of a measurement window
    window: "Record | None" = None  # the measurement window a poll follows up
    status: int = 0  # HTTP status; 0: transport error; -1: dropped as backlog; -2: skipped
    reply: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def dropped(self) -> bool:
        return self.status == -1

    @property
    def skipped(self) -> bool:
        return self.status == -2

    @property
    def latency_ms(self) -> float:
        """From due time to the last byte of the response."""
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """From send to the last byte of the response."""
        return (self.done - self.sent) * 1e3

    @property
    def send_lag_ms(self) -> float:
        """How late the generator itself sent (after due and a free connection)."""
        return (self.sent - self.ready) * 1e3


class ServerProcess:
    """``repro serve`` started through the benchmark launcher."""

    def __init__(self, root: Path, env: dict, log_path: Path, cli_args: list[str],
                 trace_path: Path | None = None):
        self.log_path = log_path
        self.trace_path = trace_path
        self.started = time.perf_counter()
        self._log = open(log_path, "w")
        launcher = Path(__file__).resolve().parent / "launcher.py"
        cmd = [sys.executable, str(launcher), str(trace_path) if trace_path else "-", *cli_args]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        self.host, self.port = self._wait_ready(timeout=300.0)

    def _wait_ready(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                match = READY_RE.match(line)
                if match:
                    host, port = match.group(1)[len("http://"):].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchmarkError(f"repro serve did not come up:\n{self.log_path.read_text()[-2000:]}")

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server and its live children."""
        total = 0.0
        for pid in [self.proc.pid, *_children(self.proc.pid)]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += float(line.split()[1]) / 1024.0
        return total

    def stop(self) -> None:
        """Ctrl-C (drain and exit), escalating to kill; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _children(pid: int) -> list[int]:
    out = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass
    return out


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int):
        self.http = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict, float]:
        """Returns ``(status, payload, perf_counter at the last response byte)``."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.http.request(method, path, body, headers)
        resp = self.http.getresponse()
        raw = resp.read()
        done = time.perf_counter()
        return resp.status, json.loads(raw) if raw else {}, done

    def metrics(self) -> dict:
        status, payload, _ = self.call("GET", "/metrics")
        if status != 200:
            raise BenchmarkError(f"/metrics answered {status}")
        return payload

    def close(self) -> None:
        self.http.close()


def request_body(rec: Record) -> bytes:
    payload = {"device": rec.device, "indices": rec.indices}
    if rec.latencies is not None:
        payload["latencies"] = rec.latencies
    return json.dumps(payload).encode()


def execute(conn: Connection, rec: Record, body: bytes | None = None) -> None:
    """Send one request now and fill in its stamps and outcome."""
    if rec.kind == "poll":
        method, path, body = "GET", "/metrics", None
    else:
        method = "POST"
        path = "/measurements" if rec.kind == "measure" else "/predict"
        body = body or request_body(rec)
    rec.sent = time.perf_counter()
    try:
        status, payload, rec.done = conn.call(method, path, body)
    except (OSError, http.client.HTTPException, ValueError):
        rec.done = time.perf_counter()
        rec.status = 0
        conn.close()  # the next request reconnects instead of inheriting a broken stream
        return
    rec.status = status
    rec.reply = payload


def open_loop(conns: list[Connection], schedule: list[Record], t0: float,
              skip=None, after=None) -> None:
    """Send ``schedule`` (sorted by due offset) on a schedule: each record
    goes out at ``t0 + due`` on the first free connection, or is dropped as
    backlog if it is more than ``BACKLOG_DROP_S`` late by the time one frees
    up.  ``due`` offsets become absolute ``perf_counter`` times.

    ``skip(rec)``, asked when a record is due, withdraws it unsent;
    ``after(rec)`` sees each answered record."""
    for rec in schedule:
        rec.due += t0
    bodies = [request_body(rec) for rec in schedule]
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def drive(cid: int) -> None:
        conn = conns[cid]
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            rec = schedule[i]
            rec.conn = cid
            wait = rec.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if skip is not None and skip(rec):
                rec.status = -2
                continue
            rec.ready = max(rec.due, time.perf_counter())
            if rec.ready - rec.due > BACKLOG_DROP_S:
                rec.sent = rec.done = rec.ready
                rec.status = -1
                continue
            execute(conn, rec, bodies[i])
            if after is not None:
                after(rec)

    run_threads([lambda cid=cid: drive(cid) for cid in range(len(conns))])


def run_threads(targets: list) -> None:
    """Run ``targets[0]`` on this thread and the rest on one thread each;
    re-raise the first failure."""
    errors: list[BaseException] = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,), daemon=True) for fn in targets[1:]]
    for t in threads:
        t.start()
    guarded(targets[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def closed_loop(conn: Connection, records, seconds: float) -> list[Record]:
    """Send records back to back on one connection for ``seconds``."""
    out = []
    end = time.perf_counter() + seconds
    for rec in records:
        now = time.perf_counter()
        if now >= end:
            break
        rec.due = rec.ready = now
        execute(conn, rec)
        out.append(rec)
    return out


def server_env(root: Path) -> dict:
    """The server's environment: the caller's, with ``src`` importable."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
