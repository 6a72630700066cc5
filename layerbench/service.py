"""The server process and the HTTP client the benchmark drives it with.

The server is ``python -m repro serve`` in a separate process, so the load
generator never shares its interpreter lock.  Every process started here is
stopped (and waited for) by :meth:`Server.kill`.

The client is stdlib ``http.client`` over one keep-alive connection per
caller thread.  A 429 or 503 answer is retried after its ``Retry-After``
(capped); a request still refused after the last attempt, a transport
error or any other non-200 status is a failed operation.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

READY_LINE = re.compile(rb"listening on http://([0-9.]+):(\d+)")
RETRY_STATUSES = (429, 503)
MAX_ATTEMPTS = 4
MAX_RETRY_WAIT_S = 2.0


class BenchError(RuntimeError):
    """The system under test misbehaved (failed start, wrong answer)."""


def pin_client() -> Optional[set]:
    """Pin this (client) process off the last allowed CPU; returns that CPU.

    The server is started on the returned CPU.  Pinning keeps the scheduler
    from putting the two processes on one core in some runs and not in
    others, which otherwise shows up as run-to-run latency shifts.  With a
    single allowed CPU nothing is pinned and ``None`` is returned.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    os.sched_setaffinity(0, set(allowed[:-1]))
    return {allowed[-1]}


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: Path, data_dir: Path, log_path: Path,
                 cpus: Optional[set] = None, ready_timeout_s: float = 120.0) -> None:
        self.root = root
        self.data_dir = data_dir
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        # The service defaults (backend auto, workers 1, micro-batching on,
        # tracing off, compaction after 64 log records); only the durable
        # data directory is chosen here.
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--data-dir", str(data_dir),
        ]
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                # Runs in the child before exec; spawns happen while the
                # client has no other threads.
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
            )
        self.host, self.port = self._wait_ready(ready_timeout_s)

    def _wait_ready(self, timeout_s: float) -> Tuple[str, int]:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            match = READY_LINE.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise BenchError(
            f"server did not start: {self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def client(self, timeout_s: float = 120.0) -> "Client":
        return Client(self.host, self.port, timeout_s)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) of the server process, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise BenchError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def kill(self) -> None:
        """SIGKILL (a crash: nothing is flushed) and reap the process."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Reply:
    """One finished operation: status, JSON body, latency and retries."""

    __slots__ = ("status", "body", "latency_s", "retries")

    def __init__(self, status: int, body: dict, latency_s: float,
                 retries: int) -> None:
        self.status = status
        self.body = body
        self.latency_s = latency_s
        self.retries = retries

    @property
    def ok(self) -> bool:
        return self.status == 200


class Client:
    """A keep-alive JSON client; use one per thread."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.conn: Optional[http.client.HTTPConnection] = None

    def _roundtrip(self, method: str, path: str,
                   body: Optional[bytes]) -> Tuple[int, bytes]:
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s
                )
            try:
                headers = {"Content-Type": "application/json"} if body else {}
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, ConnectionError):
                # A keep-alive connection the server closed: reconnect once.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def call_raw(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Reply:
        """One operation with 429/503 retries; latency spans all attempts."""
        start = time.perf_counter()
        retries = 0
        while True:
            try:
                status, raw = self._roundtrip(method, path, body)
            except (OSError, http.client.HTTPException) as exc:
                return Reply(0, {"error": repr(exc)},
                             time.perf_counter() - start, retries)
            if status in RETRY_STATUSES and retries + 1 < MAX_ATTEMPTS:
                retries += 1
                try:
                    wait = float(json.loads(raw).get("retry_after_s", 0.05))
                except (ValueError, AttributeError):
                    wait = 0.05
                time.sleep(min(max(wait, 0.01), MAX_RETRY_WAIT_S))
                continue
            latency = time.perf_counter() - start
            try:
                parsed = json.loads(raw)
            except ValueError:
                parsed = {"error": raw[:200].decode(errors="replace")}
            if not isinstance(parsed, dict):
                parsed = {"error": "non-object body"}
            return Reply(status, parsed, latency, retries)

    def post(self, path: str, payload: dict) -> Reply:
        return self.call_raw("POST", path, json.dumps(payload).encode())

    def get(self, path: str) -> Reply:
        return self.call_raw("GET", path)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

