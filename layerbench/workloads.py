"""The HTTP phases of one run: set-up, then rounds of load, writes and a crash.

:func:`run_http` drives one workload against ``repro serve`` processes and
returns a :class:`HttpRun` holding every raw observation (latencies,
responses, server counters).  It checks nothing itself: the answers are
compared with the in-process oracle afterwards (``oracle.py``), so no
checking work shares the processor with the measured requests.

1. **Set-up**, ``setups`` times: spawn a server on a fresh data directory,
   register the databases, and wait for one warm-up read of each (a
   ``what_if`` with no refs, which evaluates the workload query).  Every
   set-up but the last is killed; the last serves the first round.  The
   closed-loop workloads register the instance twice: the solves read
   ``bench``, which never changes, and the writes go to ``bench-writes``.
2. **Rounds**, ``rounds`` times, each made of ``spec.slices_per_round`` slices
   and ``RESTARTS`` crashes.  A slice is

   * on the closed-loop workloads (``easy-2k``, ``hard-60k``), the closed
     loop of solves for its share of ``seconds``;
   * then its share of the seeded write sequence: insertions, each
     followed by a ``what_if`` probe, and on ``mutate-60k`` every 10th by
     a greedy solve (there, these writes are the measured load).

   A crash reads the counts, SIGKILLs the server, restarts it on the
   same data directory and times the first successful read.  Each round
   writes one compaction cycle (``DEFAULT_COMPACT_AFTER`` records) and the
   first round half of one, so every crash falls half a cycle past a
   compaction: every restart replays the same number of log records, and
   the recovery samples of a run differ only by noise.  Recovery does not
   compact, so the second crash of a round replays the same records again
   and costs no further writes.

   The machine this runs on drifts between fast and slow phases lasting
   seconds; spreading every kind of sample over the whole run keeps the
   figures from depending on which phase a burst of samples fell into.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from inputs import (
    SCHEMA, Rows, WorkloadSpec, insertion_batches, k_sequence, k_stream, refs_json, user_bytes,
)
from service import BenchError, Client, Reply, Server, dir_bytes

from repro.storage.store import DEFAULT_COMPACT_AFTER

#: Crashes (kill, restart, timed read) at the end of each round.
RESTARTS = 2

DATABASE = "bench"
#: Where the closed-loop workloads send their writes: a second copy of the
#: instance, so the solve loop's database (and its caches) never changes.
WRITE_DATABASE = "bench-writes"


def write_database(spec: WorkloadSpec) -> str:
    """The database a workload's writes, probes and crash reads go to."""
    return WRITE_DATABASE if spec.closed_loop else DATABASE


@dataclass
class Op:
    """One operation, in issue order."""

    index: int
    kind: str  # "solve" | "write" | "probe" | "read"
    latency_s: float
    status: int
    #: The server's ``elapsed_ms`` (handler time), when it answered 200.
    handler_ms: Optional[float]
    #: Writes acknowledged before this operation was issued.
    writes_done: int
    k: Optional[int] = None
    #: Write/probe ops: position in the write sequence.
    step: Optional[int] = None
    #: Solves: issued by the closed loop (else interleaved with writes).
    loop: bool = False
    retries: int = 0
    body: Optional[dict] = None


@dataclass
class Crash:
    """One kill/restart: counts read before the kill and after the restart."""

    writes_done: int
    before: dict
    after: dict
    recovery_s: float
    #: Closed-loop workloads: the solve database read after the restart.
    untouched: Optional[dict] = None


@dataclass
class HttpRun:
    """Raw observations of one run's HTTP phases."""

    setup_s: List[float] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    #: Wall seconds of the measured load (closed loops, or mutate's writes).
    load_wall_s: float = 0.0
    batches: List[List[Tuple[str, str]]] = field(default_factory=list)
    probe_refs: List[list] = field(default_factory=list)
    crashes: List[Crash] = field(default_factory=list)
    #: ``/healthz`` counters summed over every server process of the rounds.
    counters: Dict[str, int] = field(default_factory=dict)
    storage: Dict[str, int] = field(default_factory=dict)
    rss_mb: float = 0.0
    stored_bytes: int = 0
    sent_bytes: int = 0

    writes_issued: int = 0
    #: ``k`` values whose first good solve body is kept (for the oracle).
    kept_ks: set = field(default_factory=set)

    def record(self, kind: str, reply: Reply, **fields) -> None:
        """Append one op; of the solves, only the first good body per ``k`` is kept."""
        keep = kind != "solve" or (reply.ok and fields["k"] not in self.kept_ks)
        if kind == "solve" and keep:
            self.kept_ks.add(fields["k"])
        # Closed-loop solves read the database no write touches.
        writes_done = 0 if fields.get("loop") else self.writes_issued
        self.ops.append(Op(
            len(self.ops), kind, reply.latency_s, reply.status, _handler_ms(reply),
            writes_done, retries=reply.retries,
            body=reply.body if keep else None, **fields,
        ))
        if kind == "write":
            self.writes_issued += 1


class Launcher:
    """Starts servers of one run: checkout root, scratch space, server CPUs."""

    def __init__(self, root: Path, base: Path, cpus: Optional[set] = None) -> None:
        self.root = root
        self.base = base
        self.cpus = cpus
        base.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def fresh(self) -> Server:
        """A server on a new, empty data directory."""
        self._count += 1
        scratch = self.base / f"server-{self._count}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        return Server(self.root, scratch / "data", scratch / "server.log", self.cpus)

    def restart(self, server: Server) -> Server:
        """A server on ``server``'s data directory (which must be stopped)."""
        self._count += 1
        log = server.log_path.parent / f"restart-{self._count}.log"
        return Server(self.root, server.data_dir, log, self.cpus)


def _handler_ms(reply: Reply) -> Optional[float]:
    value = reply.body.get("elapsed_ms") if reply.ok else None
    return float(value) if isinstance(value, (int, float)) else None


def _solve_body(spec: WorkloadSpec, k: int) -> dict:
    return {"database": DATABASE, "query": spec.query, "k": k, "method": "greedy"}


def _read_counts(client: Client, spec: WorkloadSpec, database: str) -> Reply:
    return client.post("/v1/what_if", {
        "database": database, "query": spec.query, "refs": [],
    })


def _databases(spec: WorkloadSpec) -> List[str]:
    return sorted({DATABASE, write_database(spec)})


def _setup_once(launcher: Launcher, spec: WorkloadSpec,
                register_bodies: List[bytes]) -> Tuple[Server, float]:
    start = time.perf_counter()
    server = launcher.fresh()
    client = server.client()
    try:
        for body in register_bodies:
            reply = client.call_raw("POST", "/v1/databases", body)
            if not reply.ok:
                raise BenchError(f"register failed: {reply.status} {reply.body}")
        for database in _databases(spec):
            reply = _read_counts(client, spec, database)
            if not reply.ok:
                raise BenchError(f"warm-up read failed: {reply.status} {reply.body}")
        elapsed = time.perf_counter() - start
    except BaseException:
        server.kill()
        raise
    finally:
        client.close()
    return server, elapsed


def closed_loop(server: Server, spec: WorkloadSpec, ks: Iterator[int],
                seconds: float, run: HttpRun) -> None:
    """``spec.connections`` callers, each sending its next solve on reply.

    With ``spec.lockstep`` the callers also wait for each other before each
    send, so their requests reach the micro-batcher inside one linger window
    and every dispatch is one batch of all of them.  Free-running callers
    drift apart whenever one reads its reply late, and from then on each
    solve is dispatched alone: the work per solve would depend on the
    host's stalls.  ``ks`` is shared by the rounds, so every round continues
    the seeded ``k`` sequence where the previous one stopped.
    """
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    clients = [server.client() for _ in range(spec.connections)]
    errors: List[BaseException] = []
    stop = threading.Event()
    barrier = threading.Barrier(
        spec.connections,
        # Run by one caller once all have arrived: they stop together.
        action=lambda: stop.set() if time.perf_counter() >= deadline else None,
    ) if spec.lockstep else None

    def more() -> bool:
        if barrier is None:
            return time.perf_counter() < deadline
        barrier.wait()
        return not stop.is_set()

    def caller(client: Client) -> None:
        try:
            while more():
                with lock:
                    k = next(ks)
                reply = client.post("/v1/solve", _solve_body(spec, k))
                with lock:
                    run.record("solve", reply, k=k, loop=True)
        except threading.BrokenBarrierError:
            pass  # another caller failed; its error is re-raised below
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)
            if barrier is not None:
                barrier.abort()

    start = time.perf_counter()
    threads = [threading.Thread(target=caller, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.load_wall_s += time.perf_counter() - start
    for client in clients:
        client.close()
    if errors:
        raise errors[0]


def probe_refs(rows: Rows, batch: List[Tuple[str, str]], seed: int,
               step: int) -> List[list]:
    """What a probe hypothetically deletes: the newest edge and one ``A``."""
    rng = random.Random(f"probe-{seed}-{step}")
    a_value = rng.choice(rows["R1"])[0]
    return [["R2", list(batch[0])], ["R1", [a_value]]]


def write_steps(server: Server, spec: WorkloadSpec, steps: range,
                solve_ks: List[int], run: HttpRun) -> float:
    """Insert and probe for each step, solving after every ``solve_every``-th."""
    database = write_database(spec)
    client = server.client()
    start = time.perf_counter()
    try:
        for step in steps:
            batch, refs = run.batches[step], run.probe_refs[step]
            reply = client.post("/v1/apply_insertions", {
                "database": database, "refs": refs_json(batch),
            })
            run.record("write", reply, step=step)
            run.sent_bytes += user_bytes({"R2": batch})
            reply = client.post("/v1/what_if", {
                "database": database, "query": spec.query, "refs": refs,
            })
            run.record("probe", reply, step=step)
            if spec.solve_every and (step + 1) % spec.solve_every == 0:
                k = solve_ks[(step + 1) // spec.solve_every - 1]
                reply = client.post("/v1/solve", _solve_body(spec, k))
                run.record("solve", reply, k=k, step=step)
    finally:
        client.close()
    return time.perf_counter() - start


def _observe(server: Server, spec: WorkloadSpec, run: HttpRun) -> dict:
    """Fold a server's counters into the run; returns its written-to counts."""
    client = server.client()
    try:
        health = client.get("/healthz")
        counts = _read_counts(client, spec, write_database(spec))
    finally:
        client.close()
    if health.ok:
        for name, value in health.body.get("metrics", {}).items():
            run.counters[name] = run.counters.get(name, 0) + value
        for name in ("compactions_total", "records_appended_total"):
            value = health.body.get("storage", {}).get(name, 0)
            run.storage[name] = run.storage.get(name, 0) + value
    run.rss_mb = max(run.rss_mb, server.peak_rss_mb())
    return counts.body if counts.ok else {"status": counts.status}


def crash(launcher: Launcher, server: Server, spec: WorkloadSpec,
          run: HttpRun, last: bool) -> Server:
    """Read the counts, SIGKILL, restart on the same data dir, time a read.

    The timed read goes to the written-to database.  On the closed-loop
    workloads the solve database is then read too (untimed), so it is
    rehydrated before the next slice of load.
    """
    before = _observe(server, spec, run)
    if last:
        run.stored_bytes = dir_bytes(server.data_dir)
    server.kill()
    start = time.perf_counter()
    server = launcher.restart(server)
    client = server.client()
    try:
        reply = _read_counts(client, spec, write_database(spec))
        elapsed = time.perf_counter() - start
        untouched = _read_counts(client, spec, DATABASE) if spec.closed_loop else None
    finally:
        client.close()
    run.record("read", reply)
    run.crashes.append(Crash(
        run.writes_issued, before,
        reply.body if reply.ok else {"status": reply.status}, elapsed,
        None if untouched is None else untouched.body,
    ))
    return server


def run_http(launcher: Launcher, spec: WorkloadSpec, rows: Rows, seed: int,
             seconds: float, setups: int, rounds: int) -> HttpRun:
    """All HTTP phases of one run (see the module docstring)."""
    run = HttpRun()
    wire_rows = {name: [list(row) for row in rel] for name, rel in rows.items()}
    register_bodies = [
        json.dumps({"name": name, "schema": SCHEMA, "rows": wire_rows}).encode()
        for name in _databases(spec)
    ]
    run.sent_bytes = user_bytes(rows) * len(register_bodies)
    crash_marks = [DEFAULT_COMPACT_AFTER // 2 + DEFAULT_COMPACT_AFTER * r
                   for r in range(rounds)]
    writes = crash_marks[-1]
    run.batches = insertion_batches(rows, seed, writes, spec.rows_per_write)
    run.probe_refs = [probe_refs(rows, batch, seed, step)
                      for step, batch in enumerate(run.batches)]
    loop_ks = k_stream(spec, seed)
    solve_ks = k_sequence(spec, seed, writes // spec.solve_every
                          if spec.solve_every else 0)
    server: Optional[Server] = None
    try:
        for _ in range(setups):
            if server is not None:
                server.kill()
                shutil.rmtree(server.log_path.parent, ignore_errors=True)
            server, elapsed = _setup_once(launcher, spec, register_bodies)
            run.setup_s.append(elapsed)
        if server is None:
            raise ValueError("setups must be at least 1")
        slices = rounds * spec.slices_per_round
        for index in range(slices):
            if spec.closed_loop:
                closed_loop(server, spec, loop_ks, seconds / slices, run)
            round_index, part = divmod(index, spec.slices_per_round)
            first = crash_marks[round_index - 1] if round_index else 0
            span = crash_marks[round_index] - first
            steps = range(first + span * part // spec.slices_per_round,
                          first + span * (part + 1) // spec.slices_per_round)
            wall = write_steps(server, spec, steps, solve_ks, run)
            if not spec.closed_loop:
                run.load_wall_s += wall
            if (index + 1) % spec.slices_per_round == 0:
                for restart in range(RESTARTS):
                    last = index == slices - 1 and restart == RESTARTS - 1
                    server = crash(launcher, server, spec, run, last=last)
    finally:
        if server is not None:
            server.kill()
    return run
