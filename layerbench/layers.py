"""The traced run: replay a run's operations in-process, one span per layer call.

The replay calls the same public functions the service calls for each
request, in the same order:

* a solve: ``Session.prepare`` (which parses) and ``output_size`` per
  request, one ``Session.solve_many`` per batch (evaluation cache hit,
  then the singleton or greedy curve, the latter building a
  ``ProvenanceIndex``), then ``solution_payload`` + ``dumps_canonical``;
* a write: ``Session.apply_insertions`` then ``DatabaseStore.record_mutation``
  (a call that crosses the compaction threshold is a compaction span);
* a probe: ``Session.what_if`` + ``what_if_payload`` + ``dumps_canonical``;
* recovery: ``DatabaseStore.load`` on the replay's own data directory, then
  ``DatabaseStore.flush`` (the compaction a clean shutdown makes).

Calls made *inside* the library (parse, evaluate, the curves, the index
build) are timed by wrapping the public names the library looks them up
by -- in this process only, restored afterwards.  Nothing is added to the
library itself.  A span is (id, name, start, end, parent, request); the
spans stay in memory and are written out at the end.

Layers a workload's requests never reach (the greedy path on ``easy-2k``,
the singleton path on the 60k workloads) are timed by a one-off sweep on
the workload's own instance, so every per-layer metric is measured on
every workload.  The sweep also times the pure-Python backend.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.core.adp
import repro.core.greedy
import repro.session
from inputs import EASY_QUERY, HARD_QUERY, SPECS, Rows, WorkloadSpec
from oracle import build_database
from workloads import DATABASE, HttpRun, Op

from repro.core.adp import ADPSolver
from repro.data.relation import TupleRef
from repro.engine.evaluate import EngineContext
from repro.service.serialize import (
    dumps_canonical, refs_from_json, solution_payload, what_if_payload,
)
from repro.session import Session
from repro.storage import OP_INSERT, DatabaseStore
from repro.storage.store import LOG_FILE

#: Span-name prefix -> layer (the repository's module names).
LAYERS = ("query", "session", "engine", "core", "storage", "service")

#: Wall-time budget for replaying solve batches (at least one is replayed).
SOLVE_REPLAY_BUDGET_S = 2.0
#: Interleaved solves of the write sequence replayed at most.
STEP_SOLVES_REPLAYED = 2


class Spans:
    """An in-memory span recorder with wrap/restore of library names."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self.request = "-"
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": self._next_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
        }
        self._next_id += 1
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.records.append(record)

    def wrap(self, owner: object, attr: str, name: str,
             note: Optional[Callable[[object], dict]] = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if note is not None:
                    record.update(note(result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- queries over the recorded spans -------------------------------- #
    def named(self, name: str, requests: Optional[Callable[[str], bool]] = None
              ) -> List[dict]:
        return [r for r in self.records if r["name"] == name
                and (requests is None or requests(r["request"]))]

    def self_ms(self) -> Dict[int, float]:
        """Span id -> duration minus its direct children's durations (ms)."""
        out = {r["id"]: (r["end"] - r["start"]) * 1e3 for r in self.records}
        for r in self.records:
            if r["parent"] is not None:
                out[r["parent"]] -= (r["end"] - r["start"]) * 1e3
        return out

    def layer_table(self) -> Dict[str, dict]:
        """Per layer: busy ms (outermost spans of the layer), self ms, count."""
        by_id = {r["id"]: r for r in self.records}
        own = self.self_ms()
        table = {layer: {"busy_ms": 0.0, "self_ms": 0.0, "count": 0}
                 for layer in LAYERS}
        for r in self.records:
            layer = r["name"].split(".", 1)[0]
            row = table[layer]
            row["count"] += 1
            row["self_ms"] += own[r["id"]]
            parent = by_id.get(r["parent"]) if r["parent"] is not None else None
            while parent is not None and parent["name"].split(".", 1)[0] != layer:
                parent = by_id.get(parent["parent"]) if parent["parent"] is not None else None
            if parent is None:
                row["busy_ms"] += (r["end"] - r["start"]) * 1e3
        return table

    def top_level_ms(self, request: str) -> float:
        return sum((r["end"] - r["start"]) * 1e3 for r in self.records
                   if r["request"] == request and r["parent"] is None)


def _ms(records: Sequence[dict]) -> List[float]:
    return [(r["end"] - r["start"]) * 1e3 for r in records]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Replay:
    """One traced replay of a run on a fresh in-process session."""

    def __init__(self, spec: WorkloadSpec, rows: Rows, run: HttpRun,
                 workdir: Path) -> None:
        self.spec = spec
        self.rows = rows
        self.run = run
        self.workdir = workdir
        self.spans = Spans()
        self.solver = ADPSolver(heuristic="greedy")
        self.counts: Dict[str, float] = {}
        self.solve_requests: List[Tuple[str, List[Op]]] = []
        #: Wall seconds of the replayed solves: [traced, untraced twin].
        self.twin_s = [0.0, 0.0]

    def _instrument(self) -> None:
        spans = self.spans
        spans.wrap(repro.session, "parse_query", "query.parse")
        spans.wrap(EngineContext, "evaluate", "engine.evaluate")
        spans.wrap(repro.core.adp, "singleton_curve", "core.singleton")
        spans.wrap(repro.core.greedy, "greedy_curve", "core.greedy",
                   note=lambda curve: {"picks": len(curve.picks())})
        spans.wrap(repro.core.greedy, "ProvenanceIndex", "engine.provenance")

    # --- request replays ------------------------------------------------- #
    def _solve_batch(self, session: Session, ops: Sequence[Op],
                     traced: bool) -> None:
        span = self.spans.span if traced else _no_span
        prepared = None
        for _op in ops:
            with span("session.prepare"):
                prepared = session.prepare(self.spec.query)
            session.output_size(prepared)
        with span("session.solve"):
            solutions = session.solve_many(
                [(prepared, op.k) for op in ops], solver=self.solver
            )
        for solution in solutions:
            total = session.output_size(prepared)
            with span("service.serialize"):
                payload = solution_payload(session, prepared, total, solution)
                payload.update({"database": DATABASE, "version": 1, "batched": False})
                dumps_canonical(payload)

    def _occupancy(self) -> float:
        """Solve requests per ``solve_many`` dispatch, over the whole run."""
        counters = self.run.counters
        dispatches = (counters.get("batches_total", 0)
                      + counters.get("singleton_dispatch_total", 0))
        return counters.get("solves_total", 0) / dispatches if dispatches else 0.0

    def _batches(self) -> List[List[Op]]:
        solves = [op for op in self.run.ops if op.kind == "solve" and op.loop]
        size = max(1, round(self._occupancy()))
        return [solves[i:i + size] for i in range(0, len(solves), size)]

    def _replay_solve(self, session: Session, request: str,
                      batch: List[Op]) -> None:
        """Replay one solve batch traced, then again untraced at the same state.

        The untraced twin gives the tracing overhead: traced minus untraced
        wall time over every replayed batch.
        """
        self.spans.request = request
        start = time.perf_counter()
        self._solve_batch(session, batch, traced=True)
        middle = time.perf_counter()
        self.spans.restore()
        self._solve_batch(session, batch, traced=False)
        self._instrument()
        self.twin_s[0] += middle - start
        self.twin_s[1] += time.perf_counter() - middle
        self.solve_requests.append((request, batch))

    def _replay_solves(self, session: Session) -> None:
        """The closed loop's batches, in order, within a wall-time budget."""
        start = time.perf_counter()
        for count, batch in enumerate(self._batches()):
            if count and time.perf_counter() - start > SOLVE_REPLAY_BUDGET_S:
                break
            self._replay_solve(session, f"solve-{batch[0].index}", batch)

    def _replay_writes(self, session: Session) -> None:
        """Writes, probes and (some) interleaved solves, crashing where the run did.

        At each of the run's crash points the store is reopened and the
        database loaded from it (snapshot + log suffix), as the restarted
        server does; appends then continue on the reopened store.  A final
        ``flush`` is the compaction a clean shutdown makes.
        """
        store_dir = self.workdir / "replay-data"
        store = DatabaseStore(store_dir)
        store.initialize(DATABASE, session, 1)
        log_path = store_dir / DATABASE / LOG_FILE
        appended_bytes = appended = 0
        solves = {op.step: op for op in self.run.ops
                  if op.kind == "solve" and not op.loop}
        crash_points = {event.writes_done for event in self.run.crashes}
        replayed: List[int] = []
        solves_left = STEP_SOLVES_REPLAYED
        try:
            for step, batch in enumerate(self.run.batches):
                refs = [TupleRef("R2", edge) for edge in batch]
                self.spans.request = f"write-{step}"
                with self.spans.span("engine.delta.insert"):
                    session.apply_insertions(refs)
                compactions = store.compactions_total
                size_before = log_path.stat().st_size
                with self.spans.span("storage.append") as record:
                    store.record_mutation(DATABASE, session, OP_INSERT, refs, step + 2)
                if store.compactions_total > compactions:
                    record["name"] = "storage.compaction"
                else:
                    appended_bytes += log_path.stat().st_size - size_before
                    appended += 1
                self.spans.request = f"probe-{step}"
                with self.spans.span("engine.delta.what_if"):
                    entry = session.what_if(
                        refs_from_json(self.run.probe_refs[step]), self.spec.query
                    ).single
                    payload = what_if_payload(entry)
                with self.spans.span("service.serialize"):
                    dumps_canonical(payload)
                if step in solves and solves_left:
                    solves_left -= 1
                    self._replay_solve(session, f"solve-step-{step}", [solves[step]])
                if step + 1 in crash_points:
                    store.close()
                    store = DatabaseStore(store_dir)
                    self.spans.request = f"recovery-{step + 1}"
                    with self.spans.span("storage.load"):
                        recovered = store.load(DATABASE)
                    replayed.append(recovered.replayed_records)
                    recovered.session.close()
            self.spans.request = "shutdown"
            with self.spans.span("storage.compaction"):
                store.flush(DATABASE, session, len(self.run.batches) + 1)
        finally:
            store.close()
        self.counts["storage.bytes_per_record"] = (
            appended_bytes / appended if appended else 0.0
        )
        self.counts["storage.replayed_records"] = _median(replayed)

    def _sweep(self, session: Session, request: str) -> None:
        """Time both solver paths on this instance (coverage of every layer)."""
        self.spans.request = request
        total = session.output_size(HARD_QUERY)
        k = min(max(SPECS["hard-60k"].k_values), max(1, total // 30))
        session.solve_many([(HARD_QUERY, k)], solver=self.solver)
        session.solve_many([(EASY_QUERY, 3)], solver=self.solver)

    def execute(self) -> None:
        self._instrument()
        try:
            session = Session(build_database(self.rows))
            self.spans.request = "setup"
            result = session.evaluate(self.spec.query)
            self.counts["engine.witnesses"] = result.witness_count()
            self.counts["engine.outputs"] = result.output_count()
            self._replay_solves(session)
            self._replay_writes(session)
            self._sweep(session, "sweep")
            stats = session.stats
            self.counts["cache_hits"] = stats.cache_hits
            self.counts["cache_lookups"] = stats.cache_hits + stats.cache_misses
            session.close()
            python_session = Session(build_database(self.rows), backend="python")
            self.spans.request = "python"
            python_session.evaluate(HARD_QUERY)
            self._sweep(python_session, "python")
            python_session.close()
        finally:
            self.spans.restore()

    # --- metrics --------------------------------------------------------- #
    def metrics(self) -> Dict[str, Tuple[float, str]]:
        spans = self.spans
        own = spans.self_ms()
        solve_requests = {request for request, _ops in self.solve_requests}
        in_solves = solve_requests.__contains__

        def numpy_side(request: str) -> bool:
            return request != "python"

        def python_side(request: str) -> bool:
            return request == "python"

        greedy = spans.named("core.greedy", numpy_side)
        python_greedy = spans.named("core.greedy", python_side)
        setup_eval = spans.named("engine.evaluate", lambda r: r == "setup")
        python_eval = spans.named("engine.evaluate", python_side)
        appends = spans.named("storage.append")
        ops = [op for op in self.run.ops if op.kind == "solve" and op.status == 200]
        unattributed = [
            op.latency_s * 1e3 - spans.top_level_ms(request)
            for request, batch in self.solve_requests for op in batch
        ]
        lookups = self.counts["cache_lookups"]
        return {
            "query.parse_ms": (_median(_ms(spans.named("query.parse", in_solves))), "ms"),
            "session.prepare_ms": (_median(_ms(spans.named("session.prepare", in_solves))), "ms"),
            "session.solve_ms": (_median(_ms(spans.named("session.solve", in_solves))), "ms"),
            "singleton.solve_ms": (_median(_ms(spans.named("core.singleton", numpy_side))), "ms"),
            "greedy.curve_ms": (_median([own[r["id"]] for r in greedy]), "ms"),
            "greedy.picks": (_median([r["picks"] for r in greedy]), "count"),
            "engine.evaluate_ms": (_median(_ms(setup_eval[:1])), "ms"),
            "engine.witnesses": (self.counts["engine.witnesses"], "count"),
            "engine.outputs": (self.counts["engine.outputs"], "count"),
            "engine.cache_hit_ratio": (
                self.counts["cache_hits"] / lookups if lookups else 0.0, "ratio"),
            "provenance.build_ms": (_median(_ms(spans.named("engine.provenance", numpy_side))), "ms"),
            "delta.insert_ms": (_median(_ms(spans.named("engine.delta.insert"))), "ms"),
            "delta.what_if_ms": (_median(_ms(spans.named("engine.delta.what_if"))), "ms"),
            "storage.append_ms": (_median(_ms(appends)), "ms"),
            "storage.compaction_ms": (_median(_ms(spans.named("storage.compaction"))), "ms"),
            "storage.compactions": (self.run.storage.get("compactions_total", 0), "count"),
            "storage.load_ms": (_median(_ms(spans.named("storage.load"))), "ms"),
            "storage.replayed_records": (self.counts["storage.replayed_records"], "count"),
            "storage.bytes_per_record": (self.counts["storage.bytes_per_record"], "B"),
            "service.handler_ms": (_median([op.handler_ms for op in ops
                                            if op.handler_ms is not None]), "ms"),
            "service.transport_ms": (_median([op.latency_s * 1e3 - op.handler_ms for op in ops
                                              if op.handler_ms is not None]), "ms"),
            "service.serialize_ms": (_median(_ms(spans.named("service.serialize", in_solves))), "ms"),
            "service.batch_occupancy": (self._occupancy(), "requests/batch"),
            "service.rejected": (self.run.counters.get("rejected_total", 0), "count"),
            "engine.evaluate_ms.python": (_median(_ms(python_eval[:1])), "ms"),
            "provenance.build_ms.python": (
                _median(_ms(spans.named("engine.provenance", python_side))), "ms"),
            "greedy.curve_ms.python": (_median([own[r["id"]] for r in python_greedy]), "ms"),
            "unattributed_ms": (_median(unattributed), "ms"),
            "tracing.overhead_pct": (
                100.0 * (self.twin_s[0] - self.twin_s[1]) / self.twin_s[1], "%"),
        }


@contextmanager
def _no_span(_name: str) -> Iterator[None]:
    yield None


def replay(spec: WorkloadSpec, rows: Rows, run: HttpRun, workdir: Path) -> Replay:
    result = Replay(spec, rows, run, workdir)
    result.execute()
    return result
