"""Every answer of a run, checked against an in-process oracle.

The oracle is a plain ``Session`` over the same generated rows, driven
through the same public calls the service makes (``solve_many`` +
``solution_payload`` for solves, ``apply_insertions`` for writes,
``what_if`` + ``what_if_payload`` for probes).  It runs after the HTTP
phases, untimed.  Each mismatch is one failure string; a run with any
failure is not correct.

Checked:

* the first good response for each ``k``, field for field, at the
  version it was computed on (only ``elapsed_ms``, ``trace_id`` and
  ``batched`` are exempt; the envelope's ``database`` is not compared and
  its ``version`` is checked separately);
* every write's ``added`` count and resulting version;
* every probe's counts, against the oracle replayed to the same step;
* the counts and version read before each kill and after each restart
  (so no acknowledged write was lost), and on the closed-loop workloads
  the untouched solve database's counts after each restart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from inputs import SCHEMA, Rows, WorkloadSpec
from workloads import Crash, HttpRun, Op

from repro.core.adp import ADPSolver
from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.service.serialize import refs_from_json, solution_payload, what_if_payload
from repro.session import Session

#: Response fields that legitimately differ between runs.
EXEMPT = frozenset({"elapsed_ms", "trace_id", "batched"})
ENVELOPE = frozenset({"database", "version"})


def build_database(rows: Rows) -> Database:
    return Database([Relation(name, tuple(attrs), rows[name])
                     for name, attrs in SCHEMA.items()])


def compare(label: str, got: dict, want: dict) -> List[str]:
    """Field-for-field differences between a response and the oracle."""
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"{label}: missing field {key!r}")
        elif got[key] != value:
            problems.append(f"{label}: {key} = {got[key]!r}, expected {value!r}")
    extra = set(got) - set(want) - EXEMPT - ENVELOPE
    if extra:
        problems.append(f"{label}: unexpected fields {sorted(extra)}")
    return problems


class Oracle:
    """An in-process session mirroring the served database."""

    def __init__(self, rows: Rows, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.session = Session(build_database(rows))
        self.solver = ADPSolver(heuristic="greedy")

    def solve_payloads(self, ks: List[int]) -> Dict[int, dict]:
        """``solution_payload`` for each ``k`` from one ``solve_many`` batch."""
        prepared = self.session.prepare(self.spec.query)
        total = self.session.output_size(prepared)
        solutions = self.session.solve_many(
            [(prepared, k) for k in ks], solver=self.solver
        )
        return {
            k: solution_payload(self.session, prepared, total, solution)
            for k, solution in zip(ks, solutions)
        }

    def insert(self, batch: List[Tuple[str, str]]) -> int:
        return self.session.apply_insertions([TupleRef("R2", e) for e in batch])

    def probe(self, refs: list) -> dict:
        entry = self.session.what_if(refs_from_json(refs), self.spec.query).single
        return what_if_payload(entry)

    def close(self) -> None:
        self.session.close()


def check_run(rows: Rows, spec: WorkloadSpec, run: HttpRun) -> List[str]:
    """All correctness checks of one run; returns the failures.

    The oracle walks the run's timeline by the number of writes applied:
    at each point it checks the solves and crashes that happened there,
    then applies the next write and checks its acknowledgement and probe.
    """
    failures = [f"{op.kind} #{op.index}: HTTP {op.status}"
                for op in run.ops if op.status != 200]
    solves: Dict[int, List[Op]] = {}
    for op in run.ops:
        if op.kind == "solve" and op.body is not None:
            solves.setdefault(op.writes_done, []).append(op)
    writes = {op.step: op for op in run.ops if op.kind == "write"}
    probes = {op.step: op for op in run.ops if op.kind == "probe"}
    crashes: Dict[int, List[Crash]] = {}
    for event in run.crashes:
        crashes.setdefault(event.writes_done, []).append(event)
    oracle = Oracle(rows, spec)
    try:
        base = oracle.probe([])
        if base["output_size_before"] <= 0:
            failures.append("empty query result: nothing to solve")
        for number, event in enumerate(run.crashes):
            if event.untouched is not None:
                label = f"solve database after restart {number}"
                failures += compare(label, event.untouched, base)
                if event.untouched.get("version") != 1:
                    failures.append(f"{label}: version {event.untouched.get('version')}")
        for done in range(len(run.batches) + 1):
            version = done + 1
            group = solves.get(done, [])
            if group:
                want = oracle.solve_payloads(sorted({op.k for op in group}))
                for op in group:
                    label = f"solve k={op.k} after {done} writes"
                    failures += compare(label, op.body, want[op.k])
                    if op.body.get("version") != version:
                        failures.append(f"{label}: version {op.body.get('version')}")
            if done in crashes:
                counts = oracle.probe([])
                for event in crashes[done]:
                    for label, body in (("before", event.before), ("after", event.after)):
                        label = f"read {label} crash after {done} writes"
                        failures += compare(label, body, counts)
                        if body.get("version") != version:
                            failures.append(f"{label}: version {body.get('version')}")
            if done == len(run.batches):
                break
            added = oracle.insert(run.batches[done])
            write = writes[done].body or {}
            if write.get("added") != added or write.get("version") != version + 1:
                failures.append(
                    f"write {done}: added={write.get('added')} "
                    f"version={write.get('version')}, expected {added}/{version + 1}"
                )
            failures += compare(f"probe {done}", probes[done].body or {},
                                oracle.probe(run.probe_refs[done]))
    finally:
        oracle.close()
    return failures

