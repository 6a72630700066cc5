"""Tracing must never change answers, and worker spans must land home.

Two contracts:

* **Solution parity** -- a traced ``solve_many`` returns byte-identical
  solutions to an untraced one, on both backends, serially (workers=1) and
  through the worker-pool fan-out (workers=2).  Tracing observes; it never
  steers.
* **Cross-process propagation** -- with a real fork pool, the serialized
  ``worker.task`` span every worker returns for a ``solve_group`` task is
  grafted under the ``parallel.solve_groups`` span that dispatched it,
  labelled with its group.
"""

from __future__ import annotations

import pytest

from repro.engine.backend import numpy_available
from repro.obs.trace import Tracer, use_tracer
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"
#: Two distinct hard-leaf groups: the batch shape solve_many fans out.
REQUESTS = [(QUERY, 3), ("Qm(B) :- R1(A), R2(A, B), R3(B)", 3), (QUERY, 1)]

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def canonical(solutions):
    """Solutions in wire form (removed refs sorted, as the service sends
    them): a frozenset's repr follows its construction history, which a
    worker's unpickled copy does not share."""
    return [
        (s.k, s.size, s.objective, s.removed_outputs, s.optimal, s.method,
         sorted(str(ref) for ref in s.removed))
        for s in solutions
    ]


def make_db():
    return generate_zipf_path(r2_tuples=300, alpha=0.8, seed=11)


def run_batch(backend: str, workers: int, tracer=None):
    """One fresh-session batch; returns (solutions, exported spans, pooled)."""
    session = Session(make_db(), backend=backend, workers=workers)
    try:
        pooled = workers > 1 and session._worker_pool() is not None
        if tracer is None:
            return session.solve_many(REQUESTS, heuristic="greedy"), [], pooled
        with use_tracer(tracer):
            solutions = session.solve_many(REQUESTS, heuristic="greedy")
        return solutions, tracer.export(), pooled
    finally:
        session.close()


def span_names(spans):
    out = []
    stack = list(spans)
    while stack:
        node = stack.pop()
        out.append(node["name"])
        stack.extend(node.get("children", ()))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [1, 2])
def test_traced_solve_is_byte_identical(backend, workers):
    baseline, _, _ = run_batch(backend, workers)
    traced, spans, pooled = run_batch(backend, workers, Tracer())
    assert canonical(traced) == canonical(baseline)
    names = span_names(spans)
    assert "session.solve_many" in names
    assert "engine.evaluate" in names
    assert "solver.greedy" in names
    assert ("parallel.solve_groups" in names) == pooled


@pytest.mark.parametrize("backend", BACKENDS)
def test_unsampled_tracer_is_byte_identical_and_empty(backend):
    baseline, _, _ = run_batch(backend, 1)
    traced, spans, _ = run_batch(backend, 1, Tracer(enabled=False))
    assert repr(traced) == repr(baseline)
    assert spans == []


def test_solve_group_spans_graft_under_their_dispatch_span():
    serial, _, _ = run_batch("python", 1)
    untraced, _, pooled = run_batch("python", 2)
    if not pooled:
        pytest.skip("worker pool unavailable on this platform")
    traced, spans, _ = run_batch("python", 2, Tracer())
    assert canonical(traced) == canonical(untraced) == canonical(serial)
    dispatches = [
        node for node in _walk(spans) if node["name"] == "parallel.solve_groups"
    ]
    assert len(dispatches) == 1, "the batch dispatched exactly once"
    (dispatch,) = dispatches
    groups = len({query for query, _k in REQUESTS})
    assert dispatch["attrs"]["groups"] == groups
    tasks = [
        child
        for child in dispatch.get("children", ())
        if child["name"] == "worker.task"
    ]
    assert len(tasks) == groups, "one grafted worker.task per group"
    assert all(task["attrs"]["kind"] == "solve_group" for task in tasks)
    assert sorted(task["attrs"]["group"] for task in tasks) == list(range(groups))
    assert all(task["dur_ms"] >= 0.0 for task in tasks)
    # The worker-side solve is visible inside each graft.
    for task in tasks:
        assert "solver.greedy" in span_names([task])


def _walk(spans):
    out = []
    stack = list(spans)
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.get("children", ()))
    return out
