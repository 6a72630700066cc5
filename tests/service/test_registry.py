"""Session registry: LRU bound, versioning, read/write lock discipline."""

import threading
import time

import pytest

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.service.registry import ReadWriteLock, SessionRegistry


def make_database():
    return Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
        {
            "R1": [(1,), (2,)],
            "R2": [(1, 10), (1, 11), (2, 20)],
            "R3": [(10,), (11,), (20,)],
        },
    )


QUERY = "Q(A) :- R1(A), R2(A, B), R3(B)"


# --------------------------------------------------------------------------- #
# ReadWriteLock
# --------------------------------------------------------------------------- #
def test_readers_share_writer_excludes():
    lock = ReadWriteLock()
    in_read = threading.Barrier(3)

    def reader():
        with lock.read():
            in_read.wait(timeout=5)  # all three readers inside concurrently

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(t.is_alive() for t in threads)

    events = []

    def writer():
        with lock.write():
            events.append("write")

    with lock.read():
        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)
        assert events == []  # writer blocked behind the in-flight read
        events.append("read-done")
    w.join(timeout=5)
    assert events == ["read-done", "write"]


def test_write_preference_blocks_new_readers():
    lock = ReadWriteLock()
    order = []
    reader_released = threading.Event()
    writer_started = threading.Event()

    def long_reader():
        with lock.read():
            writer_started.wait(timeout=5)
            time.sleep(0.05)
            order.append("reader1")

    def writer():
        writer_started.set()
        with lock.write():
            order.append("writer")

    def late_reader():
        writer_started.wait(timeout=5)
        time.sleep(0.02)  # arrive while the writer is waiting
        with lock.read():
            order.append("reader2")
        reader_released.set()

    threads = [
        threading.Thread(target=fn) for fn in (long_reader, writer, late_reader)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    # The late reader queued behind the waiting writer (no writer starvation).
    assert order == ["reader1", "writer", "reader2"]


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_register_get_and_conflict():
    registry = SessionRegistry(capacity=4)
    try:
        entry = registry.register("demo", make_database())
        assert entry.version == 1
        assert registry.get("demo") is entry
        assert "demo" in registry and len(registry) == 1
        with pytest.raises(ValueError, match="already registered"):
            registry.register("demo", make_database())
        replaced = registry.register("demo", make_database(), replace=True)
        assert registry.get("demo") is replaced
        assert entry.session.closed  # the superseded session was closed
        # Supersession continues the version line: (name, version) stays
        # unambiguous across the replacement.
        assert replaced.version == entry.version + 1
        with pytest.raises(KeyError):
            registry.get("absent")
    finally:
        registry.close()


def test_lru_eviction_closes_sessions():
    registry = SessionRegistry(capacity=2)
    try:
        first = registry.register("a", make_database())
        registry.register("b", make_database())
        registry.get("a")  # refresh a: b becomes LRU
        registry.register("c", make_database())
        assert "b" not in registry
        assert "a" in registry and "c" in registry
        evicted = [e for e in (first,) if e.session.closed]
        assert evicted == []  # a survived thanks to the refresh
    finally:
        registry.close()
    assert all(entry.session.closed for entry in (first,))


def test_apply_deletions_bumps_version_only_when_tuples_removed():
    registry = SessionRegistry(capacity=2)
    try:
        entry = registry.register("demo", make_database())
        entry.session.prepare(QUERY)
        removed, version = registry.apply_deletions("demo", [TupleRef("R1", (1,))])
        assert (removed, version) == (1, 2)
        removed, version = registry.apply_deletions("demo", [TupleRef("R1", (99,))])
        assert (removed, version) == (0, 2)  # no-op deletion: version kept
        assert entry.version == 2
    finally:
        registry.close()


def test_writer_drains_inflight_reads_before_mutating():
    """Solves admitted before a deletion complete against the old version."""
    registry = SessionRegistry(capacity=2)
    try:
        entry = registry.register("demo", make_database())
        session = entry.session
        prepared = session.prepare(QUERY)
        read_entered = threading.Event()
        release_read = threading.Event()
        observed = {}

        def slow_reader():
            with entry.lock.read():
                read_entered.set()
                release_read.wait(timeout=5)
                observed["output_size"] = session.output_size(prepared)
                observed["version"] = entry.version

        reader = threading.Thread(target=slow_reader)
        reader.start()
        read_entered.wait(timeout=5)

        writer_done = []

        def writer():
            registry.apply_deletions("demo", [TupleRef("R1", (1,))])
            writer_done.append(True)

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)
        assert not writer_done  # blocked behind the in-flight read
        release_read.set()
        reader.join(timeout=5)
        w.join(timeout=5)
        assert writer_done == [True]
        # The reader saw the pre-deletion state and version.
        assert observed == {"output_size": 2, "version": 1}
        with entry.lock.read():
            assert session.output_size(prepared) == 1
            assert entry.version == 2
    finally:
        registry.close()


def test_closed_registry_refuses_registration():
    registry = SessionRegistry(capacity=2)
    registry.register("a", make_database())
    registry.close()
    with pytest.raises(RuntimeError, match="closed"):
        registry.register("b", make_database())


def test_bad_backend_fails_at_construction():
    # Rejected up front, not as a client 400 on every later register().
    # (A bad worker count likewise: test_session's workers-validation test.)
    with pytest.raises(ValueError, match="unknown backend 'bogus'"):
        SessionRegistry(capacity=2, backend="bogus")


def test_failed_registration_never_closes_a_caller_supplied_session():
    from repro.session import Session

    registry = SessionRegistry(capacity=2)
    registry.register("demo", make_database())
    database = make_database()
    mine = Session(database)
    try:
        with pytest.raises(ValueError):
            registry.register("demo", database, session=mine)
        assert not mine.closed  # the registry never owned it
        registry.close()
        with pytest.raises(RuntimeError):
            registry.register("later", database, session=mine)
        assert not mine.closed
    finally:
        mine.close()


def test_metrics_exposition_has_one_type_line_per_metric():
    from repro.service.metrics import ServiceMetrics

    metrics = ServiceMetrics()
    metrics.request_started()
    metrics.request_finished("/v1/solve", 200, 3.0)
    metrics.request_started()
    metrics.request_finished("/v1/databases", 200, 1.0)
    text = metrics.render()
    type_lines = [
        line for line in text.splitlines()
        if line.startswith("# TYPE repro_service_request_latency_ms ")
    ]
    assert len(type_lines) == 1
    assert 'endpoint="/v1/solve"' in text and 'endpoint="/v1/databases"' in text
