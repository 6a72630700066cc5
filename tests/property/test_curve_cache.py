"""Differential tests of the session's cost-curve cache.

A session whose curve cache was warmed at a larger ``kmax`` must answer
every smaller target exactly as a fresh ``Session(db).solve(q, k)`` does --
objective, removed set, ``optimal``, ``method`` and ``stats`` (the
heuristic-fallback count included) -- on every Algorithm-2 branch and on
both array backends.  A request above the cached ``kmax`` recomputes, and
an in-place mutation makes every entry stale.  The concurrency tests pin
single-flight: concurrent misses on one key compute the curve once, and a
slow miss on one key never blocks a solve of another.

The random queries come from ``REPRO_TEST_SEED`` (see tests/conftest).
"""

import random
import sys
import threading
import time

import pytest

from repro.core import greedy as greedy_module
from repro.core.adp import ADPSolver
from repro.engine.backend import numpy_available
from repro.query.parser import parse_query
from repro.session import PreparedQuery, Session
from repro.workloads.queries import QPATH_EXP
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import random_instance, random_query, repro_test_seed

SEED = repro_test_seed()
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: One query per Algorithm-2 branch, so every branch is covered whatever
#: the seed draws; the heuristic is the solver configuration under test.
BRANCH_QUERIES = [
    ("Qb() :- R1(A), R2(A, B), R3(B)", "greedy"),
    ("Qs(A, B) :- R1(A), R2(A, B)", "greedy"),
    ("Qu(A, B, C) :- R1(A, B), R2(A, C)", "greedy"),
    ("Qd(A, C) :- R1(A), R3(C)", "greedy"),
    ("Qh(A) :- R1(A), R2(A, B), R3(B)", "greedy"),
    ("Qh(A) :- R1(A), R2(A, B), R3(B)", "drastic"),
    ("Qf(A, B) :- R1(A), R2(A, B), R3(B)", "drastic"),
]
RANDOM_QUERIES = 24


def _branch(prepared, heuristic):
    """The Algorithm-2 case ``ComputeADP`` dispatches ``prepared`` to."""
    if prepared.is_boolean:
        return "boolean"
    if prepared.is_singleton:
        return "singleton"
    if prepared.universal_attributes:
        return "universe"
    if not prepared.is_connected:
        return "decompose"
    if heuristic == "drastic" and not prepared.is_full:
        return "drastic-fallback"
    return "leaf"


def _non_trivial_instance(query, rng):
    """A random instance on which ``query`` has at least 3 answers."""
    while True:
        database = random_instance(
            query, rng, max_tuples_per_relation=10, domain_size=3
        )
        with Session(database) as session:
            if session.output_size(query) >= (1 if query.is_boolean else 3):
                return database


def _cases():
    rng = random.Random(SEED)
    cases = []
    for text, heuristic in BRANCH_QUERIES:
        query = parse_query(text)
        for _ in range(3):
            cases.append((query, heuristic, _non_trivial_instance(query, rng)))
    for _ in range(RANDOM_QUERIES):
        query = random_query(rng, max_relations=3, max_attributes=3)
        heuristic = rng.choice(("greedy", "drastic"))
        cases.append((query, heuristic, random_instance(
            query, rng, max_tuples_per_relation=6, domain_size=4)))
    return cases


CASES = _cases()


def _fresh(database, backend, query, k, heuristic):
    """A fresh session's answer, checked against the cache-free solver path
    (``solve_in_context`` without a curve computes one at exactly ``k``)."""
    with Session(database, backend=backend) as oracle:
        answer = oracle.solve(query, k, heuristic=heuristic)
        with oracle.activate():
            direct = ADPSolver(heuristic=heuristic).solve_in_context(
                query, database, k
            )
    assert answer == direct, f"{query} k={k}: session and solver disagree"
    return answer


def _assert_matches_fresh(session, backend, query, heuristic, targets, context):
    for k in targets:
        assert session.solve(query, k, heuristic=heuristic) == _fresh(
            session.database, backend, query, k, heuristic
        ), f"{context} k={k}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_curve_answers_like_a_fresh_solve(backend):
    covered = set()
    for index, (query, heuristic, database) in enumerate(CASES):
        context = f"seed={SEED} case={index} {query} heuristic={heuristic}"
        with Session(database.copy(), backend=backend) as session:
            total = session.output_size(query)
            if total == 0:
                continue
            covered.add(_branch(PreparedQuery(query), heuristic))
            warm_at = max(1, total // 2)
            session.solve(query, warm_at, heuristic=heuristic)
            _assert_matches_fresh(
                session, backend, query, heuristic, range(1, warm_at + 1), context
            )
            stats = session.stats
            assert (stats.curve_cache_hits, stats.curve_cache_misses) == (
                warm_at, 1), context
            # Above the cached kmax: one miss that recomputes, then hits.
            _assert_matches_fresh(
                session, backend, query, heuristic, range(total, 0, -1), context
            )
            assert session.stats.curve_cache_misses == 1 + (total > warm_at), context

            # An in-place deletion changes the version token: the cached
            # curve is stale and must not be served.
            victim = min(session.evaluate(query).participating_refs(), key=repr)
            session.database.remove_tuples([victim])
            remaining = session.output_size(query)
            _assert_matches_fresh(
                session, backend, query, heuristic,
                range(1, remaining + 1), f"{context} after deleting {victim}",
            )
    assert covered >= {
        "boolean", "singleton", "universe", "decompose", "leaf",
        "drastic-fallback",
    }, covered


def test_counting_only_is_a_separate_entry():
    database = generate_zipf_path(r2_tuples=200, alpha=0.8, seed=SEED)
    with Session(database) as session:
        total = session.output_size(QPATH_EXP)
        reporting = session.solve(QPATH_EXP, total)
        counting = session.solve(QPATH_EXP, total, counting_only=True)
        assert session.stats.curve_cache_misses == 2
        assert counting.removed == frozenset() != reporting.removed
        assert counting.size == reporting.size


def test_clear_cache_and_close_drop_entries():
    database = generate_zipf_path(r2_tuples=200, alpha=0.8, seed=SEED)
    session = Session(database)
    session.solve(QPATH_EXP, 3)
    assert len(session._curves) == 1
    session.clear_cache()
    assert len(session._curves) == 0
    assert (session.stats.curve_cache_hits, session.stats.curve_cache_misses) == (0, 0)
    session.solve(QPATH_EXP, 3)
    curves = session._curves
    session.close()
    assert len(curves) == 0


def test_a_new_version_drops_the_stale_entries():
    database = generate_zipf_path(r2_tuples=200, alpha=0.8, seed=SEED)
    singleton = parse_query("Q6(A, B) :- R1(A), R2(A, B)")
    with Session(database) as session:
        session.solve(QPATH_EXP, 3)
        session.solve(singleton, 3)
        assert len(session._curves) == 2
        victim = min(session.evaluate(singleton).participating_refs(), key=repr)
        session.apply_deletions([victim])
        # The first insert at the new token evicts both old-version curves
        # instead of pinning them until LRU eviction.
        session.solve(singleton, 2)
        assert len(session._curves) == 1
        assert session.solve(QPATH_EXP, 2) == _fresh(
            session.database, "auto", QPATH_EXP, 2, "greedy"
        )
        assert len(session._curves) == 2


def test_a_shared_solver_cannot_skew_the_cached_fallback_count(monkeypatch):
    """Another thread's ``curve()`` on the caller's solver instance resets
    its fallback count mid-miss; the cached count must still be the miss's."""
    database = generate_zipf_path(r2_tuples=200, alpha=0.8, seed=SEED)
    non_full = parse_query("Qh(A) :- R1(A), R2(A, B), R3(B)")
    full = parse_query("Qf(A, B) :- R1(A), R2(A, B), R3(B)")
    shared = ADPSolver(heuristic="drastic")
    expected = _fresh(database, "auto", non_full, 2, "drastic")
    assert expected.stats["heuristic_fallbacks"] == 1
    gate = threading.Event()
    calls = _counting_greedy(monkeypatch, gate)
    with Session(database) as session:
        answers = []
        miss = threading.Thread(
            target=lambda: answers.append(session.solve(non_full, 2, solver=shared))
        )
        miss.start()
        try:
            # The miss has counted its drastic-to-greedy fallback and is
            # parked in greedy; a full query resets the shared solver's count.
            _wait_for(lambda: calls)
            shared.curve(full, database, 1)
        finally:
            gate.set()
            miss.join(timeout=60)
        assert not miss.is_alive()
        assert answers == [expected]
        assert session.solve(non_full, 1, solver=shared).stats == expected.stats
        assert session.stats.curve_cache_hits == 1


def test_curve_ignores_and_leaves_the_cache():
    database = generate_zipf_path(r2_tuples=200, alpha=0.8, seed=SEED)
    with Session(database) as session:
        session.solve(QPATH_EXP, 5)
        curve = session.curve(QPATH_EXP, 2)
        assert curve.max_gain() < session.output_size(QPATH_EXP)
        stats = session.stats
        assert (stats.curve_cache_hits, stats.curve_cache_misses) == (0, 1)


def _counting_greedy(monkeypatch, gate=None):
    """Patch ``greedy_curve`` to count its calls (and wait on ``gate``)."""
    calls = []
    real = greedy_module.greedy_curve

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        if gate is not None:
            assert gate.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(greedy_module, "greedy_curve", counted)
    return calls


def _wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_concurrent_misses_on_one_key_compute_once(monkeypatch):
    database = generate_zipf_path(r2_tuples=400, alpha=0.8, seed=SEED)
    gate = threading.Event()
    calls = _counting_greedy(monkeypatch, gate)
    with Session(database) as session:
        k = max(1, session.output_size(QPATH_EXP) // 3)
        barrier = threading.Barrier(4)
        answers = [None] * 4

        def solve(slot):
            barrier.wait()
            answers[slot] = session.solve(QPATH_EXP, k)

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        # Hold the first miss inside greedy until every thread has asked.
        _wait_for(lambda: calls)
        time.sleep(0.2)
        gate.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert all(answer == answers[0] for answer in answers)
        stats = session.stats
        assert (stats.curve_cache_hits, stats.curve_cache_misses) == (3, 1)


def test_a_slow_miss_does_not_block_other_keys(monkeypatch):
    database = generate_zipf_path(r2_tuples=400, alpha=0.8, seed=SEED)
    gate = threading.Event()
    calls = _counting_greedy(monkeypatch, gate)
    singleton = parse_query("Q6(A, B) :- R1(A), R2(A, B)")
    with Session(database) as session:
        session.evaluate(QPATH_EXP)
        slow = threading.Thread(target=session.solve, args=(QPATH_EXP, 2))
        slow.start()
        try:
            _wait_for(lambda: calls)
            # The greedy miss is parked in its flight; another key solves.
            assert session.solve(singleton, 2).optimal
        finally:
            gate.set()
            slow.join(timeout=60)
        assert not slow.is_alive()
        assert session.stats.curve_cache_misses == 2


def test_threads_over_mixed_keys_with_a_short_switch_interval():
    """8 threads, 3 keys, k in 1..3: every answer matches a fresh solve and
    no lookup is lost from the hit/miss counters."""
    database = generate_zipf_path(r2_tuples=300, alpha=0.8, seed=SEED)
    singleton = parse_query("Q6(A, B) :- R1(A), R2(A, B)")
    keys = [(QPATH_EXP, "greedy"), (QPATH_EXP, "drastic"), (singleton, "greedy")]
    expected = {
        (index, k): _fresh(database, "auto", query, k, heuristic)
        for index, (query, heuristic) in enumerate(keys)
        for k in (1, 2, 3)
    }
    threads_count, rounds = 8, 30
    errors = []
    with Session(database) as session:

        def hammer(seed):
            rng = random.Random(seed)
            try:
                for _ in range(rounds):
                    index, k = rng.randrange(len(keys)), rng.randint(1, 3)
                    query, heuristic = keys[index]
                    answer = session.solve(query, k, heuristic=heuristic)
                    assert answer == expected[(index, k)], (index, k)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(SEED + i,))
            for i in range(threads_count)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = session.stats
        assert stats.curve_cache_hits + stats.curve_cache_misses == (
            threads_count * rounds
        )
        # At most one miss per key and larger k.
        assert len(keys) <= stats.curve_cache_misses <= 3 * len(keys)
