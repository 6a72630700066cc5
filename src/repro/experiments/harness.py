"""Generic experiment plumbing.

Every figure of the paper ultimately reports, for a grid of parameters
(input size, removal ratio ρ, skew α, query, method), one of two quantities:

* the **running time** of a method, or
* the **quality** of its solution (number of input tuples removed).

:func:`run_method` produces both for a single grid point, and
:class:`ExperimentResult` is the tidy table the figure functions return.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.adp import ratio_target
from repro.core.bruteforce import bruteforce_solve
from repro.core.solution import ADPSolution
from repro.data.database import Database
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.query.cq import ConjunctiveQuery
from repro.session import Session

#: Method names accepted by :func:`run_method` (the names used in the plots).
METHODS = ("exact", "exact-counting", "greedy", "drastic", "bruteforce")

#: Harness-wide default parallelism (``repro experiments --workers N``).
#: 1 keeps every figure table bit-stable with the pre-parallel harness.
_DEFAULT_WORKERS = 1

#: How many harness sessions (a parallel one owns a worker pool) stay open
#: at once; the oldest is closed when the bound is hit, so a many-database
#: grid never accumulates idle sessions or worker processes.
_MAX_SESSIONS = 4

#: Bounded ``id(database) -> Session`` cache: one harness session per
#: database, serial or parallel.  Deliberately *strong* references in
#: insertion order: the session keeps its database alive while cached (a
#: weak-key map would be immortal here, since the session value references
#: its own key), and eviction/closure is explicit.
_SESSIONS: "OrderedDict[int, Session]" = OrderedDict()


def set_default_workers(workers: int) -> None:
    """Set the worker count used by :func:`run_method` when no session is given.

    Closes previously created harness sessions when switching, and
    ``set_default_workers(1)`` *always* releases them -- it doubles as the
    explicit cleanup call for sessions created via per-call
    ``run_method(..., workers=N)``, so worker pools never outlive the code
    that wanted them.
    """
    global _DEFAULT_WORKERS
    workers = max(1, int(workers))
    if workers != _DEFAULT_WORKERS or workers <= 1:
        for session in _SESSIONS.values():
            session.close()
        _SESSIONS.clear()
    _DEFAULT_WORKERS = workers


def _harness_session(database: Database, workers: Optional[int]) -> Session:
    """The session a grid point runs through (honoring the workers setting)."""
    effective = _DEFAULT_WORKERS if workers is None else max(1, int(workers))
    key = id(database)
    # While an entry exists its session pins the database alive, so id()
    # cannot have been reused for a live key.
    session = _SESSIONS.get(key)
    if session is not None and (session.closed or session.workers != effective):
        if not session.closed:
            session.close()  # don't leak the displaced session's worker pool
        del _SESSIONS[key]
        session = None
    if session is None:
        session = Session(database, workers=effective)
        _SESSIONS[key] = session
        while len(_SESSIONS) > _MAX_SESSIONS:
            _key, oldest = _SESSIONS.popitem(last=False)
            oldest.close()
    return session


def grid_session(database: Database) -> Session:
    """The session a figure function should bind its grid to.

    Honors ``repro experiments --workers N`` (:func:`set_default_workers`):
    serial runs get a fresh plain :class:`Session` (bit-stable with the
    pre-parallel harness), parallel runs share pooled sessions from the
    bounded cache.
    """
    if _DEFAULT_WORKERS <= 1:
        return Session(database)
    return _harness_session(database, None)


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` once and return ``(result, elapsed seconds)``."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed


@dataclass
class MethodRun:
    """Outcome of one (query, database, k, method) grid point."""

    method: str
    k: int
    output_size: int
    seconds: float
    solution_size: int
    optimal: bool
    removed_outputs: int

    def as_row(self, **extra) -> Dict[str, object]:
        """The run as a flat report row, with extra grid parameters merged in."""
        row = {
            "method": self.method,
            "k": self.k,
            "output_size": self.output_size,
            "seconds": round(self.seconds, 6),
            "solution_size": self.solution_size,
            "optimal": self.optimal,
            "removed_outputs": self.removed_outputs,
        }
        row.update(extra)
        return row


def target_from_ratio(query: ConjunctiveQuery, database: Database, ratio: float) -> int:
    """``k = ceil(ρ · |Q(D)|)`` with the implicit bound ``k >= 1``."""
    total = evaluate(query, database).output_count()
    if total == 0:
        raise ValueError(f"{query.name} has an empty result; cannot pick k from a ratio")
    return ratio_target(total, ratio)


def run_method(
    query: ConjunctiveQuery,
    database: Database,
    k: int,
    method: str,
    bruteforce_max_candidates: int = 40,
    session: Optional[Session] = None,
    workers: Optional[int] = None,
) -> MethodRun:
    """Run one method on one instance and record time + quality.

    Runs through a :class:`~repro.session.Session`: pass one explicitly to
    share caches across a whole grid, otherwise the harness keeps one
    session per database (bounded, oldest closed first).  ``workers`` (or
    the harness-wide :func:`set_default_workers` setting, i.e. ``repro
    experiments --workers N``) makes that session a parallel one; the
    default of 1 keeps figure tables bit-stable.

    ``method`` is one of :data:`METHODS`:

    * ``"exact"``            -- ComputeADP, reporting mode;
    * ``"exact-counting"``   -- ComputeADP, counting-only mode;
    * ``"greedy"``           -- ComputeADP with GreedyForCQ at hard leaves;
    * ``"drastic"``          -- ComputeADP with DrasticGreedyForFullCQ;
    * ``"bruteforce"``       -- subset enumeration (small instances only).
    """
    run_session = (
        session if session is not None else _harness_session(database, workers)
    )
    prepared = run_session.prepare(query)
    output_size = run_session.output_size(prepared)

    def solve() -> ADPSolution:
        if method == "bruteforce":
            with run_session.activate():
                return bruteforce_solve(
                    query, database, k, max_candidates=bruteforce_max_candidates
                )
        if method == "exact":
            return run_session.solve(prepared, k)
        if method == "exact-counting":
            return run_session.solve(prepared, k, counting_only=True)
        if method == "greedy":
            return run_session.solve(prepared, k, heuristic="greedy")
        if method == "drastic":
            return run_session.solve(prepared, k, heuristic="drastic")
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")

    solution, seconds = timed(solve)
    assert isinstance(solution, ADPSolution)
    return MethodRun(
        method=method,
        k=k,
        output_size=output_size,
        seconds=seconds,
        solution_size=solution.size,
        optimal=solution.optimal,
        removed_outputs=solution.removed_outputs,
    )


@dataclass
class ExperimentResult:
    """A tidy table of rows for one figure of the paper."""

    figure: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, row: Dict[str, object]) -> None:
        """Append one row."""
        # ExperimentResult.rows is this result table's own list of figure
        # rows, not an interned relation column; nothing shares it.
        self.rows.append(row)  # repro: noqa REP002 -- local result table, not an interned column

    def columns(self) -> List[str]:
        """Column names, in first-seen order across all rows."""
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def series(self, group_by: str, x: str, y: str) -> Dict[object, List[Tuple[object, object]]]:
        """Pivot the rows into plot series ``{group: [(x, y), ...]}``."""
        series: Dict[object, List[Tuple[object, object]]] = {}
        for row in self.rows:
            series.setdefault(row.get(group_by), []).append((row.get(x), row.get(y)))
        return series

    def filter(self, **criteria) -> List[Dict[str, object]]:
        """Rows matching all the given column values."""
        return [
            row
            for row in self.rows
            if all(row.get(column) == value for column, value in criteria.items())
        ]
