"""Seeded inputs of the layered benchmark: databases, request and write streams.

Everything here is a pure function of the workload seed, so the same seed
always gives the same rows, ``k`` sequences and insertion batches.  The
program under test only ever sees what these functions return.

:func:`zipf_path_rows` is the benchmark's own copy of the Section 8.4 Zipf
path generator (``repro.workloads.zipf.generate_zipf_path``).  It draws the
same random stream -- ``rng.choices`` with precomputed ``cum_weights`` bisects
exactly as ``weights=`` does after its own prefix sum -- but computes the
prefix sum once instead of once per edge, which takes the 60k instance from
tens of seconds to a fraction of one.  ``smoke.py`` pins the two generators
byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Dict, Iterator, List, Sequence, Set, Tuple

EASY_QUERY = "Q6(A, B) :- R1(A), R2(A, B)"
HARD_QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"

SCHEMA: Dict[str, List[str]] = {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]}

Rows = Dict[str, Sequence[Tuple[str, ...]]]


@dataclass(frozen=True)
class WorkloadSpec:
    """The fixed shape of one workload."""

    name: str
    query: str
    r2_tuples: int
    alpha: float
    #: ``k`` values requests cycle through (in a seeded order).
    k_values: Tuple[int, ...]
    #: Closed loop of solves for ``--seconds`` before the writes; without
    #: it, the writes (with interleaved solves) are the measured load.
    closed_loop: bool
    #: Concurrent client connections of the closed loop.
    connections: int
    #: Rows per insertion step (each step is followed by a probe; the
    #: number of steps follows from the rounds, see ``workloads.py``), and
    #: the cadence of interleaved solves (0 = none).
    rows_per_write: int
    solve_every: int = 0
    #: Load/write alternations per round (see ``workloads.py``): many on
    #: cheap requests, so their samples spread over the whole run; few on
    #: expensive ones, where a slice cannot be shorter than one solve.
    slices_per_round: int = 1
    #: Closed loop in lockstep: the connections send together and wait for
    #: each other's replies, so every dispatch is one batch of all of them.
    lockstep: bool = False


SPECS: Dict[str, WorkloadSpec] = {
    "easy-2k": WorkloadSpec(
        "easy-2k", EASY_QUERY, 2_000, 0.5, (1, 2, 3, 4, 5),
        closed_loop=True, connections=2, rows_per_write=5,
        slices_per_round=16,
    ),
    "hard-60k": WorkloadSpec(
        "hard-60k", HARD_QUERY, 60_000, 1.1, tuple(range(150, 221, 10)),
        closed_loop=True, connections=2, rows_per_write=10,
        slices_per_round=2, lockstep=True,
    ),
    "mutate-60k": WorkloadSpec(
        "mutate-60k", HARD_QUERY, 60_000, 1.1, (150, 185, 220),
        closed_loop=False, connections=1, rows_per_write=50,
        solve_every=10,
    ),
}


def zipf_path_rows(r2_tuples: int, alpha: float, seed: int,
                   distinct_ratio: float = 0.2) -> Rows:
    """Rows of ``R1(A), R2(A, B), R3(B)``, the same set ``generate_zipf_path`` makes.

    ``R2`` is listed in draw order (a dict as an ordered set), so the rows
    the client sends do not depend on string hashing.
    """
    rng = random.Random(seed)
    distinct = max(1, int(r2_tuples * distinct_ratio))
    a_domain = [f"a{i}" for i in range(distinct)]
    b_domain = [f"b{i}" for i in range(distinct)]
    weights = [1.0 / (i ** alpha) if alpha > 0 else 1.0
               for i in range(1, distinct + 1)]
    cum_weights = list(accumulate(weights))
    r2: Dict[Tuple[str, str], None] = {}
    target = min(r2_tuples, distinct * distinct)
    attempts = 0
    while len(r2) < target and attempts < 50 * r2_tuples:
        attempts += 1
        a = rng.choices(a_domain, cum_weights=cum_weights, k=1)[0]
        b = rng.choice(b_domain)
        r2[(a, b)] = None
    return {
        "R1": [(a,) for a in a_domain],
        "R2": list(r2),
        "R3": [(b,) for b in b_domain],
    }


def user_bytes(rows: Rows) -> int:
    """Bytes of row data a client sends: the compact JSON of every value."""
    return sum(
        sum(len(value) + 3 for value in row) + 1
        for relation_rows in rows.values()
        for row in relation_rows
    )


def k_stream(spec: WorkloadSpec, seed: int) -> Iterator[int]:
    """The endless seeded order in which requests cycle through ``spec.k_values``.

    Each cycle visits every ``k`` once, in a per-cycle shuffled order, so
    every ``k`` is requested (and checked) early in a run.
    """
    rng = random.Random(f"k-{spec.name}-{seed}")
    while True:
        cycle = list(spec.k_values)
        rng.shuffle(cycle)
        yield from cycle


def k_sequence(spec: WorkloadSpec, seed: int, length: int) -> List[int]:
    """The first ``length`` values of :func:`k_stream`."""
    return list(islice(k_stream(spec, seed), length))


def insertion_batches(rows: Rows, seed: int, batches: int,
                      per_batch: int, label: str = "write") -> List[List[Tuple[str, str]]]:
    """``batches`` lists of fresh ``R2`` edges recombined from stored endpoints.

    Every edge joins an ``A`` value of ``R1`` to a ``B`` value of ``R3``
    and is new: absent from ``R2`` and from every earlier batch, so each
    write lands and bumps the database version.
    """
    rng = random.Random(f"{label}-{seed}")
    a_values = [row[0] for row in rows["R1"]]
    b_values = [row[0] for row in rows["R3"]]
    seen: Set[Tuple[str, str]] = set(rows["R2"])
    out: List[List[Tuple[str, str]]] = []
    for _ in range(batches):
        batch: List[Tuple[str, str]] = []
        while len(batch) < per_batch:
            edge = (rng.choice(a_values), rng.choice(b_values))
            if edge not in seen:
                seen.add(edge)
                batch.append(edge)
        out.append(batch)
    return out


def refs_json(edges: Sequence[Tuple[str, str]]) -> List[list]:
    """Wire-format tuple references of ``R2`` edges."""
    return [["R2", [a, b]] for a, b in edges]
