"""Property tests: a ``solve_many`` worker evaluates byte for byte like its parent.

A worker receives the bound database as rows in the parent's interned order
(``Session._database_spec``) and rebuilds it through the recovery path
(``repro.parallel.pool._worker_session``: ``RelationIndex.from_rows`` +
``EngineContext.seed_index``).  Its evaluations must match the parent's
output row order, witness order, packed ``tid`` columns and interning
tables exactly -- that is what makes pooled solutions, greedy tie-breaking
included, identical to the serial path.  The rebuild runs in-process here;
``tests/parallel/test_pool.py`` and the mutation fuzzer drive real workers.

Every case first mutates the parent session: after ``apply_insertions``
the interned order (old rows, then the new ones appended) no longer matches
the iteration order of a freshly built relation, so a rebuild that skipped
the seeding would fail these comparisons.
"""

import random

import pytest

from repro.data.relation import TupleRef
from repro.parallel.pool import _worker_session
from repro.session import Session
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import (
    packed_columns,
    packed_outputs,
    random_instance,
    random_query,
)


def assert_byte_identical(parent, worker):
    """Every observable component of the two results matches exactly.

    Packed columns are normalized to plain lists first: the NumPy backend
    represents them as ``int64`` ndarrays, and byte-identity is a claim
    about the *values* (witness order, tid columns, output factorization),
    not the container type.
    """
    assert worker.output_rows == parent.output_rows
    assert list(worker.witness_outputs) == list(parent.witness_outputs)
    assert worker.output_index == parent.output_index
    pp, wp = parent.provenance, worker.provenance
    assert wp.atom_names == pp.atom_names
    assert packed_columns(wp) == packed_columns(pp)
    assert wp.output_rows == pp.output_rows
    assert packed_outputs(wp) == packed_outputs(pp)
    assert [index.rows for index in wp.indexes] == [index.rows for index in pp.indexes]
    assert [w.refs for w in worker.witnesses] == [w.refs for w in parent.witnesses]


def mutate(session, rng, fresh_value):
    """Delete a few stored rows, then insert a few new ones per relation."""
    database = session.database
    victims = []
    for relation in database:
        rows = sorted(relation, key=repr)
        victims.extend(
            TupleRef(relation.name, row) for row in rng.sample(rows, len(rows) // 4)
        )
    session.apply_deletions(victims)
    inserted = []
    for relation in database:
        for _ in range(3):
            row = tuple(fresh_value(rng) for _ in relation.attributes)
            inserted.append(TupleRef(relation.name, row))
    session.apply_insertions(inserted)


def assert_worker_matches_parent(session, queries):
    """The rebuilt worker session re-joins each query like the parent would."""
    _database, worker = _worker_session(session._database_spec(), session.backend)
    with worker:
        for query in queries:
            parent = session.evaluate(query, use_cache=False)
            assert_byte_identical(parent, worker.evaluate(query))


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_zipf_worker_rebuild_parity(alpha):
    database = generate_zipf_path(r2_tuples=150, alpha=alpha, seed=13)
    with Session(database) as session:
        session.evaluate(QPATH_EXP)
        mutate(session, random.Random(13), lambda rng: f"n{rng.randrange(40)}")
        assert_worker_matches_parent(session, (QPATH_EXP, Q6))


def test_tpch_worker_rebuild_parity():
    database = generate_tpch(total_tuples=150, seed=7)
    with Session(database) as session:
        session.evaluate(Q1)
        mutate(session, random.Random(7), lambda rng: rng.randrange(10_000, 10_040))
        assert_worker_matches_parent(session, (Q1,))


@pytest.mark.parametrize("seed", range(12))
def test_random_query_parity(seed):
    rng = random.Random(seed)
    query = random_query(rng, max_relations=3, max_attributes=3)
    database = random_instance(query, rng, max_tuples_per_relation=6, domain_size=3)
    with Session(database) as session:
        session.evaluate(query)
        mutate(session, rng, lambda r: r.randrange(5))
        assert_worker_matches_parent(session, (query,))
