"""Parity tests: the columnar witness engine vs the row-at-a-time reference.

The columnar engine must be invisible to every consumer: identical answers,
identical witness sets, and byte-identical ADP costs on the paper's
workloads.  The reference is ``evaluate_rows`` in ``tests/row_oracle.py``,
the original row engine kept verbatim; ``RowEngineContext`` routes the
whole solver stack through it so the two engines can be compared end to
end.
"""

import pytest

from repro.core.adp import ADPSolver
from repro.core.bruteforce import bruteforce_solve
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.evaluate import use_context
from repro.experiments.harness import target_from_ratio
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.queries import Q1, Q6, Q7, Q8, QPATH_EXP
from repro.workloads.synthetic import generate_q7_instance, generate_q8_instance
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path
from tests.row_oracle import (
    RowEngineContext,
    evaluate_rows,
    outputs_removed_by,
    participating_refs,
)


def evaluate(query, database, **kwargs):
    """One columnar evaluation on a fresh session."""
    return Session(database).evaluate(query, **kwargs)


def _instances():
    return [
        ("tpch", Q1, generate_tpch(total_tuples=120, seed=7)),
        ("zipf", QPATH_EXP, generate_zipf_path(r2_tuples=150, alpha=0.5, seed=13)),
        ("zipf-easy", Q6, generate_zipf_path(r2_tuples=150, alpha=1.0, seed=13)),
        ("synthetic-q7", Q7, generate_q7_instance(tuples_per_relation=40, seed=28)),
        ("synthetic-q8", Q8, generate_q8_instance(unary_tuples=8, binary_tuples=16, seed=29)),
    ]


INSTANCES = _instances()
IDS = [name for name, _, _ in INSTANCES]


# --------------------------------------------------------------------------- #
# Evaluation parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
def test_evaluation_parity(name, query, database):
    columnar = evaluate(query, database)
    rows = evaluate_rows(query, database)

    assert columnar.output_rows == rows.output_rows
    assert columnar.witness_outputs == rows.witness_outputs
    assert columnar.output_index == rows.output_index
    # The lazy witness view materializes the same full-join rows, in the
    # same order, with the same ref order inside each witness.
    assert [w.refs for w in columnar.witnesses] == [w.refs for w in rows.witnesses]
    assert columnar.participating_refs() == participating_refs(rows)


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
def test_outputs_removed_by_parity(name, query, database):
    columnar = evaluate(query, database)
    rows = evaluate_rows(query, database)
    refs = sorted(columnar.participating_refs(), key=repr)
    probes = [refs[:1], refs[:3], refs[::4], refs]
    for removed in probes:
        assert columnar.outputs_removed_by(removed) == outputs_removed_by(rows, removed)


def test_vacuum_relation_parity():
    query = parse_query("Q(A) :- R1(A), R0()")
    present = Database.from_dict(
        {"R1": ["A"], "R0": []}, {"R1": [(1,), (2,)], "R0": [()]}
    )
    absent = Database.from_dict({"R1": ["A"], "R0": []}, {"R1": [(1,)], "R0": []})
    for database in (present, absent):
        columnar = evaluate(query, database)
        rows = evaluate_rows(query, database)
        assert columnar.output_rows == rows.output_rows
        assert [w.refs for w in columnar.witnesses] == [w.refs for w in rows.witnesses]
    # Removing the vacuum tuple kills every output on both engines.
    vacuum = TupleRef("R0", ())
    assert (
        evaluate(query, present).outputs_removed_by([vacuum])
        == outputs_removed_by(evaluate_rows(query, present), [vacuum])
        == 2
    )


# --------------------------------------------------------------------------- #
# ADP cost parity (the acceptance criterion: byte-identical costs)
# --------------------------------------------------------------------------- #
def _solve_in_mode(mode, solver_kwargs, query, database, k):
    solver = ADPSolver(**solver_kwargs)
    if mode == "columnar":
        return Session(database).solve(query, k, solver=solver)
    with use_context(RowEngineContext()):
        return solver.solve_in_context(query, database, k)


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
@pytest.mark.parametrize("heuristic", ["greedy", "drastic"])
def test_adp_solution_parity(name, query, database, heuristic):
    if heuristic == "drastic" and not query.is_full:
        pytest.skip("drastic only applies to full CQs")
    k = target_from_ratio(query, database, 0.3)
    columnar = _solve_in_mode("columnar", {"heuristic": heuristic}, query, database, k)
    row = _solve_in_mode("row", {"heuristic": heuristic}, query, database, k)

    assert columnar.objective == row.objective
    assert columnar.removed == row.removed
    assert columnar.removed_outputs == row.removed_outputs
    assert columnar.optimal == row.optimal
    assert columnar.method == row.method


def test_bruteforce_parity_small_tpch():
    database = generate_tpch(total_tuples=60, seed=7)
    k = target_from_ratio(Q1, database, 0.1)
    with Session(database).activate():
        columnar = bruteforce_solve(Q1, database, k, max_candidates=2000)
    with use_context(RowEngineContext()):
        row = bruteforce_solve(Q1, database, k, max_candidates=2000)
    assert columnar.removed == row.removed
    assert columnar.removed_outputs == row.removed_outputs
    assert columnar.stats == row.stats


def test_boolean_min_cut_parity():
    query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(r2_tuples=80, alpha=0.25, seed=3)
    columnar = _solve_in_mode("columnar", {}, query, database, 1)
    row = _solve_in_mode("row", {}, query, database, 1)
    assert columnar.objective == row.objective
    assert columnar.removed == row.removed
    assert columnar.optimal and row.optimal


# --------------------------------------------------------------------------- #
# Evaluation cache semantics
# --------------------------------------------------------------------------- #
def test_cache_hits_on_repeat_and_shares_result():
    session = Session(generate_tpch(total_tuples=60, seed=7))
    first = session.evaluate(Q1)
    stats = session.stats
    assert (stats.cache_hits, stats.cache_misses) == (0, 1)
    second = session.evaluate(Q1)
    assert session.stats.cache_hits == 1
    assert second is first


def test_cache_invalidates_on_mutation():
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [(1,), (2,)], "R2": [(1, 10), (2, 20)]},
    )
    query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
    session = Session(database)
    before = session.evaluate(query)
    assert before.output_count() == 2
    database.relation("R2").insert((2, 21))
    after = session.evaluate(query)
    assert after is not before
    assert after.output_count() == 3
    database.relation("R2").remove((2, 21))
    again = session.evaluate(query)
    assert again.output_count() == 2


def test_cache_ignores_display_name_but_not_head_order():
    database = Database.from_dict(
        {"R1": ["A", "B"]}, {"R1": [(1, 10), (2, 20)]}
    )
    q_ab = parse_query("Q(A, B) :- R1(A, B)")
    q_renamed = parse_query("Other(A, B) :- R1(A, B)")
    q_ba = parse_query("Q(B, A) :- R1(A, B)")
    session = Session(database)
    first = session.evaluate(q_ab)
    assert session.evaluate(q_renamed) is first  # same canonical form
    flipped = session.evaluate(q_ba)
    assert flipped is not first
    assert set(flipped.output_rows) == {(10, 1), (20, 2)}


def test_max_witnesses_bypasses_cache():
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["B"]},
        {"R1": [(i,) for i in range(20)], "R2": [(i,) for i in range(20)]},
    )
    query = parse_query("Q(A, B) :- R1(A), R2(B)")
    session = Session(database)
    session.evaluate(query)  # caches the unbounded result
    with pytest.raises(RuntimeError):
        session.evaluate(query, max_witnesses=100)
