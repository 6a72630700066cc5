"""Figure 10: running time of Greedy vs Drastic on the NP-hard Q1.

Paper's claim: Drastic computes tuple profits once per relation and is
therefore faster than Greedy (which recomputes profits after every removal),
with the gap growing with ρ and the input size.
"""

import pytest

from benchmarks.conftest import RATIOS, TPCH_SIZES, solve_once
from repro.core.adp import ADPSolver
from repro.session import Session
from repro.workloads.queries import Q1


@pytest.mark.parametrize("size", TPCH_SIZES)
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", ["greedy", "drastic"])
def test_fig10_q1_heuristics(benchmark, tpch_instances, size, ratio, method):
    database = tpch_instances[size]
    total = Session(database).output_size(Q1)
    k = max(1, int(ratio * total))
    solver = ADPSolver(heuristic=method)

    solution = solve_once(
        benchmark, solver, Q1, database, k,
        figure="10", method=method, ratio=ratio, input_size=database.total_tuples(),
    )
    assert solution.removed_outputs >= k
    assert not solution.optimal
