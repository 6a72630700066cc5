"""Figure 14: running time of the heuristics on the ego-network queries Q2..Q5.

Paper's claim: Drastic (where applicable, i.e. on the full CQs Q2 and Q3) is
cheaper than Greedy; Q4 -- which first decomposes into two subqueries and
then runs the greedy heuristic inside a dynamic program -- has the largest
and most stable running time of the four queries.
"""

import pytest

from benchmarks.conftest import solve_once
from repro.core.adp import ADPSolver
from repro.session import Session
from repro.workloads.queries import Q2, Q3, Q4, Q5

RATIO = 0.25

QUERY_METHODS = [
    (Q2, "greedy"),
    (Q2, "drastic"),
    (Q3, "greedy"),
    (Q3, "drastic"),
    (Q4, "greedy"),
    (Q5, "greedy"),
]


@pytest.mark.parametrize(
    "query, method", QUERY_METHODS, ids=[f"{q.name}-{m}" for q, m in QUERY_METHODS]
)
def test_fig14_ego_network_heuristics(benchmark, ego_network, query, method):
    database = ego_network.aligned_to(query)
    total = Session(database).output_size(query)
    if total == 0:
        pytest.skip(f"{query.name} has no results on the scaled-down network")
    k = max(1, int(RATIO * total))
    solver = ADPSolver(heuristic=method)

    solution = solve_once(
        benchmark, solver, query, database, k,
        figure="14", query_name=query.name, method=method, output_size=total,
    )
    assert solution.removed_outputs >= k
