"""Ablation (beyond the paper's figures): greedy candidate restriction.

Lemma 13 justifies restricting the greedy heuristic's candidate deletions to
endogenous relations.  This ablation measures the cost of dropping that
restriction: the unrestricted variant considers more candidates per
iteration (slower) without improving quality.
"""

import pytest

from repro.core.greedy import greedy_curve
from repro.session import Session
from repro.workloads.queries import Q1
from repro.workloads.tpch import generate_tpch

RATIO = 0.25


@pytest.fixture(scope="module")
def instance():
    database = generate_tpch(total_tuples=300, seed=7)
    total = Session(database).output_size(Q1)
    return database, max(1, int(RATIO * total))


@pytest.mark.parametrize("endogenous_only", [True, False], ids=["endogenous-only", "all-relations"])
def test_ablation_greedy_candidate_restriction(benchmark, instance, endogenous_only):
    database, k = instance

    with Session(database).activate():
        cost = benchmark(
            lambda: greedy_curve(Q1, database, kmax=k, endogenous_only=endogenous_only).cost(k)
        )
    benchmark.extra_info.update(
        {"ablation": "endogenous-restriction", "endogenous_only": endogenous_only, "k": k, "cost": cost}
    )
    assert cost >= 1
