"""Unit tests for the synthetic workload generators."""

import hashlib

import pytest

from repro.core.selection import Selection, selected_output_size
from repro.session import Session
from repro.workloads.queries import Q1, Q2, Q6, Q7, Q8, QPATH_EXP
from repro.workloads.snap import EgoNetworkConfig, edge_count, generate_ego_edges, generate_ego_network
from repro.workloads.synthetic import generate_q7_instance, generate_q8_instance
from repro.workloads.tpch import SELECTED_PART_KEY, TpchConfig, generate_tpch
from repro.workloads.zipf import generate_zipf_path, zipf_weights


class TestTpchGenerator:
    def test_schema_and_size(self):
        database = generate_tpch(total_tuples=300, seed=1)
        assert database.relation("Supplier").attributes == ("NK", "SK")
        assert database.relation("PartSupp").attributes == ("SK", "PK")
        assert database.relation("LineItem").attributes == ("OK", "PK")
        assert 250 <= database.total_tuples() <= 350

    def test_deterministic_given_seed(self):
        first = generate_tpch(total_tuples=200, seed=9)
        second = generate_tpch(total_tuples=200, seed=9)
        for name in ("Supplier", "PartSupp", "LineItem"):
            assert first.relation(name).rows == second.relation(name).rows

    def test_different_seeds_differ(self):
        first = generate_tpch(total_tuples=200, seed=1)
        second = generate_tpch(total_tuples=200, seed=2)
        assert any(
            first.relation(name).rows != second.relation(name).rows
            for name in ("Supplier", "PartSupp", "LineItem")
        )

    def test_query_is_non_empty_and_selection_joins(self):
        database = generate_tpch(total_tuples=300, seed=1)
        assert Session(database).evaluate(Q1).output_count() > 0
        selected = selected_output_size(Q1, Selection.equals({"PK": SELECTED_PART_KEY}), database)
        assert selected > 0

    def test_split_sums_to_total(self):
        config = TpchConfig(total_tuples=1000)
        assert sum(config.split()) == 1000


class TestEgoNetworkGenerator:
    def test_default_scale_matches_paper(self):
        database = generate_ego_network()
        edges = edge_count(database)
        # Ego network 414 has ~3.4k directed edges; stay in the same ballpark.
        assert 2000 <= edges <= 5000
        assert set(database.relation_names) == {"R1", "R2", "R3", "R4"}

    def test_edges_are_bidirected(self):
        config = EgoNetworkConfig(nodes=30, seed=1)
        edges = set(generate_ego_edges(config))
        assert all((b, a) in edges for (a, b) in edges)

    def test_ego_connected_to_everyone(self):
        config = EgoNetworkConfig(nodes=30, seed=1)
        edges = set(generate_ego_edges(config))
        assert all((0, node) in edges for node in range(1, 30))

    def test_deterministic(self):
        first = generate_ego_network(EgoNetworkConfig(nodes=40, seed=2))
        second = generate_ego_network(EgoNetworkConfig(nodes=40, seed=2))
        for name in first.relation_names:
            assert first.relation(name).rows == second.relation(name).rows

    def test_queries_have_results(self):
        database = generate_ego_network(EgoNetworkConfig(nodes=50, seed=414))
        aligned = database.aligned_to(Q2)
        assert Session(aligned).evaluate(Q2).output_count() > 0


class TestZipfGenerator:
    def test_weights(self):
        assert zipf_weights(3, 0.0) == [1.0, 1.0, 1.0]
        weights = zipf_weights(3, 1.0)
        assert weights[0] > weights[1] > weights[2]

    def test_schema_and_distinct_values(self):
        database = generate_zipf_path(r2_tuples=200, alpha=0.0, seed=3)
        assert len(database.relation("R1")) == 40
        assert len(database.relation("R3")) == 40
        assert len(database.relation("R2")) == 200

    def test_skew_increases_max_degree(self):
        uniform = generate_zipf_path(r2_tuples=400, alpha=0.0, seed=5)
        skewed = generate_zipf_path(r2_tuples=400, alpha=1.0, seed=5)

        def max_degree(db):
            counts = {}
            for a, _b in db.relation("R2"):
                counts[a] = counts.get(a, 0) + 1
            return max(counts.values())

        assert max_degree(skewed) > max_degree(uniform)

    @pytest.mark.parametrize(
        "r2_tuples, alpha, seed, digest",
        [
            (2000, 1.1, 13, "b2755e5772b7881f830f977bfd25a2b3aff45259cf9db0f6f42c149a801b542b"),
            (20000, 0.8, 7, "c77c69a43961dd1818a61132ff6d7da172dc430660c93aa93170eb0ccf20a4f2"),
            (60000, 1.1, 13, "d66c66e8cee345a4802af7b136340d5159b8127b77815b5a8a25c4ba6b46e1be"),
        ],
    )
    def test_r2_is_byte_identical_to_recorded_draws(self, r2_tuples, alpha, seed, digest):
        # Digests recorded from the per-draw ``choices(weights=...)`` generator;
        # precomputed cumulative weights must draw the identical stream.
        database = generate_zipf_path(r2_tuples=r2_tuples, alpha=alpha, seed=seed)
        rows = sorted(database.relation("R2"))
        assert len(rows) == r2_tuples
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    def test_serves_both_q6_and_qpath(self):
        database = generate_zipf_path(r2_tuples=100, alpha=0.5, seed=1)
        assert Session(database).evaluate(QPATH_EXP).output_count() > 0
        assert Session(database.restricted_to(("R1", "R2"))).evaluate(Q6).output_count() > 0


class TestAblationGenerators:
    def test_q7_instance_joins(self):
        database = generate_q7_instance(tuples_per_relation=40, domain=20, seed=1)
        assert Session(database).evaluate(Q7).output_count() > 0
        assert set(database.relation_names) == {"R1", "R2", "R3", "R4"}

    def test_q8_instance_shape(self):
        database = generate_q8_instance(unary_tuples=6, binary_tuples=12, seed=1)
        assert Session(database).evaluate(Q8).output_count() > 0
        assert len(database.relation("R11")) == 6
        assert len(database.relation("R12")) == 12

    def test_determinism(self):
        assert generate_q8_instance(seed=4).relation("R12").rows == \
            generate_q8_instance(seed=4).relation("R12").rows
