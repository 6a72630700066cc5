#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced sizes (about a minute).

    python3 layerbench/smoke.py            # from the repository root
    python3 -m pytest layerbench/smoke.py  # the same checks under pytest

It pins the benchmark's fast Zipf generator to the library's, runs every
workload once (traced, reduced sizes) and asserts that every metric named
in ``BENCHMARK.json`` is emitted, and that a corrupted response, a lost
write and a wrong probe each fail the checks.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from inputs import SPECS, zipf_path_rows  # noqa: E402
from oracle import check_run  # noqa: E402
from run import END_TO_END, TAILS, execute, smoke_spec  # noqa: E402
from workloads import Launcher, run_http  # noqa: E402

from repro.workloads.zipf import generate_zipf_path  # noqa: E402

SEED = 3


def test_generator_matches_library() -> None:
    for r2_tuples, alpha, seed in ((2_000, 0.5, 7), (5_000, 1.1, 13)):
        reference = generate_zipf_path(r2_tuples, alpha, seed)
        rows = zipf_path_rows(r2_tuples, alpha, seed)
        for name, relation in rows.items():
            assert len(relation) == len(set(relation)), name
            assert sorted(relation) == sorted(reference.relation(name).rows), name


def test_every_metric_is_emitted() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # mutate-60k stays runnable (and smoke-tested) but is not declared.
    assert [w["name"] for w in declared["workloads"]] == [
        name for name in SPECS if name != "mutate-60k"
    ]
    assert [m["name"] for m in declared["end_to_end"]] == [
        name for name, _unit in END_TO_END if name not in TAILS
    ]
    for workload in SPECS:
        record, code = execute(ROOT, workload, SEED, 1.5, trace=True, smoke=True)
        assert code == 0 and record["correct"], record["failures"]
        assert record["failed"] == 0 and record["attempted"] > 0
        for name, _unit in END_TO_END:
            assert record["end_to_end"][name] > 0, name
        for metric in declared["per_layer"]:
            entry = record["per_layer"][metric["name"]]
            assert entry["unit"] == metric["unit"], metric["name"]
        spans = ROOT / ".bench_run" / "results" / f"{workload}-seed{SEED}-spans.json"
        assert json.loads(spans.read_text()), workload


def _first(run, kind):
    return next(op for op in run.ops if op.kind == kind and op.body is not None)


def _corruptions():
    def solve_objective(run):
        _first(run, "solve").body["objective"] += 1

    def probe_count(run):
        _first(run, "probe").body["outputs_removed"] += 1

    def lost_write(run):
        run.crashes[-1].after["witness_count_before"] -= 1

    def write_version(run):
        _first(run, "write").body["version"] += 1

    def failed_request(run):
        run.ops[0].status = 503

    return [solve_objective, probe_count, lost_write, write_version, failed_request]


def test_corruption_fails_the_checks() -> None:
    spec = smoke_spec(SPECS["easy-2k"])
    rows = zipf_path_rows(spec.r2_tuples, spec.alpha, SEED)
    scratch = ROOT / ".bench_run" / "smoke"
    try:
        run = run_http(Launcher(ROOT, scratch), spec, rows, SEED, 1.0,
                       setups=1, rounds=2)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert check_run(rows, spec, run) == []
    for corrupt in _corruptions():
        broken = copy.deepcopy(run)
        corrupt(broken)
        assert check_run(rows, spec, broken), corrupt.__name__
    record, code = execute(ROOT, "easy-2k", SEED, 1.0, trace=False, smoke=True,
                           tamper=_corruptions()[0])
    assert code == 1 and not record["correct"] and record["failed"] >= 1


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}", flush=True)
