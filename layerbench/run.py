#!/usr/bin/env python3
"""The layered service benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 layerbench/run.py --workload hard-60k --seed 1 --seconds 32 --trace 0

Starts ``python -m repro serve`` as its own process, drives the workload
over HTTP, checks every answer against an in-process oracle and prints
each end-to-end metric with its unit.  ``--trace 1`` runs the same HTTP
phases and then the traced in-process replay (``layers.py``), printing the
per-layer metrics instead.  The last line of standard output is always
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Results, spans and the per-layer table are written under ``.bench_run/``
with the seed, so a figure can be re-checked on another seed later.
The exit code is 0 only when every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from inputs import SPECS, WorkloadSpec, zipf_path_rows

OUT_DIR = ".bench_run"
#: Set-ups per run and rounds (each ending in two kill/restarts) per run;
#: medians are reported.
SETUPS = 3
ROUNDS = 4
#: The tail percentile: the highest with at least ten samples beyond it,
#: but no higher than p99 (rarer events swing with the host's stalls) and
#: no lower than p50 (fewer than 20 samples hold no tail).
TAIL_BEYOND = 10
TAIL_RANGE = (50.0, 99.0)

#: Every end-to-end metric, with its unit, as printed and recorded.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("solve_p50_ms", "ms"),
    ("solve_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("probe_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("server_rss_mb", "MiB"),
    ("stored_bytes_per_user_byte", "ratio"),
)
#: Printed and recorded, but left off the result line (and out of
#: BENCHMARK.json): on a shared host a burst of stalls moves a tail by more
#: than any bound a regression gate could use.
TAILS = frozenset({"solve_tail_ms", "write_tail_ms"})


def smoke_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """A reduced copy of ``spec`` for the smoke test."""
    return dataclasses.replace(
        spec,
        r2_tuples=min(spec.r2_tuples, 3_000),
        k_values=tuple(sorted({min(k, 40) for k in spec.k_values})),
    )


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when there are none: such a
    run has failed operations and is reported as not correct)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) of the tail (see ``TAIL_RANGE``)."""
    n = max(1, len(values))
    low, high = TAIL_RANGE
    p = min(high, max(low, 100.0 * (n - TAIL_BEYOND) / n))
    return p, percentile(values, p)


def end_to_end(run, spec: WorkloadSpec) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The end-to-end metrics of one run, plus notes (tails, sample counts)."""
    ok = [op for op in run.ops if op.status == 200]

    def latencies(kind: str) -> List[float]:
        return [op.latency_s * 1e3 for op in ok if op.kind == kind]

    solves, writes, probes = latencies("solve"), latencies("write"), latencies("probe")
    recovery = [event.recovery_s for event in run.crashes]
    if spec.closed_loop:
        done = sum(1 for op in ok if op.kind == "solve" and op.loop)
    else:
        done = sum(1 for op in ok if op.kind in ("solve", "write", "probe"))
    solve_tail = tail(solves)
    write_tail = tail(writes)
    metrics = {
        "setup_s": percentile(run.setup_s, 50),
        "throughput_rps": done / run.load_wall_s,
        "solve_p50_ms": percentile(solves, 50),
        "solve_tail_ms": solve_tail[1],
        "write_p50_ms": percentile(writes, 50),
        "write_tail_ms": write_tail[1],
        "probe_p50_ms": percentile(probes, 50),
        "recovery_s": percentile(recovery, 50),
        "server_rss_mb": run.rss_mb,
        "stored_bytes_per_user_byte": run.stored_bytes / run.sent_bytes,
    }
    notes = {
        "percentiles": {
            kind: {f"p{p:g}": percentile(values, p) for p in (50, 75, 90, 95, 99)}
            for kind, values in (("solve", solves), ("write", writes), ("probe", probes))
        },
        "solve_tail_percentile": solve_tail[0],
        "write_tail_percentile": write_tail[0],
        "samples": {"solve": len(solves), "write": len(writes), "probe": len(probes),
                    "setup": len(run.setup_s), "recovery": len(recovery)},
        "setup_s_all": run.setup_s,
        "recovery_s_all": recovery,
        "load_wall_s": run.load_wall_s,
        "stored_bytes": run.stored_bytes,
        "user_bytes": run.sent_bytes,
    }
    return metrics, notes


def find_root(start: Path) -> Optional[Path]:
    """The checkout root: ``start`` when it holds the program's sources."""
    return start if (start / "src" / "repro" / "__main__.py").is_file() else None


def execute(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, tamper=None) -> Tuple[dict, int]:
    """One run; returns (result record, exit code).

    ``tamper`` (tests only) edits the raw HTTP observations before they are
    checked, to prove a wrong answer fails the run.
    """
    sys.path.insert(0, str(root / "src"))
    # Imported here: they need the program's sources on the path.
    from oracle import check_run
    from service import pin_client
    from workloads import Launcher, run_http

    spec = SPECS[workload]
    if smoke:
        spec = smoke_spec(spec)
    rows = zipf_path_rows(spec.r2_tuples, spec.alpha, seed)
    out = root / OUT_DIR
    work = out / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        # Client-side collector pauses would read as server latency: move
        # the generated rows out of the collector's reach.
        gc.collect()
        gc.freeze()
        launcher = Launcher(root, work, pin_client())
        setups, rounds = (1, 2) if smoke else (SETUPS, ROUNDS)
        run = run_http(launcher, spec, rows, seed, seconds, setups, rounds)
        if tamper is not None:
            tamper(run)
        failures = check_run(rows, spec, run)
        metrics, notes = end_to_end(run, spec)
        layer_metrics: Dict[str, Tuple[float, str]] = {}
        layer_table: dict = {}
        if trace:
            from layers import replay

            traced = replay(spec, rows, run, work)
            layer_metrics = traced.metrics()
            layer_table = traced.spans.layer_table()
            spans_path = out / "results" / f"{workload}-seed{seed}-spans.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(traced.spans.records))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(run.ops)
    failed = min(attempted, len(failures))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "server_counters": run.counters,
        "storage_counters": run.storage,
        "retries": sum(op.retries for op in run.ops),
        "failures": failures[:50],
        "end_to_end": metrics,
        "notes": notes,
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in layer_metrics.items()},
        "layer_table": layer_table,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    results = out / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    return record, 0 if not failures else 1


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"layerbench workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} correct={record['correct']}")
    notes = record["notes"]
    units = dict(END_TO_END)
    for name, value in record["end_to_end"].items():
        extra = ""
        if name == "solve_tail_ms":
            extra = f"  (p{notes['solve_tail_percentile']:.4g}, n={notes['samples']['solve']})"
        elif name == "write_tail_ms":
            extra = f"  (p{notes['write_tail_percentile']:.4g}, n={notes['samples']['write']})"
        print(f"  {name:28s} {value:12.4f} {units[name]}{extra}")
    print(f"  {'error_rate':28s} {record['error_rate']:12.4f} ratio  "
          f"({record['failed']} of {record['attempted']} operations)")
    for failure in record["failures"][:10]:
        print(f"  FAILED: {failure}")
    if record["trace"]:
        print("  per-layer (traced replay):")
        for name, entry in record["per_layer"].items():
            print(f"    {name:30s} {entry['value']:14.4f} {entry['unit']}")
        print(f"  {'layer':10s} {'busy_ms':>12s} {'self_ms':>12s} {'count':>8s}")
        for layer, row in record["layer_table"].items():
            print(f"  {layer:10s} {row['busy_ms']:12.2f} {row['self_ms']:12.2f} {row['count']:8d}")
        metrics = {name: entry for name, entry in record["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in record["end_to_end"].items()
                   if name not in TAILS}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the closed-loop load window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every server is killed and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    root = find_root(Path.cwd())
    if root is None:
        print("layerbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    record, code = execute(root, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    report(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
