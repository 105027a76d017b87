#!/usr/bin/env python3
"""Out-of-core DOoC benchmark: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ooc_spmv --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

``--trace 0`` repeats set-up + computation untraced for ``--seconds`` and
reports the end-to-end medians.  ``--trace 1`` does the same, then one
traced repetition and an in-run calibration, and reports the per-layer
metrics; it also writes a wall-mapped trace summary and a Chrome trace
under ``.perfbench/traces/``.  ``--workload all`` runs every workload
with ``--trace 1`` and prints both sets of metrics.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object.  A failed correctness
verdict exits 1.  See ``perfbench/NOTES.md`` for what each number means.

The process re-executes itself once with ``PYTHONHASHSEED`` pinned and
BLAS pinned to one thread, so runs with one seed repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ooc_spmv", "ooc_spmv_zlib", "jacobi_ooc")


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="how long the untraced repetitions run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


#: str hash seed of the measured process.  The engine's plan depends on
#: set iteration order: across hash seeds ooc_spmv's wall moves 6.0-7.9 s
#: while repetitions under one hash seed agree within 3% (NOTES.md).  A
#: hash seed taken from --seed would turn that into seed-to-seed spread.
HASH_SEED = "0"


def pinned_env() -> dict[str, str]:
    """Environment the measured process must run under."""
    return {
        "PYTHONHASHSEED": HASH_SEED,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        # One malloc arena: with one per thread, which of the engine's
        # short-lived threads allocated a block decided how much heap a
        # run kept, and jacobi_ooc's RSS peak spread 7% over seeds 0-9.
        "MALLOC_ARENA_MAX": "1",
        "TMPDIR": str(OUT / "tmp"),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns its result record."""
    import measure
    from workloads import WORKLOADS

    scratch = OUT / "scratch" / f"{name}-{os.getpid()}"
    try:
        wl = measure.Workload(WORKLOADS[name], seed, scratch)
        untraced = measure.run_untraced(wl, seconds)
        record = {"workload": name, "untraced": untraced,
                  "problems": list(untraced["problems"]),
                  "attempted": untraced["attempted"],
                  "failed": untraced["failed"],
                  "metrics": dict(untraced["metrics"])}
        if trace:
            traced = measure.run_traced(
                wl, untraced["metrics"]["wall_s"]["value"], OUT / "traces")
            summary = traced["summary"]
            summary["end_to_end"] = untraced
            path = OUT / "traces" / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(summary, indent=1, default=str))
            record["trace_summary"] = str(path)
            record["sweeps"] = summary.get("sweeps", {})
            record["problems"] += traced["problems"]
            record["attempted"] += traced["attempted"]
            record["failed"] += traced["failed"]
            record["metrics"] = traced["metrics"]
            record["end_to_end"] = untraced["metrics"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return record


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}: {record['untraced']['repetitions']} "
          "untraced repetitions")
    shown = dict(record.get("end_to_end", {}))
    shown.update(record["metrics"])
    for metric, m in shown.items():
        print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {record['untraced']['failed_frac']:>16.6g} "
          "frac")
    for kind, g in record.get("sweeps", {}).items():
        layers = ", ".join(f"{k} {v:.3f}" for k, v in sorted(
            g["layers_s"].items(), key=lambda kv: -kv[1]))
        print(f"  {kind}: {g['runs']} runs, {g['wall_s']:.3f} s wall, "
              f"{g['stall_ticks']} stall ticks; {layers} s")
    if "trace_summary" in record:
        print(f"  trace summary: {record['trace_summary']}")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = pinned_env()
    if any(os.environ.get(k) != v for k, v in env.items()):
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, **env})
    sys.path.insert(0, str(src))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = args.workload == "all" or bool(args.trace)
    records = []
    for name in names:
        record = run_one(name, args.seed, args.seconds, trace)
        _print_record(record)
        records.append(record)
    correct = not any(r["problems"] for r in records)
    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in {**r["end_to_end"], **r["metrics"]}.items()}
    else:
        metrics = records[0]["metrics"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
