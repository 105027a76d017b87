"""Reproducible performance harness (``python -m repro bench``).

Runs the pinned iterated-SpMV workload matrix (in-core, out-of-core,
faulty) against the current build and emits a schema-versioned
``BENCH_<tag>.json`` — wall time, tasks/s, bytes copied, operand-cache
hit rate, and a per-phase breakdown from the runtime Tracer.  The
committed ``BENCH_baseline.json`` is the artifact every later perf PR is
judged against: CI re-runs the quick matrix and fails on a wall-time
regression beyond tolerance or on *any* bytes-copied increase.

See docs/PERFORMANCE.md for how to read and refresh the baseline.
"""

from repro.bench.harness import (
    SCHEMA,
    ConvergenceWorkload,
    Workload,
    bit_identical,
    check_convergence_invariants,
    check_regression,
    load_report,
    pinned_convergence_workload,
    pinned_workloads,
    run_convergence_suite,
    run_suite,
    run_workload,
    write_report,
)

__all__ = [
    "SCHEMA",
    "ConvergenceWorkload",
    "Workload",
    "bit_identical",
    "check_convergence_invariants",
    "check_regression",
    "load_report",
    "pinned_convergence_workload",
    "pinned_workloads",
    "run_convergence_suite",
    "run_suite",
    "run_workload",
    "write_report",
]
