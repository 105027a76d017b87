"""One workload, measured: untraced repetitions, then an optional traced one.

End-to-end metrics are medians over untraced repetitions that each set
up from scratch and compute once.  Per-layer metrics come from a single
traced repetition whose spans are mapped onto wall time
(:mod:`wallmap`), set against bounds measured in the same process on the
same data (:mod:`calib`).
"""

from __future__ import annotations

import ctypes
import gc
import shutil
import statistics
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from repro.obs import Tracer, export_chrome_trace

import calib
import verdicts
import wallmap
from workloads import (JacobiSpec, SpmvSpec, interleaved_reference,
                       jacobi_inputs, jacobi_reference, jacobi_rep,
                       matrix_files, spmv_inputs, spmv_rep)

#: end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "rss_peak_mb": "MB"}

#: engine counters that record a failed or retried operation
FAILURE_COUNTERS = ("io_retries", "load_failures", "spill_failures",
                    "task_reexecutions", "worker_crashes")

#: how far the wall map may miss the traced wall before the run is wrong
ACCOUNTING_TOLERANCE = 0.05

#: trace ring capacity per node; a dropped event fails the traced run
TRACE_CAPACITY = 1 << 20


# ---------------------------------------------------------------------------
# Peak resident memory of one repetition
# ---------------------------------------------------------------------------


_LIBC = ctypes.CDLL(None)


def _status_kib(field: str) -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise OSError(f"/proc/self/status has no {field}")


def _reset_peak_rss() -> int:
    """Return freed memory to the kernel, then reset the resident
    high-water mark; returns the current RSS."""
    gc.collect()
    _LIBC.malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")
    return _status_kib("VmRSS")


def _peak_rss_mb(base_kib: int) -> float:
    return (_status_kib("VmHWM") - base_kib) / 1024.0


# ---------------------------------------------------------------------------
# A workload: inputs, reference, verdict
# ---------------------------------------------------------------------------


class Workload:
    """Inputs, reference and verdict for one spec and seed."""

    def __init__(self, spec, seed: int, scratch: Path):
        self.spec, self.seed, self.scratch = spec, seed, scratch
        if isinstance(spec, SpmvSpec):
            self.inputs = spmv_inputs(spec, seed)
            self.want = interleaved_reference(self.inputs, spec.iterations)
            self.rep_fn = spmv_rep
            self.codec = spec.codec
        else:
            self.inputs = jacobi_inputs(spec, seed)
            self.want, self.ref_op = jacobi_reference(spec, self.inputs)
            self.b_norm = float(np.linalg.norm(self.inputs["b"]))
            self.rep_fn = jacobi_rep
            self.codec = "raw"
        self.lanes = [(node, f"worker/{w}") for node in range(spec.n_nodes)
                      for w in range(spec.workers)]

    def verdict(self, rep) -> list[str]:
        if isinstance(self.spec, SpmvSpec):
            return verdicts.spmv_verdict(rep.result, self.want)
        return self._jacobi_verdict(rep.solve)

    def _jacobi_verdict(self, res) -> list[str]:
        resid = float(np.linalg.norm(self.inputs["b"]
                                     - self.ref_op.matvec(res.x)))
        return verdicts.jacobi_verdict(res, self.want, resid, self.spec.tol,
                                       self.b_norm)

    def self_test(self, rep) -> list[str]:
        """Corruptions of this repetition's result the verdict missed."""
        if isinstance(self.spec, SpmvSpec):
            check = lambda x: verdicts.spmv_verdict(x, self.want)  # noqa: E731
        else:
            check = lambda x: self._jacobi_verdict(  # noqa: E731
                replace(rep.solve, x=x))
        return verdicts.self_test(check, rep.result, self.seed)

    def repeat(self, label: str, tracer=None):
        """One repetition in its own scratch directory, whose files stay
        on disk until the caller removes them."""
        scratch = self.scratch / label
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        return self.rep_fn(self.spec, self.inputs, scratch, tracer=tracer)


def _operations(rep) -> tuple[int, int]:
    """Operations attempted (tasks + loads + spills) and failed or retried."""
    return (rep.tasks() + rep.counter("loads") + rep.counter("spills"),
            sum(rep.counter(c) for c in FAILURE_COUNTERS))


# ---------------------------------------------------------------------------
# Untraced repetitions -> end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(wl: Workload, seconds: float) -> dict:
    """Repeat set-up + compute until ``seconds`` have passed (at least
    once); report medians and the correctness verdict.

    ``rss_peak_mb`` is taken over the first repetition only: later ones
    reuse thread stacks and heap the earlier ones left, and their peaks
    wandered (``jacobi_ooc``, one arena per thread: 22-42 MB within one
    process, 68-72 MB for the first repetition of one seed in four
    processes).
    """
    setup, wall = [], []
    rss_base = _reset_peak_rss()
    rss = 0.0
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not wall or time.perf_counter() - start < seconds:
        index = len(wall)
        try:
            rep = wl.repeat(f"rep{index}")
            if index == 0:
                rss = _peak_rss_mb(rss_base)
        except Exception as exc:  # noqa: BLE001 - a raised run is a failure
            failed += 1
            attempted += 1
            problems.append(f"repetition {index} raised {exc!r}")
            break
        finally:
            shutil.rmtree(wl.scratch / f"rep{index}", ignore_errors=True)
        setup.append(rep.setup_s)
        wall.append(rep.wall_s)
        ops, bad = _operations(rep)
        attempted += ops
        failed += bad
        problems += [f"repetition {index}: {p}" for p in wl.verdict(rep)]
        if index == 0:
            missed = wl.self_test(rep)
            if missed:
                problems.append("self-test: the verdict let through the "
                                f"corruptions {missed}")
    values = {
        "wall_s": statistics.median(wall) if wall else 0.0,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "rss_peak_mb": rss,
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
        "repetitions": len(wall),
        "samples": {"wall_s": wall, "setup_s": setup},
        "failed_frac": failed / attempted if attempted else 0.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# One traced repetition -> per-layer metrics
# ---------------------------------------------------------------------------


def _plan_loads(prog, iterations: int, budget: int) -> int:
    """Matrix-block loads of the Fig. 5b back-and-forth plan for one run.

    Per node with ``k`` sub-matrices of which the budget holds ``m``: the
    first iteration loads all ``k``, every later one reloads ``k - m``
    (the ``m`` processed last stay, and the sweep reverses).  ``m = 1`` is
    the paper's ``k + (T - 1)(k - 1)``.
    """
    per_node: dict[int, list[int]] = {}
    for name, home in prog.initial_home.items():
        if name.startswith("A_"):
            per_node.setdefault(home, []).append(prog.arrays[name].nbytes)
    total = 0
    for sizes in per_node.values():
        k, m = len(sizes), max(1, budget // max(sizes))
        total += k if k <= m else k + (iterations - 1) * (k - m)
    return total


def _trace_metrics(wl: Workload, rep, events, cal: dict,
                   untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the trace summary."""
    spec = wl.spec
    tl = wallmap.Timeline(events)
    lo, hi = tl.window()
    wall = hi - lo
    summ = wallmap.summarize(tl, wl.lanes, lo, hi)
    layers = summ["layers_s"]
    lane_count = len(wl.lanes)
    jacobi = isinstance(spec, JacobiSpec)
    c = rep.counter

    iterations = 1 if jacobi else spec.iterations
    plan = sum(_plan_loads(p, iterations, spec.budget) for p in rep.programs)
    matrix_loads = sum(1 for e in events if e.ph == "X" and e.name == "load"
                       and str(e.args.get("array", "")).startswith("A_"))
    blocks = len(wl.inputs["blocks"])
    disk_per_block = cal["encoded_bytes"] / blocks
    logical_per_block = cal["matrix_bytes"] / blocks
    flops = sum(t.flops for p in rep.programs for t in p.tasks)
    bound_s = max(plan * disk_per_block / (cal["read_mb_s"] * 1e6),
                  flops / (cal["spmv_gflops"] * 1e9))
    if wl.codec != "raw":
        bound_s = max(bound_s,
                      plan * logical_per_block / (cal["decode_mb_s"] * 1e6))

    logical_read, disk_read = c("logical_bytes_read"), c("disk_bytes_read")
    read_mb_s = (logical_read / summ["io_read_busy_s"] / 1e6
                 if summ["io_read_busy_s"] else 0.0)
    hits, misses = c("opcache_hits"), c("opcache_misses")
    task_self_lane_s = layers["spmv.task"] * lane_count
    spmv_gflops = flops / task_self_lane_s / 1e9 if task_self_lane_s else 0.0
    gw = summ["grant_wait_ms"]

    m = {
        "engine.tasks_per_s": (summ["tasks"] / wall, "1/s"),
        "engine.idle_frac": (layers["engine.idle"] / wall, "frac"),
        "engine.wall_over_bound": (wall / bound_s, "ratio"),
        "engine.io_nonoverlap_frac": (summ["io_nonoverlap_s"] / wall, "frac"),
        "engine.run_overhead_s": (layers["engine.run_overhead"], "s"),
        "engine.fetch_s": (layers["engine.fetch"], "s"),
        "local_scheduler.stall_ticks": (summ["stall_ticks"], "count"),
        "local_scheduler.prefetch_dropped": (c("prefetch_dropped"), "count"),
        "storage.loads": (c("loads"), "count"),
        "storage.spills": (c("spills"), "count"),
        "storage.matrix_loads": (matrix_loads, "count"),
        "storage.loads_over_plan": (matrix_loads / plan if plan else 0.0,
                                    "ratio"),
        "storage.load_self_s": (layers["storage.load"], "s"),
        "storage.spill_self_s": (layers["storage.spill"], "s"),
        "storage.grant_self_s": (layers["storage.grant"], "s"),
        "storage.grant_wait_p50_ms": (gw["p50"], "ms"),
        "storage.grant_wait_p99_ms": (gw["p99"], "ms"),
        "storage.grant_waits": (gw["n"], "count"),
        "storage.allocs_queued": (c("allocs_queued"), "count"),
        "iofilter.read_self_s": (layers["iofilter.read"], "s"),
        "iofilter.write_self_s": (layers["iofilter.write"], "s"),
        "iofilter.disk_bytes_read": (disk_read, "B"),
        "iofilter.disk_bytes_written": (c("disk_bytes_written"), "B"),
        "iofilter.read_mb_s": (read_mb_s, "MB/s"),
        "iofilter.read_bound_frac": (read_mb_s / cal["read_mb_s"], "frac"),
        "codecs.ratio": (logical_read / disk_read if disk_read else 1.0,
                         "ratio"),
        "codecs.decode_bound_frac": (read_mb_s / cal["decode_mb_s"], "frac"),
        "codecs.encode_s": (cal["encode_s"], "s"),
        "opcache.hit_rate": (hits / (hits + misses) if hits + misses else 0.0,
                             "frac"),
        "opcache.misses": (misses, "count"),
        "opcache.evictions": (c("opcache_evictions"), "count"),
        "spmv.task_self_s": (layers["spmv.task"], "s"),
        "spmv.gflops": (spmv_gflops, "GFlop/s"),
        "spmv.bound_frac": (spmv_gflops / cal["spmv_gflops"], "frac"),
        "calib.read_mb_s": (cal["read_mb_s"], "MB/s"),
        "calib.spmv_gflops": (cal["spmv_gflops"], "GFlop/s"),
        "calib.decode_mb_s": (cal["decode_mb_s"], "MB/s"),
        "calib.csr_decode_mb_s": (cal["csr_decode_mb_s"], "MB/s"),
        "trace.overhead_frac": (wall / untraced_wall - 1.0, "frac"),
    }
    m.update(_operator_metrics(wl, rep, layers, disk_read))

    summary = {
        "window": summ,
        "bound_s": bound_s,
        "plan_matrix_loads": plan,
        "flops": flops,
    }
    if jacobi:
        summary["sweeps"] = _sweep_groups(tl, wl, rep)
    return m, summary


#: the operator and solver layers' metrics: name -> unit
OPERATOR_UNITS = {
    "ooc_operator.sweep_s_p50": "s", "ooc_operator.matvec_s_max": "s",
    "ooc_operator.tasks": "count", "ooc_operator.disk_bytes_per_sweep": "B",
    "ooc_operator.self_s": "s", "jacobi.self_s": "s",
    "jacobi.iterations": "count", "jacobi.engine_runs": "count",
    "convergence.first_freeze_sweep": "count",
    "convergence.tasks_saved_frac": "frac",
}


def _operator_metrics(wl: Workload, rep, layers, disk_read) -> dict:
    """The operator and solver layers (zero on the SpMV workloads)."""
    if not isinstance(wl.spec, JacobiSpec):
        return {name: (0, unit) for name, unit in OPERATOR_UNITS.items()}
    res = rep.solve
    conv = res.convergence
    full_sweep = max(len(p.tasks) for p in rep.programs)
    first = conv.first_freeze_sweep()
    values = {
        "ooc_operator.sweep_s_p50": statistics.median(rep.sweep_s),
        "ooc_operator.matvec_s_max": max(rep.sweep_s),
        "ooc_operator.tasks": rep.tasks(),
        "ooc_operator.disk_bytes_per_sweep": disk_read / len(rep.sweep_s),
        "ooc_operator.self_s": layers["ooc_operator.self"],
        "jacobi.self_s": layers["jacobi.self"],
        "jacobi.iterations": res.iterations,
        "jacobi.engine_runs": len(rep.reports),
        "convergence.first_freeze_sweep": -1 if first is None else first,
        "convergence.tasks_saved_frac":
            1.0 - conv.total_tasks() / (res.iterations * full_sweep),
    }
    return {name: (values[name], unit) for name, unit in OPERATOR_UNITS.items()}


def _sweep_groups(tl, wl: Workload, rep) -> dict:
    """Where each kind of engine run's wall goes: full (pressured) sweeps,
    workset sweeps after a freeze, and frozen-column product programs."""
    groups: dict[str, dict] = {}
    k = wl.spec.k
    for (s, e), entry in zip(tl.runs, rep.sweep_log):
        if entry["mode"] == "colprod":
            kind = "column_products"
        elif len(entry["active"]) == k:
            kind = "full_sweeps"
        else:
            kind = "workset_sweeps"
        one = wallmap.summarize(tl, wl.lanes, s, e)
        g = groups.setdefault(kind, {"runs": 0, "wall_s": 0.0,
                                     "stall_ticks": 0, "layers_s": {},
                                     "io_nonoverlap_s": 0.0, "tasks": 0})
        g["runs"] += 1
        g["wall_s"] += one["wall_s"]
        g["stall_ticks"] += one["stall_ticks"]
        g["io_nonoverlap_s"] += one["io_nonoverlap_s"]
        g["tasks"] += one["tasks"]
        for layer, v in one["layers_s"].items():
            if layer != "accounted_frac" and v:
                g["layers_s"][layer] = g["layers_s"].get(layer, 0.0) + v
    return groups


def run_traced(wl: Workload, untraced_wall: float, out_dir: Path) -> dict:
    """One traced repetition, calibration on its data, and the summary."""
    tracer = Tracer(enabled=True, capacity=TRACE_CAPACITY)
    problems: list[str] = []
    try:
        rep = wl.repeat("traced", tracer=tracer)
        cal = calib.measure(wl.inputs["blocks"], wl.codec,
                            matrix_files(wl.scratch / "traced"))
    finally:
        shutil.rmtree(wl.scratch / "traced", ignore_errors=True)
    events = [e for r in rep.reports for e in r.trace_events]
    events += tracer.drain()
    if tracer.dropped():
        problems.append(f"trace ring overflowed: {tracer.dropped()}")
    problems += [f"traced repetition: {p}" for p in wl.verdict(rep)]
    metrics, summary = _trace_metrics(wl, rep, events, cal, untraced_wall)
    metrics = {name: {"value": v, "unit": u}
               for name, (v, u) in metrics.items()}
    accounted = summary["window"]["layers_s"]["accounted_frac"]
    if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
        problems.append(f"wall map: raw span durations account for "
                        f"{accounted:.3f} of the traced wall")
    env = calib.environment(wl.scratch)
    l3 = env["l3_cache"]
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    summary.update({
        "workload": wl.spec.name,
        "seed": wl.seed,
        "config": asdict(wl.spec),
        "environment": env,
        "calibration": cal,
        "matrix_bytes_over_l3": (cal["matrix_bytes"] / l3_bytes
                                 if l3_bytes else None),
        "metrics": metrics,
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.spec.name}-seed{wl.seed}"
    summary["chrome_trace"] = str(export_chrome_trace(
        events, out_dir / f"{stem}.chrome.json"))
    attempted, failed = _operations(rep)
    return {"metrics": metrics, "summary": summary, "problems": problems,
            "attempted": attempted, "failed": failed}
