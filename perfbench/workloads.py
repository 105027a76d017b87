"""The benchmark's workloads: seeded inputs, references and timed drives.

Every input is generated here from the run's seed; the system under test
only ever sees the generated arrays.  The drives use public entry points
only: ``build_iterated_spmv`` + ``DOoCEngine.run``/``fetch`` for the
SpMV workloads, ``OutOfCoreMatrix`` + ``jacobi_solve`` for the solver.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.engine import DOoCEngine
from repro.core.iofilter import write_array
from repro.solvers import jacobi_solve
from repro.spmv.csr import CSRBlock
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.ooc_operator import OutOfCoreMatrix
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import build_iterated_spmv

from wallmap import BENCH_NODE

MiB = 2**20

#: seconds an engine run may take before the benchmark calls it hung
RUN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class SpmvSpec:
    """Iterated SpMV in the paper's setting (Fig. 5b interleaved plan)."""

    name: str
    codec: str
    n: int = 16384
    k: int = 4
    nnz_per_row: float = 64.0    #: per sub-matrix row
    iterations: int = 6
    n_nodes: int = 2
    workers: int = 1             #: per node
    budget: int = 12 * MiB       #: per node
    opcache: int = 4 * MiB       #: per node
    policy: str = "interleaved"


@dataclass(frozen=True)
class JacobiSpec:
    """Incremental Jacobi on a staggered-dominance block-triangular system."""

    name: str
    n: int = 16384
    k: int = 4
    density: float = 0.004
    #: block 1's 1e5 makes it freeze on every seed; at 2e3 its iterate
    #: falls into a longer last-ulp cycle on about half the seeds, never
    #: freezes, and keeps the working set over budget (see NOTES.md)
    dom: tuple[float, ...] = (1e6, 1e5, 50.0, 12.0)
    tol: float = 1e-12
    max_iterations: int = 200
    n_nodes: int = 1
    workers: int = 2
    budget: int = 6 * MiB
    policy: str = "simple"


WORKLOADS = {
    "ooc_spmv": SpmvSpec("ooc_spmv", codec="raw"),
    "ooc_spmv_zlib": SpmvSpec("ooc_spmv_zlib", codec="shuffle-zlib"),
    "jacobi_ooc": JacobiSpec("jacobi_ooc"),
}


@dataclass
class Rep:
    """One timed set-up + computation, with what the traced run needs."""

    setup_s: float
    wall_s: float
    result: np.ndarray
    reports: list = field(default_factory=list)     #: RunReport per run
    programs: list = field(default_factory=list)    #: Program per run
    sweep_s: list = field(default_factory=list)     #: matvec seconds (Jacobi)
    solve: object = None                            #: JacobiResult
    sweep_log: list = field(default_factory=list)   #: OutOfCoreMatrix log

    def counter(self, name: str) -> int:
        return int(sum(per.get(name, 0) for r in self.reports
                       for per in r.metrics.values()))

    def tasks(self) -> int:
        return sum(len(p.tasks) for p in self.programs)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def spmv_inputs(spec: SpmvSpec, seed: int) -> dict:
    """A K x K grid of gap-uniform sub-matrices and a start vector."""
    rng = np.random.default_rng([seed, 1])
    partition = GridPartition(spec.n, spec.k)
    blocks = {}
    for u, v in partition.coords():
        cols = partition.part_length(v)
        blocks[(u, v)] = gap_uniform_csr(
            partition.part_length(u), cols,
            choose_gap_parameter(cols, spec.nnz_per_row), rng)
    x0 = rng.uniform(-1.0, 1.0, size=spec.n)
    return {"blocks": blocks, "partition": partition, "x0": x0,
            "owner": column_owner(spec.k, spec.n_nodes)}


def jacobi_inputs(spec: JacobiSpec, seed: int) -> dict:
    """Block-lower-triangular A with per-block extra dominance, and b.

    Block ``u``'s diagonal exceeds its row sums by ``dom[u]``, so the
    blocks converge at staggered rates and the workset shrinks before the
    global residual test fires.
    """
    rng = np.random.default_rng([seed, 2])
    s = spec.n // spec.k
    rows = []
    for u in range(spec.k):
        row = []
        for v in range(spec.k):
            if v > u:
                row.append(sp.csr_matrix((s, s)))
                continue
            blk = sp.random(s, s, density=spec.density, random_state=rng,
                            format="csr")
            if v == u:
                blk = blk.tolil()
                rowsum = np.abs(blk).sum(axis=1).A.ravel()
                blk.setdiag(rowsum + spec.dom[u])
            row.append(blk.tocsr())
        rows.append(row)
    a = sp.csr_matrix(sp.bmat(rows, format="csr"))
    b = rng.standard_normal(spec.n)
    partition = GridPartition(spec.n, spec.k)
    blocks = partition.split_matrix(CSRBlock.from_scipy(a))
    return {"blocks": blocks, "partition": partition, "a": a, "b": b}


# ---------------------------------------------------------------------------
# References (order-matched, so the verdicts can demand bit-identity)
# ---------------------------------------------------------------------------


def interleaved_reference(inputs: dict, iterations: int) -> np.ndarray:
    """x^T with the interleaved policy's float summation order.

    Per row block: each owner node sums its columns' products in column
    order into a zeroed buffer (a lone column feeds through unsummed),
    then the partials are summed in node order into a zeroed buffer.
    """
    partition, owner = inputs["partition"], inputs["owner"]
    mats = {uv: b.to_scipy() for uv, b in inputs["blocks"].items()}
    k = partition.k
    parts = partition.split_vector(inputs["x0"])
    for _ in range(iterations):
        new = {}
        for u in range(k):
            groups: dict[int, list[int]] = {}
            for v in range(k):
                groups.setdefault(owner(u, v), []).append(v)
            partials = []
            for node in sorted(groups):
                vs = groups[node]
                if len(vs) == 1:
                    partials.append(mats[(u, vs[0])] @ parts[vs[0]])
                    continue
                acc = np.zeros(partition.part_length(u))
                for v in vs:
                    acc += mats[(u, v)] @ parts[v]
                partials.append(acc)
            out = np.zeros(partition.part_length(u))
            for p in partials:
                out += p
            new[u] = out
        parts = new
    return partition.join_vector(parts)


class BlockedInCoreOperator:
    """In-core operator with the simple policy's summation order:
    ``y_u`` accumulates ``A_{u,v} @ x_v`` over ``v`` into a zeroed buffer."""

    def __init__(self, inputs: dict):
        self.partition = inputs["partition"]
        self.n = self.partition.n
        self._diag = np.asarray(inputs["a"].diagonal(), dtype=np.float64)
        self._mats = {uv: b.to_scipy() for uv, b in inputs["blocks"].items()}

    @property
    def shape(self):
        return (self.n, self.n)

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        p = self.partition
        parts = p.split_vector(np.asarray(x, dtype=np.float64))
        out = {}
        for u in range(p.k):
            y = np.zeros(p.part_length(u))
            for v in range(p.k):
                y += self._mats[(u, v)] @ parts[v]
            out[u] = y
        return p.join_vector(out)


def jacobi_reference(spec: JacobiSpec, inputs: dict):
    """``jacobi_solve`` on the in-core blocked operator (sync mode)."""
    op = BlockedInCoreOperator(inputs)
    return jacobi_solve(op, inputs["b"], tol=spec.tol,
                        max_iterations=spec.max_iterations), op


# ---------------------------------------------------------------------------
# Timed drives
# ---------------------------------------------------------------------------


def matrix_files(scratch: Path) -> list[Path]:
    """The seeded sub-matrix files (raw ``.arr`` or chunked ``.blk``)."""
    return sorted(p for p in scratch.rglob("*")
                  if p.is_file() and "A_" in str(p.relative_to(scratch)))


def _spans(tracer):
    """The benchmark's own span recorder; a no-op when untraced."""
    if tracer is None:
        return lambda name: nullcontext()
    return lambda name: tracer.span(BENCH_NODE, "bench", "bench", name)


def spmv_rep(spec: SpmvSpec, inputs: dict, scratch: Path,
             tracer=None) -> Rep:
    """Set up one engine with the matrix seeded to scratch, then run it.

    ``setup_s`` covers program construction, engine construction and the
    seeding (codec encode + write) of every initial array; ``wall_s``
    covers ``DOoCEngine.run`` on the pre-seeded program plus the final
    ``fetch``.
    """
    partition = inputs["partition"]
    span = _spans(tracer)
    with span("setup"):
        t0 = time.perf_counter()
        built = build_iterated_spmv(
            inputs["blocks"], partition.split_vector(inputs["x0"]),
            spec.iterations, n_nodes=spec.n_nodes, policy=spec.policy)
        eng = DOoCEngine(
            n_nodes=spec.n_nodes, workers=spec.workers,
            memory_budget_per_node=spec.budget, opcache_bytes=spec.opcache,
            scratch_dir=scratch, codec=spec.codec,
            trace=tracer if tracer is not None else False)
        prog = built.program
        # Seed like the engine would, then declare every input pre-seeded
        # (what Program.initial_from_scratch records), so run() seeds nothing.
        for name in list(prog.initial_data):
            desc = replace(prog.arrays[name], codec=eng.codec)
            write_array(eng.node_scratch(prog.initial_home[name]), desc,
                        prog.initial_data[name])
            prog.initial_data[name] = None
        setup_s = time.perf_counter() - t0
    with span("compute"):
        t1 = time.perf_counter()
        with span("engine_run"):
            report = eng.run(prog, timeout=RUN_TIMEOUT_S)
        with span("fetch"):
            x = built.fetch_final(eng)
        wall_s = time.perf_counter() - t1
    eng.cleanup()
    return Rep(setup_s=setup_s, wall_s=wall_s, result=x, reports=[report],
               programs=[prog])


def jacobi_rep(spec: JacobiSpec, inputs: dict, scratch: Path,
               tracer=None) -> Rep:
    """Construct the out-of-core operator, then solve incrementally.

    ``setup_s`` is ``OutOfCoreMatrix`` construction (engine + seeding the
    sub-matrix files); ``wall_s`` is the ``jacobi_solve`` call.  The
    operator's ``matvec`` is timed per call, and its ``engine.run`` is
    wrapped to keep each program and ``RunReport`` (``matvec`` drops them).
    """
    span = _spans(tracer)
    with span("setup"):
        t0 = time.perf_counter()
        op = OutOfCoreMatrix(
            inputs["blocks"], n_nodes=spec.n_nodes, workers=spec.workers,
            memory_budget_per_node=spec.budget, scratch_dir=scratch,
            policy=spec.policy,
            engine_kwargs={"trace": tracer} if tracer is not None else None)
        setup_s = time.perf_counter() - t0
    rep = Rep(setup_s=setup_s, wall_s=0.0, result=np.empty(0))
    engine_run, matvec = op.engine.run, op.matvec

    def run(prog, **kw):
        with span("engine_run"):
            report = engine_run(prog, timeout=RUN_TIMEOUT_S, **kw)
        rep.reports.append(report)
        rep.programs.append(prog)
        return report

    def timed_matvec(x, **kw):
        with span("matvec"):
            t = time.perf_counter()
            y = matvec(x, **kw)
            rep.sweep_s.append(time.perf_counter() - t)
        return y

    op.engine.run = run
    op.matvec = timed_matvec
    with span("compute"):
        t1 = time.perf_counter()
        res = jacobi_solve(op, inputs["b"], tol=spec.tol,
                           max_iterations=spec.max_iterations,
                           mode="incremental")
        rep.wall_s = time.perf_counter() - t1
    rep.result, rep.solve = res.x, res
    rep.sweep_log = list(op.sweep_log)
    op.engine.cleanup()
    return rep
