"""An out-of-core blocked matrix as a reusable linear operator.

``OutOfCoreMatrix`` owns a DOoC engine whose scratch directories hold the
K x K binary-CSR sub-matrix files (seeded once); every ``matvec`` builds
and runs a DOoC program (multiplies + policy-dependent reductions).  The
Jacobi and conjugate-gradient solvers and Lanczos (``lanczos(op.matvec,
op.n)``) all drive their heavy SpMVs through this one operator — "developing more linear algebra kernels
[to] lower the bar for the application scientists" (Section VII).
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Callable
from typing import Dict

import numpy as np

from repro.core.convergence import ConvergenceTracker, SweepRecord
from repro.core.engine import DOoCEngine, Program
from repro.core.iofilter import write_array
from repro.core.array import ArrayDesc
from repro.spmv.csr import CSRBlock
from repro.spmv.csrfile import serialize_csr
from repro.spmv.partition import column_owner
from repro.spmv.program import SweepBuilder, a_name, grid_partition


class OutOfCoreMatrix:
    """y = A @ x with A resident on disk, executed through DOoC."""

    def __init__(
        self,
        blocks: dict[tuple[int, int], CSRBlock],
        *,
        n_nodes: int = 1,
        workers: int | None = None,
        memory_budget_per_node: int = 256 * 2**20,
        scratch_dir: str | Path | None = None,
        policy: str = "interleaved",
        owner: Callable[[int, int], int] | None = None,
        rng_seed: int = 0,
        gc_arrays: bool = True,
        engine_kwargs: dict | None = None,
    ):
        self.partition = grid_partition(blocks, policy)
        self.policy = policy
        self.k = k = self.partition.k
        self.n = self.partition.n
        self.owner = owner or column_owner(k, n_nodes)
        # Extra engine knobs (fault plans, watchdog, codec) for
        # callers like the job server; they override the named defaults.
        eng_kwargs = dict(
            n_nodes=n_nodes,
            workers=workers,
            memory_budget_per_node=memory_budget_per_node,
            scratch_dir=scratch_dir,
            rng_seed=rng_seed,
            gc_arrays=gc_arrays,
        )
        eng_kwargs.update(engine_kwargs or {})
        self.engine = DOoCEngine(**eng_kwargs)
        self._a_raw_len: dict[tuple[int, int], int] = {}
        self._nnz: dict[tuple[int, int], int] = {}
        self.matvec_count = 0
        #: one summary dict per engine program run through this operator
        #: (matvecs and frozen-column product programs):
        #: ``{"sweep", "mode", "active", "tasks", "disk_bytes_read",
        #: "wall_seconds"}`` — the accounting the convergence bench and
        #: the workset-dropout invariant read.
        self.sweep_log: list[dict] = []
        self.last_sweep: dict | None = None
        #: optional CancelToken threaded into every matvec's engine run;
        #: a supervisor sets it to interrupt a solver *inside* an SpMV
        #: (the solver sees RunCancelled propagate out of matvec).
        self.cancel = None
        # Seed the sub-matrix files once, on their owning nodes.
        for (u, v), b in blocks.items():
            raw = np.frombuffer(serialize_csr(b), dtype=np.uint8)
            self._a_raw_len[(u, v)] = len(raw)
            self._nnz[(u, v)] = b.nnz
            desc = ArrayDesc(a_name(u, v), length=len(raw), dtype="uint8",
                             block_elems=len(raw))
            write_array(self.engine.node_scratch(self.owner(u, v)), desc, raw)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def matvec(self, x: np.ndarray, *, workset: "SweepWorkset | None" = None,
               frontier: bool = False) -> np.ndarray:
        """One out-of-core SpMV as a DOoC program.

        ``workset`` runs an incremental sweep: frozen columns' cached
        products are seeded into the program (same array names, same
        reduction-input positions) instead of being recomputed, so their
        sub-matrix files are never read and the float summation order is
        unchanged — the result stays bit-identical to the bulk sweep.

        ``frontier=True`` runs sparse frontier propagation: columns whose
        sub-vector is entirely zero contribute exactly zero and are
        skipped outright; rows with no surviving input get a zero output
        without scheduling any task.  (Sums accumulate into a fresh
        +0.0 buffer, so dropping zero summands cannot change bits.)
        """
        if workset is not None and frontier:
            raise ValueError("workset and frontier modes are mutually "
                             "exclusive")
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, want ({self.n},)")
        t, sweep = self._sweep("matvec")
        p = self.partition
        parts = p.split_vector(np.asarray(x, dtype=np.float64))
        frozen: frozenset[int] = frozenset()
        meta: dict = {}
        if workset is not None:
            if workset.operator is not self:
                raise ValueError("workset belongs to a different operator")
            active, _ = workset.refresh(parts)
            frozen = workset.frozen
            mode = "workset"
            meta = {"workset_sweep": t,
                    "workset_active": tuple(active),
                    "workset_frozen": tuple(sorted(frozen))}
        elif frontier:
            active = [v for v in range(self.k) if np.any(parts[v])]
            mode = "frontier"
            meta = {"frontier": tuple(active)}
        else:
            active = list(range(self.k))
            mode = "full"
        for u, v in self._a_raw_len:
            if v in active:
                self._matrix(sweep.prog, u, v)
        for v in active:
            sweep.seed(sweep.name("x", v), parts[v], self.owner(0, v))
        produced: list[int] = []
        for u in range(self.k):
            cols: list[int] = []
            for v in range(self.k):
                if v in active:
                    sweep.multiply(u, v, sweep.name("x", v), **meta)
                elif v in frozen:
                    # Frozen column: its product is a constant; seed it in
                    # the exact input position a fresh multiply would fill.
                    sweep.seed(sweep.name("y", u, v), workset.product(u, v),
                               self.owner(u, v))
                else:
                    continue  # frontier-inactive: contributes exactly zero
                cols.append(v)
            if cols:  # else y_u is exactly zero; nothing to schedule
                produced.append(u)
                sweep.reduce(u, cols, sweep.name("out", u), **meta)
        out = dict(zip(produced, self._execute(
            t, sweep, mode, active, [sweep.name("out", u) for u in produced]),
            strict=True))
        if frontier:
            self.engine.tracer.counter(-1, "driver", "converge",
                                       "frontier_size", len(active), sweep=t)
        return p.join_vector({u: out[u] if u in out
                              else np.zeros(p.part_length(u))
                              for u in range(self.k)})

    def _sweep(self, kind: str) -> tuple[int, SweepBuilder]:
        """The next sweep tag ``t`` and a builder for program
        ``ooc-<kind>-<t>``, whose names all start ``it<t>_``."""
        t = self.matvec_count
        self.matvec_count += 1
        return t, SweepBuilder(Program(f"ooc-{kind}-{t}"), self.partition,
                               self.policy, self.owner, self._nnz,
                               stem=f"it{t}_{{}}")

    def _matrix(self, prog: Program, u: int, v: int) -> None:
        """Declare sub-matrix ``A_{u,v}``'s seeded file as an input."""
        raw_len = self._a_raw_len[(u, v)]
        prog.initial_from_scratch(a_name(u, v), raw_len, home=self.owner(u, v),
                                  dtype="uint8", block_elems=raw_len)

    def _execute(self, t: int, sweep: SweepBuilder, mode: str, active,
                 outputs: list[str]) -> list[np.ndarray]:
        """Run a sweep's program, fetch ``outputs``, unlink its scratch
        files and log it."""
        report = self.engine.run(sweep.prog, cancel=self.cancel)
        fetched = [self.engine.fetch(name) for name in outputs]
        self._cleanup(t)
        self._log_sweep(t, mode, active, len(sweep.prog.tasks), report)
        return fetched

    def _log_sweep(self, tag: int, mode: str, active, tasks: int,
                   report) -> None:
        entry = {
            "sweep": tag,
            "mode": mode,
            "active": tuple(active),
            "tasks": tasks,
            "disk_bytes_read": int(sum(
                per.get("disk_bytes_read", 0)
                for per in report.metrics.values())),
            "wall_seconds": report.wall_seconds,
        }
        self.sweep_log.append(entry)
        self.last_sweep = entry
        self.engine.tracer.counter(-1, "driver", "converge", "sweep_tasks",
                                   tasks, sweep=tag, mode=mode)

    def column_products(self, v: int, x_v: np.ndarray) -> dict[int, np.ndarray]:
        """All of one column's products, ``y_{u,v} = A_{u,v} @ x_v``.

        One slim multiply-only program whose outputs are terminal and
        fetchable.  :class:`SweepWorkset` calls this once when column
        ``v`` freezes; because the multiply kernel is deterministic, the
        cached products are bit-identical to what later sweeps would
        have recomputed from the stationary ``x_v``.
        """
        x_v = np.asarray(x_v, dtype=np.float64)
        want = (self.partition.part_length(v),)
        if x_v.shape != want:
            raise ValueError(f"x_v has shape {x_v.shape}, want {want}")
        t, sweep = self._sweep("colprod")
        xn = sweep.name("x", v)
        sweep.seed(xn, x_v, self.owner(0, v))
        for u in range(self.k):
            self._matrix(sweep.prog, u, v)
            sweep.multiply(u, v, xn, frozen_column=v)
        return dict(enumerate(self._execute(
            t, sweep, "colprod", (v,),
            [sweep.name("y", u, v) for u in range(self.k)])))

    def _cleanup(self, t: int) -> None:
        """Unlink this matvec's per-iteration scratch files (the seeded x
        parts and any spilled temporaries); the sub-matrix files persist."""
        from repro.core.iofilter import delete_array_file, discover_arrays

        prefix = f"it{t}_"
        for node in range(self.engine.n_nodes):
            scratch = self.engine.node_scratch(node)
            for name in discover_arrays(scratch):
                if name.startswith(prefix):
                    delete_array_file(scratch, name)

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal, read block by block from the stored files
        (needed by Jacobi; cheap: only the diagonal grid blocks load)."""
        from repro.core.iofilter import read_array
        from repro.spmv.csrfile import deserialize_csr

        diags = []
        for u in range(self.k):
            raw_len = self._a_raw_len[(u, u)]
            desc = ArrayDesc(a_name(u, u), length=raw_len, dtype="uint8",
                             block_elems=raw_len)
            raw = read_array(self.engine.node_scratch(self.owner(u, u)), desc)
            diags.append(deserialize_csr(raw).to_scipy().diagonal())
        return np.concatenate(diags)


class SweepWorkset:
    """Cached products of frozen columns for incremental sweeps.

    When a :class:`~repro.core.convergence.ConvergenceTracker` declares a
    column stationary, ``freeze(v, x_v)`` computes ``A_{u,v} @ x_v`` for
    every row once (one slim column-products program) and later
    ``matvec(x, workset=...)`` calls seed those cached arrays in place of
    fresh multiplies — the frozen column's sub-matrix files drop off the
    per-sweep read path entirely.

    The cache is **content-addressed by the iterate's bits**: a frozen
    column may hold up to two phase entries (near convergence, Jacobi
    iterates often settle into an exact period-2 last-ulp oscillation
    rather than a period-1 fixpoint), and ``refresh`` selects whichever
    entry matches the incoming ``x_v`` bitwise.  A frozen column whose
    ``x_v`` matches *no* cached phase is thawed automatically, so a stale
    cache can never change the result — dropout removes work, never
    accuracy.

    The workset also owns the bitwise :class:`ConvergenceTracker` it
    mirrors, so an incremental drive is one loop: ``matvec(x,
    workset=ws)``, then ``ws.observe(x, x_new)`` (tracker update, thaws),
    then -- unless the drive stops here -- ``ws.settle(x_new)`` (freezes).
    """

    #: phase entries kept per frozen column (period-1 or period-2 cycles)
    MAX_PHASES = 2

    def __init__(self, operator: OutOfCoreMatrix):
        self.operator = operator
        #: column -> list of (x bits, products-by-row) phase entries
        self._entries: Dict[int, list[tuple[np.ndarray,
                                            Dict[int, np.ndarray]]]] = {}
        #: column -> products selected by the last ``refresh``
        self._selected: Dict[int, Dict[int, np.ndarray]] = {}
        #: freeze-time product tasks spent so far (dropout accounting)
        self.aux_tasks = 0
        #: the freeze/thaw authority this cache mirrors
        self.tracker = ConvergenceTracker(operator.k, tol=0.0,
                                          tracer=operator.engine.tracer)
        self._aux_observed = 0
        self._last: SweepRecord | None = None

    @property
    def frozen(self) -> frozenset[int]:
        return frozenset(self._entries)

    def freeze(self, v: int, x_v: np.ndarray) -> int:
        """Cache column ``v``'s products at phase value ``x_v``; returns
        the number of auxiliary (product-cache) tasks spent."""
        x_v = np.array(x_v, dtype=np.float64, copy=True)
        entries = self._entries.setdefault(v, [])
        if any(np.array_equal(x_v, cached) for cached, _ in entries):
            return 0
        products = self.operator.column_products(v, x_v)
        entries.append((x_v, products))
        del entries[:-self.MAX_PHASES]
        self._selected.setdefault(v, products)
        self.aux_tasks += self.operator.k
        return self.operator.k

    def observe(self, x: np.ndarray, x_new: np.ndarray) -> None:
        """Hand the sweep ``x -> x_new`` (the operator's last matvec) to
        the tracker, with the product tasks spent since the previous
        sweep, and thaw every column it saw move again."""
        p = self.operator.partition
        self._last = self.tracker.observe(
            p.split_vector(x), p.split_vector(x_new),
            tasks_scheduled=self.operator.last_sweep["tasks"],
            aux_tasks=self.aux_tasks - self._aux_observed)
        self._aux_observed = self.aux_tasks
        for v in self._last.reentered:
            self.thaw(v)

    def settle(self, x_new: np.ndarray) -> None:
        """Cache the products of every column the last ``observe`` froze,
        at each of its phases (period-2 cycles have two)."""
        parts = self.operator.partition.split_vector(x_new)
        for v in self._last.newly_frozen:
            for phase in self.tracker.phases(v) or (parts[v],):
                self.freeze(v, phase)

    def thaw(self, v: int) -> None:
        self._entries.pop(v, None)
        self._selected.pop(v, None)

    def product(self, u: int, v: int) -> np.ndarray:
        return self._selected[v][u]

    def refresh(self, parts: Dict[int, np.ndarray],
                ) -> tuple[list[int], tuple[int, ...]]:
        """Select the phase entry matching each frozen column's incoming
        iterate; thaw columns that match none.  Returns the active column
        list and the columns thawed."""
        thawed = []
        for v in sorted(self._entries):
            selected = None
            for cached, products in self._entries[v]:
                if np.array_equal(parts[v], cached):
                    selected = products
                    break
            if selected is None:
                thawed.append(v)
            else:
                self._selected[v] = selected
        for v in thawed:
            self.thaw(v)
        active = [v for v in range(self.operator.k) if v not in self._entries]
        return active, tuple(thawed)
