"""Iterated-SpMV DOoC programs.

Builds the task graph of Section IV: per iteration *i*,

* ``mult_i_u_v``: x^i_{u,v} = A_{u,v} * x^{i-1}_v   (one per sub-matrix)
* reduction to x^i_u, under one of two policies:

  - ``"simple"``  — one ``sum_i_u`` task reads every intermediate
    x^i_{u,v}; with the default placement all intermediates travel to the
    node owning the row (the Table III configuration, "all the
    intermediate results are sent to the node that hosts A_{i,0}");
  - ``"interleaved"`` — each owning node first reduces its own
    intermediates (``part_i_u_n``), and a slim ``sum_i_u`` combines the
    per-node partials (the Table IV configuration: "the reduction is
    instead first performed locally by each node before communicating").

Sub-matrices ride in DOoC global arrays as serialized binary-CRS bytes
(single-block uint8 arrays): the storage layer moves untyped buffers,
exactly as DataCutter prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.convergence import _stagnant
from repro.core.engine import DOoCEngine, Program
from repro.core.opcache import cached_decode
from repro.spmv.csr import CSRBlock
from repro.spmv.csrfile import deserialize_csr, serialize_csr
from repro.spmv.partition import GridPartition, column_owner


def a_name(u: int, v: int) -> str:
    return f"A_{u}_{v}"


def x_name(i: int, u: int) -> str:
    return f"x_{i}_{u}"


def grid_partition(blocks: dict[tuple[int, int], CSRBlock],
                   policy: str) -> GridPartition:
    """Validate a reduction policy and a complete K x K grid of
    conforming sub-matrices; return the grid's partition."""
    if policy not in ("simple", "interleaved"):
        raise ValueError(f"unknown policy {policy!r}")
    k = len({u for u, _ in blocks} | {v for _, v in blocks})
    if sorted(blocks) != [(u, v) for u in range(k) for v in range(k)]:
        raise ValueError("blocks must cover a complete K x K grid")
    partition = GridPartition(sum(blocks[(u, 0)].nrows for u in range(k)), k)
    for (u, v), b in blocks.items():
        want = (partition.part_length(u), partition.part_length(v))
        if b.shape != want:
            raise ValueError(f"block {(u, v)} has shape {b.shape}, want {want}")
    return partition


def _decode_a(raw: np.ndarray):
    """Serialized bytes -> SciPy CSR: the per-task decode worth caching.

    Building the ``sp.csr_matrix`` (index-dtype normalization, structure
    checks) is the expensive part of every multiply; the result may share
    memory with the granted read view — safe, because sealed buffers are
    immutable and the operand cache is invalidated (by seal generation)
    whenever the backing bytes are reclaimed.
    """
    return deserialize_csr(raw).to_scipy()


def _csr_nbytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _mult_fn(ins: dict, outs: dict, meta: dict) -> None:
    """x^i_{u,v} = A_{u,v} @ x^{i-1}_v."""
    a = cached_decode(meta, meta["a"], ins[meta["a"]], _decode_a,
                      size_of=_csr_nbytes)
    x = np.asarray(ins[meta["x"]], dtype=np.float64)
    (out_name,) = list(outs)
    outs[out_name][:] = a @ x


def _sum_fn(ins: dict, outs: dict, meta: dict) -> None:
    """Elementwise sum of all inputs."""
    (out_name,) = list(outs)
    out = outs[out_name]
    out[:] = 0.0
    for arr in ins.values():
        out += arr


@dataclass
class SweepBuilder:
    """Emits SpMV sweeps into a program: the per-block multiply tasks and
    each row's reduction tree under the *simple* or *interleaved* policy.

    Every SpMV program is built through it -- ``build_iterated_spmv`` and
    the :class:`~repro.spmv.ooc_operator.OutOfCoreMatrix` full, workset,
    frontier, column-product and stale sweeps -- so they all share one
    reduction tree and one float summation order.  Names are
    ``stem.format(kind)`` joined with the indices by ``_``.
    """

    prog: Program
    partition: GridPartition
    policy: str
    owner: Callable[[int, int], int]
    nnz: dict[tuple[int, int], int]
    stem: str = "{}"
    #: vector block size; ``None`` makes every vector one block
    block_elems: int | None = None

    def name(self, kind: str, *idx) -> str:
        return "_".join([self.stem.format(kind), *map(str, idx)])

    def seed(self, name: str, data: np.ndarray, home: int) -> None:
        self.prog.initial_array(name, data, home=home,
                                block_elems=self.block_elems or len(data))

    def _vector(self, name: str, u: int) -> None:
        ylen = self.partition.part_length(u)
        self.prog.array(name, ylen, block_elems=self.block_elems or ylen)

    def multiply(self, u: int, v: int, x: str, **meta) -> None:
        """Declare ``y_{u,v}`` and the task computing ``A_{u,v} @ x``."""
        a, y = a_name(u, v), self.name("y", u, v)
        self._vector(y, u)
        self.prog.add_task(self.name("mult", u, v), _mult_fn, [a, x], [y],
                           flops=2.0 * self.nnz[(u, v)], a=a, x=x, **meta)

    def reduce(self, u: int, cols, out: str, **meta) -> None:
        """Declare ``out`` and the task tree summing ``y_{u,v}`` over
        ``cols`` into it.

        *simple*: one sum reads every intermediate.  *interleaved*: each
        owning node first sums its own intermediates (a node holding one
        feeds it straight into the final sum), then one sum combines the
        per-node partials -- a trivial one-input sum when a single node
        owns the row, which keeps naming uniform across policies.
        """
        ylen = self.partition.part_length(u)
        self._vector(out, u)
        ys = [self.name("y", u, v) for v in cols]
        if self.policy == "simple":
            self.prog.add_task(self.name("sum", u), _sum_fn, ys, [out],
                               flops=float(ylen * (len(ys) - 1)), **meta)
            return
        groups: dict[int, list[str]] = {}
        for v, y in zip(cols, ys, strict=True):
            groups.setdefault(self.owner(u, v), []).append(y)
        partials = []
        for node, group in sorted(groups.items()):
            if len(group) == 1:
                partials.append(group[0])
                continue
            part = self.name("part", u, node)
            self._vector(part, u)
            self.prog.add_task(self.name("psum", u, node), _sum_fn, group,
                               [part], flops=float(ylen * (len(group) - 1)),
                               **meta)
            partials.append(part)
        self.prog.add_task(self.name("sum", u), _sum_fn, partials, [out],
                           flops=float(ylen * max(len(partials) - 1, 1)),
                           **meta)


@dataclass
class IteratedSpMVResult:
    """Program plus the metadata needed to read results back."""

    program: Program
    partition: GridPartition
    iterations: int
    policy: str
    owner: Callable[[int, int], int]

    def final_vector_names(self) -> list[str]:
        return [x_name(self.iterations, u) for u in range(self.partition.k)]

    def fetch_final(self, engine) -> np.ndarray:
        """Gather x^T from a finished engine run."""
        parts = {u: engine.fetch(x_name(self.iterations, u))
                 for u in range(self.partition.k)}
        return self.partition.join_vector(parts)


def build_iterated_spmv(
    blocks: dict[tuple[int, int], CSRBlock],
    x0_parts: dict[int, np.ndarray],
    iterations: int,
    *,
    n_nodes: int = 1,
    policy: str = "simple",
    owner: Callable[[int, int], int] | None = None,
    vector_block_elems: int | None = None,
) -> IteratedSpMVResult:
    """Assemble the DOoC program for T iterations of y = A x.

    ``blocks`` maps grid coordinates to sub-matrices; ``x0_parts`` the
    conforming initial sub-vectors.  ``owner(u, v)`` places sub-matrix
    files on nodes (default: Fig. 5's column ownership).
    """
    partition = grid_partition(blocks, policy)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    k = partition.k
    if sorted(x0_parts) != list(range(k)):
        raise ValueError("x0_parts must have one part per grid row")
    if owner is None:
        owner = column_owner(k, n_nodes)

    sweep = SweepBuilder(Program(f"iterated-spmv-{policy}"), partition,
                         policy, owner,
                         {uv: b.nnz for uv, b in blocks.items()},
                         block_elems=vector_block_elems)
    # Sub-matrices: serialized bytes, one DOoC block each, on their nodes.
    for (u, v), b in blocks.items():
        raw = np.frombuffer(serialize_csr(b), dtype=np.uint8)
        sweep.prog.initial_array(a_name(u, v), raw, home=owner(u, v),
                                 block_elems=len(raw))

    # Initial vector parts: x_v feeds column v's multiplies; home it with
    # the (first) owner of that column.
    for u in range(k):
        part = np.asarray(x0_parts[u], dtype=np.float64)
        if part.shape != (partition.part_length(u),):
            raise ValueError(f"x0 part {u} has wrong length")
        sweep.seed(x_name(0, u), part, owner(0, u))

    for i in range(1, iterations + 1):
        sweep.stem = f"{{}}_{i}"
        for u, v in partition.coords():
            sweep.multiply(u, v, x_name(i - 1, v))
        for u in range(k):
            sweep.reduce(u, range(k), x_name(i, u))
    return IteratedSpMVResult(
        program=sweep.prog,
        partition=partition,
        iterations=iterations,
        policy=policy,
        owner=owner,
    )


@dataclass
class IteratedSpMVRun:
    """Outcome of a (possibly chunked and resumed) iterated-SpMV drive."""

    partition: GridPartition
    x_parts: Dict[int, np.ndarray]
    iterations: int                 #: total iterations now complete
    restored_from: int | None = None  #: checkpoint step resumed from
    checkpoint_writes: int = 0
    reports: list = field(default_factory=list)  #: one RunReport per chunk
    #: per-sweep workset history (incremental drives only)
    convergence: object | None = None
    #: did the drive hit a bitwise fixpoint/limit cycle before sweep T?
    fixpoint: bool = False
    #: per-program task/IO accounting (incremental drives only)
    sweep_log: list = field(default_factory=list)

    def join(self) -> np.ndarray:
        """The full iterate x^T, reassembled from its parts."""
        return self.partition.join_vector(self.x_parts)


def run_iterated_spmv(
    blocks: dict[tuple[int, int], CSRBlock],
    x0_parts: dict[int, np.ndarray],
    iterations: int,
    *,
    n_nodes: int = 1,
    policy: str = "simple",
    owner: Callable[[int, int], int] | None = None,
    vector_block_elems: int | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    run_timeout: float | None = 120.0,
    engine_kwargs: dict | None = None,
    cancel=None,
    incremental: bool = False,
) -> IteratedSpMVRun:
    """Drive T iterations of y = A x in checkpointed chunks.

    Without ``checkpoint_dir`` this runs one engine program for all
    ``iterations``.  With it, the drive proceeds in chunks of
    ``checkpoint_every`` iterations and persists the iterate's parts at
    every chunk boundary (atomic manifest + per-part sha256, via
    :mod:`repro.recovery.checkpoint`).  ``resume=True`` restarts from the
    newest intact checkpoint: because each chunk re-seeds the engine with
    the exact float64 parts the previous chunk produced, a resumed drive
    reproduces the remaining iterates bit-identically — kill the process
    mid-drive, call again with ``resume=True``, and the final vector
    matches an uninterrupted run byte for byte.

    ``cancel`` (a :class:`repro.core.cancel.CancelToken`) threads into
    every chunk's engine run: setting it raises
    :class:`~repro.core.errors.RunCancelled` out of this call with all
    completed chunk boundaries checkpointed, so a later ``resume=True``
    drive continues bit-identically — the preemption primitive the job
    server builds on.

    ``incremental=True`` switches to delta/workset sweeps (one engine
    program per iteration through :class:`~repro.spmv.ooc_operator.
    OutOfCoreMatrix`): vector partitions whose iterate goes bitwise
    stationary — or enters an exact period-2 last-ulp limit cycle — leave
    the workset, their multiplies are replaced by cached products, and
    the drive exits early at a global fixpoint.  The returned iterate is
    still **bit-identical** to the bulk-synchronous drive for exactly
    ``iterations`` sweeps (a period-2 exit picks the phase matching the
    remaining parity); only the tasks run and bytes read shrink.  Its
    sweeps keep each vector part in one block, so it rejects
    ``vector_block_elems``.  See ``docs/ITERATION.md``.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if incremental and vector_block_elems is not None:
        raise ValueError("incremental=True does not take vector_block_elems")
    partition = grid_partition(blocks, policy)
    if sorted(x0_parts) != list(range(partition.k)):
        raise ValueError("x0_parts must have one part per grid row")
    parts = {u: np.asarray(p, dtype=np.float64).copy()
             for u, p in x0_parts.items()}
    mgr = None
    restored = None
    if checkpoint_dir is not None:
        from repro.recovery.checkpoint import CheckpointManager
        mgr = CheckpointManager(checkpoint_dir)
        ckpt = mgr.load_latest() if resume else None
        if ckpt is not None:
            restored = ckpt.step
            parts = {int(name[1:]): arr.copy()
                     for name, arr in ckpt.arrays.items()}
    run = IteratedSpMVRun(partition=partition, x_parts=parts,
                          iterations=restored or 0, restored_from=restored)
    chunk = checkpoint_every or iterations
    if incremental:
        _run_incremental(run, blocks, iterations, chunk, mgr,
                         n_nodes=n_nodes, policy=policy, owner=owner,
                         engine_kwargs=engine_kwargs, cancel=cancel)
    else:  # bulk-synchronous: one engine program per chunk
        while run.iterations < iterations:
            step = min(chunk, iterations - run.iterations)
            built = build_iterated_spmv(
                blocks, run.x_parts, step, n_nodes=n_nodes, policy=policy,
                owner=owner, vector_block_elems=vector_block_elems)
            eng = DOoCEngine(n_nodes=n_nodes, **dict(engine_kwargs or {}))
            try:
                run.reports.append(eng.run(built.program, timeout=run_timeout,
                                           cancel=cancel))
                # fetch() already concatenates into a fresh array — no copy.
                run.x_parts = {u: eng.fetch(x_name(step, u))
                               for u in range(partition.k)}
            finally:
                eng.cleanup()
            run.iterations += step
            if mgr is not None:
                _save(mgr, run.iterations, run.x_parts, policy)
    if mgr is not None:
        run.checkpoint_writes = mgr.writes
    return run


def _save(mgr, done: int, parts: dict[int, np.ndarray], policy: str) -> None:
    """Checkpoint the iterate's parts after ``done`` iterations."""
    mgr.save(done, {f"x{u}": parts[u] for u in sorted(parts)},
             {"iterations": done, "policy": policy})


def _run_incremental(run: IteratedSpMVRun, blocks, iterations: int,
                     chunk: int, mgr, *, n_nodes: int, policy: str, owner,
                     engine_kwargs: dict | None, cancel) -> None:
    """Delta/workset drive: one engine program per sweep, frozen columns
    served from the product cache, early exit at a bitwise fixpoint or
    period-2 limit cycle (parity-corrected so x^T matches the bulk drive
    bit for bit).  Leaves ``run`` at ``iterations``."""
    from repro.spmv.ooc_operator import OutOfCoreMatrix, SweepWorkset

    op = OutOfCoreMatrix(blocks, n_nodes=n_nodes, policy=policy,
                         owner=owner, engine_kwargs=engine_kwargs)
    op.cancel = cancel
    p = op.partition
    workset = SweepWorkset(op)
    done = run.iterations
    last_saved = run.restored_from
    x = p.join_vector(run.x_parts)
    x_two_ago: np.ndarray | None = None
    try:
        while done < iterations:
            x_new = op.matvec(x, workset=workset)
            workset.observe(x, x_new)
            done += 1
            if _stagnant(x_new, x, x_two_ago):
                # x(done) repeats x(done-1) or x(done-2): every later
                # iterate is determined.  Period-1 keeps x_new; a
                # period-2 cycle alternates x_new / x, so pick the phase
                # whose parity matches the requested sweep count T.
                period2 = not np.array_equal(x_new, x)
                if not (period2 and (iterations - done) % 2):
                    x = x_new  # else x(T) == x(done-1) == current x
                run.fixpoint = True
                break
            workset.settle(x_new)
            x_two_ago = x
            x = x_new
            if mgr is not None and done % chunk == 0:
                _save(mgr, done, p.split_vector(x), policy)
                last_saved = done
    finally:
        op.engine.cleanup()
    run.x_parts = p.split_vector(x)
    run.iterations = iterations if run.fixpoint else done
    run.convergence = workset.tracker.report
    run.sweep_log = list(op.sweep_log)
    if mgr is not None and last_saved != run.iterations:
        _save(mgr, run.iterations, run.x_parts, policy)
