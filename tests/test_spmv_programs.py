"""Golden-program test: every SpMV program the repo emits, pinned.

The engine's plan depends on the names and insertion order of a
program's arrays and tasks (the scheduler iterates name-keyed sets), so
a refactor of the program builders must emit byte-identical programs.
This test rebuilds each program shape -- ``build_iterated_spmv``, the
``OutOfCoreMatrix`` full / workset / frontier sweeps, ``column_products``
and ``stale_sweep`` -- and compares it, array by array and task by task,
against ``tests/data/spmv_programs.json``.  It also pins the per-sweep
``(mode, active, tasks)`` log, a hash of every program and the final
iterate of the incremental and synchronous Jacobi and iterated-SpMV
drives.

Regenerate the fixture (only when a program change is intended) with::

    PYTHONPATH=src python -m tests.test_spmv_programs
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.engine import DOoCEngine
from repro.solvers import jacobi_solve
from repro.spmv.csr import CSRBlock
from repro.spmv.ooc_operator import OutOfCoreMatrix, SweepWorkset
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv, run_iterated_spmv
from tests.test_convergence import block_matrix, staggered_system

FIXTURE = pathlib.Path(__file__).parent / "data" / "spmv_programs.json"
N, K = 60, 3


def _digest(data) -> str:
    arr = np.ascontiguousarray(data)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def snapshot(prog) -> dict:
    """Arrays and tasks of ``prog``, both in insertion order."""
    arrays = []
    for name, desc in prog.arrays.items():
        if name not in prog.initial_data:
            source = "derived"
        elif prog.initial_data[name] is None:
            source = "scratch"
        else:
            source = "seeded:" + _digest(prog.initial_data[name])
        arrays.append([name, desc.length, desc.block_elems, desc.dtype,
                       prog.initial_home.get(name), source])
    tasks = [[t.name, t.fn.__name__, list(t.inputs), list(t.outputs),
              t.flops, [[k, v] for k, v in t.meta.items()]]
             for t in prog.tasks]
    return json.loads(json.dumps(
        {"name": prog.name, "arrays": arrays, "tasks": tasks}))


def _program_hash(record: dict) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


@contextlib.contextmanager
def recording():
    """Snapshot every program any engine runs, before it runs."""
    programs: list[dict] = []
    run = DOoCEngine.run

    def recording_run(self, prog, *args, **kwargs):
        programs.append(snapshot(prog))
        return run(self, prog, *args, **kwargs)

    DOoCEngine.run = recording_run
    try:
        yield programs
    finally:
        DOoCEngine.run = run


def _two_node_owner(u: int, v: int) -> int:
    return (u + v) % 2


def _problem():
    rng = np.random.default_rng(21)
    m = sp.random(N, N, density=0.15, random_state=rng, format="csr")
    m = sp.csr_matrix(m + sp.identity(N) * 4.0)
    p = GridPartition(N, K)
    x = rng.standard_normal(N)
    return p, p.split_matrix(CSRBlock.from_scipy(m)), x


def build_cases() -> dict:
    p, blocks, x = _problem()
    cases = {}
    for n_nodes in (1, 2):
        owner = _two_node_owner if n_nodes == 2 else None
        for policy in ("simple", "interleaved"):
            for vbe in (None, 16):
                built = build_iterated_spmv(
                    blocks, p.split_vector(x), 2, n_nodes=n_nodes,
                    policy=policy, owner=owner, vector_block_elems=vbe)
                cases[f"build/{n_nodes}n/{policy}/vbe{vbe}"] = [
                    snapshot(built.program)]
    return cases


def operator_cases(scratch: pathlib.Path) -> dict:
    p, blocks, x = _problem()
    parts = p.split_vector(x)
    frontier_x = x.copy()
    frontier_x[p.part_range(1)[0]:] = 0.0
    cases = {}
    for n_nodes in (1, 2):
        owner = _two_node_owner if n_nodes == 2 else None
        for policy in ("simple", "interleaved"):
            op = OutOfCoreMatrix(blocks, n_nodes=n_nodes, policy=policy,
                                 owner=owner,
                                 scratch_dir=scratch / f"{n_nodes}{policy}")
            with recording() as programs:
                op.matvec(x)
                workset = SweepWorkset(op)
                workset.freeze(1, parts[1])
                op.matvec(x, workset=workset)
                op.matvec(frontier_x, frontier=True)
                op.stale_sweep([parts, p.split_vector(2.0 * x)],
                               {(0, 1): 1, (2, 0): 1, (1, 1): 0})
            op.engine.cleanup()
            cases[f"operator/{n_nodes}n/{policy}"] = programs
    return cases


def _drive(sweep_log, programs, x, iterations) -> dict:
    return {
        "log": [[e["mode"], list(e["active"]), e["tasks"], _program_hash(prog)]
                for e, prog in zip(sweep_log, programs, strict=True)],
        "iterations": iterations,
        "x": _digest(np.asarray(x, dtype=np.float64)),
    }


def drive_cases(scratch: pathlib.Path) -> dict:
    a, b = staggered_system()
    cases = {}
    for policy in ("simple", "interleaved"):
        for mode in ("sync", "incremental"):
            blocks = GridPartition(a.shape[0], 3).split_matrix(
                CSRBlock.from_scipy(a))
            op = OutOfCoreMatrix(blocks, n_nodes=1, policy=policy,
                                 scratch_dir=scratch / f"j{policy}{mode}")
            with recording() as programs:
                res = jacobi_solve(op, b, tol=1e-30, max_iterations=120,
                                   mode=mode)
            op.engine.cleanup()
            cases[f"jacobi/{mode}/{policy}"] = _drive(
                op.sweep_log, programs, res.x, res.iterations)

    n, k = 90, 3
    x0 = GridPartition(n, k).split_vector(
        np.random.default_rng(3).standard_normal(n))
    rng = np.random.default_rng(11)
    s = n // k
    nilpotent = block_matrix(
        n, k, lambda u, v: sp.random(s, s, density=0.1, random_state=rng,
                                     format="csr") if v < u else None)
    eye = sp.identity(s, format="csr")
    swap = block_matrix(
        n, k, lambda u, v: eye if {u, v} == {0, 1} or u == v == 2 else None)
    for label, m, t in (("nilpotent", nilpotent, 50), ("swap", swap, 7)):
        blocks = GridPartition(n, k).split_matrix(CSRBlock.from_scipy(m))
        for policy in ("simple", "interleaved"):
            with recording() as programs:
                run = run_iterated_spmv(blocks, x0, t, policy=policy,
                                        incremental=True)
            cases[f"iterated/{label}/{policy}"] = _drive(
                run.sweep_log, programs, run.join(), run.iterations)

    p, blocks, x = _problem()
    with recording() as programs:
        run = run_iterated_spmv(blocks, p.split_vector(x), 5, n_nodes=2,
                                policy="interleaved", owner=_two_node_owner,
                                checkpoint_dir=scratch / "ckpt",
                                checkpoint_every=2)
    cases["iterated/chunked"] = {
        "programs": [_program_hash(prog) for prog in programs],
        "iterations": run.iterations,
        "x": _digest(run.join()),
    }
    return cases


def all_cases(scratch: pathlib.Path) -> dict:
    return {"programs": {**build_cases(), **operator_cases(scratch)},
            "drives": drive_cases(scratch)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return all_cases(tmp_path_factory.mktemp("golden"))


def test_programs_match_golden(golden, current):
    assert sorted(current["programs"]) == sorted(golden["programs"])
    for case, want in golden["programs"].items():
        got = current["programs"][case]
        assert len(got) == len(want), case
        for w, g in zip(want, got, strict=True):
            assert g["name"] == w["name"], case
            assert g["arrays"] == w["arrays"], (case, w["name"])
            assert g["tasks"] == w["tasks"], (case, w["name"])


def test_drives_match_golden(golden, current):
    assert sorted(current["drives"]) == sorted(golden["drives"])
    for case, want in golden["drives"].items():
        assert current["drives"][case] == want, case


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        FIXTURE.write_text(json.dumps(all_cases(pathlib.Path(tmp)),
                                      indent=1) + "\n")
    print(f"wrote {FIXTURE}")
