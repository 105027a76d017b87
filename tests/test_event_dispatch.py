"""Event-driven local dispatch: the scheduler waits only on something that
ends in a message, and readiness waves arrive whole."""

import numpy as np

from repro.core import DOoCEngine
from repro.core.dag import TaskDAG
from repro.core.engine import _GlobalSchedulerFilter, _LocalSchedulerFilter
from repro.core.task import task
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv


def noop(ins, outs, meta):
    pass


def lsched(*names):
    filt = _LocalSchedulerFilter(0, workers=1,
                                 nbytes={n: 8 for n in ("a", "b", "ya", "yb")})
    for n in names:
        filt.core.add_ready(task(f"t_{n}", noop, [n], [f"y{n}"]))
    return filt


class TestChoose:
    def test_claims_top_ranked_when_nothing_can_land(self):
        filt = lsched("a", "b")
        picked = filt._choose(set(), set())
        assert picked.name == "t_b"  # LIFO: the last-ready task ranks first
        assert filt.core.ready_count == 1

    def test_waits_while_an_input_is_loading(self):
        filt = lsched("a", "b")
        assert filt._choose(set(), {"a"}) is None
        assert filt.core.ready_count == 2

    def test_waits_while_a_task_is_in_flight(self):
        filt = lsched("a", "b")
        filt._inflight = 1
        assert filt._choose(set(), set()) is None
        assert filt.core.ready_count == 2

    def test_resident_task_runs_despite_in_flight_work(self):
        filt = lsched("a", "b")
        filt._inflight = 1
        assert filt._choose({"a"}, {"b"}).name == "t_a"


class _ScriptedCtx:
    """Feeds the global scheduler a fixed message script; records writes."""

    def __init__(self, script):
        self.script = list(script)
        self.writes = []

    def read_any(self, ports, timeout=None):
        if not self.script:
            return None, END_OF_STREAM
        return "in", DataBuffer(self.script.pop(0))

    def write(self, port, buf):
        self.writes.append((port, buf.payload))


class TestReadinessWave:
    def test_one_completion_sends_one_tasks_message_per_node(self):
        tasks = [task("root", noop, [], ["r"])] + [
            task(f"leaf_{c}", noop, ["r"], [f"o_{c}"]) for c in "xyz"]
        dag = TaskDAG(tasks, [])
        gs = _GlobalSchedulerFilter(dag, {t.name: 0 for t in tasks}, 1)
        ctx = _ScriptedCtx([{"op": "done", "task": n}
                            for n in ("root", "leaf_x", "leaf_y", "leaf_z")])
        gs.process(ctx)
        sent = [p for port, p in ctx.writes if p["op"] == "tasks"]
        assert [sorted(t.name for t in p["tasks"]) for p in sent] == [
            ["root"], ["leaf_x", "leaf_y", "leaf_z"]]
        assert all(port == "out_0" for port, _ in ctx.writes)


class _TimeoutSpy:
    """Wraps a filter context, recording every ``read_any`` timeout."""

    def __init__(self, ctx, seen):
        self._ctx = ctx
        self._seen = seen

    def read_any(self, ports, timeout=None):
        self._seen.append(timeout)
        return self._ctx.read_any(ports, timeout)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


class TestNoTimedWait:
    def test_over_budget_run_never_polls(self, tmp_path, monkeypatch):
        timeouts = []
        process = _LocalSchedulerFilter.process
        monkeypatch.setattr(
            _LocalSchedulerFilter, "process",
            lambda self, ctx: process(self, _TimeoutSpy(ctx, timeouts)))
        k, n, iterations = 3, 150, 3
        rng = np.random.default_rng(3)
        p = GridPartition(n, k)
        m = gap_uniform_csr(n, n, choose_gap_parameter(n, 20.0), rng)
        blocks = p.split_matrix(m)
        x0 = rng.normal(size=n)
        result = build_iterated_spmv(blocks, p.split_vector(x0),
                                     iterations=iterations, n_nodes=1,
                                     policy="simple")
        a_bytes = max(len(serialize_csr(b)) for b in blocks.values())
        eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path,
                         memory_budget_per_node=int(a_bytes * 1.5) + 8000)
        report = eng.run(result.program, timeout=120)
        assert report.total_spills > 0, "the run should be over budget"
        assert timeouts and set(timeouts) == {None}
        # The simple policy's order: y_u accumulates A_uv @ x_v over v.
        mats = {uv: b.to_scipy() for uv, b in blocks.items()}
        parts = p.split_vector(x0)
        for _ in range(iterations):
            new = {}
            for u in range(k):
                acc = np.zeros(p.part_length(u))
                for v in range(k):
                    acc += mats[(u, v)] @ parts[v]
                new[u] = acc
            parts = new
        want = p.join_vector(parts)
        assert np.all(np.isfinite(want)) and np.any(want != 0)
        np.testing.assert_array_equal(result.fetch_final(eng), want)
