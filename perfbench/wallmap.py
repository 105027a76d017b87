"""Map trace spans onto wall time, one worker lane at a time.

The engine's spans overlap across threads: two workers multiply while an
I/O filter reads and the storage filter has five loads in flight.
Summing their durations gives seconds no clock ever showed.  Instead
every instant of every worker lane gets exactly one layer, so each
lane's layers add up to the traced wall; a layer's share is its
lane-seconds divided by the lane count.

Priority at an instant of worker lane ``w`` on node ``n``:

* outside the engine's runtime window: the benchmark span that holds it
  (``engine_run`` set-up/teardown, ``fetch``, the operator's own work
  inside ``matvec``, the solver's own work inside ``compute``);
* inside it, no ``task`` span on ``w``: ``engine.idle``;
* a ``task`` span but no ``grant_wait``: ``spmv.task`` (CSR decode,
  operand-cache lookup, multiply, reduce);
* a ``grant_wait``: the I/O-side work node ``n`` is doing at that
  instant, first match of ``io/read``, ``io/write``, ``storage/load``
  (queued behind the I/O filter), ``storage/spill``; none of them is
  ``storage.grant`` (allocation queue, ticket and message hops).
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from collections import defaultdict

#: the wall partition's layers, in report order
LAYERS = ("spmv.task", "iofilter.read", "iofilter.write", "storage.load",
          "storage.spill", "storage.grant", "engine.idle",
          "engine.run_overhead", "engine.fetch", "ooc_operator.self",
          "jacobi.self", "bench.self")

#: node id of the benchmark's own spans
BENCH_NODE = -2


def union(intervals) -> list[tuple[float, float]]:
    """Sorted, merged, non-empty intervals."""
    out: list[list[float]] = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def length(merged) -> float:
    return sum(e - s for s, e in merged)


def clip(merged, lo: float, hi: float) -> list[tuple[float, float]]:
    return [(max(s, lo), min(e, hi)) for s, e in merged if e > lo and s < hi]


def subtract(a, b) -> list[tuple[float, float]]:
    """Merged ``a`` minus merged ``b``."""
    out, j = [], 0
    for s, e in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            cur = max(cur, b[k][1])
            k += 1
        if cur < e:
            out.append((cur, e))
    return out


class _Cover:
    """Point-in-union queries over merged intervals."""

    def __init__(self, merged):
        self.merged = merged
        self.starts = [s for s, _ in merged]

    def __contains__(self, t: float) -> bool:
        i = bisect_right(self.starts, t) - 1
        return i >= 0 and t < self.merged[i][1]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Timeline:
    """The trace of one measured computation, indexed for wall mapping."""

    def __init__(self, events):
        self.by_lane = defaultdict(list)   # (node, lane, name) -> spans
        self.by_node = defaultdict(list)   # (node, name) -> spans
        self.instants = defaultdict(list)  # name -> [ts]
        starts = []
        #: the engine's runtime windows, one per ``DOoCEngine.run``, in order
        self.runs: list[tuple[float, float]] = []
        for e in sorted(events, key=lambda e: e.ts):
            if e.ph == "X":
                span = (e.ts, e.ts + e.dur)
                self.by_lane[(e.node, e.lane, e.name)].append(span)
                self.by_node[(e.node, e.name)].append(span)
            elif e.ph == "i":
                self.instants[e.name].append(e.ts)
                if e.name == "phase" and e.node == -1:
                    if e.args.get("phase") == "start":
                        starts.append(e.ts)
                    elif e.args.get("phase") == "end" and starts:
                        self.runs.append((starts.pop(0), e.ts))
        self.runtime = union(self.runs)

    def bench(self, name: str):
        return union(self.by_lane[(BENCH_NODE, "bench", name)])

    def window(self) -> tuple[float, float]:
        """The measured computation: the benchmark's ``compute`` span."""
        (w,) = self.bench("compute")
        return w

    def count(self, name: str, lo: float, hi: float) -> int:
        return sum(1 for ts in self.instants[name] if lo <= ts <= hi)

    def durations(self, name: str, lo: float, hi: float) -> list[float]:
        return [e - s for (node, n), spans in self.by_node.items()
                if n == name and node != BENCH_NODE
                for s, e in spans if s >= lo and e <= hi]


def wall_map(tl: Timeline, lanes, lo: float, hi: float) -> dict:
    """Partition ``[lo, hi]`` of every worker lane into :data:`LAYERS`.

    Returns the layers in wall seconds (lane-seconds / lanes), plus
    ``accounted_frac``: the same lanes re-added from raw span durations
    (task minus its grant waits, grant waits, idle, outside-runtime), over
    lanes x wall.  It is 1 exactly when worker spans never overlap on a
    lane and lie inside the window; a gap or double count moves it.
    """
    covers = {name: _Cover(tl.bench(name))
              for name in ("engine_run", "fetch", "matvec", "compute")}
    runtime = _Cover(clip(tl.runtime, lo, hi))
    lane_s = dict.fromkeys(LAYERS, 0.0)
    direct = 0.0
    for node, lane in lanes:
        task = union(tl.by_lane[(node, lane, "task")])
        grant = union(tl.by_lane[(node, lane, "grant_wait")])
        c_task, c_grant = _Cover(union(task + grant)), _Cover(grant)
        node_io = {name: _Cover(union(tl.by_node[(node, name)]))
                   for name in ("read", "write", "load", "spill")}
        cuts = {lo, hi}
        for cover in (runtime, c_task, c_grant, *node_io.values(),
                      *covers.values()):
            for s, e in cover.merged:
                cuts.update(t for t in (s, e) if lo < t < hi)
        cuts = sorted(cuts)
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            if mid in runtime:
                if mid not in c_task:
                    layer = "engine.idle"
                elif mid not in c_grant:
                    layer = "spmv.task"
                elif mid in node_io["read"]:
                    layer = "iofilter.read"
                elif mid in node_io["write"]:
                    layer = "iofilter.write"
                elif mid in node_io["load"]:
                    layer = "storage.load"
                elif mid in node_io["spill"]:
                    layer = "storage.spill"
                else:
                    layer = "storage.grant"
            elif mid in covers["engine_run"]:
                layer = "engine.run_overhead"
            elif mid in covers["fetch"]:
                layer = "engine.fetch"
            elif mid in covers["matvec"]:
                layer = "ooc_operator.self"
            elif mid in covers["compute"]:
                layer = "jacobi.self" if covers["matvec"].merged \
                    else "bench.self"
            else:
                layer = "bench.self"
            lane_s[layer] += b - a
        # Raw durations, not unions: overlapping spans would show here.
        raw = lambda spans: sum(  # noqa: E731
            min(e, hi) - max(s, lo) for s, e in spans if e > lo and s < hi)
        in_rt = length(runtime.merged)
        direct += (raw(tl.by_lane[(node, lane, "task")])  # task incl. grants
                   + (in_rt - length(clip(union(task + grant), lo, hi)))
                   + (hi - lo - in_rt))
    n = max(len(lanes), 1)
    out = {layer: s / n for layer, s in lane_s.items()}
    out["accounted_frac"] = direct / (n * (hi - lo)) if hi > lo else 0.0
    return out


def io_nonoverlap_s(tl: Timeline, lanes, lo: float, hi: float) -> float:
    """Wall seconds in which some ``io/read`` runs and no worker computes
    (the paper's non-overlapped I/O, Tables III/IV)."""
    reads = union(s for (node, name), spans in tl.by_node.items()
                  if name == "read" and node != BENCH_NODE for s in spans)
    compute = []
    for node, lane in lanes:
        compute += subtract(union(tl.by_lane[(node, lane, "task")]),
                            union(tl.by_lane[(node, lane, "grant_wait")]))
    return length(subtract(clip(reads, lo, hi), union(compute)))


def summarize(tl: Timeline, lanes, lo: float, hi: float) -> dict:
    """Wall map plus the per-layer distributions and counts of one window."""
    grant = tl.durations("grant_wait", lo, hi)
    out = {
        "wall_s": hi - lo,
        "layers_s": wall_map(tl, lanes, lo, hi),
        "io_nonoverlap_s": io_nonoverlap_s(tl, lanes, lo, hi),
        "stall_ticks": tl.count("stall_tick", lo, hi),
        "prefetch_dropped": tl.count("prefetch_dropped", lo, hi),
        "tasks": len(tl.durations("task", lo, hi)),
        "io_read_busy_s": sum(tl.durations("read", lo, hi)),
        "io_write_busy_s": sum(tl.durations("write", lo, hi)),
        "grant_wait_ms": {
            "n": len(grant),
            "p50": 1e3 * percentile(grant, 50),
            "p99": 1e3 * percentile(grant, 99),
            "mean": 1e3 * statistics.fmean(grant) if grant else 0.0,
        },
    }
    return out
