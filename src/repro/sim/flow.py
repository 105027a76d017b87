"""Max-min fair fluid-flow bandwidth network.

Data movement in the simulated testbed (GPFS reads over InfiniBand, vector
exchanges between compute nodes) is modeled as *flows* traversing capacitated
*links*.  At any instant, the rate of each active flow is its max-min fair
share computed by progressive filling: repeatedly saturate the bottleneck
link whose equal share is smallest, freeze the flows crossing it, and
continue with residual capacities.  Whenever the flow set changes, remaining
bytes are advanced at the old rates and rates are recomputed; flow completion
events are rescheduled accordingly.

This captures exactly the two phenomena the paper's evaluation hinges on:

* a per-node ingest cap (each compute node's GPFS client / NIC limits it to
  ~1.5 GB/s regardless of cluster size), and
* an aggregate storage ceiling (all nodes together cannot exceed the
  testbed's ~18.5–20 GB/s), which produces the GFlop/s plateau past 16 nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.sim.kernel import Environment, Event, SimulationError

__all__ = ["Link", "Flow", "FlowNetwork"]


@dataclass(frozen=True)
class Link:
    """A capacitated resource shared by flows (NIC, switch, storage array)."""

    name: str
    capacity: float  # bytes per second

    def __post_init__(self) -> None:
        if self.capacity <= 0 or not math.isfinite(self.capacity):
            raise ValueError(f"link {self.name!r} needs finite positive capacity")


@dataclass
class Flow:
    """A bulk transfer across a set of links."""

    fid: int
    links: tuple[Link, ...]
    remaining: float
    done: Event
    rate: float = 0.0
    started_at: float = 0.0
    total: float = field(default=0.0)

    @property
    def finished(self) -> bool:
        return self.remaining <= 1e-9


class FlowNetwork:
    """Tracks active flows over shared links and completes them fairly."""

    def __init__(self, env: Environment, *, rate_floor: float = 1e-6,
                 time_epsilon: float = 1e-9):
        self.env = env
        self._flows: dict[int, Flow] = {}
        self._ids = itertools.count(1)
        self._last_update = env.now
        self._wakeup: Event | None = None
        self._wakeup_time = math.inf
        self._rate_floor = rate_floor
        self._time_epsilon = time_epsilon
        self.bytes_completed = 0.0

    # -- public API ---------------------------------------------------------

    def transfer(self, links: Sequence[Link], nbytes: float) -> Event:
        """Start a transfer of ``nbytes`` across ``links``; returns its
        completion event (value = the transfer duration)."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        done = Event(self.env)
        if nbytes == 0:
            done.succeed(0.0)
            return done
        if not links:
            raise ValueError("a flow must traverse at least one link")
        self._advance()
        flow = Flow(
            fid=next(self._ids),
            links=tuple(links),
            remaining=float(nbytes),
            done=done,
            started_at=self.env.now,
            total=float(nbytes),
        )
        self._flows[flow.fid] = flow
        self._reallocate()
        return done

    def active_flow_count(self) -> int:
        return len(self._flows)

    def link_utilization(self, link: Link) -> float:
        """Instantaneous fraction of ``link`` capacity in use."""
        used = sum(f.rate for f in self._flows.values() if link in f.links)
        return used / link.capacity

    # -- internals ----------------------------------------------------------

    def _advance(self) -> None:
        """Progress remaining bytes of all flows to the current instant."""
        dt = self.env.now - self._last_update
        if dt < 0:
            raise SimulationError("flow network saw time move backwards")
        if dt > 0:
            for flow in self._flows.values():
                flow.remaining -= flow.rate * dt
        self._last_update = self.env.now

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and reschedule the next completion."""
        # Retire flows that have drained.
        finished = [f for f in self._flows.values() if f.finished]
        for flow in finished:
            del self._flows[flow.fid]
            self.bytes_completed += flow.total
            flow.done.succeed(self.env.now - flow.started_at)

        self._compute_rates()

        # Schedule a wakeup at the earliest projected completion.  The
        # delay is floored at a small epsilon so float residue left by
        # _advance can never schedule a wakeup that fails to move time
        # forward (which would spin the simulation at one instant).
        next_completion = math.inf
        for flow in self._flows.values():
            if flow.rate > 0:
                next_completion = min(next_completion, flow.remaining / flow.rate)
        if math.isinf(next_completion):
            self._wakeup_time = math.inf
            self._wakeup = None
            return
        next_completion = max(next_completion, self._time_epsilon)
        when = self.env.now + next_completion
        if self._wakeup is not None and abs(self._wakeup_time - when) < 1e-12:
            return  # keep the existing wakeup
        self._wakeup_time = when
        wakeup = self.env.event()
        self._wakeup = wakeup
        wakeup.succeed(delay=next_completion)
        wakeup.callbacks.append(self._on_wakeup)  # type: ignore[union-attr]

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup:
            return  # stale wakeup superseded by a reallocation
        self._wakeup = None
        self._advance()
        # Snap float residue: anything this flow would finish within the
        # time epsilon at its current rate counts as done.
        for flow in self._flows.values():
            if flow.rate > 0 and flow.remaining <= flow.rate * self._time_epsilon:
                flow.remaining = 0.0
            elif flow.remaining < self._rate_floor:
                flow.remaining = 0.0
        self._reallocate()

    def _compute_rates(self) -> None:
        """Progressive-filling max-min fair allocation."""
        flows = list(self._flows.values())
        for flow in flows:
            flow.rate = 0.0
        if not flows:
            return
        residual: dict[Link, float] = {}
        counts: dict[Link, int] = {}
        for flow in flows:
            for link in flow.links:
                residual.setdefault(link, link.capacity)
                counts[link] = counts.get(link, 0) + 1
        unfrozen = set(f.fid for f in flows)
        by_id = {f.fid: f for f in flows}
        while unfrozen:
            # Bottleneck link: smallest equal share among links with unfrozen flows.
            best_share = math.inf
            best_link: Link | None = None
            for link, count in counts.items():
                if count <= 0:
                    continue
                share = residual[link] / count
                if share < best_share - 1e-15:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            # Freeze every unfrozen flow crossing the bottleneck at best_share.
            frozen_now = [
                fid for fid in unfrozen if best_link in by_id[fid].links
            ]
            if not frozen_now:  # pragma: no cover - defensive
                break
            for fid in frozen_now:
                flow = by_id[fid]
                flow.rate = best_share
                unfrozen.discard(fid)
                for link in flow.links:
                    residual[link] -= best_share
                    counts[link] -= 1
        # Guard against float drift producing negative rates.
        for flow in flows:
            if flow.rate < 0:
                flow.rate = 0.0


def fair_rates(link_caps: Iterable[float], flow_links: Sequence[Sequence[int]]) -> list[float]:
    """Pure helper: max-min fair rates for flows given links by index.

    Exposed for property-based testing of the allocation algorithm without
    spinning up an environment.
    """
    caps = list(link_caps)
    links = [Link(name=f"l{i}", capacity=c) for i, c in enumerate(caps)]
    env = Environment()
    net = FlowNetwork(env)
    for idxs in flow_links:
        if not idxs:
            raise ValueError("each flow needs at least one link")
        flow = Flow(
            fid=next(net._ids),
            links=tuple(links[i] for i in idxs),
            remaining=1.0,
            done=Event(env),
        )
        net._flows[flow.fid] = flow
    net._compute_rates()
    return [f.rate for f in net._flows.values()]
