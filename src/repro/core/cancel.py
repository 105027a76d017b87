"""Cooperative run cancellation.

A :class:`CancelToken` is the one-way switch a supervisor hands to
``DOoCEngine.run(cancel=...)``.  Setting it does **not** kill threads or
tear streams: the global scheduler notices the token, stops dispatching,
broadcasts a drain request, and waits for every node to report its
in-flight tasks finished before running the normal wind-down.  The run
then raises :class:`~repro.core.errors.RunCancelled` with every ticket
released and nothing torn on disk — exactly the same exit hygiene as a
successful run.

The token is therefore safe to set from any thread at any time,
including before ``run()`` starts (the run cancels before dispatching
anything) and after it finished (the completed run is not retroactively
failed — ``run()`` raises only if the scheduler actually drained).
"""

from __future__ import annotations

import threading

__all__ = ["CancelToken"]


class CancelToken:
    """A thread-safe, one-shot cancellation flag with a reason.

    The first ``cancel(reason)`` wins; later calls are no-ops so the
    recorded reason always names the original canceller (user request,
    deadline, preemption).  ``wait()`` lets supervisors block on the
    token with an interruptible timeout instead of polling.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason = "cancelled"

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation.  Returns True if this call flipped the
        token, False if it was already cancelled (reason unchanged)."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = str(reason)
            self._event.set()
            return True

    def is_set(self) -> bool:
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        """The first canceller's stated reason (meaningful once set)."""
        with self._lock:
            return self._reason

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (or ``timeout`` elapses); True if set."""
        return self._event.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"cancelled: {self.reason!r}" if self.cancelled else "armed"
        return f"<CancelToken {state}>"
