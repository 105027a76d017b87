"""Reclaim resources orphaned by dead DOoC processes.

A SIGKILLed engine (or job server) can leave its scratch directories
behind: ``<tmpdir>/dooc-<pid>-*``, the engine scratch directories and
job-server work dirs (``tempfile.mkdtemp(prefix=f"dooc-{os.getpid()}-")``).
Each is stamped with its owner's pid precisely so this sweeper can tell
"orphan" from "someone else's live run".

Only entries whose embedded pid is *dead* are reclaimed; anything owned
by a live process — or not matching the pid-stamped pattern at all — is
left alone.  Runs at job-server start and on demand via ``repro sweep``.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from pathlib import Path

__all__ = ["sweep", "pid_alive", "format_report"]

_DIR_RE = re.compile(r"^dooc-(\d+)-")


def pid_alive(pid: int) -> bool:
    """Is a process with this pid still running (signal-0 probe)?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _owner_pid(name: str) -> int | None:
    m = _DIR_RE.match(name)
    return int(m.group(1)) if m else None


def sweep(tmp_dir: str | Path | None = None, *,
          dry_run: bool = False) -> dict:
    """One reclamation pass; returns a structured report.

    ``dry_run=True`` reports what *would* be reclaimed without touching
    anything.  Errors on individual entries (e.g. a directory the owner
    removes mid-sweep) are recorded, not raised — the sweep is a
    best-effort janitor, never a crash source.
    """
    tmp_dir = Path(tmp_dir) if tmp_dir is not None else \
        Path(tempfile.gettempdir())
    report = {"scratch_dirs": [], "kept": [], "errors": []}

    if tmp_dir.is_dir():
        for entry in sorted(tmp_dir.iterdir()):
            if not entry.is_dir():
                continue
            pid = _owner_pid(entry.name)
            if pid is None:
                continue
            if pid_alive(pid):
                report["kept"].append(str(entry))
                continue
            report["scratch_dirs"].append(str(entry))
            if not dry_run:
                try:
                    shutil.rmtree(entry, ignore_errors=True)
                except OSError as exc:
                    report["errors"].append(f"{entry}: {exc}")
    return report


def format_report(report: dict, *, dry_run: bool = False) -> str:
    verb = "would reclaim" if dry_run else "reclaimed"
    lines = [
        f"{verb} {len(report['scratch_dirs'])} scratch dir(s); "
        f"kept {len(report['kept'])} live-owner entr(ies)"
    ]
    for path in report["scratch_dirs"]:
        lines.append(f"  {verb}: {path}")
    for err in report["errors"]:
        lines.append(f"  error: {err}")
    return "\n".join(lines)
