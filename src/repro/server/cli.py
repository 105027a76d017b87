"""CLI verbs for the job service.

    python -m repro serve --port 8787 --memory-budget-mb 64
    python -m repro submit --kind cg --n 256 --tenant alice --wait
    python -m repro status j0001 --trace
    python -m repro cancel j0001
    python -m repro sweep --dry-run

``serve`` runs a stale-resource sweep first (reclaiming litter from any
previously SIGKILLed run), installs SIGTERM/SIGINT drain handlers, and
blocks until a signal arrives.  A transient-fault plan for *all* jobs
can be enabled with ``--fault-seed`` (or the ``DOOC_FAULT_SEED``
environment variable, as CI does); each (job, attempt) then derives its
own deterministic seed from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.server.jobs import JOB_KINDS, JobSpec


def _parse_quota(text: str):
    """``tenant=max_running,max_queued,weight`` → (tenant, TenantQuota)."""
    from repro.server.admission import TenantQuota
    tenant, _, rest = text.partition("=")
    if not tenant or not rest:
        raise argparse.ArgumentTypeError(
            f"quota must look like name=running,queued,weight: {text!r}")
    parts = rest.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"quota needs exactly running,queued,weight: {text!r}")
    return tenant, TenantQuota(max_running=int(parts[0]),
                               max_queued=int(parts[1]),
                               weight=float(parts[2]))


def serve_main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m repro serve",
                                description="Run the DOoC job service.")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="0 picks a free port (printed at startup)")
    p.add_argument("--n-nodes", type=int, default=1)
    p.add_argument("--memory-budget-mb", type=int, default=64,
                   help="cluster-wide admission budget")
    p.add_argument("--engine-budget-mb", type=int, default=32,
                   help="per-node engine memory budget for each job run")
    p.add_argument("--max-queue", type=int, default=32)
    p.add_argument("--max-concurrent", type=int, default=2)
    p.add_argument("--work-dir", default=None,
                   help="job checkpoint dir (default: pid-stamped tempdir)")
    p.add_argument("--quota", action="append", default=[], type=_parse_quota,
                   metavar="TENANT=RUN,QUEUE,WEIGHT",
                   help="per-tenant quota (repeatable)")
    p.add_argument("--no-preemption", action="store_true")
    p.add_argument("--fault-seed", type=int,
                   default=int(os.environ.get("DOOC_FAULT_SEED", "0") or 0),
                   help="enable a deterministic transient-fault plan")
    p.add_argument("--fault-io-transient", type=float, default=0.02)
    p.add_argument("--fault-task-crash", type=float, default=0.01)
    p.add_argument("--no-sweep", action="store_true",
                   help="skip the stale-resource sweep at startup")
    p.add_argument("--verbose", action="store_true")
    args = p.parse_args(argv)

    from repro.server.http import serve
    from repro.server.manager import ServerConfig
    from repro.server.sweep import format_report, sweep

    if not args.no_sweep:
        report = sweep()
        if report["scratch_dirs"]:
            print(format_report(report), flush=True)

    faults = None
    if args.fault_seed:
        from repro.faults import FaultPlan
        faults = FaultPlan(seed=args.fault_seed,
                           io_transient=args.fault_io_transient,
                           task_crash=args.fault_task_crash)
    config = ServerConfig(
        n_nodes=args.n_nodes,
        memory_budget=args.memory_budget_mb * 2**20,
        max_queue=args.max_queue,
        max_concurrent=args.max_concurrent,
        quotas=dict(args.quota),
        faults=faults,
        engine={"memory_budget_per_node": args.engine_budget_mb * 2**20},
        preemption=not args.no_preemption,
        work_dir=args.work_dir,
    )
    manifest = serve(args.host, args.port, config, verbose=args.verbose)
    if manifest is not None:
        undrained = manifest.get("undrained", [])
        print(f"drained: {len(manifest.get('jobs', {}))} job record(s), "
              f"{len(manifest.get('preempted', []))} checkpointed, "
              f"{len(undrained)} undrained", flush=True)
        return 1 if undrained else 0
    return 0


def submit_main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m repro submit",
                                description="Submit a job to the service.")
    p.add_argument("--url", default="http://127.0.0.1:8787")
    p.add_argument("--tenant", default="cli")
    p.add_argument("--kind", choices=JOB_KINDS, default="cg")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--parts", type=int, default=2)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nnz-per-row", type=float, default=8.0)
    p.add_argument("--deadline-s", type=float, default=None)
    p.add_argument("--working-set-bytes", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=5)
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    args = p.parse_args(argv)

    from repro.server.client import JobClient
    spec = JobSpec(tenant=args.tenant, kind=args.kind, n=args.n,
                   parts=args.parts, iterations=args.iterations,
                   seed=args.seed, nnz_per_row=args.nnz_per_row,
                   deadline_s=args.deadline_s,
                   working_set_bytes=args.working_set_bytes,
                   checkpoint_every=args.checkpoint_every)
    client = JobClient(args.url)
    rec = client.submit(spec)
    if rec["state"] == "rejected":
        print(json.dumps(rec, indent=2))
        return 3
    if args.wait:
        rec = client.wait_terminal(rec["id"])
    print(json.dumps(rec, indent=2))
    return 0 if rec["state"] in ("queued", "running", "done") else 3


def status_main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m repro status",
                                description="Job or server status.")
    p.add_argument("job_id", nargs="?", default=None,
                   help="omit for server-wide stats")
    p.add_argument("--url", default="http://127.0.0.1:8787")
    p.add_argument("--wait", type=float, default=None,
                   help="long-poll up to this many seconds for a terminal state")
    p.add_argument("--trace", action="store_true",
                   help="print the job's event log instead of its record")
    args = p.parse_args(argv)

    from repro.server.client import JobClient
    client = JobClient(args.url)
    if args.job_id is None:
        print(json.dumps(client.stats(), indent=2))
        return 0
    if args.trace:
        print(json.dumps(client.trace(args.job_id), indent=2))
        return 0
    print(json.dumps(client.status(args.job_id, wait=args.wait), indent=2))
    return 0


def cancel_main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m repro cancel",
                                description="Cancel a queued/running job.")
    p.add_argument("job_id")
    p.add_argument("--url", default="http://127.0.0.1:8787")
    args = p.parse_args(argv)

    from repro.server.client import JobClient, ServerError
    try:
        print(json.dumps(JobClient(args.url).cancel(args.job_id), indent=2))
        return 0
    except ServerError as exc:
        print(json.dumps(exc.payload, indent=2), file=sys.stderr)
        return 3


def sweep_main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Reclaim scratch dirs of dead runs.")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--tmp-dir", default=None)
    args = p.parse_args(argv)

    from repro.server.sweep import format_report, sweep
    report = sweep(tmp_dir=args.tmp_dir, dry_run=args.dry_run)
    print(format_report(report, dry_run=args.dry_run))
    return 1 if report["errors"] else 0
