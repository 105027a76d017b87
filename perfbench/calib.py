"""In-run machine bounds, measured on the workload's own data.

Each bound is what a bare library call achieves on this machine, in this
process, on the same bytes the engine moves: the denominators of the
``*_bound_frac`` metrics.  Nothing here is a constant.  Read bandwidth is
``readinto`` on the files the set-up just wrote, so it is page-cache
bandwidth, not device bandwidth.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from repro.core.codecs import get_codec
from repro.spmv.csrfile import deserialize_csr, serialize_csr

#: timed passes per bound; the median pass is reported
PASSES = 3


def _median_seconds(fn) -> float:
    times = []
    for _ in range(PASSES):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def read_mb_s(paths: list[Path]) -> float:
    """``readinto`` throughput over ``paths`` (page cache, one thread)."""
    sizes = [p.stat().st_size for p in paths]
    buf = memoryview(bytearray(max(sizes)))

    def read_all():
        for path, size in zip(paths, sizes):
            with open(path, "rb", buffering=0) as fh:
                got = 0
                while got < size:
                    n = fh.readinto(buf[got:size])
                    if not n:
                        raise OSError(f"short read of {path}")
                    got += n

    return sum(sizes) / _median_seconds(read_all) / 1e6


def measure(blocks: dict, codec_name: str, scratch_files: list[Path]) -> dict:
    """Every bound for one workload's sub-matrices and seeded files."""
    mats = [b.to_scipy() for b in blocks.values()]
    xs = [np.random.default_rng(7).uniform(-1, 1, m.shape[1]) for m in mats]
    flops = sum(2.0 * m.nnz for m in mats)
    spmv_s = _median_seconds(lambda: [m @ x for m, x in zip(mats, xs)])

    raws = [serialize_csr(b) for b in blocks.values()]
    raw_bytes = sum(len(r) for r in raws)
    csr_s = _median_seconds(
        lambda: [deserialize_csr(r).to_scipy() for r in raws])

    codec = get_codec(codec_name)
    t = time.perf_counter()
    payloads = [codec.encode(r, 1) for r in raws]
    encode_s = time.perf_counter() - t
    outs = [memoryview(bytearray(len(r))) for r in raws]

    def decode_all():
        for payload, out in zip(payloads, outs):
            codec.decode_into(payload, out, 1)

    decode_s = _median_seconds(decode_all)
    for out, raw in zip(outs, raws):
        if out != raw:
            raise RuntimeError(f"{codec_name} decode_into did not round-trip")
    return {
        "read_mb_s": read_mb_s(scratch_files),
        "read_bytes": sum(p.stat().st_size for p in scratch_files),
        "spmv_gflops": flops / spmv_s / 1e9,
        "decode_mb_s": raw_bytes / decode_s / 1e6,
        "csr_decode_mb_s": raw_bytes / csr_s / 1e6,
        "encode_s": encode_s,
        "matrix_bytes": raw_bytes,
        "encoded_bytes": sum(len(p) for p in payloads),
        "flops_per_sweep": flops,
    }


def _read_first(path: str, default: str = "?") -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _cpu_model() -> str:
    for line in _read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "?"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, fstype = "", "?"
    for line in _read_first("/proc/mounts", "").splitlines():
        fields = line.split()
        if len(fields) >= 3 and str(path).startswith(fields[1]) \
                and len(fields[1]) > len(best):
            best, fstype = fields[1], fields[2]
    return fstype


def environment(scratch: Path) -> dict:
    """What a reader needs to interpret the numbers."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _read_first(
            "/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scratch_fs": _filesystem(scratch.resolve()),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_arena_max": os.environ.get("MALLOC_ARENA_MAX"),
        "read_bandwidth_kind": "page cache (files just written), "
                               "not device bandwidth",
    }
