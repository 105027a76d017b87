"""In-core references and the analytic load-count models of Fig. 5."""

from __future__ import annotations

import numpy as np

from repro.spmv.csr import CSRBlock
from repro.spmv.partition import GridPartition


def iterated_spmv_reference(matrix: CSRBlock, x0: np.ndarray,
                            iterations: int) -> np.ndarray:
    """x^T from T in-core iterations (the ground truth)."""
    m = matrix.to_scipy()
    x = np.asarray(x0, dtype=np.float64)
    for _ in range(iterations):
        x = m @ x
    return x


def iterated_spmv_blocked_reference(
    blocks: dict[tuple[int, int], CSRBlock],
    partition: GridPartition,
    x0: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Same computation through the blocked data path (differential test
    for the partitioner + program semantics)."""
    parts = partition.split_vector(x0)
    k = partition.k
    for _ in range(iterations):
        new = {}
        for u in range(k):
            acc = np.zeros(partition.part_length(u))
            for v in range(k):
                acc += blocks[(u, v)].matvec(parts[v])
            new[u] = acc
        parts = new
    return partition.join_vector(parts)


# ---------------------------------------------------------------------------
# Fig. 5 load-count models
# ---------------------------------------------------------------------------


def loads_regular_plan(k_local: int, iterations: int) -> int:
    """Matrix loads per node under the naive MPI-style plan (Fig. 5a).

    A node owning ``k_local`` sub-matrices with memory for one reloads all
    of them every iteration: "6 matrix load operations (3 per iteration)".
    """
    if k_local < 1 or iterations < 1:
        raise ValueError("k_local and iterations must be >= 1")
    return k_local * iterations


def loads_back_and_forth_plan(k_local: int, iterations: int) -> int:
    """Matrix loads per node under the reordered plan (Fig. 5b).

    "a cost of 3 matrix loads for the first iteration and 2 matrix loads
    for each subsequent iteration": the sub-matrix processed last stays in
    memory and the next iteration runs backwards.
    """
    if k_local < 1 or iterations < 1:
        raise ValueError("k_local and iterations must be >= 1")
    if k_local == 1:
        return 1  # the single matrix is loaded once, ever
    return k_local + (iterations - 1) * (k_local - 1)
