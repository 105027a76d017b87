"""Sparse matrix-vector multiplication: the paper's use-case application.

* :mod:`repro.spmv.csr` — a minimal CSR block container with validated
  construction, SciPy interop, and flop accounting;
* :mod:`repro.spmv.csrfile` — the binary CRS on-disk format used for
  sub-matrix files ("each sub-matrix is stored in a separate file in binary
  Compressed Row Storage format");
* :mod:`repro.spmv.generator` — the paper's random matrix generator: the
  gap between consecutive nonzeros of a row is uniform in [1, 2d], with d
  chosen to hit a target density; plus a symmetric generator for
  eigensolver demos;
* :mod:`repro.spmv.partition` — the K x K grid partitioner for matrices
  and the matching vector partitioner;
* :mod:`repro.spmv.program` — iterated-SpMV DOoC programs under the
  *simple* and *interleaved* reduction policies of Section V;
* :mod:`repro.spmv.reference` — dense-memory reference implementations and
  the analytic load-count models of Fig. 5.
"""

from repro.spmv.csr import CSRBlock
from repro.spmv.generator import gap_uniform_csr, choose_gap_parameter, symmetric_test_matrix
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv, IteratedSpMVResult
from repro.spmv.ooc_operator import OutOfCoreMatrix

__all__ = [
    "OutOfCoreMatrix",
    "CSRBlock",
    "gap_uniform_csr",
    "choose_gap_parameter",
    "symmetric_test_matrix",
    "GridPartition",
    "build_iterated_spmv",
    "IteratedSpMVResult",
]
