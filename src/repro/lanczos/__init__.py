"""Lanczos eigensolvers: the iterative method that motivates the paper.

MFDn seeks the lowest eigenvalues of the CI Hamiltonian with the Lanczos
algorithm, whose cost is "dominated by the associated sparse matrix vector
multiplications and (to a smaller extent) orthonormalization of Lanczos
vectors" (Section II).

* :mod:`repro.lanczos.lanczos` — in-core Lanczos with full
  reorthogonalization and Ritz-value extraction;
* :mod:`repro.lanczos.basis` — in-memory and on-disk Krylov bases.

Out-of-core Lanczos passes an
:class:`~repro.spmv.ooc_operator.OutOfCoreMatrix`'s ``matvec`` to
:func:`lanczos`, so each iteration's SpMV runs as a DOoC program over
blocked matrix files while the (small) tridiagonal bookkeeping stays in
core — the paper's envisioned MFDn-on-DOoC structure ("our out-of-core
code does not implement the full Lanczos algorithm required for MFDn ...
but SpMV computations account for the major part").  A
:class:`DiskBasis` keeps the Krylov vectors out of core too.
"""

from repro.lanczos.basis import DiskBasis, InMemoryBasis
from repro.lanczos.lanczos import LanczosResult, lanczos

__all__ = ["lanczos", "LanczosResult", "InMemoryBasis", "DiskBasis"]
