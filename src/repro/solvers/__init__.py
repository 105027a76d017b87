"""Out-of-core iterative linear solvers on the DOoC operator.

The paper's introduction cites distributed out-of-core Jacobi and
conjugate-gradient solvers (Knottenbelt & Harrison's Markov-chain work)
as the lineage of the approach, and its conclusion promises "more linear
algebra kernels".  These solvers run their SpMVs through
:class:`repro.spmv.ooc_operator.OutOfCoreMatrix` while the scalar
recurrences stay in core — the same split as the out-of-core Lanczos.
Both solvers take any :class:`~repro.solvers.operator.Operator`.
"""

from repro.solvers.jacobi import JacobiResult, jacobi_solve
from repro.solvers.cg import CGResult, conjugate_gradient_solve
from repro.solvers.operator import Operator

__all__ = ["jacobi_solve", "JacobiResult",
           "conjugate_gradient_solve", "CGResult", "Operator"]
