"""The one linear-operator protocol the iterative solvers consume."""

from __future__ import annotations

from typing import Protocol

import numpy as np


class Operator(Protocol):  # pragma: no cover - typing aid
    """``y = A @ x`` for an ``n x n`` matrix ``A``, plus its diagonal.

    :class:`repro.spmv.ooc_operator.OutOfCoreMatrix` is the out-of-core
    implementation.  Jacobi reads ``diagonal``; conjugate gradients only
    calls ``matvec``.
    """

    n: int

    def matvec(self, x: np.ndarray) -> np.ndarray: ...
    def diagonal(self) -> np.ndarray: ...
