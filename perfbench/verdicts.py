"""Correctness verdicts that can fail, and a self-test proving they do.

A verdict returns the list of its failures (empty = pass).  Bit-identity
is compared on the IEEE-754 bit patterns, and is only claimed for results
that are all finite and have a non-zero norm: two all-NaN vectors or two
zero vectors prove nothing about the computation.
"""

from __future__ import annotations

import numpy as np


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def nontrivial(x: np.ndarray, what: str) -> list[str]:
    """All-finite with a non-zero norm."""
    if not np.all(np.isfinite(x)):
        return [f"{what}: {int(np.sum(~np.isfinite(x)))} non-finite values"]
    if not np.linalg.norm(x) > 0.0:
        return [f"{what}: zero norm"]
    return []


def bit_identical(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    """``got`` equals the reference bit for bit, and both are non-trivial."""
    problems = nontrivial(want, f"{what} reference")
    problems += nontrivial(got, what)
    if got.shape != want.shape:
        return problems + [f"{what}: shape {got.shape}, want {want.shape}"]
    differ = int(np.sum(_bits(got) != _bits(want)))
    if differ:
        problems.append(f"{what}: {differ} of {got.size} elements differ "
                        "bitwise from the reference")
    return problems


def spmv_verdict(got: np.ndarray, want: np.ndarray) -> list[str]:
    """x^T from the engine against the order-matched blocked reference."""
    return bit_identical(got, want, "x^T")


def jacobi_verdict(res, ref, residual_norm: float, tol: float,
                   b_norm: float) -> list[str]:
    """The out-of-core incremental solve against the in-core blocked solve.

    ``residual_norm`` is ``||b - A x||`` recomputed by the benchmark (with
    the in-core blocked operator) for the returned ``x``.
    """
    problems = bit_identical(res.x, ref.x, "jacobi x")
    if res.iterations != ref.iterations:
        problems.append(f"jacobi: {res.iterations} iterations, reference "
                        f"took {ref.iterations}")
    if not res.converged:
        problems.append("jacobi: did not converge")
    if not residual_norm <= tol * b_norm:
        problems.append(f"jacobi: residual {residual_norm:.3e} > tol*||b|| "
                        f"= {tol * b_norm:.3e}")
    return problems


def corruptions(x: np.ndarray, seed: int):
    """One-element corruptions of ``x``: a one-ulp nudge, a NaN, and an
    all-zero vector (the last two defeat NaN- and zero-blind checks)."""
    i = int(np.random.default_rng(seed).integers(0, x.size))
    nudged = x.copy()
    nudged[i] = np.nextafter(nudged[i], np.inf)
    nan = x.copy()
    nan[i] = np.nan
    yield f"ulp@{i}", nudged
    yield f"nan@{i}", nan
    yield "zeros", np.zeros_like(x)


def self_test(verdict, x: np.ndarray, seed: int) -> list[str]:
    """Each corruption of ``x`` must make ``verdict(corrupted)`` fail.

    Returns the corruptions the verdict let through (empty = it has power).
    """
    return [name for name, bad in corruptions(x, seed) if not verdict(bad)]
