"""Tests for the out-of-core Jacobi and CG solvers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import conjugate_gradient_solve, jacobi_solve
from repro.spmv.csr import CSRBlock
from repro.spmv.generator import symmetric_test_matrix
from repro.spmv.ooc_operator import OutOfCoreMatrix
from repro.spmv.partition import GridPartition


class InCoreOperator:
    """Adapter so the solvers can be unit-tested without the engine."""

    def __init__(self, block: CSRBlock):
        self.block = block
        self.n = block.nrows

    def matvec(self, x):
        return self.block.matvec(x)

    def diagonal(self):
        return self.block.to_scipy().diagonal()


def spd_system(n=80, seed=0, shift=30.0):
    m = symmetric_test_matrix(n, 8.0, np.random.default_rng(seed),
                              diag_shift=shift)
    rng = np.random.default_rng(seed + 1)
    x_true = rng.standard_normal(n)
    b = m.matvec(x_true)
    return m, b, x_true


class TestJacobiInCore:
    def test_converges_on_dominant_system(self):
        m, b, x_true = spd_system()
        result = jacobi_solve(InCoreOperator(m), b, tol=1e-10,
                              max_iterations=500)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-6, atol=1e-8)

    def test_residual_history_decreases(self):
        m, b, _ = spd_system()
        result = jacobi_solve(InCoreOperator(m), b, tol=1e-8,
                              max_iterations=300)
        h = result.residual_history
        assert h[-1] < h[0]

    def test_non_convergence_reported(self):
        m, b, _ = spd_system(shift=30.0)
        result = jacobi_solve(InCoreOperator(m), b, tol=1e-14,
                              max_iterations=2)
        assert not result.converged
        assert result.iterations == 2

    def test_zero_diagonal_rejected(self):
        block = CSRBlock.from_scipy(sp.csr_matrix(
            np.array([[0.0, 1.0], [1.0, 2.0]])))
        with pytest.raises(ValueError, match="diagonal"):
            jacobi_solve(InCoreOperator(block), np.ones(2))

    def test_shape_validation(self):
        m, b, _ = spd_system()
        op = InCoreOperator(m)
        with pytest.raises(ValueError):
            jacobi_solve(op, b[:-1])
        with pytest.raises(ValueError):
            jacobi_solve(op, b, x0=np.zeros(3))
        with pytest.raises(ValueError):
            jacobi_solve(op, b, max_iterations=0)

    def test_callback_invoked(self):
        m, b, _ = spd_system()
        seen = []
        jacobi_solve(InCoreOperator(m), b, tol=1e-6, max_iterations=50,
                     callback=lambda it, res: seen.append((it, res)))
        assert seen and seen[0][0] == 1


class TestCGInCore:
    def test_converges_fast_on_spd(self):
        m, b, x_true = spd_system()
        result = conjugate_gradient_solve(InCoreOperator(m), b, tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-8, atol=1e-10)
        # CG beats Jacobi by a wide margin on the same system.
        jac = jacobi_solve(InCoreOperator(m), b, tol=1e-12,
                           max_iterations=2000)
        assert result.iterations < jac.iterations

    def test_warm_start(self):
        m, b, x_true = spd_system()
        cold = conjugate_gradient_solve(InCoreOperator(m), b, tol=1e-10)
        warm = conjugate_gradient_solve(
            InCoreOperator(m), b, x0=x_true + 1e-6, tol=1e-10)
        assert warm.iterations <= cold.iterations

    def test_indefinite_rejected(self):
        block = CSRBlock.from_scipy(sp.csr_matrix(
            np.array([[1.0, 0.0], [0.0, -1.0]])))
        with pytest.raises(ValueError, match="positive definite"):
            conjugate_gradient_solve(InCoreOperator(block),
                                     np.array([0.0, 1.0]))

    def test_validation(self):
        m, b, _ = spd_system()
        op = InCoreOperator(m)
        with pytest.raises(ValueError):
            conjugate_gradient_solve(op, b[:-1])
        with pytest.raises(ValueError):
            conjugate_gradient_solve(op, b, max_iterations=0)


class TestOutOfCore:
    @pytest.fixture
    def ooc(self, tmp_path):
        n, k = 90, 3
        m = symmetric_test_matrix(n, 8.0, np.random.default_rng(4),
                                  diag_shift=30.0)
        blocks = GridPartition(n, k).split_matrix(m)
        op = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        return m, op

    def test_diagonal_matches(self, ooc):
        m, op = ooc
        np.testing.assert_allclose(op.diagonal(), m.to_scipy().diagonal())

    def test_diagonal_with_missing_entries(self, tmp_path):
        """Rows whose diagonal entry is not stored read back as 0.0."""
        n, k = 30, 3
        dense = np.random.default_rng(8).standard_normal((n, n))
        dense[dense < 0.5] = 0.0
        np.fill_diagonal(dense, np.arange(1.0, n + 1))
        dense[[0, 7, 12, 29], [0, 7, 12, 29]] = 0.0
        m = CSRBlock.from_scipy(sp.csr_matrix(dense))
        op = OutOfCoreMatrix(GridPartition(n, k).split_matrix(m), n_nodes=1,
                             scratch_dir=tmp_path)
        np.testing.assert_array_equal(op.diagonal(), np.diag(dense))

    def test_jacobi_out_of_core(self, ooc):
        m, op = ooc
        rng = np.random.default_rng(5)
        x_true = rng.standard_normal(op.n)
        b = m.matvec(x_true)
        result = jacobi_solve(op, b, tol=1e-9, max_iterations=400)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-5, atol=1e-7)
        assert op.matvec_count == result.iterations

    def test_cg_out_of_core_multi_node(self, tmp_path):
        n, k = 90, 3
        m = symmetric_test_matrix(n, 8.0, np.random.default_rng(6),
                                  diag_shift=30.0)
        blocks = GridPartition(n, k).split_matrix(m)
        op = OutOfCoreMatrix(blocks, n_nodes=3, scratch_dir=tmp_path)
        rng = np.random.default_rng(7)
        x_true = rng.standard_normal(n)
        b = m.matvec(x_true)
        result = conjugate_gradient_solve(op, b, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-7, atol=1e-9)

    def test_gc_keeps_scratch_bounded(self, ooc, tmp_path):
        """With gc_arrays on (the default), per-iteration vectors are
        collected: the scratch directory does not accumulate files."""
        m, op = ooc
        b = m.matvec(np.ones(op.n))
        jacobi_solve(op, b, tol=1e-6, max_iterations=30)
        from repro.core.iofilter import discover_arrays
        files = discover_arrays(op.engine.node_scratch(0))
        # Matrix blocks persist; at most a handful of vector leftovers.
        vector_files = [f for f in files if not f.startswith("A_")]
        assert len(vector_files) <= 10


class TestGraphTraversal:
    def test_ooc_bfs_levels_match_networkx(self, tmp_path):
        """The examples/graph_bfs.py algorithm at test scale."""
        import importlib.util
        import pathlib

        import networkx as nx

        example = (pathlib.Path(__file__).resolve().parents[1]
                   / "examples" / "graph_bfs.py")
        spec = importlib.util.spec_from_file_location("graph_bfs", example)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        rng = np.random.default_rng(8)
        adj = mod.random_undirected_adjacency(120, 5.0, rng)
        blocks = GridPartition(120, 3).split_matrix(CSRBlock.from_scipy(adj))
        op = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        dist = mod.ooc_bfs_levels(op, 0)

        graph = nx.from_scipy_sparse_array(adj)
        want = np.full(120, -1, dtype=np.int64)
        for node, level in nx.single_source_shortest_path_length(
                graph, 0).items():
            want[node] = level
        np.testing.assert_array_equal(dist, want)
