"""Krylov solvers, the composite cycle, and condition-number estimation."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from iga_asp.assembly import mass_operator, system_matrix, system_setup
from iga_asp.krylov import (
    _PANEL_WIDTH,
    GltConfig,
    GltPreconditioner,
    SolveReport,
    _as_matvec,
    _materialize,
    estimate_condition_number,
    pcg,
)
from iga_asp.precond import AspPreconditioner, AspSetup, InnerSolver


def asp_cell(p, n, tau):
    """2-D curl system with its Jacobi ASP preconditioner."""
    setup = system_setup("curl", 2, p, n)
    system = system_matrix(setup, tau)
    return system, AspPreconditioner(AspSetup(setup), system)


def mass_solver(system):
    """The composite cycle's M_D solve on the system's space."""
    setup = system.setup
    return InnerSolver(mass_operator(setup.disc, setup.operator))


def random_spd(n, seed=0, shift=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    return sp.csr_matrix(X @ X.T + (shift if shift is not None else n) * np.eye(n))


class TestPcg:
    def test_exact_solve_small(self):
        A = random_spd(20, 0)
        x_ref = np.linspace(-1.0, 1.0, 20)
        b = A @ x_ref
        x, report = pcg(A, b, tol=1e-12, max_iter=100)
        assert report.converged
        np.testing.assert_allclose(x, x_ref, atol=1e-9)

    def test_true_residual_stopping(self):
        A = random_spd(30, 1)
        b = np.ones(30)
        tol = 1e-8
        x, report = pcg(A, b, tol=tol, max_iter=200)
        assert report.converged
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= tol
        assert report.residuals[-1] <= tol

    def test_zero_rhs(self):
        A = random_spd(5, 2)
        x, report = pcg(A, np.zeros(5))
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_a_norm_error_monotone(self):
        A = random_spd(25, 3, shift=1.0)
        x_ref = np.arange(25.0)
        b = A @ x_ref
        errors = []
        x = np.zeros(25)
        # run one iteration at a time from the previous iterate to
        # sample the error; CG restarts are still monotone in A-norm
        for _ in range(15):
            x, _ = pcg(A, b, tol=0.0, max_iter=1, x0=x)
            e = x - x_ref
            errors.append(float(e @ (A @ e)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))

    def test_flexible_matches_standard_for_fixed_preconditioner(self):
        A = random_spd(40, 4)
        b = np.sin(np.arange(40.0))
        M = sp.diags(1.0 / A.diagonal())
        xs, rs = pcg(A, b, M, tol=1e-10, max_iter=300)
        xf, rf = pcg(A, b, M, tol=1e-10, max_iter=300, flexible=True)
        assert rs.iterations == rf.iterations
        np.testing.assert_allclose(xs, xf, atol=1e-12 * np.abs(xs).max())

    def test_indefinite_breakdown_flagged(self):
        A = sp.diags([1.0, -1.0, 2.0])
        _, report = pcg(A, np.array([1.0, 1.0, 1.0]), tol=1e-12, max_iter=10)
        assert report.breakdown and not report.converged

    def test_report_serialization(self):
        A = random_spd(10, 5)
        _, report = pcg(A, np.ones(10), tol=1e-10, max_iter=50)
        data = json.loads(report.to_json())
        assert data["converged"] is True
        assert data["iterations"] == report.iterations
        csv = report.residuals_csv()
        assert csv.splitlines()[0] == "iteration,relative_residual"
        assert len(csv.splitlines()) == len(report.residuals) + 1


class TestGltPreconditioner:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GltConfig(nu1=0)
        with pytest.raises(ValueError):
            GltConfig(nu_asp=-1)

    def test_pure_mass_system_one_cycle_exact(self):
        # when A is itself the mass matrix, the mass-preconditioned
        # inner iteration converges immediately and one cycle is an
        # exact solve
        setup = system_setup("curl", 2, 2, 4)
        mass_system = dataclasses.replace(system_matrix(setup, 1.0),
                                          A=setup.M_D)
        asp = AspPreconditioner(AspSetup(setup), mass_system)
        glt = GltPreconditioner(mass_system, asp, GltConfig(1, 2, 1),
                                mass_solver(mass_system))
        b = np.linspace(-1.0, 1.0, setup.M_D.shape[0])
        x = glt.apply(b)
        np.testing.assert_allclose(setup.M_D @ x, b,
                                   atol=1e-9 * np.abs(b).max())

    def test_outer_flexible_cg_converges(self):
        system, asp = asp_cell(2, 8, 1e-4)
        glt = GltPreconditioner(system, asp, GltConfig(1, 4, 3),
                                mass_solver(system))
        b = np.ones(system.A.shape[0])
        _, report = pcg(system.A, b, glt, tol=1e-6, max_iter=60,
                        flexible=True)
        assert report.converged
        assert report.iterations <= 15

    def test_fewer_outer_iterations_than_plain_asp(self):
        system, asp = asp_cell(3, 8, 1e-4)
        b = np.ones(system.A.shape[0])
        _, plain = pcg(system.A, b, asp, tol=1e-6, max_iter=300)
        glt = GltPreconditioner(system, asp, GltConfig(1, 9, 3),
                                mass_solver(system))
        _, composite = pcg(system.A, b, glt, tol=1e-6, max_iter=300,
                           flexible=True)
        assert composite.iterations < plain.iterations


def materialize_by_columns(op, n):
    """Oracle: the dense matrix of ``op``, one unit column at a time."""
    mv = _as_matvec(op)
    return np.array([mv(col) for col in np.eye(n)]).T


class TestMaterialize:
    def test_sparse_and_linear_operator_match_column_loop(self):
        n = 2 * _PANEL_WIDTH + 5
        B = random_spd(n, 12)
        ref = materialize_by_columns(B, n)
        # a matvec-only LinearOperator takes blocks through its matmat
        for op in (B, spla.LinearOperator((n, n), matvec=lambda v: B @ v)):
            np.testing.assert_array_equal(_materialize(op, n), ref)

    def test_preconditioner_matches_column_loop(self):
        _, B = asp_cell(2, 8, 1e-4)
        n = B.shape[0]
        assert n % _PANEL_WIDTH != 0
        ref = materialize_by_columns(B, n)
        assert np.linalg.norm(_materialize(B, n) - ref) <= (
            1e-14 * np.linalg.norm(ref))


class TestEstimateConditionNumber:
    def test_identity(self):
        I = sp.identity(10, format="csr")
        lo, hi, kappa = estimate_condition_number(I, I, mode="dense")
        assert kappa == pytest.approx(1.0, abs=1e-12)

    def test_dense_matches_numpy(self):
        A = random_spd(15, 10).toarray()
        lo, hi, kappa = estimate_condition_number(A, mode="dense")
        w = np.linalg.eigvalsh(A)
        assert kappa == pytest.approx(w[-1] / w[0], rel=1e-10)

    def test_preconditioned_pair_dense(self):
        A = random_spd(12, 11)
        Minv = sp.diags(1.0 / A.diagonal())
        _, _, kappa = estimate_condition_number(A, Minv, mode="dense")
        w = np.linalg.eigvalsh(np.diag(np.sqrt(1.0 / A.diagonal()))
                               @ A.toarray()
                               @ np.diag(np.sqrt(1.0 / A.diagonal())))
        assert kappa == pytest.approx(w[-1] / w[0], rel=1e-9)

    def test_lanczos_agrees_with_dense(self):
        # p=1, n=16 preconditioned system; 2% band
        system, B = asp_cell(1, 16, 1e-4)
        _, _, dense = estimate_condition_number(system.A, B, mode="dense")
        _, _, lanczos = estimate_condition_number(system.A, B,
                                                  mode="lanczos", k=200)
        assert lanczos == pytest.approx(dense, rel=0.02)

    def test_dense_dimension_guard(self):
        A = sp.identity(20001, format="csr")
        with pytest.raises(ValueError):
            estimate_condition_number(A, mode="dense")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            estimate_condition_number(sp.identity(3), mode="svd")

    def test_non_spd_flagged(self):
        A = sp.diags([1.0, -1.0, 2.0])
        with pytest.raises(ArithmeticError):
            estimate_condition_number(A, mode="dense")
