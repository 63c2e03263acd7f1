"""Krylov solvers, the composite cycle, and condition-number estimation."""

import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from iga_asp import assembly, derham
from iga_asp.derham import KronPlan
from iga_asp.assembly import (
    _PANEL_WIDTH,
    AssembledSystem,
    factored_product_wins,
    system_matrix,
    system_setup,
)
from iga_asp.krylov import (
    AUTO_DENSE_MAX_DIM,
    GltPreconditioner,
    SolveReport,
    _as_matvec,
    _dense,
    estimate_condition_number,
    minres,
    pcg,
)
from iga_asp.precond import AspPreconditioner, AspSetup


def asp_cell(p, n, tau, problem="curl", dim=2, smoother="jacobi"):
    """System with its ASP preconditioner (2-D curl, Jacobi unless
    given)."""
    setup = system_setup(problem, dim, p, n)
    system = system_matrix(setup, tau)
    return system, AspPreconditioner(AspSetup(setup), system, smoother)


def replaced(system, A):
    """A copy of ``system`` with the CSR ``A`` and its diagonal put in
    place; the copy's cached ``A`` is set before anything reads it."""
    out = AssembledSystem(system.setup, system.tau, system.b)
    vars(out).update(A=A, diagonal=A.diagonal())
    return out


def csr_cycle(glt, b):
    """The oracle of one application of the composite cycle ``glt``: the
    cycle as it was before its MINRES moved into the mass-orthonormal
    basis, on the assembled matrices.  Every product with A is the CSR
    A's, and the MINRES step is scipy's, preconditioned by the exact
    inverse of the assembled M_D (SuperLU) and started from the iterate
    of the relaxation sweeps."""
    system, asp = glt.system, glt.asp
    A = system.A
    mass_solve = spla.splu(sp.csc_matrix(system.setup.M_D)).solve
    M_inv = spla.LinearOperator(A.shape, matvec=mass_solve, dtype=float)
    x = np.zeros_like(b)
    for _ in range(glt.nu_asp):
        for _ in range(glt.nu1):
            x = x + asp.smoother.apply(b - A @ x)
        x, _ = spla.minres(A, b, x0=x, M=M_inv, maxiter=glt.nu2, rtol=1e-14)
        x = x + asp.correction(b - A @ x)
    return x


def random_symmetric(rng, n, definite):
    """Q diag(lam) Q^T with Q a random orthogonal matrix and |lam| in
    [0.1, 10]: positive when ``definite``, else of random signs with both
    signs present."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(-1.0, 1.0, n)
    if not definite:
        lam *= rng.choice([-1.0, 1.0], n)
        lam[:2] = abs(lam[:2]) * [1.0, -1.0]
    return (Q * lam) @ Q.T


def paige_saunders_minres(matvec, b, steps):
    """The oracle of :func:`iga_asp.krylov.minres`: the same MINRES from
    x = 0 with scipy's recurrences and order of operations throughout,
    the search directions w_k = (v_k - eps_k w_{k-2} - delta_k w_{k-1}) /
    gamma_k and x += phi_k w_k updated at every step (the form the
    package ran before it kept its Lanczos vectors)."""
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    beta1 = math.sqrt(b @ b)
    if beta1 == 0.0:
        return x
    eps = np.finfo(float).eps
    r1 = r2 = y = b
    oldb, beta = 0.0, beta1
    cs, sn, dbar, epsln, phibar = -1.0, 0.0, 0.0, 0.0, beta1
    v, tmp = np.empty_like(b), np.empty_like(b)
    w, w1, w2 = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    for k in range(steps):
        np.multiply(1.0 / beta, y, out=v)
        y = matvec(v)
        if k:
            y -= np.multiply(beta / oldb, r1, out=tmp)
        alpha = float(v @ y)
        y -= np.multiply(alpha / beta, r2, out=tmp)
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(y @ y)
        oldeps, epsln = epsln, sn * beta
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        dbar = -cs * beta
        gamma = max(math.sqrt(gbar * gbar + beta * beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(oldeps, w1, out=tmp), out=w)
        w -= np.multiply(delta, w2, out=tmp)
        w *= 1.0 / gamma
        x += np.multiply(phi, w, out=tmp)
        if beta <= 10.0 * eps * beta1:
            break
    return x


def recorded(op):
    """``op`` as a matvec, and the list of copies of the vectors it is
    given."""
    given_vectors = []

    def matvec(v):
        given_vectors.append(v.copy())
        return op(v)
    return matvec, given_vectors


def assert_matches_the_oracle(op, b, steps, rtol):
    """:func:`minres` gives ``op`` the vectors the oracle gives it, bit for
    bit, and its x is within ``rtol`` of the oracle's."""
    matvec, given_vectors = recorded(op)
    x = minres(matvec, b, steps)
    oracle, oracle_vectors = recorded(op)
    ref = paige_saunders_minres(oracle, b, steps)
    assert len(given_vectors) == len(oracle_vectors)
    assert all(map(np.array_equal, given_vectors, oracle_vectors))
    assert np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)


def cycle_diagonal(rng, n, tau, distinct):
    """A diagonal shaped like the cycle's MINRES operator: tau, then
    mu + tau with mu drawn from ``distinct`` values log-uniform in
    [1e-2, 1e4] (the range Laplacian's eigenvalues repeat), and a
    right-hand side with zeros where the cycle's null modes sit."""
    mu = rng.choice(10.0 ** rng.uniform(-2.0, 4.0, distinct), n - 1)
    b = rng.standard_normal(n)
    b[1:][rng.random(n - 1) < 0.2] = 0.0
    return np.concatenate(([tau], mu + tau)), b


class TestMinres:
    @given(st.integers(min_value=2, max_value=30), st.booleans(),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, n, definite, steps, seed):
        # oracle: scipy's MINRES from x0 = 0 with rtol 1e-14, for steps
        # below n and at or past n (where the Lanczos process breaks down)
        rng = np.random.default_rng(seed)
        A = random_symmetric(rng, n, definite)
        b = rng.standard_normal(n)
        x = minres(lambda v: A @ v, b, steps)
        ref, _ = spla.minres(A, b, x0=np.zeros(n), maxiter=steps, rtol=1e-14)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @given(st.integers(min_value=2, max_value=30), st.booleans(),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_oracle(self, n, definite, steps, seed):
        # test_matches_scipy's domain (kappa <= 100): the Lanczos vectors
        # are the oracle's bit for bit, and x, formed once from them,
        # is within 1e-14 (measured: 1.8e-15 over 3,000 draws)
        rng = np.random.default_rng(seed)
        A = random_symmetric(rng, n, definite)
        assert_matches_the_oracle(lambda v: A @ v, rng.standard_normal(n),
                                  steps, 1e-14)

    @given(st.integers(min_value=2, max_value=60),
           st.floats(min_value=-4.0, max_value=4.0),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_oracle_on_cycle_diagonals(self, n, log_tau, distinct,
                                                   steps, seed):
        # the cycle's operator: steps past the distinct eigenvalues of b
        # reach the Lanczos breakdown, detected or lost in round-off.
        # The Lanczos vectors are the oracle's bit for bit, but at large
        # kappa = max d / min d the x they give is ill-conditioned: the
        # oracle's own distance from that x formed exactly (60 digits)
        # reached 5.3e-12 over 400 draws, this function's 2.5e-11, so no
        # 1e-14 bound holds there.  x is held to 1e-14 kappa of the
        # oracle; over 40,000 draws of this domain and one with
        # distinct mu the distance reached 1.9 eps kappa
        d, b = cycle_diagonal(np.random.default_rng(seed), n, 10.0**log_tau,
                              distinct)
        assert_matches_the_oracle(lambda v: d * v, b, steps,
                                  1e-14 * d.max() / d.min())

    def test_one_step_solves_a_multiple_of_the_identity(self):
        # b spans an invariant subspace of c I: the first step solves
        # exactly, and the breakdown ends the run there
        b = np.linspace(-1.0, 2.0, 9)
        for c in (1.0, 1e-4, -3.5):
            products = []

            def scaled(v):
                products.append(v)
                return c * v
            x = minres(scaled, b, 5)
            np.testing.assert_allclose(c * x, b, rtol=1e-15, atol=1e-15)
            assert len(products) == 1

    def test_zero_right_hand_side(self):
        x = minres(lambda v: 2.0 * v, np.zeros(4), 3)
        assert np.array_equal(x, np.zeros(4))


class ProductCountingCsr(sp.csr_matrix):
    """CSR matrix that counts its products (``@``, ``dot`` and ``*``
    all go through ``_matmul_dispatch``)."""

    products = 0

    def _matmul_dispatch(self, other):
        self.products += 1
        return super()._matmul_dispatch(other)


class Declared:
    """``M`` as a preconditioner object that declares ``nonlinear``."""

    def __init__(self, M, nonlinear):
        self.M, self.nonlinear = M, nonlinear

    def apply(self, r):
        return self.M @ r


class Rescaling(Declared):
    """``M`` followed by a positive diagonal scaling that changes from
    call to call: a preconditioner that is no fixed linear map (a
    scalar rescaling would leave CG's iterates unchanged)."""

    calls = 0

    def apply(self, r):
        self.calls += 1
        scale = 1.0 + 0.5 * np.sin(self.calls + np.arange(r.shape[0]))
        return scale * (self.M @ r)


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
        # the k-th CG iterate from zero minimizes the A-norm error over
        # the k-th Krylov space, so the error cannot grow with k
        for k in range(1, 16):
            x, _ = pcg(A, b, tol=0.0, max_iter=k)
            e = x - x_ref
            errors.append(float(e @ (A @ e)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))

    def test_flexible_matches_standard_for_fixed_preconditioner(self):
        A = random_spd(40, 4)
        b = np.sin(np.arange(40.0))
        M = sp.diags(1.0 / A.diagonal())
        xs, rs = pcg(A, b, M, tol=1e-10, max_iter=300)
        xf, rf = pcg(A, b, Declared(M, nonlinear=True), tol=1e-10, max_iter=300)
        assert rs.iterations == rf.iterations
        np.testing.assert_allclose(xs, xf, atol=1e-12 * np.abs(xs).max())

    def test_nonlinear_preconditioner_takes_the_flexible_update(self):
        # a Jacobi preconditioner whose scaling changes from call to
        # call: the standard and flexible updates give different iterates,
        # and pcg must give the flexible (Polak-Ribiere) one
        A = random_spd(40, 6)
        b = np.cos(np.arange(40.0))
        M = sp.diags(1.0 / A.diagonal())
        steps = 6

        def reference(B):
            x, r = np.zeros_like(b), b.copy()
            z = B.apply(r)
            p, rz = z.copy(), r @ z
            for _ in range(steps):
                Ap = A @ p
                alpha = rz / (p @ Ap)
                x, r_old, r = x + alpha * p, r, r - alpha * Ap
                z = B.apply(r)
                beta = z @ (r - r_old) / rz
                rz = r @ z
                p = z + beta * p
            return x
        x, _ = pcg(A, b, Rescaling(M, nonlinear=True), tol=0.0, max_iter=steps)
        x_ref = reference(Rescaling(M, nonlinear=True))
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-13 * np.abs(x_ref).max())
        x_std, _ = pcg(A, b, Rescaling(M, nonlinear=False), tol=0.0,
                       max_iter=steps)
        assert np.linalg.norm(x_std - x_ref) > 1e-6 * np.linalg.norm(x_ref)

    def test_indefinite_breakdown_flagged(self):
        A = sp.diags([1.0, -1.0, 2.0])
        _, report = pcg(A, np.array([1.0, 1.0, 1.0]), tol=1e-12, max_iter=10)
        assert report.breakdown and not report.converged

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=6),
           st.sampled_from([1e-10, 1e-4, 1.0]), st.integers(min_value=5, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_stopped_solve_returns_its_best_iterate(self, p, n, tau, max_iter,
                                                    seed):
        # a tol below attainable accuracy: CG stops without converging
        # (max_iter, or a breakdown where it diverges), and the x it
        # returns has the smallest true residual of its history
        system, B = asp_cell(p, n, tau)
        b = np.random.default_rng(seed).standard_normal(system.shape[0])
        x, report = pcg(system, b, B, tol=1e-18, max_iter=max_iter)
        assert not report.converged
        true_res = float(np.linalg.norm(b - system.apply(x)) / np.linalg.norm(b))
        assert true_res == min(report.residuals)

    def test_solve_below_the_rule_assembles_nothing(self, monkeypatch):
        # system_matrix has built the CSR A whose product CG takes below
        # the rule, and the ASP applies its transfers factored: the
        # Jacobi-ASP solve assembles no sparse matrix
        system, B = asp_cell(2, 8, 1e-2)
        assert not system.setup.factored_product_wins
        built = []
        monkeypatch.setattr(assembly, "drop_small",
                            lambda *a: built.append("drop_small"))
        monkeypatch.setattr(derham.KronBlocks, "tocsr",
                            lambda self: built.append("tocsr"))
        _, report = pcg(system, np.ones(system.shape[0]), B, tol=1e-6)
        assert report.converged
        assert built == []

    @pytest.mark.parametrize("problem, dim, p, n, tau", [
        ("curl", 2, 2, 8, 1e-4), ("div", 2, 3, 6, 1.0), ("curl", 3, 2, 4, 1e-2),
        ("div", 3, 2, 4, 1e2)])
    def test_converged_solve_lands_on_the_exact_solve(self, problem, dim, p,
                                                      n, tau):
        # relative residual <= tol bounds the relative error of CG's x
        # against the mass basis's exact solve by kappa(A) tol (measured
        # 5e-12 to 2e-9, against bounds of 1.3e-6 to 0.4)
        system, B = asp_cell(p, n, tau, problem, dim)
        b = np.random.default_rng(n).standard_normal(system.shape[0])
        tol = 1e-8
        x, report = pcg(system, b, B, tol=tol)
        assert report.converged
        exact = system.setup.mass_basis.solve(b, tau)
        lam = np.linalg.eigvalsh(system.A.toarray())
        assert (np.linalg.norm(x - exact)
                <= lam[-1] / lam[0] * tol * np.linalg.norm(exact))


@lru_cache(maxsize=None)
def glt_setups(problem, dim, p, n):
    """The system setup and ASP setup of one mesh, kept for the
    Hypothesis draws that return to it."""
    setup = system_setup(problem, dim, p, n)
    return setup, AspSetup(setup)


def old_smoothing_step(glt, r):
    """The oracle of the cycle's MINRES step: the step as it ran before
    it moved onto the eigenvalues, MINRES on W^T W + tau I with two
    Kronecker products per step, by :func:`paige_saunders_minres`."""
    basis, tau = glt.system.setup.mass_basis, glt.system.tau
    return paige_saunders_minres(
        lambda y: basis.W_T.apply(basis.W.apply(y)) + tau * y, r, glt.nu2)


class TestGltPreconditioner:
    @given(st.sampled_from(["curl", "div"]), st.sampled_from([2, 3]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=5),
           st.floats(min_value=-4.0, max_value=4.0),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_smoothing_step_is_the_old_minres(self, problem, dim, p, n, log_tau,
                                              nu2, seed):
        # the two are one MINRES in exact arithmetic.  Where its Krylov
        # polynomial reaches the isolated eigenvalue tau of ker W (small
        # tau, nu2 near the number of distinct mu), the iterate itself is
        # ill-conditioned: on 3-D div p=1 n=5, tau=1e-4, nu2=30 the step
        # and the oracle differ by 0.17 of the oracle, and the oracle with
        # the dense S = W^T W + tau I in place of its factored products
        # moves by 0.12.  Where that spread of the oracle is below 1e-12
        # of it, the step is held to the oracle's iterate within 1e-10;
        # elsewhere to its residual vector, S (x - ref), within 1e-8 ||r||
        # plus 100 times the oracle's own spread of it.  Over 13,800
        # draws of this domain, 1,136 of them past the spread floor, the
        # step reached at most 44 times that spread, and x = 0 or -ref
        # would fail on all but 2
        setup, asp_setup = glt_setups(problem, dim, p, n)
        tau = 10.0**log_tau
        glt = GltPreconditioner(AspPreconditioner(asp_setup,
                                                  system_matrix(setup, tau)),
                                1, nu2, 1)
        r = np.random.default_rng(seed).standard_normal(setup.space.total_dim)
        x, ref = glt._smoothing_step(r), old_smoothing_step(glt, r)
        W = setup.mass_basis.W.tocsr().toarray()
        S = W.T @ W + tau * np.eye(W.shape[1])
        dense = paige_saunders_minres(lambda y: S @ y, r, nu2)
        if np.linalg.norm(dense - ref) <= 1e-12 * np.linalg.norm(ref):
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        else:
            assert np.linalg.norm(S @ (x - ref)) <= (
                1e-8 * np.linalg.norm(r) + 100.0 * np.linalg.norm(S @ (dense - ref)))

    def test_kronecker_products_per_apply_do_not_grow_with_nu2(self, monkeypatch):
        # the nu2 MINRES steps run on a diagonal: every Kronecker product
        # of an apply (transforms, A, the step's maps, the correction) is
        # made as often at nu2 = 4 as at nu2 = 27
        setup, asp_setup = glt_setups("div", 3, 2, 3)
        asp = AspPreconditioner(asp_setup, system_matrix(setup, 1e-4))
        b = np.random.default_rng(6).standard_normal(setup.space.total_dim)
        call, calls = KronPlan.__call__, [0]

        def counted(plan, x):
            calls[0] += 1
            return call(plan, x)
        monkeypatch.setattr(KronPlan, "__call__", counted)
        counts = []
        for nu2 in (4, 27):
            calls[0] = 0
            GltPreconditioner(asp, 1, nu2, 3).apply(b)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0

    def test_config_validation(self):
        _, asp = asp_cell(1, 4, 1.0)
        with pytest.raises(ValueError):
            GltPreconditioner(asp, nu1=0)
        with pytest.raises(ValueError):
            GltPreconditioner(asp, nu_asp=-1)

    @pytest.mark.parametrize("mode", ["dense", "lanczos", "auto"])
    def test_kappa_refuses_the_cycle(self, mode):
        system, asp = asp_cell(2, 4, 1e-2)
        glt = GltPreconditioner(asp, 1, 4, 3)

        def never(_):
            raise AssertionError("the cycle was applied")
        glt.apply = never
        with pytest.raises(ValueError, match="nonlinear"):
            estimate_condition_number(system, glt, mode=mode)

    def test_pure_mass_system_one_cycle_exact(self):
        # when A is the mass matrix c M_D, the cycle's MINRES runs on c I
        # (C^T M_D C = I in the mass-orthonormal basis), where its first
        # step is exact: forward, one step and backward solve c M_D x = b
        setup = system_setup("curl", 2, 2, 4)
        basis = setup.mass_basis
        b = np.linspace(-1.0, 1.0, setup.M_D.shape[0])
        for c in (1.0, 1e-4):
            y = minres(lambda v: c * v, basis.forward.apply(b), 2)
            x = basis.backward.apply(y)
            np.testing.assert_allclose(c * (setup.M_D @ x), b,
                                       atol=1e-12 * np.abs(b).max())

    def test_outer_flexible_cg_converges(self):
        system, asp = asp_cell(2, 8, 1e-4)
        glt = GltPreconditioner(asp, 1, 4, 3)
        b = np.ones(system.A.shape[0])
        _, report = pcg(system.A, b, glt, tol=1e-6, max_iter=60)
        assert report.converged
        assert report.iterations <= 15

    def test_fewer_outer_iterations_than_plain_asp(self):
        system, asp = asp_cell(3, 8, 1e-4)
        b = np.ones(system.A.shape[0])
        _, plain = pcg(system.A, b, asp, tol=1e-6, max_iter=300)
        glt = GltPreconditioner(asp, 1, 9, 3)
        _, composite = pcg(system.A, b, glt, tol=1e-6, max_iter=300)
        assert composite.iterations < plain.iterations

    @pytest.mark.parametrize("tau, nu_asp", [(1e-4, 1), (1.0, 3)])
    def test_factored_cycle_matches_csr_cycle(self, tau, nu_asp):
        # 3-D div, p = 2, nu2 = p^3: one application against the oracle
        # csr_cycle.  At tau = 1e-4 the later cycles' residuals b - A x
        # cancel so far that the two paths' round-off moves three cycles
        # apart by 3.2e-10 (one cycle: 1.8e-15), so that tau is held to
        # one cycle
        setup = system_setup("div", 3, 2, 4)
        system = system_matrix(setup, tau)
        glt = GltPreconditioner(AspPreconditioner(AspSetup(setup), system),
                                1, 8, nu_asp)
        b = np.random.default_rng(3).standard_normal(system.A.shape[0])
        x, x_csr = glt.apply(b), csr_cycle(glt, b)
        assert np.linalg.norm(x - x_csr) <= 1e-10 * np.linalg.norm(x_csr)

    @pytest.mark.parametrize("problem, dim, p, n, tau, nu2", [
        ("curl", 2, 3, 6, 1e-2, 9), ("div", 2, 2, 5, 1.0, 4),
        ("curl", 3, 2, 3, 1e-4, 8)])
    def test_cycle_matches_csr_cycle_on_each_problem(self, problem, dim, p, n,
                                                     tau, nu2):
        # the other three problems, one cycle: W has one block row in 2-D
        # and 3 x 3 blocks (two per row) on 3-D curl
        setup = system_setup(problem, dim, p, n)
        system = system_matrix(setup, tau)
        glt = GltPreconditioner(AspPreconditioner(AspSetup(setup), system),
                                1, nu2, 1)
        b = np.random.default_rng(4).standard_normal(system.A.shape[0])
        x, x_csr = glt.apply(b), csr_cycle(glt, b)
        assert np.linalg.norm(x - x_csr) <= 1e-10 * np.linalg.norm(x_csr)

    @pytest.mark.parametrize("nu1, nu_asp", [(1, 1), (1, 3), (2, 2)])
    def test_products_with_A_per_apply(self, nu1, nu_asp):
        # per cycle one product with A for each of the nu1 sweeps and two
        # for the residuals before MINRES and the correction, less the
        # first sweep's, which starts from x = 0; the result is the
        # oracle's
        setup = system_setup("curl", 2, 2, 4)
        system = system_matrix(setup, 1e-2)
        glt = GltPreconditioner(AspPreconditioner(AspSetup(setup), system),
                                nu1, 4, nu_asp)
        apply_A, products = system.apply_A, [0]

        def counted(x):
            products[0] += 1
            return apply_A(x)
        object.__setattr__(system, "apply_A", counted)
        b = np.random.default_rng(5).standard_normal(system.shape[0])
        x = glt.apply(b)
        assert products[0] == nu_asp * (nu1 + 2) - 1
        x_csr = csr_cycle(glt, b)
        assert np.linalg.norm(x - x_csr) <= 1e-10 * np.linalg.norm(x_csr)

    def test_cycle_makes_no_csr_product_with_A(self):
        setup = system_setup("div", 3, 2, 4)
        system = system_matrix(setup, 1e-4)
        counted = replaced(system, A=ProductCountingCsr(system.A))
        asp = AspPreconditioner(AspSetup(setup), counted)
        glt = GltPreconditioner(asp, 1, 8, 3)
        b = np.ones(system.A.shape[0])
        glt.apply(b)
        assert counted.A.products == 0
        pcg(counted.A, b, glt, tol=1e-6, max_iter=2)
        assert counted.A.products > 0      # the counter sees CG's products

        # a Jacobi ASP cell past the product rule: CG with the system's
        # product neither assembles A nor multiplies by it
        setup = system_setup("curl", 3, 2, 8)
        assert factored_product_wins(setup.space)
        asp_setup = AspSetup(setup)
        b = np.ones(setup.space.total_dim)
        system = system_matrix(setup, 1e-4)
        _, report = pcg(system, b, AspPreconditioner(asp_setup, system),
                        tol=1e-6, max_iter=100)
        assert report.converged
        assert "A" not in system.__dict__
        counted = replaced(system,
                           A=ProductCountingCsr(system_matrix(setup, 1e-4).A))
        _, counted_report = pcg(counted, b,
                                AspPreconditioner(asp_setup, counted),
                                tol=1e-6, max_iter=100)
        assert counted.A.products == 0
        assert counted_report.iterations == report.iterations


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
            np.testing.assert_array_equal(_dense(op), ref)

    def test_preconditioner_matches_column_loop(self):
        _, B = asp_cell(2, 8, 1e-4)
        n = B.shape[0]
        assert n % _PANEL_WIDTH != 0
        ref = materialize_by_columns(B, n)
        dense = _dense(B)
        assert np.linalg.norm(dense - ref) <= 1e-14 * np.linalg.norm(ref)


class Panels:
    """``B`` without its ``sector_blocks``: dense kappa applies it to
    panels, the one-block path that stays as the oracle of the term
    blocks."""

    def __init__(self, B):
        self.apply, self.shape = B.apply, B.shape


# (problem, dim, p, n, precond): Jacobi-ASP cells, the B of the sweeps;
# n = (8, 9) and p = (2, 3) differ in x_0 and x_1, so no swap and the
# plain reflection sectors; n = (3, 3, 4) keeps the swap with x_2
# unequal; "none" is A alone, on natural bc.  The ids keep the names the
# first five cells had as four-field tuples
SECTOR_CELLS = [
    pytest.param("curl", 2, 2, 8, "asp", id="curl-2-2-8"),
    pytest.param("div", 2, 2, 8, "asp", id="div-2-2-8"),
    pytest.param("curl", 3, 2, 3, "asp", id="curl-3-2-3"),
    pytest.param("div", 3, 2, 3, "asp", id="div-3-2-3"),
    pytest.param("curl", 2, 2, (8, 9), "asp", id="curl-2-2-n4"),
    pytest.param("curl", 2, (2, 3), 8, "asp", id="curl-2-p23-8"),
    pytest.param("curl", 3, 2, (3, 3, 4), "asp", id="curl-3-2-n334"),
    pytest.param("curl", 2, 2, 8, "none", id="curl-2-2-8-natural-none"),
]


class TestSectoredKappa:
    @pytest.mark.parametrize("problem, dim, p, n, precond", SECTOR_CELLS)
    @pytest.mark.parametrize("tau", [1e-4, 1.0, 1e4])
    def test_matches_the_one_block_oracle(self, problem, dim, p, n, precond,
                                          tau):
        # The system and its Jacobi ASP (or the system alone) take the
        # sector path; the oracle is the one-block kappa through
        # operators without term blocks.  At tau >= 1 the two paths agree
        # to round-off (measured <= 4.4e-14 on the ASP cells, 3.6e-13 on
        # A alone, whose kappa is 9.1e3 at tau = 1, and <= 1.4e-13 on the
        # README sweep's dense cells).  At tau = 1e-4 (here <= 2.4e-10),
        # B's tau^{-1} gradient term makes the pencil ill-conditioned: on
        # 2-D curl p=3 (n = 16 and 27, one BLAS thread) a 1e-16 relative
        # perturbation of B moves the one-block kappa by 9e-11 to 6e-10
        # and the sectored one by 2e-10 to 4e-10, and the paths differ by
        # 5e-10 to 7e-10 (4.3e-9 at n = 27 with two BLAS threads, 9.3e-9
        # on 2-D div p=3 n=32), so 1e-8 is the attainable agreement there.
        if precond == "asp":
            system, B = asp_cell(p, n, tau, problem, dim)
            oracle_B = Panels(B)
        else:
            setup = system_setup(problem, dim, p, n, bc="natural")
            system, B, oracle_B = system_matrix(setup, tau), None, None
        sectored = estimate_condition_number(system, B, mode="dense")
        assert "sector_factors" in vars(system.setup)
        one = estimate_condition_number(system.A, oracle_B, mode="dense")
        rel = 1e-12 if tau >= 1.0 else 1e-8
        assert sectored == pytest.approx(one, rel=rel)

    def test_gauss_seidel_takes_the_one_block_path(self):
        system, B = asp_cell(1, 8, 1e-4, smoother="gs")
        assert estimate_condition_number(system, B) == (
            estimate_condition_number(system, Panels(B)))

    def test_non_spd_pair_still_flagged(self):
        # A = K - M (tau = -1, which system_matrix refuses) is indefinite:
        # its sector blocks carry the negative eigenvalues
        setup = system_setup("curl", 2, 2, 8)
        with pytest.raises(ArithmeticError):
            estimate_condition_number(AssembledSystem(setup, -1.0))
        assert "sector_factors" in vars(setup)


class TestTermBlocks:
    @given(st.sampled_from(["curl", "div"]), st.sampled_from([2, 3]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=6),
           st.floats(min_value=-4.0, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_match_the_panels(self, problem, dim, p, n, log_tau):
        # Jacobi ASP (3-D div with the diag curl smoother): the blocks
        # from B's terms equal B applied to panels, per reflection sector
        n = n if dim == 2 else min(n, 3)
        system, B = asp_cell(p, n, 10.0 ** log_tau, problem, dim)
        sectors = system.setup.space.sectors
        for Q, block in zip(sectors, B.sector_blocks()):
            ref = Q.T @ B.apply(Q.toarray())
            assert np.linalg.norm(block - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_match_the_panels_where_sectors_are_empty(self, dim):
        # p = 1, n = 2: the essential-bc B factors have one function, so
        # some sectors are empty and the space's sectors leave them out
        system, B = asp_cell(1, 2, 1.0, "curl", dim)
        sectors = system.setup.space.sectors
        assert len(sectors) < 2 ** dim
        blocks = B.sector_blocks()
        assert len(blocks) == len(sectors)
        for Q, block in zip(sectors, blocks):
            ref = Q.T @ B.apply(Q.toarray())
            assert np.linalg.norm(block - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_sector_factors_are_built_once_per_mesh(self):
        system, B = asp_cell(2, 8, 1.0)
        first = B.setup.gram_factors
        other = AspPreconditioner(B.setup, system_matrix(system.setup, 1e-2))
        assert other.setup.gram_factors is first

    def test_dense_kappa_does_not_apply_b(self):
        system, B = asp_cell(2, 8, 1.0)
        applied = []
        apply = B.apply
        B.apply = lambda r: applied.append(r.shape) or apply(r)
        ours = estimate_condition_number(system, B)
        assert applied == []
        panels = estimate_condition_number(system, Panels(B))
        assert ours == pytest.approx(panels, rel=1e-12)

    @pytest.mark.parametrize("problem, dim, smoother, curl_smoother", [
        ("curl", 2, "gs", "diag"), ("div", 2, "gs", "diag"),
        ("div", 3, "jacobi", "sgs")])
    def test_no_term_form_takes_the_panels(self, problem, dim, smoother,
                                           curl_smoother):
        # the Gauss-Seidel smoother of A and the sgs curl smoother have
        # no term form: kappa is the panel path's, bit for bit, and since
        # B is asked first, neither the space's bases nor A's sector
        # factors are built
        setup = system_setup(problem, dim, 2, 3)
        system = system_matrix(setup, 1e-2)
        B = AspPreconditioner(AspSetup(setup, curl_smoother), system, smoother)
        assert estimate_condition_number(system, B) == (
            estimate_condition_number(system, Panels(B)))
        assert B.sector_blocks() is None
        assert "sectors" not in vars(setup.space)
        assert "sector_factors" not in vars(setup)

    def test_one_block_path_takes_the_panels(self):
        # an A without term blocks (the CSR A) takes the one-block path
        # and asks B for none: the kappa of a Jacobi ASP is the panel
        # path's, bit for bit, and nothing of the sector path is built
        system, B = asp_cell(2, 8, 1e-2)
        asked = []
        B.sector_blocks = lambda: asked.append("B")
        assert estimate_condition_number(system.A, B) == (
            estimate_condition_number(system.A, Panels(B)))
        assert asked == []
        assert "sectors" not in vars(system.setup.space)
        assert "sector_factors" not in vars(system.setup)
        assert "gram_factors" not in vars(B.setup)

    def test_preconditioner_of_another_system_takes_the_one_block_path(self):
        # a Jacobi ASP built on another system of the same mesh has term
        # blocks, but only a preconditioner of A itself is read by them:
        # kappa is the panel path's, bit for bit, with no sector build
        system, B = asp_cell(2, 8, 1e-2)
        other = AspPreconditioner(B.setup, system_matrix(system.setup, 1.0))
        assert other.system is not system
        assert estimate_condition_number(system, other) == (
            estimate_condition_number(system, Panels(other)))
        assert "sector_factors" not in vars(system.setup)
        assert "gram_factors" not in vars(B.setup)


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

    def test_dense_takes_the_product_cg_takes(self):
        # past the product rule the system's product is a LinearOperator
        # with no toarray(): on the one-block path (B without term
        # blocks) dense kappa materializes it from panels
        system, B = asp_cell(3, 27, 1e-4)
        assert system.setup.space.total_dim == 1624
        assert factored_product_wins(system.setup.space)
        assert not hasattr(system, "toarray")
        _, _, kappa = estimate_condition_number(system, Panels(B), mode="dense")
        assert "A" not in vars(system)
        _, _, oracle = estimate_condition_number(system.A, Panels(B),
                                                 mode="dense")
        assert kappa == pytest.approx(oracle, rel=1e-12)

    def test_auto_is_dense_up_to_its_limit_then_lanczos(self):
        # diagonal pair: the eigenvalues of B A are the products of the
        # diagonals; k = 20 Lanczos steps leave the Ritz extremes visibly
        # inside that spectrum, so the modes give different results
        assert AUTO_DENSE_MAX_DIM == 2500
        for n in (2500, 2501):
            a, m = np.linspace(1.0, 100.0, n), np.linspace(2.0, 1.0, n)
            A, Minv = sp.diags(a, format="csr"), sp.diags(m)
            exact = (a * m).max() / (a * m).min()
            auto = estimate_condition_number(A, Minv, mode="auto", k=20)
            lanczos = estimate_condition_number(A, Minv, mode="lanczos", k=20)
            assert lanczos[2] < 0.99 * exact
            if n <= 2500:
                dense = estimate_condition_number(A, Minv, mode="dense")
                assert dense[2] == pytest.approx(exact, rel=1e-12)
                assert auto == dense
            else:
                assert auto == lanczos

    def test_dense_dimension_guard(self):
        A = sp.identity(20001, format="csr")
        with pytest.raises(ValueError):
            estimate_condition_number(A, mode="dense")

    @pytest.mark.parametrize("mode", ["lanczos", "auto"])
    @pytest.mark.parametrize("k", [0, -3])
    def test_k_is_checked_before_any_work(self, mode, k):
        # k < 1 raises, naming k, before A or B is applied
        system, B = asp_cell(1, 8, 1.0)
        applied = []
        A = spla.LinearOperator(system.shape, dtype=float,
                                matvec=lambda x: applied.append(x) or x)
        B.apply = lambda r: applied.append(r) or r
        with pytest.raises(ValueError, match=f"k = {k}"):
            estimate_condition_number(A, B, mode=mode, k=k)
        assert applied == []

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            estimate_condition_number(sp.identity(3), mode="svd")

    def test_non_spd_flagged(self):
        A = sp.diags([1.0, -1.0, 2.0])
        with pytest.raises(ArithmeticError):
            estimate_condition_number(A, mode="dense")
