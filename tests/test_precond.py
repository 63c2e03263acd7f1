"""Smoothers and auxiliary-space preconditioners."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from iga_asp import bench, precond
from iga_asp.assembly import (
    curl_stiffness_matrix,
    discretize,
    h1_vector_matrix,
    mass_matrix,
    mass_operator,
    scalar_laplacian_matrix,
    system_matrix,
    system_setup,
)
from iga_asp.bench import ExperimentSpec, run_experiment
from iga_asp.krylov import estimate_condition_number, pcg
from iga_asp.precond import (
    AspPreconditioner,
    AspSetup,
    InnerSolver,
    Smoother,
)
from iga_asp.transfer import build_transfer_set


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    return sp.csr_matrix(X @ X.T + n * np.eye(n))


def two_factor_sgs(A):
    """The two-factor SGS oracle L^{-1} + U^{-1} - L^{-1} A U^{-1}, with
    L/U = ``sp.tril``/``sp.triu`` of A (diagonal included) each given
    its own SuperLU factorization."""
    A = sp.csr_matrix(A)
    solve_l, solve_u = (
        spla.splu(T, permc_spec="NATURAL",
                  options={"DiagPivotThresh": 0.0}).solve
        for T in (sp.tril(A, format="csc"), sp.triu(A, format="csc")))

    def apply(r):
        x = solve_u(r)
        return x + solve_l(r - A @ x)
    return apply


def assert_matches_two_factor_sgs(A, rtol=1e-12, seed=0):
    rng = np.random.default_rng(seed)
    smoother, oracle = Smoother("gs", A), two_factor_sgs(A)
    for shape in ((A.shape[0],), (A.shape[0], 3)):
        r = rng.standard_normal(shape)
        got, ref = smoother.apply(r), oracle(r)
        assert got.shape == shape
        assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


@st.composite
def sparse_spd(draw):
    """A random sparse SPD matrix: X X^T plus a positive diagonal, with a
    sparse random X."""
    n = draw(st.integers(min_value=1, max_value=30))
    density = draw(st.floats(min_value=0.05, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    X = sp.random(n, n, density=density, random_state=rng)
    shift = sp.diags(rng.uniform(0.5, 2.0, n))
    return sp.csr_matrix(X @ X.T + shift)


class TestSmoother:
    def test_jacobi_is_diagonal_scaling(self):
        A = random_spd(6, 1)
        r = np.arange(1.0, 7.0)
        np.testing.assert_allclose(Smoother("jacobi", A).apply(r),
                                   r / A.diagonal(), atol=1e-15)

    def test_sgs_matches_dense_oracle(self):
        # S = U D^{-1} L with L/U the triangles including the diagonal,
        # so S^{-1} r = L^{-1} D U^{-1} r (dense oracle)
        A = random_spd(8, 2)
        Ad = A.toarray()
        L = np.tril(Ad)
        U = np.triu(Ad)
        D = np.diag(np.diag(Ad))
        r = np.arange(1.0, 9.0)
        expected = np.linalg.solve(L, D @ np.linalg.solve(U, r))
        np.testing.assert_allclose(Smoother("gs", A).apply(r), expected,
                                   atol=1e-10)

    @given(sparse_spd(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sgs_matches_dense_oracle_on_sparse_spd(self, A, k, seed):
        # S^{-1} = L^{-1} D U^{-1} for (N,) and (N, k) inputs
        Ad = A.toarray()
        D = np.diag(np.diag(Ad))
        rng = np.random.default_rng(seed)
        smoother = Smoother("gs", A)
        for shape in ((A.shape[0],), (A.shape[0], k)):
            r = rng.standard_normal(shape)
            ref = np.linalg.solve(np.tril(Ad), D @ np.linalg.solve(np.triu(Ad), r))
            got = smoother.apply(r)
            assert got.shape == shape
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sgs_matches_two_factors_on_q_curl(self, p, n):
        # the 3-D div sgs curl smoother's matrix, symmetric up to round-off
        setup = system_setup("div", 3, p, n)
        assert_matches_two_factor_sgs(curl_stiffness_matrix(
            build_transfer_set(setup).potential, setup.M_D))

    @pytest.mark.parametrize("tau", [1e-4, 1e2])
    @pytest.mark.parametrize("op, dim, p, n", [
        ("curl", 2, 2, 4), ("div", 2, 2, 4), ("curl", 3, 2, 3),
        ("div", 3, 2, 3)])
    def test_sgs_matches_two_factors_on_a(self, op, dim, p, n, tau):
        assert_matches_two_factor_sgs(
            system_matrix(system_setup(op, dim, p, n), tau).A)

    def test_sgs_factors_once_and_keeps_no_matrix(self, monkeypatch):
        calls, splu = [], spla.splu

        def counted(*args, **kwargs):
            calls.append(args[0])
            return splu(*args, **kwargs)
        monkeypatch.setattr(precond.spla, "splu", counted)
        A = random_spd(9, 6)
        smoother = Smoother("gs", A)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0].toarray(),
                                      np.tril(A.toarray()))
        assert not any(sp.issparse(v) for v in vars(smoother).values())

    def test_sgs_inverse_is_symmetric(self):
        A = random_spd(10, 3)
        s = Smoother("gs", A)
        S = np.array([s.apply(e) for e in np.eye(10)]).T
        np.testing.assert_allclose(S, S.T, atol=1e-12)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Smoother("sor", random_spd(3))

    def test_zero_diagonal_rejected(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ArithmeticError):
            Smoother("jacobi", A)
        with pytest.raises(ArithmeticError):
            Smoother("jacobi", diagonal=A.diagonal())

    def test_jacobi_from_diagonal_alone(self):
        A = random_spd(6, 4)
        R = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(
            Smoother("jacobi", diagonal=A.diagonal()).apply(R),
            Smoother("jacobi", A).apply(R))
        with pytest.raises(ValueError):
            Smoother("gs", diagonal=A.diagonal())     # SGS needs A
        for kw in ({}, {"A": A, "diagonal": A.diagonal()}):
            with pytest.raises(ValueError):
                Smoother("jacobi", **kw)

    def test_wrong_length_rejected(self):
        # Jacobi's division would broadcast a length-1 input to length N;
        # every input whose length is not N raises, naming both sizes
        A = random_spd(6, 5)
        for smoother in (Smoother("jacobi", diagonal=A.diagonal()),
                         Smoother("jacobi", A), Smoother("gs", A)):
            for shape in ((1,), (7,), (1, 3)):
                with pytest.raises(ValueError,
                                   match=f"{shape[0]} rows.*6 columns"):
                    smoother.apply(np.ones(shape))


def kronecker_cases(dim, p, n, tau):
    """name -> (Kronecker operator, shift, assembled matrix the solve
    must invert), for every operator the preconditioners invert."""
    disc = discretize(p, n, dim=dim, bc="essential")
    H = h1_vector_matrix(disc)
    L = scalar_laplacian_matrix(disc)
    cases = {"H + tau M": (H, tau, H.tocsr() + tau * mass_matrix(disc, "vector")),
             "H": (H, 0.0, H.tocsr()),
             "L": (L, 0.0, L.tocsr())}
    return cases


class TestInnerSolver:
    @given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=4),
           st.floats(min_value=-4.0, max_value=4.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fast_diagonalization_matches_splu(self, dim, p, n, log_tau, seed):
        rng = np.random.default_rng(seed)
        for name, (op, shift, oracle) in kronecker_cases(
                dim, p, n, 10.0 ** log_tau).items():
            b = rng.standard_normal(oracle.shape[0])
            x = InnerSolver(op).make(shift)(b)
            ref = spla.splu(sp.csc_matrix(oracle)).solve(b)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref), name

    @given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=4),
           st.floats(min_value=-4.0, max_value=4.0),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_block_matches_columns(self, dim, p, n, log_tau, k, seed):
        # an (N, k) block is solved as the k columns one at a time
        rng = np.random.default_rng(seed)
        for name, (op, shift, oracle) in kronecker_cases(
                dim, p, n, 10.0 ** log_tau).items():
            solve = InnerSolver(op).make(shift)
            X = rng.standard_normal((oracle.shape[0], k))
            Y = solve(X)
            ref = np.column_stack([solve(x) for x in X.T])
            assert Y.shape == X.shape, name
            assert np.linalg.norm(Y - ref) <= 1e-12 * np.linalg.norm(ref), name
            assert solve(X[:, 0]).shape == (oracle.shape[0],), name

    @given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=4),
           st.floats(min_value=-4.0, max_value=4.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_solve_is_the_gram_of_the_forward_transform(self, dim, p, n,
                                                        log_tau, seed):
        # c^T (op + shift M)^{-1} b = (U^T c)^T diag(1/(Lambda + shift)) U^T b,
        # the identity dense kappa's term blocks rest on
        rng = np.random.default_rng(seed)
        for name, (op, shift, oracle) in kronecker_cases(
                dim, p, n, 10.0 ** log_tau).items():
            solver = InnerSolver(op)
            X = rng.standard_normal((oracle.shape[0], 3))
            F = solver.forward(X)
            assert F.shape == X.shape, name
            gram = F.T @ (F / solver.eigenvalues(shift)[:, None])
            ref = X.T @ solver.make(shift)(X)
            assert np.linalg.norm(gram - ref) <= 1e-12 * np.linalg.norm(ref), name
            f = solver.forward(X[:, 0])
            assert np.linalg.norm(f - F[:, 0]) <= 1e-13 * np.linalg.norm(f), name

    def test_pure_mass_rejected(self):
        # fast diagonalization needs the stiffness factors; the composite
        # cycle's mass basis is assembly.MassBasis
        with pytest.raises(ValueError, match="stiffness"):
            InnerSolver(mass_operator(discretize(2, 4, dim=2, bc="essential"),
                                      "curl"))

    def test_indefinite_shift_rejected(self):
        with pytest.raises(ArithmeticError):
            InnerSolver(h1_vector_matrix(
                discretize(2, 4, dim=2, bc="essential"))).make(shift=-100.0)


def build(op, dim, p, n, tau, smoother="jacobi", curl_smoother="diag"):
    setup = system_setup(op, dim, p, n)
    system = system_matrix(setup, tau)
    return system, AspPreconditioner(AspSetup(setup, curl_smoother), system,
                                     smoother)


# (operator, dim, keyword arguments) of every preconditioner variant
VARIANTS = [("curl", 2, {"smoother": "jacobi"}), ("curl", 2, {"smoother": "gs"}),
            ("div", 2, {"smoother": "jacobi"}), ("div", 2, {"smoother": "gs"}),
            ("curl", 3, {}),
            ("div", 3, {"curl_smoother": "diag"}),
            ("div", 3, {"curl_smoother": "sgs"})]


def dense_correction(system, smoother="jacobi", curl_smoother="diag"):
    """The module-docstring formula P (H + tau M)^{-1} P^T
    + tau^{-1} T B_T T^T from dense matrices and dense inverses."""
    setup, tau = system.setup, system.tau
    disc = setup.disc
    ts = build_transfer_set(setup)
    P, T = ts.P_main.toarray(), ts.potential.toarray()
    H = h1_vector_matrix(disc).tocsr().toarray()
    main = P @ np.linalg.inv(H + tau * mass_matrix(disc, "vector").toarray()) @ P.T
    if (setup.operator, setup.dim) == ("div", 3):
        Q = curl_stiffness_matrix(ts.potential, setup.M_D).toarray()
        if curl_smoother == "diag":
            W = np.diag(np.diag(Q))
        else:    # symmetric Gauss-Seidel: W = U D^{-1} L
            W = np.triu(Q) @ np.diag(1.0 / np.diag(Q)) @ np.tril(Q)
        P_curl = ts.P_curl.toarray()
        B_T = np.linalg.inv(W) + P_curl @ np.linalg.inv(H) @ P_curl.T
    else:
        B_T = np.linalg.inv(scalar_laplacian_matrix(disc).tocsr().toarray())
    return main + T @ B_T @ T.T / tau


class TestAspPreconditioner:
    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_correction_matches_dense_formula(self, variant):
        op, dim, kw = variant
        p, n = (2, 4) if dim == 2 else (2, 3)
        system, B = build(op, dim, p, n, 1e-2, **kw)
        K = dense_correction(system, **kw)
        X = np.random.default_rng(3).standard_normal((B.shape[0], 4))
        Y = B.correction(X)
        assert np.linalg.norm(Y - K @ X) <= 1e-10 * np.linalg.norm(K @ X)

    @given(st.sampled_from(VARIANTS), st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=4),
           st.floats(min_value=-4.0, max_value=4.0),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_block_matches_columns(self, variant, p, n, log_tau, k, seed):
        op, dim, kw = variant
        if dim == 3:
            p, n = min(p, 2), min(n, 3)
        _, B = build(op, dim, p, n, 10.0 ** log_tau, **kw)
        X = np.random.default_rng(seed).standard_normal((B.shape[0], k))
        for apply in (B.apply, B.correction, B.smoother.apply):
            Y = apply(X)
            ref = np.column_stack([apply(x) for x in X.T])
            assert Y.shape == X.shape
            assert np.linalg.norm(Y - ref) <= 1e-12 * np.linalg.norm(ref)
            assert apply(X[:, 0]).shape == (B.shape[0],)

    def test_symmetric_positive(self):
        cases = [(("curl", 2, 2, 4, 1e-2), {}),
                 (("curl", 3, 2, 3, 1e-2), {}),
                 (("div", 3, 2, 3, 1e-2), {"curl_smoother": "diag"}),
                 (("div", 3, 2, 3, 1e-2), {"curl_smoother": "sgs"})]
        for args, kw in cases:
            system, B = build(*args, **kw)
            rng = np.random.default_rng(0)
            for _ in range(5):
                v = rng.standard_normal(B.shape[0])
                w = rng.standard_normal(B.shape[0])
                assert abs(v @ B.apply(w) - w @ B.apply(v)) <= 1e-10 * abs(v @ B.apply(w))
                assert v @ B.apply(v) > 0.0

    def test_apply_is_smoother_plus_correction(self):
        system, B = build("div", 2, 2, 4, 1e-3, smoother="gs")
        r = np.linspace(-1.0, 1.0, B.shape[0])
        np.testing.assert_allclose(B.apply(r),
                                   B.smoother.apply(r) + B.correction(r),
                                   atol=1e-14)

    def test_natural_bc_rejected(self):
        with pytest.raises(ValueError):
            AspSetup(system_setup("curl", 2, 2, 4, bc="natural"))

    def test_curl_div_rotation_symmetry_2d(self):
        # dual route: on the square the two problems are rotations of
        # each other, so the preconditioned spectra coincide exactly
        kappas = {}
        for op in ("curl", "div"):
            system, B = build(op, 2, 1, 8, 1e-4)
            _, _, kappas[op] = estimate_condition_number(
                system.A, B, mode="dense")
        assert kappas["curl"] == pytest.approx(kappas["div"], rel=1e-8)

    @pytest.mark.parametrize("tau", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_tau_robustness_small_case(self, tau):
        system, B = build("curl", 2, 1, 8, tau)
        _, _, kappa = estimate_condition_number(system.A, B, mode="dense")
        assert kappa <= 30.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_degree_growth_bounded_at_fixed_n(self, p):
        system, B = build("curl", 2, p, 8, 1e-4)
        _, _, kappa = estimate_condition_number(system.A, B, mode="dense")
        assert kappa <= 60.0

    def test_gs_beats_jacobi(self):
        setup = system_setup("curl", 2, 1, 8)
        system = system_matrix(setup, 1e-4)
        asp_setup = AspSetup(setup)
        kappa = {}
        for sm in ("jacobi", "gs"):
            B = AspPreconditioner(asp_setup, system, sm)
            _, _, kappa[sm] = estimate_condition_number(system.A, B,
                                                        mode="dense")
        assert kappa["gs"] < kappa["jacobi"]

    def test_solves_linear_system(self):
        system, B = build("curl", 2, 2, 8, 1e-3)
        rng = np.random.default_rng(1)
        x_ref = rng.standard_normal(B.shape[0])
        b = system.A @ x_ref
        x, report = pcg(system.A, b, B, tol=1e-10, max_iter=200)
        assert report.converged
        np.testing.assert_allclose(x, x_ref, atol=1e-6 * np.abs(x_ref).max())


class TestDiv3d:
    def test_builds_and_is_symmetric(self):
        for curl_smoother in ("diag", "sgs"):
            system, B = build("div", 3, 1, 3, 1e-2,
                              curl_smoother=curl_smoother)
            rng = np.random.default_rng(2)
            v = rng.standard_normal(B.shape[0])
            w = rng.standard_normal(B.shape[0])
            assert abs(v @ B.apply(w) - w @ B.apply(v)) <= 1e-10 * abs(v @ B.apply(w))

    def test_sgs_variant_conditions_better(self):
        setup = system_setup("div", 3, 2, 2)
        system = system_matrix(setup, 1e-4)
        kappa = {}
        for cs in ("diag", "sgs"):
            B = AspPreconditioner(AspSetup(setup, cs), system)
            _, _, kappa[cs] = estimate_condition_number(system.A, B,
                                                        mode="dense")
        assert kappa["sgs"] <= kappa["diag"]

    def test_bad_curl_smoother(self):
        # rejected for every problem, not only the 3-D div one that uses it
        for op, dim in (("div", 3), ("curl", 2)):
            with pytest.raises(ValueError):
                AspSetup(system_setup(op, dim, 1, 2), "ilu")

    def test_preconditioned_solve_converges_fast(self):
        system, B = build("div", 3, 1, 3, 1e-4, curl_smoother="sgs")
        b = np.ones(B.shape[0])
        _, report = pcg(system.A, b, B, tol=1e-6, max_iter=100)
        assert report.converged
        assert report.iterations <= 20


def run_recorded(monkeypatch, spec):
    """Run the one-cell sweep ``spec``; returns its system and the number
    of Q_curl assemblies."""
    systems = []
    q_curl = [0]

    def recorded(*args, **kwargs):
        systems.append(system_matrix(*args, **kwargs))
        return systems[-1]

    def counted(*args):
        q_curl[0] += 1
        return curl_stiffness_matrix(*args)
    monkeypatch.setattr(bench, "system_matrix", recorded)
    monkeypatch.setattr(precond, "curl_stiffness_matrix", counted)
    (row,) = run_experiment(spec)
    assert row["converged"]
    (system,) = systems
    return system, q_curl[0]


class TestFactoredSetup:
    """A Jacobi cell past the product rule assembles no CSR mass, no CSR
    A and, with the diag curl smoother, no Q_curl."""

    @pytest.mark.parametrize("spec", [
        ExperimentSpec("curl", 3, (2,), (8,), (1e-4,), precond="asp"),
        ExperimentSpec("div", 3, (2,), (8,), (1e-4,), precond="asp-glt",
                       curl_smoother="diag")],
        ids=["curl3d-asp", "div3d-asp-glt-diag"])
    def test_jacobi_cell_assembles_no_csr(self, monkeypatch, spec):
        system, q_curl = run_recorded(monkeypatch, spec)
        assert "A" not in vars(system)
        assert "M_D" not in vars(system.setup)
        assert "M_range" not in vars(system.setup)
        assert q_curl == 0

    def test_sgs_cell_builds_q_curl(self, monkeypatch):
        spec = ExperimentSpec("div", 3, (2,), (2,), (1e-4,), precond="asp-glt",
                              curl_smoother="sgs")
        system, q_curl = run_recorded(monkeypatch, spec)
        assert q_curl == 1
        assert "M_D" in vars(system.setup)

    @pytest.mark.parametrize("entry", [0.0, 1e-16, -1.0])
    def test_q_curl_guard_on_both_smoothers(self, monkeypatch, entry):
        # the guard reads the diagonal after the DROP_TOL zeroing of
        # drop_small, so an entry of 1e-16 counts as zero
        setup = system_setup("div", 3, 2, 3)
        diagonal_of, matrix_of = (precond.curl_stiffness_diagonal,
                                  precond.curl_stiffness_matrix)

        def bad_diagonal(disc):
            out = diagonal_of(disc)
            out[5] = entry
            return out

        def bad_matrix(C, M_div):
            Q = matrix_of(C, M_div).tolil()
            Q[5, 5] = entry
            return Q.tocsr()
        monkeypatch.setattr(precond, "curl_stiffness_diagonal", bad_diagonal)
        monkeypatch.setattr(precond, "curl_stiffness_matrix", bad_matrix)
        for curl_smoother in ("diag", "sgs"):
            with pytest.raises(ArithmeticError, match="Q_curl"):
                AspSetup(setup, curl_smoother)


class TestFactoredCorrection:
    """Past the rule the correction applies P and P^T factored; the CSR
    correction is its oracle."""

    @pytest.mark.parametrize("operator, dim, p, n", [
        ("curl", 2, 3, 27), ("div", 2, 3, 27), ("curl", 3, 2, 8),
        ("div", 3, 2, 8), ("div", 3, 3, 7)])
    def test_matches_the_csr_correction(self, operator, dim, p, n):
        system, B = build(operator, dim, p, n, 1e-2)
        assert system.setup.factored_product_wins
        ts = B.setup.transfers
        rng = np.random.default_rng(p + n)
        for shape in ((B.shape[0],), (B.shape[0], 3)):
            r = rng.standard_normal(shape)
            got = B.correction(r)
            ref = (ts.P_main @ B._solve_main(ts.P_main_T @ r)
                   + ts.potential @ B.setup.solve_potential(ts.potential_T @ r)
                   / B.tau)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
