"""Smoothers and auxiliary-space preconditioners."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
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
from iga_asp.derham import KronBlocks, differential_matrix
from iga_asp.krylov import estimate_condition_number, pcg
from iga_asp.precond import (
    AspPreconditioner,
    AspSetup,
    InnerSolver,
    Smoother,
)
from iga_asp.splines1d import drop_small
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


def q_curl(setup):
    """The oracle of the sgs curl smoother's matrix: Q_curl = C^T M_div C
    of a 3-D div setup as the sparse triple product of the assembled curl
    matrix and div mass, entries below DROP_TOL dropped."""
    spaces = setup.disc.spaces
    C = differential_matrix(spaces["curl"], spaces["div"])
    return drop_small(C.T @ mass_matrix(setup.disc, "div") @ C)


def assert_close(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


def assert_matches_two_factor_sgs(A, rtol=1e-12, seed=0):
    """The SGS smoother of A against :func:`two_factor_sgs` of A."""
    rng = np.random.default_rng(seed)
    smoother, oracle = Smoother("gs", A), two_factor_sgs(A)
    for shape in ((A.shape[0],), (A.shape[0], 3)):
        r = rng.standard_normal(shape)
        assert_close(smoother.apply(r), oracle(r), rtol)


def random_spd_kron_blocks(rng, n_blocks, n_factors):
    """C^T M C, factored (``KronBlocks.congruence``), of a random square
    block-Kronecker C with ``n_blocks`` block columns, one to three block
    rows and one to two terms of dense Gaussian factors per block, and a
    block-diagonal mass M of SPD 1-D factors over C's block rows."""
    n_rows = rng.integers(1, 4)
    col_dims = rng.integers(1, 5, size=(n_blocks, n_factors))
    row_dims = rng.integers(1, 6, size=(n_rows, n_factors))
    present = rng.random((n_rows, n_blocks)) < 0.6
    present[rng.integers(n_rows, size=n_blocks), np.arange(n_blocks)] = True
    present[np.arange(n_rows), rng.integers(n_blocks, size=n_rows)] = True
    C = KronBlocks([[
        [(rng.standard_normal(), [rng.standard_normal((r, c)) for r, c
                                  in zip(row_dims[i], col_dims[j])])
         for _ in range(rng.integers(1, 3))] if present[i, j] else None
        for j in range(n_blocks)] for i in range(n_rows)])

    def spd(m):
        X = rng.standard_normal((m, m))
        return X @ X.T + m * np.eye(m)
    M = KronBlocks.block_diagonal([[(rng.uniform(0.5, 2.0), [spd(m) for m in dims])]
                                   for dims in row_dims])
    return C.congruence(M)


def one_factor_sgs(A, r):
    """The SGS apply of A's smoother before the block sweep, as it was
    written: one SuperLU factor of L = triu(A)^T and
    L^{-1} (D * L^{-T} r)."""
    lower = spla.splu(sp.triu(A, format="csr").T.tocsc(), permc_spec="NATURAL",
                      options={"DiagPivotThresh": 0.0})
    d = A.diagonal().reshape((-1,) + (1,) * (r.ndim - 1))
    return lower.solve(d * lower.solve(r, trans="T"))


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
        np.testing.assert_allclose(
            Smoother("jacobi", diagonal=A.diagonal()).apply(r),
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
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_sgs_matches_two_factors_on_q_curl(self, p, n):
        # the 3-D div sgs curl smoother's matrix, symmetric up to round-off:
        # the block sweep of the factored Q_curl, which the preconditioner
        # uses, against the whole written triangle (the oracle) and the
        # two-factor SGS of the sparse triple product, on (N,) and (N, k)
        setup = system_setup("div", 3, p, n)
        T_op = build_transfer_set(setup).T_op
        upper = curl_stiffness_matrix(T_op, setup.M_D_op)
        Q = q_curl(setup)
        blocks = Smoother("gs", T_op.congruence(setup.M_D_op))
        whole, oracle = Smoother("gs", upper), two_factor_sgs(Q)
        np.testing.assert_array_equal(blocks.diagonal, upper.diagonal())
        rng = np.random.default_rng(p + n)
        for shape in ((Q.shape[0],), (Q.shape[0], 4)):
            r = rng.standard_normal(shape)
            got, ref = blocks.apply(r), oracle(r)
            assert_close(whole.apply(r), ref)
            assert_close(got, whole.apply(r))
            assert_close(got, ref)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_block_sweep_matches_the_whole_triangle(self, n_blocks, n_factors,
                                                    k, seed):
        # a random SPD square KronBlocks: its block sweep against the SGS
        # of its written triangle and the two-factor SGS of its CSR
        rng = np.random.default_rng(seed)
        Q = random_spd_kron_blocks(rng, n_blocks, n_factors)
        blocks, whole = Smoother("gs", Q), Smoother("gs", Q.upper_triangle())
        oracle = two_factor_sgs(Q.tocsr())
        for shape in ((Q.shape[0],), (Q.shape[0], k)):
            r = rng.standard_normal(shape)
            got = blocks.apply(r)
            assert_close(got, whole.apply(r))
            assert_close(got, oracle(r))

    def test_block_sweep_factors_each_diagonal_triangle_once(self, monkeypatch):
        # one SuperLU factor per curl component, of its diagonal block's
        # triangle, equal to that block of the whole written triangle;
        # no triangle of the whole matrix or of an off-diagonal block
        setup = system_setup("div", 3, 2, 3)
        T_op = build_transfer_set(setup).T_op
        Q_op, upper = (T_op.congruence(setup.M_D_op),
                       curl_stiffness_matrix(T_op, setup.M_D_op))
        factored, written, splu = [], [], spla.splu
        triangle_of = KronBlocks.upper_triangle

        def counted(*args, **kwargs):
            factored.append(args[0])
            return splu(*args, **kwargs)

        def recorded(self):
            written.append(self.shape)
            return triangle_of(self)
        monkeypatch.setattr(precond.spla, "splu", counted)
        monkeypatch.setattr(KronBlocks, "upper_triangle", recorded)
        smoother = Smoother("gs", Q_op)
        sizes = setup.disc.spaces["curl"].component_dims
        assert written == [(m, m) for m in sizes]
        at = np.cumsum((0,) + tuple(sizes))
        assert len(factored) == len(sizes)
        for lower, start, stop in zip(factored, at[:-1], at[1:]):
            np.testing.assert_array_equal(
                lower.toarray(), upper[start:stop, start:stop].T.toarray())
        assert not any(sp.issparse(v) for v in vars(smoother).values())

    @pytest.mark.parametrize("A", [
        random_spd(9, 6),
        sp.csr_matrix(np.diag(np.arange(1.0, 6.0))),
        sp.triu(random_spd(7, 1), format="csr"),
        system_matrix(system_setup("curl", 2, 2, 4), 1e-2).A,
        system_matrix(system_setup("div", 3, 2, 3), 1e2).A])
    def test_csr_sweep_is_the_one_factor_sgs(self, A):
        # A's smoother is the one-block case of the sweep: the same bits
        # as the one-factor apply it replaced
        smoother = Smoother("gs", A)
        R = np.random.default_rng(3).standard_normal((A.shape[0], 5))
        for r in (R[:, 0], R, R[:, 1:3].T.copy().T):
            np.testing.assert_array_equal(smoother.apply(r), one_factor_sgs(A, r))

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

    @pytest.mark.parametrize("A", [
        random_spd(9, 6),
        sp.csr_matrix(np.diag(np.arange(1.0, 6.0))),
        system_matrix(system_setup("curl", 2, 2, 3), 1e-2).A,
        q_curl(system_setup("div", 3, 2, 2))])
    def test_sgs_takes_a_triangle_as_it_is(self, monkeypatch, A):
        # given its upper triangle (a diagonal matrix is one), the smoother
        # factors the CSC view of its arrays and masks nothing; given the
        # full A, it masks once; the applies are equal bit for bit
        calls, upper_transposed = [], precond._upper_transposed

        def counted(M):
            calls.append(M)
            return upper_transposed(M)
        monkeypatch.setattr(precond, "_upper_transposed", counted)
        triangle = sp.triu(A, format="csr")
        from_triangle = Smoother("gs", triangle)
        assert calls == []
        from_full = Smoother("gs", A)
        assert len(calls) == int((abs(sp.tril(A, -1)) > 0).nnz > 0)
        R = np.random.default_rng(0).standard_normal((A.shape[0], 3))
        for r in (R[:, 0], R):
            np.testing.assert_array_equal(from_triangle.apply(r), from_full.apply(r))

    def test_sgs_curl_smoother_masks_nothing(self, monkeypatch):
        # the written triu(Q_curl) goes to the smoother as it is
        calls = []
        monkeypatch.setattr(precond, "_upper_transposed", calls.append)
        AspSetup(system_setup("div", 3, 2, 3), curl_smoother="sgs")
        assert calls == []

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
            Smoother("gs", A)
        with pytest.raises(ArithmeticError):
            Smoother("jacobi", diagonal=A.diagonal())
        # a KronBlocks: a zero entry of a diagonal block, a zero block
        one, zero = np.ones((1, 1)), np.zeros((1, 1))
        for rows in ([[[(1.0, [zero])], [(1.0, [one])]],
                      [[(1.0, [one])], [(2.0, [one])]]],
                     [[None, [(1.0, [one])]], [[(1.0, [one])], [(2.0, [one])]]]):
            with pytest.raises(ArithmeticError):
                Smoother("gs", KronBlocks(rows))

    def test_jacobi_from_diagonal_alone(self):
        # Jacobi takes the diagonal alone and SGS the matrix alone
        A = random_spd(6, 4)
        R = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(
            Smoother("jacobi", diagonal=A.diagonal()).apply(R),
            R / A.diagonal()[:, None])
        for kw in ({}, {"A": A}, {"A": A, "diagonal": A.diagonal()}):
            with pytest.raises(ValueError, match="Jacobi"):
                Smoother("jacobi", **kw)
        for kw in ({}, {"diagonal": A.diagonal()},
                   {"A": A, "diagonal": A.diagonal()}):
            with pytest.raises(ValueError, match="Gauss-Seidel"):
                Smoother("gs", **kw)

    def test_wrong_length_rejected(self):
        # Jacobi's division would broadcast a length-1 input to length N;
        # every input whose length is not N raises, naming both sizes
        A = random_spd(6, 5)
        block, coupling = random_spd(3, 5).toarray(), [(0.1, [np.eye(3)])]
        Q = KronBlocks([[[(1.0, [block])], coupling], [coupling, [(1.0, [block])]]])
        for smoother in (Smoother("jacobi", diagonal=A.diagonal()),
                         Smoother("gs", A), Smoother("gs", Q)):
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
        # an InnerSolver needs the stiffness factors; the eigenbasis of a
        # single matrix per axis, the composite cycle's range Laplacian,
        # is a derham.KronEigenbasis of pencils (G,)
        with pytest.raises(ValueError, match="stiffness"):
            InnerSolver(mass_operator(discretize(2, 4, dim=2, bc="essential"),
                                      "curl"))

    @pytest.mark.parametrize("dim, p, n", [(2, 3, 16), (3, 2, 6)])
    def test_factors_keep_the_layout_eigh_returns(self, dim, p, n):
        # the layout of the dense factors picks the BLAS calls of the plans
        # and with them the round-off of every inner solve: U's factors keep
        # the memory order of eigh's eigenvectors, U_T's that of their
        # transposes (the mass basis's layout would change the applies)
        _, V = sla.eigh(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        disc = discretize(p, n, dim=dim, bc="essential")
        for op in (h1_vector_matrix(disc), scalar_laplacian_matrix(disc)):
            solver = InnerSolver(op)
            for basis, eigh_out in ((solver.U, V), (solver.U_T, V.T)):
                factors = [F for row in basis.rows for terms in row
                           for _, Fs in terms or () for F in Fs]
                assert len(factors) >= dim
                for F in factors:
                    assert min(F.shape) > 1
                    assert (F.flags.c_contiguous, F.flags.f_contiguous) == (
                        eigh_out.flags.c_contiguous, eigh_out.flags.f_contiguous)

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
        Q = q_curl(setup).toarray()
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
    """Run the one-cell sweep ``spec``; returns its system and the shape
    of each upper triangle written from 1-D factors
    (``KronBlocks.upper_triangle``), in order."""
    systems, triangles = [], []
    triangle_of = KronBlocks.upper_triangle

    def recorded(*args, **kwargs):
        systems.append(system_matrix(*args, **kwargs))
        return systems[-1]

    def counted(self):
        triangles.append(self.shape)
        return triangle_of(self)
    monkeypatch.setattr(bench, "system_matrix", recorded)
    monkeypatch.setattr(KronBlocks, "upper_triangle", counted)
    (row,) = run_experiment(spec)
    assert row["converged"]
    (system,) = systems
    return system, triangles


class TestFactoredSetup:
    """A Jacobi cell past the product rule assembles no CSR mass, no CSR
    A and, with the diag curl smoother, no Q_curl; with the sgs one it
    writes the triangle of each diagonal block of Q_curl once, and no
    CSR mass either."""

    @pytest.mark.parametrize("spec", [
        ExperimentSpec("curl", 3, (2,), (8,), (1e-4,), precond="asp"),
        ExperimentSpec("div", 3, (2,), (8,), (1e-4,), precond="asp-glt",
                       curl_smoother="diag")],
        ids=["curl3d-asp", "div3d-asp-glt-diag"])
    def test_jacobi_cell_assembles_no_csr(self, monkeypatch, spec):
        system, triangles = run_recorded(monkeypatch, spec)
        assert "A" not in vars(system)
        assert "M_D" not in vars(system.setup)
        assert "M_range" not in vars(system.setup)
        assert triangles == []

    def test_sgs_cell_builds_q_curl(self, monkeypatch):
        # past the product rule, where no CSR A reads the CSR M_D: the
        # triangles of Q_curl's diagonal blocks, one per curl component,
        # come from the factored C and M_div; the whole triangle is not
        # written
        spec = ExperimentSpec("div", 3, (2,), (8,), (1e-4,), precond="asp-glt",
                              curl_smoother="sgs")
        system, triangles = run_recorded(monkeypatch, spec)
        assert triangles == [(m, m) for m in
                             system.setup.disc.spaces["curl"].component_dims]
        assert "A" not in vars(system)
        assert "M_D" not in vars(system.setup)
        assert "M_range" not in vars(system.setup)

    def test_sgs_setup_peaks_below_the_whole_triangle(self):
        # 3-D div p=3 n=8: the setup, which writes one diagonal block's
        # triangle at a time, holds less than triu(Q_curl) alone
        setup = system_setup("div", 3, 3, 8)
        upper = curl_stiffness_matrix(build_transfer_set(setup).T_op,
                                      setup.M_D_op)
        nbytes = upper.data.nbytes + upper.indices.nbytes + upper.indptr.nbytes
        del upper
        setup = system_setup("div", 3, 3, 8)
        tracemalloc.start()
        try:
            AspSetup(setup, "sgs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes

    @pytest.mark.parametrize("entry", [0.0, 1e-16, -1.0])
    def test_q_curl_guard_on_both_smoothers(self, monkeypatch, entry):
        # the guard reads the diagonal after the DROP_TOL zeroing of
        # drop_small, so an entry of 1e-16 counts as zero; both smoothers
        # read the diagonal of the transfer set's C congruent to M_div,
        # and the sgs one raises before it writes a block's triangle
        # (whose diagonal entry 5 is made bad too)
        setup = system_setup("div", 3, 2, 3)
        transfers_of, triangle_of = (precond.build_transfer_set,
                                     KronBlocks.upper_triangle)
        written = []

        def bad_transfers(setup):
            ts = transfers_of(setup)
            congruence_of = ts.T_op.congruence

            def bad_congruence(op):
                Q = congruence_of(op)
                diagonal_of = Q.diagonal

                def bad_diagonal():
                    out = diagonal_of()
                    out[5] = entry
                    return out
                Q.diagonal = bad_diagonal
                return Q
            ts.T_op.congruence = bad_congruence
            return ts

        def bad_triangle(self):
            written.append(self.shape)
            Q = triangle_of(self).tolil()
            if len(written) == 1:
                Q[5, 5] = entry
            return Q.tocsr()
        monkeypatch.setattr(precond, "build_transfer_set", bad_transfers)
        monkeypatch.setattr(KronBlocks, "upper_triangle", bad_triangle)
        for curl_smoother in ("diag", "sgs"):
            with pytest.raises(ArithmeticError, match="Q_curl"):
                AspSetup(setup, curl_smoother)
        assert written == []


def csr_correction(B, r):
    """B's correction with the CSR P, P_curl and T: the oracle of the
    factored transfers, with B's own inner solves and curl smoother."""
    setup, ts = B.setup, B.setup.transfers
    y = ts.potential_T @ r
    if ts.P_curl is None:
        z = setup.potential.make()(y)
    else:
        z = (setup.curl_smoother.apply(y)
             + ts.P_curl @ setup.h1.make()(ts.P_curl_T @ y))
    return ts.P_main @ B._solve_main(ts.P_main_T @ r) + ts.potential @ z / B.tau


class TestFactoredCorrection:
    """On every mesh the correction applies P, P_curl and their transposes
    factored; the correction with their CSR is its oracle."""

    CELLS = [("curl", 2, 1, 8), ("curl", 2, 3, 27), ("div", 2, 1, 8),
             ("div", 2, 3, 27), ("curl", 3, 1, 4), ("curl", 3, 2, 8),
             ("div", 3, 1, 4), ("div", 3, 2, 3), ("div", 3, 2, 8),
             ("div", 3, 3, 4), ("div", 3, 3, 7)]

    def test_cells_straddle_the_product_rule(self):
        # the rule picks A's product alone: the cells lie on both sides
        wins = {(op, dim): set() for op, dim, _, _ in self.CELLS}
        for op, dim, p, n in self.CELLS:
            wins[op, dim].add(system_setup(op, dim, p, n).factored_product_wins)
        assert all(sides == {False, True} for sides in wins.values())

    @pytest.mark.parametrize("operator, dim, p, n", CELLS)
    def test_matches_the_csr_correction(self, operator, dim, p, n):
        self.check(build(operator, dim, p, n, 1e-2)[1], p + n)

    @pytest.mark.parametrize("p, n", [
        (p, n) for op, dim, p, n in CELLS if (op, dim) == ("div", 3)])
    def test_sgs_curl_smoother_matches_the_csr_correction(self, p, n):
        self.check(build("div", 3, p, n, 1e-2, curl_smoother="sgs")[1], p + n)

    @staticmethod
    def check(B, seed):
        rng = np.random.default_rng(seed)
        for shape in ((B.shape[0],), (B.shape[0], 3)):
            r = rng.standard_normal(shape)
            got = B.correction(r)
            ref = csr_correction(B, r)
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
