"""Global assembly: system, mass, H1, Laplacian matrices and load vectors."""

import dataclasses
import json
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from iga_asp import assembly, derham, precond, transfer
from iga_asp.assembly import (
    NULL_MODE_TOL,
    AssembledSystem,
    assemble_rhs,
    curl_stiffness_matrix,
    discretize,
    export_matrix_market,
    factored_product_wins,
    field_coefficients,
    h1_vector_matrix,
    mass_matrix,
    mass_operator,
    scalar_laplacian_matrix,
    system_manifest,
    system_matrix,
    system_setup,
)
from iga_asp.derham import (KronBlocks, build_space, differential_blocks,
                            differential_matrix, kron_apply)
from iga_asp.krylov import _dense
from iga_asp.splines1d import (drop_small, make_quadrature, mass_matrix_1d,
                               stiffness_matrix_1d)
from iga_asp.transfer import build_transfer_set


def count_eighs(monkeypatch) -> list[int]:
    """Record each call of ``derham._eigh`` by its pencil's length: 2
    for a generalized pencil (K, M), 1 for (G,)."""
    calls, eigh = [], derham._eigh

    def counted(pencil):
        calls.append(len(pencil))
        return eigh(pencil)
    monkeypatch.setattr(derham, "_eigh", counted)
    return calls


def cond2(A: sp.csr_matrix) -> float:
    w = np.linalg.eigvalsh(A.toarray())
    return w[-1] / w[0]


class TestMassMatrix:
    def test_total_mass_is_volume_for_partition_of_unity(self):
        # all-B spaces: the basis sums to 1, so sum(M) = |domain| = 1
        for dim in (2, 3):
            disc = discretize(2, 3, dim=dim, bc="natural")
            assert abs(mass_matrix(disc, "grad").sum() - 1.0) <= 1e-12

    def test_spd(self):
        M = mass_matrix(discretize(2, 3, dim=2, bc="essential"),
                        "curl").toarray()
        np.testing.assert_allclose(M, M.T, atol=1e-15)
        assert np.linalg.eigvalsh(M).min() > 0.0

    def test_kronecker_vs_pointwise_quadrature(self):
        # oracle: assemble one entry by direct tensor quadrature of the
        # product of 2-D basis functions
        from iga_asp.splines1d import basis_values
        disc = discretize(2, 2, dim=2, bc="natural")
        space = disc.spaces["grad"]
        quads = disc.quads
        M = mass_matrix(disc, "grad").toarray()
        comp = space.components[0]
        Vx = basis_values(comp[0], quads[0].flat_nodes)
        Vy = basis_values(comp[1], quads[1].flat_nodes)
        wx, wy = quads[0].flat_weights, quads[1].flat_weights
        nx, ny = comp[0].dim, comp[1].dim
        for r in [(0, 0), (1, 2), (3, 3)]:
            for c in [(0, 0), (2, 1), (3, 3)]:
                exact = (np.sum(wx * Vx[:, r[0]] * Vx[:, c[0]])
                         * np.sum(wy * Vy[:, r[1]] * Vy[:, c[1]]))
                assert abs(M[r[0] * ny + r[1], c[0] * ny + c[1]] - exact) <= 1e-14


class TestSystemMatrix:
    def test_spd_and_symmetric(self):
        for op, dim in [("curl", 2), ("div", 2), ("curl", 3), ("div", 3)]:
            system = system_matrix(system_setup(op, dim, 2, 3), 1e-2)
            A = system.A
            assert abs(A - A.T).max() <= 1e-13
            assert np.linalg.eigvalsh(A.toarray()).min() > 0.0

    def test_gradient_fields_see_only_mass_curl(self):
        # curl(grad q) = 0, so A restricted to gradients is tau * mass
        setup = system_setup("curl", 2, 2, 4)
        system = system_matrix(setup, 0.37)
        grad = build_space("grad", 2, 4, dim=2, bc="essential")
        G = differential_matrix(grad, setup.space)
        rng = np.random.default_rng(0)
        q = rng.standard_normal(grad.total_dim)
        u = G @ q
        np.testing.assert_allclose(system.A @ u, 0.37 * (setup.M_D @ u),
                                   atol=1e-12)

    def test_condition_number_tau_1em4(self):
        # kappa_2(A_curl), p=1, n=8, tau=1e-4 = 1.37e7
        A = system_matrix(system_setup("curl", 2, 1, 8), 1e-4).A
        assert cond2(A) == pytest.approx(1.37e7, rel=0.05)

    def test_condition_number_tau_1em2(self):
        # kappa_2(A_curl), p=2, n=16, tau=1e-2 = 1.65e6
        A = system_matrix(system_setup("curl", 2, 2, 16), 1e-2).A
        assert cond2(A) == pytest.approx(1.65e6, rel=0.05)

    def test_condition_number_tau_1e4(self):
        # mass-dominated regime, p=1, n=8, tau=1e4: kappa = 2.72
        A = system_matrix(system_setup("curl", 2, 1, 8), 1e4).A
        assert cond2(A) == pytest.approx(2.72, rel=0.05)

    def test_div_matches_rotated_curl_spectrum(self):
        # dual route: on the square the div problem is the 90-degree
        # rotation of the curl problem, so the spectra coincide
        curl_A = system_matrix(system_setup("curl", 2, 2, 8), 1e-3).A
        div_A = system_matrix(system_setup("div", 2, 2, 8), 1e-3).A
        np.testing.assert_allclose(np.linalg.eigvalsh(curl_A.toarray()),
                                   np.linalg.eigvalsh(div_A.toarray()),
                                   rtol=1e-9)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            system_setup("mass", 2, 2, 8)
        with pytest.raises(ValueError):
            system_setup("curl", 4, 2, 8)
        setup = system_setup("curl", 2, 2, 4)
        for tau in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                system_matrix(setup, tau)


class TestScalarLaplacian:
    def test_single_hat_2d(self):
        # exact integral of |grad(hat x hat)|^2 on a 2x2 mesh: 8/3
        L = scalar_laplacian_matrix(
            discretize(1, 2, dim=2, bc="essential")).tocsr().toarray()
        np.testing.assert_allclose(L, [[8.0 / 3.0]], atol=1e-14)

    def test_matches_gradient_route(self):
        # dual route: L = G^T M_curl G with the exact difference matrix
        grad = build_space("grad", 2, 4, dim=2, bc="essential")
        curl = build_space("curl", 2, 4, dim=2, bc="essential")
        G = differential_matrix(grad, curl)
        disc = discretize(2, 4, dim=2, bc="essential")
        L = scalar_laplacian_matrix(disc)
        M_curl = mass_matrix(disc, "curl")
        np.testing.assert_allclose(L.tocsr().toarray(), (G.T @ M_curl @ G).toarray(),
                                   atol=1e-12)

    def test_natural_bc_rejected(self):
        with pytest.raises(ValueError):
            scalar_laplacian_matrix(discretize(2, 4, dim=2, bc="natural"))


class TestH1VectorMatrix:
    def test_block_diagonal_of_scalar_h1(self):
        disc = discretize(2, 3, dim=2, bc="essential")
        H = h1_vector_matrix(disc).tocsr().toarray()
        L = scalar_laplacian_matrix(disc).tocsr().toarray()
        M = mass_matrix(disc, "grad").toarray()
        block = L + M
        n = block.shape[0]
        np.testing.assert_allclose(H[:n, :n], block, atol=1e-12)
        np.testing.assert_allclose(H[n:, n:], block, atol=1e-12)
        np.testing.assert_allclose(H[:n, n:], 0.0, atol=1e-15)


def q_curl(disc):
    """The oracle of Q_curl = C^T M_div C: the sparse triple product of
    the assembled curl matrix and div mass, entries below DROP_TOL
    dropped; and |C|^T |M_div| |C|, the scale of its round-off."""
    C = differential_matrix(disc.spaces["curl"], disc.spaces["div"])
    M_div = mass_matrix(disc, "div")
    return drop_small(C.T @ M_div @ C), abs(C).T @ abs(M_div) @ abs(C)


class TestCurlStiffness:
    @pytest.mark.parametrize("bc", ["essential", "natural"])
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_upper_triangle_matches_triple_product(self, p, n, bc):
        # triu(Q_curl) from the factored C (the transfer set's T_op; a
        # natural-bc setup has no transfer set) and M_div: the pattern of
        # the assembled product's triangle, its values within 1e-14 of
        # each entry's terms (entries of two terms cancel to 1e-2 of them)
        setup = system_setup("div", 3, p, n, bc=bc)
        spaces = setup.disc.spaces
        C_op = (build_transfer_set(setup).T_op if bc == "essential" else
                differential_blocks(spaces["curl"], spaces["div"]))
        got = curl_stiffness_matrix(C_op, setup.M_D_op)
        Q, scale = q_curl(setup.disc)
        ref = sp.triu(Q, format="csr")
        assert got.has_sorted_indices
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        assert (abs(got - ref) - 1e-14 * sp.triu(scale)).max() <= 0.0
        assert "M_D" not in vars(setup)


def factor_route(space, stiffness_only=False, with_stiffness=False):
    """Block-diagonal Kronecker matrix of a space from 1-D factors
    computed per factor, each with its own knot vector's p + 2 rule:
    the mass, or with ``with_stiffness`` the mass plus the stiffness
    terms, or with ``stiffness_only`` the stiffness terms alone."""
    rows = [[None] * space.n_components for _ in space.components]
    for c, comp in enumerate(space.components):
        quads = [make_quadrature(f.knot) for f in comp]
        Ms = [mass_matrix_1d(f, q) for f, q in zip(comp, quads)]
        terms = [] if stiffness_only else [(1.0, Ms)]
        if with_stiffness or stiffness_only:
            terms += [(1.0, Ms[:k] + [stiffness_matrix_1d(f, q)] + Ms[k + 1:])
                      for k, (f, q) in enumerate(zip(comp, quads))]
        rows[c][c] = terms
    return KronBlocks(rows).tocsr()


def assert_bit_equal(a, b):
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


class TestDiscretization:
    @given(st.sampled_from([2, 3]), st.sampled_from(["natural", "essential"]),
           st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=3),
           st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_factor_route(self, dim, bc, p, n):
        # every space kind, per-direction degrees and element counts
        # (anisotropic meshes), both bcs: the shared factors give the
        # same bits as factors built per call
        p, n = tuple(p[:dim]), tuple(n[:dim])
        disc = discretize(p, n, dim=dim, bc=bc)
        assert len(disc.masses) <= 2 * dim
        assert len(disc.stiffnesses) <= dim
        for kind in ("grad", "curl", "div", "l2", "vector"):
            space = build_space(kind, p, n, dim=dim, bc=bc)
            assert disc.spaces[kind] == space
            assert_bit_equal(mass_matrix(disc, kind), factor_route(space))
        assert_bit_equal(h1_vector_matrix(disc).tocsr(),
                         factor_route(disc.spaces["vector"], with_stiffness=True))
        if bc == "essential":
            assert_bit_equal(scalar_laplacian_matrix(disc).tocsr(),
                             factor_route(disc.spaces["grad"], stiffness_only=True))

    @pytest.mark.parametrize("operator, dim, p, n", [
        ("curl", 2, 3, (4, 5)), ("div", 2, 2, 4), ("curl", 3, 2, 3),
        ("div", 3, (3, 2, 2), (3, 4, 3))])
    def test_factor_blocks_built_once_per_mesh(self, monkeypatch, operator,
                                               dim, p, n):
        # the setup, its stiffness diagonal and mass basis, a transfer set
        # and the ASP setups (3-D div: both curl smoothers, each with its
        # own transfer set) build each 1-D block of the diagram once and
        # each knot vector's histopolation once; the mesh's
        # Discretization holds them, and another mesh builds its own
        built, histopolations = [], []
        factor_block = derham._factor_block
        histopolation = transfer.histopolation_matrix_1d

        def counted_block(sf, df, b_to_d):
            built.append((sf, df, None if sf.kind == df.kind else b_to_d))
            return factor_block(sf, df, b_to_d)

        def counted_histopolation(space):
            histopolations.append(space.knot)
            return histopolation(space)
        monkeypatch.setattr(derham, "_factor_block", counted_block)
        monkeypatch.setattr(transfer, "histopolation_matrix_1d",
                            counted_histopolation)
        smoothers = ("diag", "sgs") if (operator, dim) == ("div", 3) else ("diag",)
        for _ in range(2):
            built.clear()
            histopolations.clear()
            setup = system_setup(operator, dim, p, n)
            setup.stiffness_diagonal
            setup.mass_basis
            build_transfer_set(setup)
            for curl_smoother in smoothers:
                precond.AspSetup(setup, curl_smoother)
            assert len(built) == len(set(built)) == len(setup.disc.factor_blocks)
            assert set(built) == set(setup.disc.factor_blocks)
            assert len(histopolations) == len(set(histopolations))
            assert set(histopolations) == set(setup.space.knots)

    @pytest.mark.parametrize("dim, p, n, eighs", [
        (2, 3, 8, 1), (3, 2, 4, 1), (3, (1, 2, 3), (4, 5, 6), 3)])
    def test_equal_pencils_share_one_eigh(self, monkeypatch, dim, p, n, eighs):
        # H and L each take one generalized eigh per distinct 1-D pencil:
        # one on an isotropic mesh, however many axes and components, and
        # one per axis where the axes differ
        calls = count_eighs(monkeypatch)
        disc = discretize(p, n, dim=dim, bc="essential")
        for op in (h1_vector_matrix(disc), scalar_laplacian_matrix(disc)):
            calls.clear()
            precond.InnerSolver(op)
            assert calls == [2] * eighs

    @pytest.mark.parametrize("operator, p, n, eighs", [
        ("div", 3, 8, 1), ("curl", 2, 16, 2)])
    def test_equal_range_grams_share_one_eigh(self, monkeypatch, operator, p,
                                              n, eighs):
        # the range Laplacian's G_{c,k} on an isotropic 3-D mesh: 3-D div's
        # three axes are one G, and 3-D curl's nine are two (G_{c,c}, and
        # G_{c,k} for k != c)
        calls = count_eighs(monkeypatch)
        system_setup(operator, 3, p, n).mass_basis
        assert calls == [1] * eighs


def relative_error(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestFactoredApply:
    """The sum-factorized products against the assembled CSR they
    replace in the composite cycle."""

    @given(st.sampled_from([2, 3]), st.sampled_from(["natural", "essential"]),
           st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3),
           st.lists(st.integers(min_value=2, max_value=3), min_size=3, max_size=3),
           st.sampled_from([(), (3,)]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_kron_sum_apply_matches_csr(self, dim, bc, p, n, cols, seed):
        # masses of every space kind, H and L; (N,) and (N, 3) inputs
        disc = discretize(tuple(p[:dim]), tuple(n[:dim]), dim=dim, bc=bc)
        ops = [mass_operator(disc, kind)
               for kind in ("grad", "curl", "div", "l2", "vector")]
        ops.append(h1_vector_matrix(disc))
        if bc == "essential":
            ops.append(scalar_laplacian_matrix(disc))
        rng = np.random.default_rng(seed)
        for op in ops:
            A = op.tocsr()
            x = rng.standard_normal((A.shape[0], *cols))
            y = op.apply(x)
            assert y.shape == x.shape
            assert relative_error(y, A @ x) <= 1e-13

    @pytest.mark.parametrize("bc", ["essential", "natural"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("operator", ["curl", "div"])
    def test_system_apply_matches_csr(self, operator, dim, bc):
        setup = system_setup(operator, dim, 2, 3, bc=bc)
        rng = np.random.default_rng(7)
        for tau in (1e-4, 1.0, 1e4):
            system = system_matrix(setup, tau)
            for cols in ((), (2,)):
                x = rng.standard_normal((system.A.shape[0], *cols))
                assert relative_error(system.apply_A(x), system.A @ x) <= 1e-13

    def test_dense_factors_built_once_per_mesh(self):
        # the system of every tau applies the setup's masses, whose plans
        # (and the dense factors in them) the first product compiles
        setup = system_setup("curl", 3, 2, 3)
        x = np.ones(setup.M_D.shape[0])
        system_matrix(setup, 1.0).apply_A(x)
        ops = setup.M_D_op, setup.M_range_op
        plans = [op.plan for op in ops]
        system_matrix(setup, 1e-4).apply_A(x)
        assert all(op.plan is plan for op, plan in zip(ops, plans))


class TestMassBasis:
    """The composite cycle's mass-orthonormal basis against the assembled
    matrices it stands for."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("operator", ["curl", "div"])
    def test_basis_transforms_the_system(self, operator, dim, p, n):
        setup = system_setup(operator, dim, p, n)
        basis = setup.mass_basis
        C = basis.backward.tocsr().toarray()
        N = C.shape[0]
        rng = np.random.default_rng(8)
        X = rng.standard_normal((N, 3))
        # per factor space C_k^T M_k C_k = I and R_k^T C_k = I
        for f, (C_k, R_k) in basis.factors.items():
            I = np.eye(f.dim)
            M_k = setup.disc.masses[f].toarray()
            np.testing.assert_allclose(C_k.T @ M_k @ C_k, I, atol=1e-12)
            np.testing.assert_allclose(R_k.T @ C_k, I, atol=1e-12)
        # C C^T = M_D^{-1}
        assert relative_error(C @ (C.T @ (setup.M_D @ X)), X) <= 1e-12
        # C^T A C = W^T W + tau I, densely
        W = basis.W.tocsr()
        WtW = (W.T @ W).toarray()
        for tau in (1e-4, 1.0):
            ref = C.T @ system_matrix(setup, tau).A.toarray() @ C
            got = WtW + tau * np.eye(N)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        # the four operators' applies (identity factors skipped) against
        # their assembled matrices
        Y = rng.standard_normal((W.shape[0], 3))
        for op, ref, x in ((basis.forward, C.T, X), (basis.backward, C, X),
                           (basis.W, W, X), (basis.W_T, W.T, Y)):
            assert relative_error(op.apply(x), ref @ x) <= 1e-13
            assert relative_error(op.apply(x[:, 0]), ref @ x[:, 0]) <= 1e-13

    @pytest.mark.parametrize("bc", ["essential", "natural"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("operator", ["curl", "div"])
    def test_range_laplacian_is_a_kronecker_sum(self, operator, dim, p, bc):
        # V diag(mu) V^T with V orthogonal is the dense W W^T, plus
        # W_+^T W_+ on 3-D curl, W_+ the mass-basis W of the 3-D div
        # setup on the same mesh and bc
        for n in (2, 4):
            basis = system_setup(operator, dim, p, n, bc=bc).mass_basis
            W = basis.W.tocsr().toarray()
            L = W @ W.T
            if (operator, dim) == ("curl", 3):
                W_next = system_setup("div", 3, p, n, bc=bc).mass_basis.W.tocsr()
                L += (W_next.T @ W_next).toarray()
            V = basis.laplacian.U.tocsr().toarray()
            mu = basis.laplacian.eigenvalues()
            assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-14
            assert np.abs((V * mu) @ V.T - L).max() <= 1e-14 * np.abs(L).max()
            assert np.array_equal(basis.laplacian.U_T.tocsr().toarray(), V.T)

    @pytest.mark.parametrize("operator, dim, dropped", [
        ("curl", 2, 1), ("div", 2, 1), ("div", 3, 1), ("curl", 3, 0)])
    def test_null_modes_of_the_range_laplacian(self, operator, dim, dropped):
        # a scalar range (essential bc) drops its constant, exactly one
        # mode, far below the tolerance; on 3-D curl L = W W^T + W_+^T W_+
        # is SPD and keeps all, far above it
        for p, n in ((1, 3), (2, 4), (3, 3)):
            basis = system_setup(operator, dim, p, n).mass_basis
            mu, null = basis.laplacian.eigenvalues(), basis.mode_scale == 0.0
            assert np.count_nonzero(null) == dropped
            assert np.all(np.abs(mu[null]) <= 1e-14 * mu.max())
            assert mu[~null].min() > 1e6 * NULL_MODE_TOL * mu.max()
            assert np.array_equal(basis.mode_scale[~null], 1.0 / np.sqrt(mu[~null]))

    def test_one_single_axis_factor_per_block(self):
        # every block of W differentiates in one direction: its other
        # factors are identities, which the plan skips, so each block is
        # one matmul
        for operator, dim, blocks in (("curl", 2, 2), ("div", 2, 2),
                                      ("curl", 3, 6), ("div", 3, 3)):
            basis = system_setup(operator, dim, 2, 3).mass_basis
            for op in (basis.W, basis.W_T):
                steps = [steps for *_, terms in op.plan.runs for _, steps in terms]
                assert len(steps) == blocks
                assert all(len(block) == 1 for block in steps)

    def test_built_once_per_mesh(self):
        setup = system_setup("div", 3, 2, 3)
        assert setup.mass_basis is setup.mass_basis

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("bc", ["essential", "natural"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("operator", ["curl", "div"])
    def test_solve_matches_superlu(self, operator, dim, bc, p):
        # the exact solve against SuperLU of the CSR A, within kappa(A)
        # times the unit round-off (both carry errors of that size; measured
        # up to 0.31 kappa(A) eps) plus 100 eps (where kappa(A) < 4 at tau
        # = 1e4 they differ by up to 14 eps), for (N,) and (N, 2) inputs
        rng = np.random.default_rng(p)
        for n in (2, 3, 4, 5):
            setup = system_setup(operator, dim, p, n, bc=bc)
            basis = setup.mass_basis
            for tau in (1e-4, 1.0, 1e4):
                A = system_matrix(setup, tau).A
                lam = np.linalg.eigvalsh(A.toarray())
                bound = (lam[-1] / lam[0] + 100.0) * np.finfo(float).eps
                B = rng.standard_normal((A.shape[0], 2))
                ref = spla.splu(A.tocsc()).solve(B)
                X = basis.solve(B, tau)
                assert X.shape == B.shape
                assert relative_error(X, ref) <= bound, (n, tau)
                assert np.array_equal(basis.solve(B[:, 0], tau), X[:, 0])


class TestCsrOnDemand:
    """A without assembly: its diagonal from the setup, its product by
    the measured rule, and its CSR only where that product or a reader
    needs it."""

    @given(st.sampled_from(["curl", "div"]), st.sampled_from([2, 3]),
           st.sampled_from(["natural", "essential"]),
           st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=3),
           st.lists(st.integers(min_value=2, max_value=4), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_matches_assembled(self, operator, dim, bc, p, n):
        # per-direction degrees and element counts (anisotropic meshes)
        setup = system_setup(operator, dim, tuple(p[:dim]), tuple(n[:dim]),
                             bc=bc)
        for tau in (1e-4, 1.0, 1e4):
            # the bare system: below the rule system_matrix assembles A
            system = AssembledSystem(setup, tau)
            diagonal = system.diagonal
            assert "A" not in vars(system)
            ref = system.A.diagonal()
            assert np.all(np.abs(diagonal - ref) <= 1e-14 * np.abs(ref))

    def test_assembled_on_first_read_only(self):
        # past the rule A is built on its first read only; below it
        # system_matrix has built the product CG takes
        system = system_matrix(system_setup("curl", 3, 2, 8), 1.0)
        assert system.setup.factored_product_wins
        assert "A" not in vars(system)
        assert system.A is system.A
        below = system_matrix(system_setup("curl", 2, 2, 4), 1.0)
        assert not below.setup.factored_product_wins
        assert "A" in vars(below)
        assert below.A is below.A

    @pytest.mark.parametrize("operator, dim, p, n, factored", [
        # every sweep2d cell: 2-D curl, p 1..3, n 8 and 16
        *(("curl", 2, p, n, False) for p in (1, 2, 3) for n in (8, 16)),
        # the cube3d cells and 2-D p=6 n=64
        ("curl", 3, 2, 16, True), ("div", 3, 3, 8, True),
        ("curl", 2, 6, 64, True),
        # measured on either side of the rule
        ("curl", 2, 3, 32, True), ("curl", 2, 2, 32, False),
        ("curl", 3, 2, 8, True), ("div", 3, 2, 8, True),
        ("curl", 2, 1, 64, False), ("curl", 3, 1, 16, False)])
    def test_product_rule(self, operator, dim, p, n, factored):
        space = build_space(operator, p, n, dim=dim, bc="essential")
        assert factored_product_wins(space) is factored

    def test_rule_is_derived_from_the_space(self):
        # the setup's flag is the rule of its space, and no caller sets it
        for p, n in ((2, 8), (1, 8)):
            setup = system_setup("curl", 3, p, n)
            assert setup.factored_product_wins is factored_product_wins(setup.space)
            with pytest.raises(TypeError):
                dataclasses.replace(setup, factored_product_wins=False)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setup.factored_product_wins = False

    def test_product_follows_the_rule(self):
        rng = np.random.default_rng(0)
        below = system_matrix(system_setup("curl", 2, 2, 8), 1e-2)
        assert not below.setup.factored_product_wins
        x = rng.standard_normal((below.shape[0], 3))
        assert np.array_equal(below.apply(x), below.A @ x)    # the CSR A's
        past = system_matrix(system_setup("curl", 3, 2, 8), 1e-2)
        assert past.setup.factored_product_wins
        x = rng.standard_normal(past.shape[0])
        y = past.apply(x)
        assert "A" not in vars(past)
        assert relative_error(y, past.A @ x) <= 1e-13


class TestColumnPanels:
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=200),
           st.sampled_from(["csr", "csc", "coo"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_panels_equal_sliced_columns(self, n_rows, n_cols, fmt, seed):
        # each panel, cut from its range of indptr, against scipy's column
        # slice of the CSC matrix, bit for bit; empty columns and a last
        # panel narrower than 64 included
        rng = np.random.default_rng(seed)
        F = sp.random(n_rows, n_cols, density=0.1, format=fmt, random_state=rng)
        C = sp.csc_matrix(F)
        at = 0
        for columns, panel in assembly.column_panels(F):
            assert columns == slice(at, min(at + 64, n_cols))
            ref = C[:, columns].toarray()
            assert panel.dtype == ref.dtype
            np.testing.assert_array_equal(panel, ref)
            at = columns.stop
        assert at == n_cols


class TestSectorFactors:
    """A's blocks in the space's sectors from the per-mesh factors of the
    setup, against the sparse products with the CSR A (the oracle)."""

    @pytest.mark.parametrize("operator, dim, p, n", [
        ("curl", 2, 2, 8), ("div", 2, 3, 8), ("div", 3, 2, 3),     # CSR A
        ("curl", 2, 3, 27), ("div", 3, 2, 8)])                     # factored
    def test_blocks_match_the_sparse_products(self, operator, dim, p, n,
                                              monkeypatch):
        setup = system_setup(operator, dim, p, n)
        sectors = setup.space.sectors
        factored = factored_product_wins(setup.space)
        builds = []
        build = assembly.SystemSetup.sector_factors.func
        counted = cached_property(lambda s: builds.append(1) or build(s))
        counted.__set_name__(assembly.SystemSetup, "sector_factors")
        monkeypatch.setattr(assembly.SystemSetup, "sector_factors", counted)
        systems = [system_matrix(setup, tau) for tau in (1e-4, 1.0, 1e4)]
        blocks = [s.sector_blocks() for s in systems]
        factors = setup.sector_factors
        # built once per mesh, on either side of the rule: the later taus
        # read the first one's factors, the sparse products with K and M_D
        assert builds == [1]
        assert setup.sector_factors is factors
        assert {"stiffness", "M_D"} <= set(vars(setup))
        if factored:
            assert not any("A" in vars(system) for system in systems)
        for system, per_tau in zip(systems, blocks):
            assert len(per_tau) == len(sectors)
            for Q, block in zip(sectors, per_tau):
                ref = (Q.T @ system.A @ Q).toarray()
                assert np.linalg.norm(block - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_one_block_path_takes_the_panels(self):
        # off the sectored path dense kappa materializes A from panels of
        # the identity: the CSR A entry for entry, with no sector factors
        system = system_matrix(system_setup("curl", 2, 2, 8), 1.0)
        assert np.array_equal(_dense(system), system.A.toarray())
        assert "sector_factors" not in vars(system.setup)


class TestFactoredDiagonals:
    """The Jacobi diagonals from the 1-D factors against the sparse
    products they replace, which stay here as the oracles."""

    @given(st.sampled_from(["curl", "div"]), st.sampled_from([2, 3]),
           st.sampled_from(["natural", "essential"]),
           st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3),
           st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_match_sparse_products(self, operator, dim, bc, p, n):
        # per-direction degrees and element counts (anisotropic meshes)
        setup = system_setup(operator, dim, tuple(p[:dim]), tuple(n[:dim]),
                             bc=bc)

        def assert_close(got, ref):
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        D = setup.D_mat
        assert_close(setup.stiffness_diagonal,
                     np.asarray(D.multiply(setup.M_range @ D).sum(axis=0)).ravel())
        assert_close(setup.M_D_op.diagonal(), setup.M_D.diagonal())
        if dim == 3:
            # the diag curl smoother's diag(Q_curl): the 3-D div setup's
            # factored C (its transfer set's T_op; a natural-bc setup has
            # no transfer set) congruent to its factored M_div
            div = setup if operator == "div" else system_setup(
                "div", 3, tuple(p), tuple(n), bc=bc)
            spaces = div.disc.spaces
            C_op = (build_transfer_set(div).T_op if bc == "essential" else
                    differential_blocks(spaces["curl"], spaces["div"]))
            assert_close(C_op.congruence(div.M_D_op).diagonal(),
                         q_curl(div.disc)[0].diagonal())


def dense_grid_coefficients(space, funcs, factor_pairs):
    """Oracle of ``field_coefficients``: the callables sampled on full
    ``np.meshgrid`` copies of the tensor grid."""
    out = []
    for comp, fc in zip(space.components, funcs):
        pairs = factor_pairs(comp)
        grids = np.meshgrid(*(x for x, _ in pairs), indexing="ij")
        F = np.broadcast_to(np.asarray(fc(*grids), dtype=float), grids[0].shape)
        out.append(kron_apply([T for _, T in pairs], F[None]).ravel())
    return np.concatenate(out)


class TestAssembleRhs:
    def test_constant_field_component_sums(self):
        # for f = 1, b_r = integral of the r-th basis function; B bases
        # sum to the partition of unity (total 1 per B direction) and
        # each D function has unit integral, so a (D,B) component sums
        # to the D dimension
        setup = system_setup("curl", 2, 2, 3, bc="natural")
        space = setup.space
        b = assemble_rhs(setup, [lambda x, y: np.ones_like(x)] * 2)
        n0 = space.component_dims[0]
        n_d = space.components[0][0].dim
        assert abs(b[:n0].sum() - n_d) <= 1e-12
        assert abs(b[n0:].sum() - n_d) <= 1e-12

    def test_matches_mass_times_interpolant(self):
        # oracle: for a field inside the space, b = M u exactly
        setup = system_setup("curl", 2, 2, 3, bc="natural")
        # (x y, x y) is in the space (both factors of each component
        # reproduce linears); the commuting projector reproduces it
        from iga_asp.bench import quasi_interpolant_coefficients
        f = [lambda x, y: x * y] * 2
        u = quasi_interpolant_coefficients(setup.space, f)
        b = assemble_rhs(setup, f)
        np.testing.assert_allclose(b, setup.M_D @ u, atol=1e-13)

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError):
            assemble_rhs(system_setup("curl", 2, 2, 3, bc="natural"),
                         [lambda x, y: x])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sparse_grid_matches_dense_grid(self, dim):
        # the callables see the sparse axes of the grid; fields of one
        # coordinate, e.g. (1, n)-shaped samples, and constants broadcast
        # to the values of the dense grid, bit for bit
        from iga_asp.bench import quasi_interpolant_coefficients
        setup = system_setup("curl", dim, 2, 3)
        space = setup.space
        funcs = [lambda *xs, k=k: np.cos(3.0 * xs[k]) for k in range(dim)]
        for fields in (funcs, funcs[::-1], [lambda *xs: 2.5] * dim):
            pairs = {}
            quasi_interpolant_coefficients(space, fields, pairs)
            for factor_pairs in (
                    lambda comp: [setup.load_bases[f] for f in comp],
                    lambda comp: [pairs[f] for f in comp]):
                got = field_coefficients(space, fields, factor_pairs)
                ref = dense_grid_coefficients(space, fields, factor_pairs)
                assert np.array_equal(got, ref)


class TestManifestAndExport:
    def test_manifest_round_trips_json(self):
        system = system_matrix(system_setup("curl", 2, 2, 4), 1e-2)
        manifest = system_manifest(system)
        loaded = json.loads(json.dumps(manifest))
        assert loaded["problem"]["operator"] == "curl"
        assert loaded["problem"]["tau"] == 1e-2
        assert loaded["nnz"]["A"] == system.A.nnz
        assert set(loaded["checksums"]) == {"A", "M_D", "D_mat"}

    def test_manifest_checksums_deterministic(self):
        m1 = system_manifest(system_matrix(system_setup("div", 2, 2, 4), 1e-3))
        m2 = system_manifest(system_matrix(system_setup("div", 2, 2, 4), 1e-3))
        assert m1 == m2

    def test_export_round_trip(self, tmp_path):
        import scipy.io as sio
        system = system_matrix(system_setup("curl", 2, 2, 3), 1e-2,
                               [lambda x, y: x, lambda x, y: y])
        written = export_matrix_market(system, tmp_path)
        assert set(written) == {"A.mtx", "M_D.mtx", "M_range.mtx",
                                "D_mat.mtx", "b.mtx", "manifest.json"}
        A_back = sio.mmread(tmp_path / "A.mtx").tocsr()
        assert abs(A_back - system.A).max() <= 1e-15
        b_back = np.asarray(sio.mmread(tmp_path / "b.mtx")).ravel()
        np.testing.assert_allclose(b_back, system.b, atol=1e-15)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nnz"]["A"] == system.A.nnz
