"""Global assembly: system, mass, H1, Laplacian matrices and load vectors."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from iga_asp.assembly import (
    assemble_rhs,
    curl_stiffness_matrix,
    discretize,
    export_matrix_market,
    h1_vector_matrix,
    mass_matrix,
    scalar_laplacian_matrix,
    system_manifest,
    system_matrix,
    system_setup,
)
from iga_asp.derham import build_space, differential_matrix, kron_blocks
from iga_asp.splines1d import make_quadrature, mass_matrix_1d, stiffness_matrix_1d


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
            discretize(1, 2, dim=2, bc="essential")).toarray()
        np.testing.assert_allclose(L, [[8.0 / 3.0]], atol=1e-14)

    def test_matches_gradient_route(self):
        # dual route: L = G^T M_curl G with the exact difference matrix
        grad = build_space("grad", 2, 4, dim=2, bc="essential")
        curl = build_space("curl", 2, 4, dim=2, bc="essential")
        G = differential_matrix(grad, curl)
        disc = discretize(2, 4, dim=2, bc="essential")
        L = scalar_laplacian_matrix(disc)
        M_curl = mass_matrix(disc, "curl")
        np.testing.assert_allclose(L.toarray(), (G.T @ M_curl @ G).toarray(),
                                   atol=1e-12)

    def test_natural_bc_rejected(self):
        with pytest.raises(ValueError):
            scalar_laplacian_matrix(discretize(2, 4, dim=2, bc="natural"))


class TestH1VectorMatrix:
    def test_block_diagonal_of_scalar_h1(self):
        disc = discretize(2, 3, dim=2, bc="essential")
        H = h1_vector_matrix(disc).toarray()
        L = scalar_laplacian_matrix(disc).toarray()
        M = mass_matrix(disc, "grad").toarray()
        block = L + M
        n = block.shape[0]
        np.testing.assert_allclose(H[:n, :n], block, atol=1e-12)
        np.testing.assert_allclose(H[n:, n:], block, atol=1e-12)
        np.testing.assert_allclose(H[:n, n:], 0.0, atol=1e-15)


class TestCurlStiffness:
    def test_matches_curl_route(self):
        disc = discretize(2, 2, dim=3, bc="essential")
        C = differential_matrix(disc.spaces["curl"], disc.spaces["div"])
        M_div = mass_matrix(disc, "div")
        Q = curl_stiffness_matrix(C, M_div)
        np.testing.assert_allclose(Q.toarray(), (C.T @ M_div @ C).toarray(),
                                   atol=1e-13)


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
    return kron_blocks(rows)


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
