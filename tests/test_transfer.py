"""Auxiliary-space transfer matrices and the 1-D commuting projectors."""

import numpy as np
import pytest

from iga_asp import derham, precond
from iga_asp.assembly import system_matrix, system_setup
from iga_asp.bench import quasi_interpolant_coefficients
from iga_asp.derham import build_space, differential_matrix, gradient_matrix
from iga_asp.krylov import pcg
from iga_asp.splines1d import (
    Space1D,
    difference_matrix_1d,
    eval_bspline,
    greville_points,
    make_uniform_open_knots,
)
from iga_asp.transfer import (
    build_p_curl,
    build_p_div,
    build_transfer_set,
    function_projection_1d,
)


def constant_coefficients(space, values):
    """Coefficients of the constant field ``values`` (one per component):
    ones for B factors, Greville gaps for D factors."""
    out = []
    for comp, v in zip(space.components, values):
        axes = [np.diff(greville_points(f.knot)) if f.kind == "D"
                else np.ones(f.dim) for f in comp]
        grid = axes[0]
        for a in axes[1:]:
            grid = np.multiply.outer(grid, a)
        out.append(v * grid.ravel())
    return np.concatenate(out)


class TestStructure:
    def test_p_curl_block_diagonal(self):
        xh = build_space("vector", 2, 3, dim=3)
        curl = build_space("curl", 2, 3, dim=3)
        P = build_p_curl(xh, curl).toarray()
        r0, c0 = curl.component_dims[0], xh.component_dims[0]
        assert np.all(P[:r0, c0:] == 0.0)
        assert np.all(P[r0:, :c0][: curl.component_dims[1]][:, : c0] == 0.0)

    def test_shapes(self):
        xh = build_space("vector", 3, 4, dim=2, bc="essential")
        curl = build_space("curl", 3, 4, dim=2, bc="essential")
        div = build_space("div", 3, 4, dim=2, bc="essential")
        assert build_p_curl(xh, curl).shape == (curl.total_dim, xh.total_dim)
        assert build_p_div(xh, div).shape == (div.total_dim, xh.total_dim)

    def test_wrong_target_rejected(self):
        xh = build_space("vector", 2, 3, dim=2)
        div = build_space("div", 2, 3, dim=2)
        with pytest.raises(ValueError):
            build_p_curl(xh, div)
        with pytest.raises(ValueError):
            build_p_div(xh, build_space("curl", 2, 3, dim=2))

    def test_mismatched_spaces_rejected(self):
        xh = build_space("vector", 2, 3, dim=2)
        curl = build_space("curl", 2, 4, dim=2)
        with pytest.raises(ValueError):
            build_p_curl(xh, curl)


class TestConstantsPreservation:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_p_curl_2d(self, p):
        xh = build_space("vector", p, 4, dim=2)
        curl = build_space("curl", p, 4, dim=2)
        P = build_p_curl(xh, curl)
        c_in = constant_coefficients(xh, (1.0, 1.0))
        c_out = constant_coefficients(curl, (1.0, 1.0))
        np.testing.assert_allclose(P @ c_in, c_out, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_p_div_3d(self, p):
        xh = build_space("vector", p, 3, dim=3)
        div = build_space("div", p, 3, dim=3)
        P = build_p_div(xh, div)
        c_in = constant_coefficients(xh, (1.0, 2.0, -3.0))
        c_out = constant_coefficients(div, (1.0, 2.0, -3.0))
        np.testing.assert_allclose(P @ c_in, c_out, atol=1e-12)


class TestCommuting:
    """Differential-after-transfer equals projection-of-differential on
    polynomial fields up to the space degree."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_scalar_curl_2d(self, p):
        xh = build_space("vector", p, 4, dim=2)
        curl = build_space("curl", p, 4, dim=2)
        l2 = build_space("l2", p, 4, dim=2)
        # phi = (x^p, x y^(p-1)); curl phi = y^(p-1) - 0*x... analytic:
        phi = [lambda x, y: x**p, lambda x, y: x * y ** (p - 1)]
        curl_phi = [lambda x, y: np.zeros_like(x) - y ** (p - 1)]
        # note d(phi1)/dy = 0, d(phi2)/dx = y^(p-1)
        c_xh = quasi_interpolant_coefficients(xh, phi)
        P = build_p_curl(xh, curl)
        R = differential_matrix(curl, l2)
        lhs = R @ (P @ c_xh)
        rhs = quasi_interpolant_coefficients(l2, curl_phi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_div_2d(self, p):
        xh = build_space("vector", p, 4, dim=2)
        div = build_space("div", p, 4, dim=2)
        l2 = build_space("l2", p, 4, dim=2)
        phi = [lambda x, y: x**p + y, lambda x, y: x * y ** (p - 1)]
        div_phi = [lambda x, y: p * x ** (p - 1) + (p - 1) * x * y ** (p - 2)]
        c_xh = quasi_interpolant_coefficients(xh, phi)
        P = build_p_div(xh, div)
        D = differential_matrix(div, l2)
        lhs = D @ (P @ c_xh)
        rhs = quasi_interpolant_coefficients(l2, div_phi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_curl_3d(self, p):
        xh = build_space("vector", p, 2, dim=3)
        curl = build_space("curl", p, 2, dim=3)
        div = build_space("div", p, 2, dim=3)
        phi = [lambda x, y, z: y * z,
               lambda x, y, z: x**p,
               lambda x, y, z: x * y]
        # curl phi = (dy(xy) - dz(x^p), dz(yz) - dx(xy), dx(x^p) - dy(yz))
        #          = (x, y - y, p x^(p-1) - z) = (x, 0, p x^(p-1) - z)
        curl_phi = [lambda x, y, z: x + np.zeros_like(y),
                    lambda x, y, z: np.zeros_like(x + y + z),
                    lambda x, y, z: p * x ** (p - 1) - z]
        c_xh = quasi_interpolant_coefficients(xh, phi)
        P = build_p_curl(xh, curl)
        C = differential_matrix(curl, div)
        lhs = C @ (P @ c_xh)
        rhs = quasi_interpolant_coefficients(div, curl_phi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestEssentialBc:
    def test_restricted_shapes(self):
        ts = build_transfer_set(system_setup("curl", 2, 2, 4))
        curl = build_space("curl", 2, 4, dim=2, bc="essential")
        xh = build_space("vector", 2, 4, dim=2, bc="essential")
        assert ts.P_main.shape == (curl.total_dim, xh.total_dim)

    def test_gradients_of_interior_potentials_round_trip(self):
        # G maps interior scalar potentials into V(curl); transferring
        # the same field through P o grad coefficients must agree for
        # spline inputs: grad X_h functions lie in V(curl) and the
        # projection reproduces them
        ts = build_transfer_set(system_setup("curl", 2, 2, 4))
        grad = build_space("grad", 2, 4, dim=2, bc="essential")
        curl = build_space("curl", 2, 4, dim=2, bc="essential")
        G = gradient_matrix(grad, curl)
        np.testing.assert_allclose((G - ts.potential).toarray(), 0.0, atol=0)


class TestBuildTransferSet:
    def test_curl_set(self):
        ts = build_transfer_set(system_setup("curl", 3, 2, 2))
        assert ts.P_curl is None

    def test_div_2d_set(self):
        ts = build_transfer_set(system_setup("div", 2, 2, 4))
        assert ts.P_curl is None
        div = build_space("div", 2, 4, dim=2, bc="essential")
        grad = build_space("grad", 2, 4, dim=2, bc="essential")
        assert ts.potential.shape == (div.total_dim, grad.total_dim)

    def test_div_3d_set(self):
        ts = build_transfer_set(system_setup("div", 3, 2, 2))
        assert ts.P_curl is not None
        div = build_space("div", 2, 2, dim=3, bc="essential")
        curl = build_space("curl", 2, 2, dim=3, bc="essential")
        assert ts.potential.shape == (div.total_dim, curl.total_dim)
        xh = build_space("vector", 2, 2, dim=3, bc="essential")
        assert ts.P_curl.shape == (curl.total_dim, xh.total_dim)

    def test_natural_bc_rejected(self):
        with pytest.raises(ValueError):
            build_transfer_set(system_setup("curl", 2, 2, 4, bc="natural"))

    @pytest.mark.parametrize("operator", ["curl", "div"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stored_transposes_give_the_bits_of_a_fresh_transpose(
            self, operator, dim):
        # the stored views share the CSR arrays and give M.T @ x bit for
        # bit, for vectors and blocks
        ts = build_transfer_set(system_setup(operator, dim, 2, 3))
        rng = np.random.default_rng(0)
        for name in ("P_main", "potential", "P_curl"):
            M, M_T = getattr(ts, name), getattr(ts, f"{name}_T")
            if M is None:
                assert M_T is None and (operator, dim) != ("div", 3)
                continue
            assert np.shares_memory(M_T.data, M.data)
            for shape in ((M.shape[0],), (M.shape[0], 5)):
                x = rng.standard_normal(shape)
                assert np.array_equal(M_T @ x, M.T @ x), name


# per problem: the named differential from its potential space, the kind
# of that space, and the kind of its range space
DIAGRAM = {("curl", 2): (derham.gradient_matrix, "grad", "l2"),
           ("curl", 3): (derham.gradient_matrix, "grad", "div"),
           ("div", 2): (derham.vector_curl_matrix, "grad", "l2"),
           ("div", 3): (derham.curl_matrix, "curl", "l2")}


@pytest.mark.parametrize("operator, dim", sorted(DIAGRAM))
def test_potential_and_range_follow_the_diagram(operator, dim):
    setup = system_setup(operator, dim, 2, 3)
    spaces = setup.disc.spaces
    named, potential, range_kind = DIAGRAM[(operator, dim)]
    ts = build_transfer_set(setup)
    assert (ts.potential != named(spaces[potential], setup.space)).nnz == 0
    assert (ts.P_curl is not None) == (potential == "curl")
    if ts.P_curl is not None:
        assert (ts.P_curl != build_p_curl(spaces["vector"], spaces["curl"])).nnz == 0
    assert derham.potential_and_range(operator, dim) == (potential, range_kind)
    assert setup.range_space is spaces[range_kind]


@pytest.mark.parametrize("kind, dim", [("grad", 2), ("l2", 3), ("curl", 4)])
def test_potential_and_range_name_a_space_without_a_problem(kind, dim):
    message = f"no problem on the '{kind}' space in dimension {dim}"
    with pytest.raises(ValueError, match=message):
        derham.potential_and_range(kind, dim)
    with pytest.raises(ValueError, match=message):
        system_setup(kind, dim, 2, 3)


class TestFunctionProjection1d:
    def test_b_factor_reproduces_splines(self):
        kv = make_uniform_open_knots(5, 3)
        factor = Space1D(kv, kind="B", bc="free")
        nodes, T = function_projection_1d(factor)
        rng = np.random.default_rng(9)
        c = rng.standard_normal(kv.n)
        f = np.array([sum(c[i] * eval_bspline(kv, i, t) for i in range(kv.n))
                      for t in nodes])
        np.testing.assert_allclose(T @ f, c, atol=1e-11)

    def test_d_factor_constants(self):
        kv = make_uniform_open_knots(4, 3)
        factor = Space1D(kv, kind="D")
        nodes, T = function_projection_1d(factor)
        np.testing.assert_allclose(T @ np.ones_like(nodes),
                                   np.diff(greville_points(kv)), atol=1e-12)

    def test_derivative_commutes_1d(self):
        # histopolation of f' equals the difference of the interpolation
        # of f, for polynomial f of degree <= p
        kv = make_uniform_open_knots(5, 3)
        b = Space1D(kv, kind="B", bc="free")
        d = Space1D(kv, kind="D")
        nb, Tb = function_projection_1d(b)
        nd, Td = function_projection_1d(d)
        Diff = difference_matrix_1d(kv.n).toarray()
        for k in range(1, kv.degree + 1):
            lhs = Td @ (k * nd ** (k - 1))
            rhs = Diff @ (Tb @ nb**k)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_zero_bc_b_factor_shape(self):
        kv = make_uniform_open_knots(5, 2)
        factor = Space1D(kv, kind="B", bc="zero")
        nodes, T = function_projection_1d(factor)
        assert T.shape == (kv.n - 2, len(nodes))


class TestFactoredTransfer:
    """The transfers onto the problem's space and (3-D div) onto its
    potential space, factored, against their CSR (the oracle), and their
    CSR built only when read, on every mesh."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("operator", ["curl", "div"])
    def test_factored_matches_csr(self, operator, dim, p, n):
        setup = system_setup(operator, dim, p, n)
        ts = build_transfer_set(setup)
        pairs = [(ts.P_op, ts.P_main), (ts.P_op_T, ts.P_main_T)]
        assert (ts.P_curl_op is None) == ((operator, dim) != ("div", 3))
        if ts.P_curl_op is not None:
            spaces = setup.disc.spaces
            P_curl = build_p_curl(spaces["vector"], spaces["curl"])
            pairs += [(ts.P_curl_op, P_curl), (ts.P_curl_op_T, P_curl.T)]
        rng = np.random.default_rng(n)
        for op, csr in pairs:
            assert op.shape == csr.shape
            for shape in ((csr.shape[1],), (csr.shape[1], 3)):
                x = rng.standard_normal(shape)
                ref = csr @ x
                y = op.apply(x)
                assert y.shape == ref.shape
                assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("operator, dim, p, n", [
        ("curl", 2, 1, 8), ("curl", 2, 3, 27), ("curl", 3, 2, 8),
        ("div", 3, 1, 4), ("div", 3, 3, 8)])
    def test_csr_built_only_when_read(self, operator, dim, p, n, monkeypatch):
        # on both sides of A's product rule: the ASP setup assembles no P
        # or P_curl, a converged solve assembles nothing (below the rule
        # system_matrix has assembled A), and dense kappa's Gram factors
        # build the CSR they read
        setup = system_setup(operator, dim, p, n)
        asp = precond.AspSetup(setup)
        ts = asp.transfers
        system = system_matrix(setup, 1e-2)
        B = precond.AspPreconditioner(asp, system)
        built = []
        monkeypatch.setattr(derham.KronBlocks, "tocsr",
                            lambda self: built.append(self))
        _, report = pcg(system, np.ones(system.shape[0]), B, tol=1e-6)
        monkeypatch.undo()
        assert report.converged and built == []
        csr = {"P_main", "P_main_T", "P_curl", "P_curl_T"}
        assert not csr & set(vars(ts))
        B.sector_blocks()
        read = {"P_main", "P_main_T"} | (
            {"P_curl", "P_curl_T"} if ts.P_curl_op is not None else set())
        assert csr & set(vars(ts)) == read
        assert ts.P_main is ts.P_main
        for name in read - {"P_main", "P_curl"}:
            assert np.shares_memory(getattr(ts, name).data,
                                    getattr(ts, name[:-2]).data)
