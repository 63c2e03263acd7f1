"""Univariate spline machinery: bases, quadrature, 1-D matrix factories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iga_asp.splines1d import (
    KnotVector,
    Space1D,
    basis_values,
    difference_matrix_1d,
    eval_bspline,
    eval_nonzero_row,
    greville_points,
    histopolation_matrix_1d,
    interpolation_matrix_1d,
    make_quadrature,
    make_uniform_open_knots,
    mass_matrix_1d,
    stiffness_matrix_1d,
)


def curry_schoenberg(kv: KnotVector, j: int, t: float) -> float:
    """Oracle of the 'D' basis: the value of the Curry-Schoenberg function
    D_{j,p-1}(t) = p / (t_{j+p+1} - t_{j+1}) * B_{j+1,p-1}(t) over the
    parent knots, point by point from ``eval_bspline`` of the reduced
    knot vector; each D function has unit integral."""
    p = kv.degree
    if p < 1:
        raise ValueError("Curry-Schoenberg basis needs degree >= 1")
    if not 0 <= j < kv.n - 1:
        raise IndexError(f"index {j} out of range [0, {kv.n - 1})")
    knots = np.asarray(kv.knots)
    scale = p / (knots[j + p + 1] - knots[j + 1])
    return scale * eval_bspline(kv.reduced(), j, t)


class TestKnotVector:
    def test_uniform_two_elements_linear(self):
        kv = make_uniform_open_knots(2, 1)
        assert kv.knots == (0.0, 0.0, 0.5, 1.0, 1.0)
        assert kv.n == 3

    def test_single_element_quadratic_is_bernstein(self):
        kv = make_uniform_open_knots(1, 2)
        assert kv.knots == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        assert kv.n == 3

    def test_basis_count(self):
        assert make_uniform_open_knots(8, 3).n == 11

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_uniform_open_knots(2, 0)
        with pytest.raises(ValueError):
            make_uniform_open_knots(0, 2)

    def test_rejects_unsorted_knots(self):
        with pytest.raises(ValueError):
            KnotVector(1, (0.0, 0.0, 0.7, 0.3, 1.0, 1.0))

    def test_rejects_excess_interior_multiplicity(self):
        with pytest.raises(ValueError):
            KnotVector(1, (0.0, 0.0, 0.5, 0.5, 1.0, 1.0))


class TestEvalBspline:
    def test_degree_zero_indicator(self):
        kv = KnotVector(0, (0.0, 0.5, 1.0))
        assert eval_bspline(kv, 0, 0.25) == 1.0
        assert eval_bspline(kv, 0, 0.75) == 0.0

    def test_linear_hat(self):
        kv = make_uniform_open_knots(2, 1)
        assert eval_bspline(kv, 1, 0.5) == 1.0
        assert eval_bspline(kv, 1, 0.25) == 0.5

    def test_closed_right_end(self):
        kv = make_uniform_open_knots(4, 3)
        assert eval_bspline(kv, kv.n - 1, 1.0) == 1.0

    def test_index_out_of_range(self):
        kv = make_uniform_open_knots(2, 1)
        with pytest.raises(IndexError):
            eval_bspline(kv, 3, 0.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_partition_of_unity(self, t):
        kv = make_uniform_open_knots(8, 4)
        total = sum(eval_bspline(kv, i, t) for i in range(kv.n))
        assert abs(total - 1.0) <= 1e-12

    def test_local_support(self):
        kv = make_uniform_open_knots(8, 3)
        knots = np.asarray(kv.knots)
        for i in (0, 4, kv.n - 1):
            for t in np.linspace(0.0, 1.0, 41):
                if not (knots[i] <= t <= knots[i + kv.degree + 1]):
                    assert eval_bspline(kv, i, t) == 0.0

    def test_non_negative(self):
        kv = make_uniform_open_knots(5, 3)
        for t in np.linspace(0.0, 1.0, 33):
            for i in range(kv.n):
                assert eval_bspline(kv, i, t) >= 0.0


class TestEvalNonzeroRow:
    def test_linear_midspan(self):
        kv = make_uniform_open_knots(2, 1)
        first, vals, _ = eval_nonzero_row(kv, 0.25)
        assert first == 0
        np.testing.assert_allclose(vals, [0.5, 0.5])

    def test_derivatives_sum_to_zero(self):
        kv = make_uniform_open_knots(4, 3)
        for t in (0.1, 0.33, 0.61, 0.9):
            _, _, ders = eval_nonzero_row(kv, t)
            assert abs(ders.sum()) <= 1e-12

    def test_matches_direct_recursion(self):
        # oracle: the naive per-index Cox-de Boor recursion
        rng = np.random.default_rng(7)
        for p in (1, 2, 3, 5):
            kv = make_uniform_open_knots(6, p)
            for t in rng.uniform(0.0, 1.0, 50):
                first, vals, _ = eval_nonzero_row(kv, t)
                dense = np.zeros(kv.n)
                dense[first: first + p + 1] = vals
                direct = np.array([eval_bspline(kv, i, t) for i in range(kv.n)])
                np.testing.assert_allclose(dense, direct, atol=1e-13)

    def test_derivative_matches_finite_differences(self):
        kv = make_uniform_open_knots(5, 3)
        h = 1e-6
        for t in (0.15, 0.42, 0.77):
            first, _, ders = eval_nonzero_row(kv, t)
            for k in range(kv.degree + 1):
                i = first + k
                fd = (eval_bspline(kv, i, t + h) - eval_bspline(kv, i, t - h)) / (2 * h)
                assert abs(ders[k] - fd) <= 1e-5


class TestCurrySchoenberg:
    def test_unit_integrals(self):
        # oracle: high-order Gauss quadrature; analytically 1 by scaling
        kv = make_uniform_open_knots(4, 3)
        quad = make_quadrature(kv, order=10)
        x, w = quad.flat_nodes, quad.flat_weights
        for j in range(kv.n - 1):
            integral = np.sum(w * [curry_schoenberg(kv, j, t) for t in x])
            assert abs(integral - 1.0) <= 1e-12

    def test_piecewise_constant_case(self):
        kv = make_uniform_open_knots(2, 1)
        assert curry_schoenberg(kv, 0, 0.25) == 2.0

    def test_degree_zero_rejected(self):
        kv = KnotVector(0, (0.0, 0.5, 1.0))
        with pytest.raises(ValueError):
            curry_schoenberg(kv, 0, 0.25)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_derivative_identity(self, p, n_elems, seed):
        # d/dt sum(c_i B_i) = sum(diff(c)_j D_j), checked pointwise
        # against a finite-difference oracle
        kv = make_uniform_open_knots(n_elems, p)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(kv.n)
        d = np.diff(c)
        h = 1e-6
        for t in rng.uniform(2 * h, 1.0 - 2 * h, 5):
            fd = sum(c[i] * (eval_bspline(kv, i, t + h) - eval_bspline(kv, i, t - h))
                     for i in range(kv.n)) / (2 * h)
            val = sum(d[j] * curry_schoenberg(kv, j, t) for j in range(kv.n - 1))
            assert abs(val - fd) <= 1e-4 * max(1.0, np.abs(c).max())


class TestGrevillePoints:
    def test_linear_case_is_breakpoints(self):
        kv = make_uniform_open_knots(2, 1)
        np.testing.assert_allclose(greville_points(kv), [0.0, 0.5, 1.0])

    def test_bernstein_case(self):
        kv = make_uniform_open_knots(1, 2)
        np.testing.assert_allclose(greville_points(kv), [0.0, 0.5, 1.0])

    def test_linear_reproduction(self):
        kv = make_uniform_open_knots(6, 4)
        g = greville_points(kv)
        for t in (0.0, 0.21, 0.5, 0.83, 1.0):
            val = sum(g[i] * eval_bspline(kv, i, t) for i in range(kv.n))
            assert abs(val - t) <= 1e-12

    def test_endpoints_and_monotone(self):
        kv = make_uniform_open_knots(7, 3)
        g = greville_points(kv)
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)


class TestQuadrature:
    def test_weights_sum_to_span_lengths(self):
        kv = make_uniform_open_knots(4, 2)
        quad = make_quadrature(kv)
        np.testing.assert_allclose(quad.weights.sum(axis=1), 0.25)

    def test_polynomial_exactness(self):
        kv = make_uniform_open_knots(3, 2)
        quad = make_quadrature(kv)        # q = p + 2 = 4 points per span
        x, w = quad.flat_nodes, quad.flat_weights
        for deg in range(2 * quad.order):
            assert abs(np.sum(w * x**deg) - 1.0 / (deg + 1)) <= 1e-14


class TestMassMatrix:
    def test_single_element_linear(self):
        kv = make_uniform_open_knots(1, 1)
        space = Space1D(kv, kind="B", bc="free")
        M = mass_matrix_1d(space, make_quadrature(kv)).toarray()
        np.testing.assert_allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)

    def test_total_sum_is_one(self):
        for p, n in [(1, 4), (3, 5)]:
            kv = make_uniform_open_knots(n, p)
            space = Space1D(kv, kind="B", bc="free")
            M = mass_matrix_1d(space, make_quadrature(kv))
            assert abs(M.sum() - 1.0) <= 1e-13

    def test_matches_overresolved_quadrature(self):
        kv = make_uniform_open_knots(8, 4)
        space = Space1D(kv, kind="B", bc="free")
        M = mass_matrix_1d(space, make_quadrature(kv)).toarray()
        oracle = mass_matrix_1d(space, make_quadrature(kv, order=64)).toarray()
        np.testing.assert_allclose(M, oracle, atol=1e-13)

    def test_spd_and_banded(self):
        kv = make_uniform_open_knots(6, 3)
        space = Space1D(kv, kind="B", bc="free")
        M = mass_matrix_1d(space, make_quadrature(kv)).toarray()
        assert np.linalg.eigvalsh(M).min() > 0.0
        for (i, j), v in np.ndenumerate(M):
            if abs(i - j) > kv.degree:
                assert v == 0.0

    def test_zero_bc_equals_sliced_free_mass(self):
        kv = make_uniform_open_knots(5, 2)
        free = Space1D(kv, kind="B", bc="free")
        zero = Space1D(kv, kind="B", bc="zero")
        quad = make_quadrature(kv)
        sliced = mass_matrix_1d(free, quad).toarray()[1:-1, 1:-1]
        direct = mass_matrix_1d(zero, quad)
        np.testing.assert_allclose(direct.toarray(), sliced, atol=1e-14)


class TestStiffnessMatrix:
    def test_single_interior_hat(self):
        # exact piecewise integral: the interior hat on two h=1/2 spans
        # has slope +-2, so the energy is 2^2*(1/2) + 2^2*(1/2) = 4
        kv = make_uniform_open_knots(2, 1)
        space = Space1D(kv, kind="B", bc="zero")
        K = stiffness_matrix_1d(space, make_quadrature(kv)).toarray()
        np.testing.assert_allclose(K, [[4.0]], atol=1e-14)

    def test_constants_in_kernel_for_free_space(self):
        kv = make_uniform_open_knots(5, 3)
        space = Space1D(kv, kind="B", bc="free")
        K = stiffness_matrix_1d(space, make_quadrature(kv))
        np.testing.assert_allclose(K @ np.ones(space.dim), 0.0, atol=1e-12)

    def test_matches_overresolved_quadrature(self):
        kv = make_uniform_open_knots(6, 4)
        space = Space1D(kv, kind="B", bc="free")
        K = stiffness_matrix_1d(space, make_quadrature(kv)).toarray()
        oracle = stiffness_matrix_1d(space, make_quadrature(kv, order=64)).toarray()
        np.testing.assert_allclose(K, oracle, atol=1e-12)

    def test_spd_for_zero_trace(self):
        kv = make_uniform_open_knots(6, 2)
        space = Space1D(kv, kind="B", bc="zero")
        K = stiffness_matrix_1d(space, make_quadrature(kv)).toarray()
        assert np.linalg.eigvalsh(K).min() > 0.0


class TestDifferenceMatrix:
    def test_explicit_form(self):
        D = difference_matrix_1d(3).toarray()
        np.testing.assert_array_equal(D, [[-1, 1, 0], [0, -1, 1]])

    def test_constants_in_kernel(self):
        D = difference_matrix_1d(7)
        assert np.all((D @ np.ones(7)) == 0)

    def test_greville_coefficients_of_identity(self):
        # the derivative of the spline interpolating t has D-basis
        # coefficients equal to the Greville gaps; oracle: pointwise
        # evaluation of the D expansion against the constant 1
        kv = make_uniform_open_knots(5, 3)
        g = greville_points(kv)
        d = difference_matrix_1d(kv.n) @ g
        np.testing.assert_allclose(d, np.diff(g), atol=1e-15)
        for t in (0.13, 0.5, 0.87):
            val = sum(d[j] * curry_schoenberg(kv, j, t) for j in range(kv.n - 1))
            assert abs(val - 1.0) <= 1e-12


class TestInterpolationMatrix:
    def test_linear_case_is_identity(self):
        kv = make_uniform_open_knots(4, 1)
        space = Space1D(kv, kind="B", bc="free")
        A = interpolation_matrix_1d(space).toarray()
        np.testing.assert_allclose(A, np.eye(kv.n), atol=1e-15)

    def test_row_sums_one(self):
        kv = make_uniform_open_knots(6, 4)
        space = Space1D(kv, kind="B", bc="free")
        A = interpolation_matrix_1d(space)
        np.testing.assert_allclose(np.asarray(A.sum(axis=1)).ravel(), 1.0, atol=1e-13)

    def test_spline_reproduction(self):
        # oracle: interpolating a spline's own Greville values recovers
        # its coefficients
        kv = make_uniform_open_knots(7, 3)
        space = Space1D(kv, kind="B", bc="free")
        A = interpolation_matrix_1d(space).toarray()
        rng = np.random.default_rng(11)
        c = rng.standard_normal(kv.n)
        g = greville_points(kv)
        values = np.array([sum(c[i] * eval_bspline(kv, i, t) for i in range(kv.n))
                           for t in g])
        np.testing.assert_allclose(np.linalg.solve(A, values), c, atol=1e-12)


class TestHistopolationMatrix:
    def test_constants_preserved(self):
        # Q maps the all-ones coefficient vector (the constant 1) to the
        # D-basis coefficients of 1, which are the Greville gaps
        for p, n in [(1, 2), (2, 4), (3, 5), (4, 6)]:
            kv = make_uniform_open_knots(n, p)
            space = Space1D(kv, kind="B", bc="free")
            Q = histopolation_matrix_1d(space)
            np.testing.assert_allclose(Q @ np.ones(kv.n),
                                       np.diff(greville_points(kv)), atol=1e-12)

    def test_matches_greville_interval_integrals(self):
        # defining property: the projection matches the input's
        # integrals over consecutive Greville intervals (quadrature oracle)
        rng = np.random.default_rng(3)
        for p, n in [(1, 2), (1, 16), (2, 4), (3, 5), (4, 7), (4, 16),
                     (6, 6), (6, 16)]:
            kv = make_uniform_open_knots(n, p)
            space = Space1D(kv, kind="B", bc="free")
            Q = histopolation_matrix_1d(space)
            c = rng.standard_normal(kv.n)
            d = Q @ c
            g = greville_points(kv)
            d_space = Space1D(kv, kind="D")
            xs0, ws0 = np.polynomial.legendre.leggauss(12)

            def integrate(vec, sp1d, a, b):
                # panels split at interior breakpoints so Gauss is exact
                cuts = np.concatenate(
                    [[a], [t for t in kv.breakpoints if a < t < b], [b]])
                total = 0.0
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    xs = lo + (hi - lo) * (xs0 + 1) / 2
                    ws = ws0 * (hi - lo) / 2
                    total += np.sum(ws * (basis_values(sp1d, xs) @ vec))
                return total

            for k in range(len(g) - 1):
                s_int = integrate(c, space, g[k], g[k + 1])
                q_int = integrate(d, d_space, g[k], g[k + 1])
                assert abs(s_int - q_int) <= 1e-10

    def test_shape(self):
        kv = make_uniform_open_knots(5, 2)
        space = Space1D(kv, kind="B", bc="free")
        Q = histopolation_matrix_1d(space)
        assert Q.shape == (kv.n - 1, kv.n)


class TestStabilityConstants:
    def test_l2_stability_bracket_across_n(self):
        # scaled coefficient-to-L2 norm ratios stay bounded under
        # refinement for both bases
        rng = np.random.default_rng(5)
        for p in (2, 3):
            ratios_b, ratios_d = [], []
            for n in (8, 16, 32, 64):
                kv = make_uniform_open_knots(n, p)
                quad = make_quadrature(kv)
                b_space = Space1D(kv, kind="B", bc="free")
                d_space = Space1D(kv, kind="D")
                Mb = mass_matrix_1d(b_space, quad)
                Md = mass_matrix_1d(d_space, quad)
                cb = rng.standard_normal(b_space.dim)
                cd = rng.standard_normal(d_space.dim)
                h = 1.0 / n
                ratios_b.append(h * (cb @ cb) / (cb @ (Mb @ cb)))
                ratios_d.append((cd @ cd) / (h * (cd @ (Md @ cd))))
            assert max(ratios_b) / min(ratios_b) <= 3.0
            assert max(ratios_d) / min(ratios_d) <= 3.0
