"""Univariate B-spline and Curry-Schoenberg machinery.

Knot vectors, basis evaluation, Greville points and their
antiderivative rule, Gauss-Legendre quadrature, and the 1-D matrix
factories (mass, stiffness, difference, interpolation, histopolation)
that all tensor-product assembly is built from.

Conventions
-----------
* All indices are 0-based.
* Knot vectors are open (non-periodic): the first and last knots are
  repeated ``p + 1`` times, the parametric domain is ``[0, 1]``.
* Evaluation at ``t = 1`` uses the closed-right-end convention, so the
  last basis function evaluates to 1 there.
* Assembled matrix entries with magnitude below ``DROP_TOL`` are
  discarded, which keeps band structures exact under round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DROP_TOL",
    "KnotVector",
    "Space1D",
    "QuadratureRule",
    "make_uniform_open_knots",
    "find_span",
    "eval_bspline",
    "eval_nonzero_row",
    "greville_points",
    "make_quadrature",
    "basis_values",
    "mass_matrix_1d",
    "stiffness_matrix_1d",
    "difference_matrix_1d",
    "interpolation_matrix_1d",
    "greville_rule",
    "histopolation_matrix_1d",
    "drop_small",
]

DROP_TOL = 1e-14


def drop_small(mat: sp.spmatrix, tol: float = DROP_TOL) -> sp.csr_matrix:
    """Return a CSR copy of ``mat`` with entries below ``tol`` removed."""
    out = sp.csr_matrix(mat)
    out.data[np.abs(out.data) < tol] = 0.0
    out.eliminate_zeros()
    out.sort_indices()
    return out


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector on [0, 1] for degree-``p`` B-splines."""

    degree: int
    knots: tuple[float, ...]

    def __post_init__(self) -> None:
        p = self.degree
        t = np.asarray(self.knots, dtype=float)
        if p < 0:
            raise ValueError("degree must be non-negative")
        if len(t) < 2 * (p + 1):
            raise ValueError("knot vector too short for degree")
        if np.any(np.diff(t) < 0):
            raise ValueError("knots must be non-decreasing")
        if not (np.all(t[: p + 1] == 0.0) and np.all(t[-(p + 1):] == 1.0)):
            raise ValueError("open knot vector must clamp 0 and 1 with multiplicity p+1")
        mults = _interior_multiplicities(t, p)
        if p >= 1 and mults.size and mults.max() > p:
            raise ValueError("interior knot multiplicity must be at most p")

    @property
    def n(self) -> int:
        """Number of B-spline basis functions."""
        return len(self.knots) - self.degree - 1

    @property
    def breakpoints(self) -> np.ndarray:
        return np.unique(np.asarray(self.knots))

    def reduced(self) -> "KnotVector":
        """Knot vector of the derivative space S^{p-1} (one endpoint
        repetition removed at each side)."""
        if self.degree < 1:
            raise ValueError("no reduced knot vector for degree 0")
        return KnotVector(self.degree - 1, self.knots[1:-1])


def _interior_multiplicities(t: np.ndarray, p: int) -> np.ndarray:
    interior = t[(t > 0.0) & (t < 1.0)]
    if interior.size == 0:
        return np.array([], dtype=int)
    _, counts = np.unique(interior, return_counts=True)
    return counts


def make_uniform_open_knots(n_elems: int, p: int) -> KnotVector:
    """Uniform open knot vector with ``n_elems`` elements, interior
    multiplicity 1 (maximal regularity); ``n = n_elems + p``."""
    if p < 1:
        raise ValueError("degree must be at least 1")
    if n_elems < 1:
        raise ValueError("need at least one element")
    breaks = np.linspace(0.0, 1.0, n_elems + 1)
    knots = np.concatenate([np.zeros(p), breaks, np.ones(p)])
    return KnotVector(p, tuple(knots))


def find_span(kv: KnotVector, t: float) -> int:
    """Index ``i`` with ``knots[i] <= t < knots[i+1]`` (last non-empty
    span at ``t = 1``)."""
    knots = np.asarray(kv.knots)
    p = kv.degree
    n = kv.n
    if t >= knots[n]:  # closed right end
        return n - 1
    if t <= knots[p]:
        return p
    return int(np.searchsorted(knots, t, side="right") - 1)


def eval_bspline(kv: KnotVector, i: int, t: float) -> float:
    """Value of B_{i,p}(t) by the plain Cox-de Boor recursion.

    A fraction with zero denominator is taken to be zero.  This routine
    is deliberately the naive per-index recursion; it doubles as the
    independent oracle for the span-based evaluator.
    """
    if not 0 <= i < kv.n:
        raise IndexError(f"basis index {i} out of range [0, {kv.n})")
    return _cox_de_boor(np.asarray(kv.knots), i, kv.degree, float(t))


def _cox_de_boor(knots: np.ndarray, i: int, p: int, t: float) -> float:
    if p == 0:
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        # closed right end: last non-empty span owns t = 1
        if t == knots[i + 1] == knots[-1] and knots[i] < knots[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    den = knots[i + p] - knots[i]
    if den > 0.0:
        left = (t - knots[i]) / den * _cox_de_boor(knots, i, p - 1, t)
    right = 0.0
    den = knots[i + p + 1] - knots[i + 1]
    if den > 0.0:
        right = (knots[i + p + 1] - t) / den * _cox_de_boor(knots, i + 1, p - 1, t)
    return left + right


def eval_nonzero_row(kv: KnotVector, t: float) -> tuple[int, np.ndarray, np.ndarray]:
    """All p+1 basis functions (and first derivatives) supported at ``t``.

    Returns ``(first_index, values, derivative_values)`` where
    ``values[k] = B_{first_index+k, p}(t)``.  Uses the standard
    span-based triangular scheme.
    """
    knots = np.asarray(kv.knots)
    p = kv.degree
    span = find_span(kv, t)
    N = np.zeros(p + 1)
    N[0] = 1.0
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
    # keep the degree p-1 row for the derivative formula
    N_prev = np.zeros(p + 1)
    for j in range(1, p + 1):
        left[j] = t - knots[span + 1 - j]
        right[j] = knots[span + j] - t
        if j == p:
            N_prev[:j] = N[:j]
        saved = 0.0
        for r in range(j):
            den = right[r + 1] + left[j - r]
            temp = N[r] / den if den > 0.0 else 0.0
            N[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        N[j] = saved
    if p == 0:
        return span, N.copy(), np.zeros(1)
    # first derivatives from the degree p-1 values on the same span
    ders = np.zeros(p + 1)
    for r in range(p + 1):
        d = 0.0
        if r > 0:
            den = knots[span + r] - knots[span + r - p]
            if den > 0.0:
                d += N_prev[r - 1] / den
        if r < p:
            den = knots[span + r + 1] - knots[span + r + 1 - p]
            if den > 0.0:
                d -= N_prev[r] / den
        ders[r] = p * d
    return span - p, N.copy(), ders


def cs_scales(kv: KnotVector) -> np.ndarray:
    """Scaling factors p / (t_{j+p+1} - t_{j+1}), j = 0..n-2."""
    knots = np.asarray(kv.knots)
    p = kv.degree
    j = np.arange(kv.n - 1)
    return p / (knots[j + p + 1] - knots[j + 1])


def greville_points(kv: KnotVector) -> np.ndarray:
    """Greville abscissae g_i = (t_{i+1} + ... + t_{i+p}) / p."""
    if kv.degree < 1:
        raise ValueError("Greville points need degree >= 1")
    knots = np.asarray(kv.knots)
    p = kv.degree
    return np.array([knots[i + 1: i + p + 1].mean() for i in range(kv.n)])


@dataclass(frozen=True)
class Space1D:
    """One univariate factor space.

    ``kind = 'B'`` is the degree-p B-spline space on ``knot``;
    ``kind = 'D'`` is the degree-(p-1) Curry-Schoenberg space derived
    from the same parent knot vector (never carries a bc mask).
    ``bc = 'zero'`` drops the first and last B-spline.
    """

    knot: KnotVector
    kind: str = "B"
    bc: str = "free"

    def __post_init__(self) -> None:
        if self.kind not in ("B", "D"):
            raise ValueError("kind must be 'B' or 'D'")
        if self.bc not in ("free", "zero"):
            raise ValueError("bc must be 'free' or 'zero'")
        if self.kind == "D" and self.bc != "free":
            raise ValueError("Curry-Schoenberg spaces never carry a bc mask")

    @property
    def dim(self) -> int:
        n = self.knot.n
        if self.kind == "D":
            return n - 1
        return n - 2 if self.bc == "zero" else n

    @property
    def degree(self) -> int:
        return self.knot.degree if self.kind == "B" else self.knot.degree - 1

    def indices(self) -> np.ndarray:
        """Indices into the unconstrained basis kept by this space."""
        n = self.knot.n
        if self.kind == "D":
            return np.arange(n - 1)
        if self.bc == "zero":
            return np.arange(1, n - 1)
        return np.arange(n)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights per knot span, ``order`` points each."""

    order: int
    breakpoints: tuple[float, ...]
    nodes: np.ndarray = field(repr=False, compare=False, default=None)
    weights: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def flat_nodes(self) -> np.ndarray:
        return self.nodes.ravel()

    @property
    def flat_weights(self) -> np.ndarray:
        return self.weights.ravel()


def make_quadrature(kv: KnotVector, order: int | None = None) -> QuadratureRule:
    """Per-span Gauss-Legendre rule; default order is ``p + 2``."""
    q = order if order is not None else kv.degree + 2
    if q < 1:
        raise ValueError("quadrature order must be positive")
    ref_x, ref_w = np.polynomial.legendre.leggauss(q)
    breaks = kv.breakpoints
    a, b = breaks[:-1], breaks[1:]
    half = 0.5 * (b - a)
    nodes = a[:, None] + half[:, None] * (ref_x[None, :] + 1.0)
    weights = half[:, None] * ref_w[None, :]
    return QuadratureRule(q, tuple(breaks), nodes, weights)


def basis_values(space: Space1D, points: np.ndarray, derivative: bool = False) -> np.ndarray:
    """Dense matrix of basis values, shape ``(len(points), dim)``.

    For ``kind='D'`` the Curry-Schoenberg values (reduced-degree
    B-splines times the unit-integral scaling) are returned; the
    derivative flag only makes sense for B kind.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if space.kind == "D":
        if derivative:
            raise ValueError("derivatives of the D basis are not needed")
        red = space.knot.reduced()
        vals = _bspline_values(red, pts)
        return vals * cs_scales(space.knot)[None, :]
    full = _bspline_values(space.knot, pts, derivative=derivative)
    return full[:, space.indices()]


def _bspline_values(kv: KnotVector, pts: np.ndarray, derivative: bool = False) -> np.ndarray:
    out = np.zeros((len(pts), kv.n))
    for a, t in enumerate(pts):
        first, vals, ders = eval_nonzero_row(kv, t)
        out[a, first: first + len(vals)] = ders if derivative else vals
    return out


def mass_matrix_1d(space: Space1D, quad: QuadratureRule) -> sp.csr_matrix:
    """Banded mass matrix M_{ab} = ∫ φ_a φ_b of a factor space."""
    x = quad.flat_nodes
    w = quad.flat_weights
    R = basis_values(space, x)
    return drop_small((R * w[:, None]).T @ R)


def stiffness_matrix_1d(space: Space1D, quad: QuadratureRule) -> sp.csr_matrix:
    """Stiffness matrix K_{ab} = ∫ φ'_a φ'_b for a B-spline space."""
    if space.kind != "B":
        raise ValueError("stiffness is defined on the B-spline factor spaces")
    x = quad.flat_nodes
    w = quad.flat_weights
    G = basis_values(space, x, derivative=True)
    return drop_small((G * w[:, None]).T @ G)


def difference_matrix_1d(n: int) -> sp.csr_matrix:
    """Bidiagonal (n-1) x n matrix with rows (-1, +1): the derivative
    d/dt : S^p -> S^{p-1} in the (B, Curry-Schoenberg) basis pair."""
    if n < 2:
        raise ValueError("need at least two basis functions")
    data = np.concatenate([-np.ones(n - 1), np.ones(n - 1)])
    rows = np.concatenate([np.arange(n - 1), np.arange(n - 1)])
    cols = np.concatenate([np.arange(n - 1), np.arange(1, n)])
    out = sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))
    out.sort_indices()
    return out


def interpolation_matrix_1d(space: Space1D) -> sp.csr_matrix:
    """Greville collocation matrix A_{ki} = B_i(g_k) (square, banded,
    invertible for open knots)."""
    if space.kind != "B" or space.bc != "free":
        raise ValueError("interpolation acts on the unconstrained B-spline space")
    g = greville_points(space.knot)
    A = drop_small(basis_values(space, g))
    dense_rank_check = np.abs(A.diagonal()).min()
    if dense_rank_check <= 0.0:
        raise ArithmeticError("Greville collocation matrix is singular")
    return A


def greville_rule(kv: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the integrals from 0 to each Greville point.

    Returns ``(nodes, Cum)`` with ``(Cum @ f(nodes))[k]`` the integral of
    ``f`` over ``[0, g_k]``: p + 3 point Gauss panels cut at the
    breakpoints and the Greville points, so the rule is exact for
    splines of degree p and every ``g_k`` is a panel boundary.  This is
    the one histopolation rule: the transfers apply it to the B-splines,
    the error reference to analytic fields.
    """
    g = greville_points(kv)
    cuts = np.unique(np.concatenate([kv.breakpoints, g, [0.0, 1.0]]))
    q = kv.degree + 3
    ref_x, ref_w = np.polynomial.legendre.leggauss(q)
    a, b = cuts[:-1], cuts[1:]
    half = 0.5 * (b - a)
    nodes = (a[:, None] + half[:, None] * (ref_x[None, :] + 1.0)).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    # Cum[k, :]: weights of all panels fully left of the k-th Greville point
    panels_left = np.searchsorted(b, g + 1e-12)
    Cum = np.zeros((len(g), len(nodes)))
    for k, m in enumerate(panels_left):
        Cum[k, : m * q] = weights[: m * q]
    return nodes, Cum


def histopolation_matrix_1d(space_p: Space1D) -> sp.csr_matrix:
    """Histopolation matrix Q = Diff · A^{-1} · (Cum · B(nodes)), mapping
    S^p coefficients to Curry-Schoenberg coefficients of the projection
    that matches antiderivative values at the Greville points (the
    projector of :func:`greville_rule` applied to the B-splines)."""
    if space_p.kind != "B" or space_p.bc != "free":
        raise ValueError("histopolation acts on the unconstrained B-spline space")
    kv = space_p.knot
    nodes, Cum = greville_rule(kv)
    W = Cum @ basis_values(space_p, nodes)
    A = interpolation_matrix_1d(space_p).toarray()
    coeffs = np.linalg.solve(A, W)
    Q = difference_matrix_1d(kv.n) @ coeffs
    return drop_small(sp.csr_matrix(Q))
