"""Kronecker-structured assembly of all global matrices and vectors.

Every global matrix here is a (block-diagonal of) Kronecker products of
the 1-D factor matrices from :mod:`iga_asp.splines1d`:

* ``discretize``            -- the tau-independent ``Discretization`` of
                               one mesh: its five spaces, a p + 2 point
                               Gauss rule per direction, and one 1-D mass
                               (stiffness) per distinct (B) factor space,
                               which every function below looks up,
* ``KronSum``               -- block-diagonal Kronecker sums of 1-D
                               stiffness and mass factors: the square
                               block-diagonal case of
                               :class:`iga_asp.derham.KronBlocks`, kept
                               factored, applied by sum factorization,
                               with their diagonal from the 1-D diagonals,
* ``mass_operator``         -- L2 mass of any of the five spaces as a
                               KronSum,
* ``mass_matrix``           -- the same, assembled,
* ``system_setup``          -- the tau-independent ``SystemSetup`` of one
                               problem on one mesh: its discretization,
                               D, the factored M_D and M_range, the
                               stiffness K = D^T M_range D (these CSR
                               assembled only when read) and the load
                               vector's weighted 1-D bases, built once
                               per mesh,
* ``mass_basis``            -- the ``MassBasis`` of a system setup: the
                               mass-orthonormal basis in which
                               C^T A C = W^T W + tau I, with W one dense
                               1-D matrix on one axis per block, the
                               ``KronEigenbasis`` of the range Laplacian
                               L = W W^T (+ W_+^T W_+), a Kronecker sum
                               of 1-D matrices (the composite cycle's
                               smoothing step), and the exact solve,
* ``system_matrix``         -- the ``AssembledSystem(setup, tau, b)`` of
                               one tau, the one operator of A = K + tau
                               M_D that CG and kappa read: its product,
                               factored from the masses or by the CSR
                               assembled from K with the system, its
                               diagonal from the 1-D factors, and its
                               sector blocks for dense kappa,
* ``factored_product_wins`` -- the measured rule on which spaces the
                               factored product with A is faster than
                               CSR, which picks A's product and nothing
                               else,
* ``h1_vector_matrix``      -- vector H1 inner product on the auxiliary
                               space (KronSum H, includes the L2 part),
* ``scalar_laplacian_matrix`` -- grad-grad form on the scalar potential
                               space (KronSum L, essential bc only),
* ``curl_stiffness_matrix`` -- triu(Q_curl), Q_curl = C^T M_div C, as
                               sorted CSR written from the 1-D factors
                               of the factored curl matrix and div mass,
                               neither assembled: the whole triangle,
                               the test oracle of the SGS curl smoother
                               of 3-D div, which writes only the
                               triangles of the congruence's diagonal
                               blocks (see :mod:`iga_asp.precond`),
* ``column_panels``         -- a sparse matrix as dense panels of 64
                               columns, the one walk of dense kappa's
                               panel products (the one-block path and
                               the ASP's Gram factors),
* ``assemble_rhs``          -- load vector from an analytic field,
* ``field_coefficients``    -- the Kronecker apply of per-direction
                               (nodes, matrix) pairs to a sampled field
                               that the load vector and the commuting
                               quasi-interpolant share.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import derham
from .derham import (
    KronBlocks,
    KronEigenbasis,
    TensorSpace,
    build_space,
    differential_blocks,
    differential_matrix,
    kron_apply,
)
from .splines1d import (
    DROP_TOL,
    QuadratureRule,
    Space1D,
    drop_small,
    make_quadrature,
    mass_matrix_1d,
    stiffness_matrix_1d,
    basis_values,
)

__all__ = [
    "AssembledSystem",
    "KronSum",
    "Discretization",
    "discretize",
    "SystemSetup",
    "system_setup",
    "MassBasis",
    "mass_basis",
    "mass_operator",
    "mass_matrix",
    "system_matrix",
    "factored_product_wins",
    "h1_vector_matrix",
    "scalar_laplacian_matrix",
    "curl_stiffness_matrix",
    "column_panels",
    "assemble_rhs",
    "field_coefficients",
    "system_manifest",
    "export_matrix_market",
]

FieldFunc = Sequence[Callable[..., np.ndarray]]


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """System of one tau: the tau-independent ``setup`` it was built
    from, tau, and the load vector ``b``; the one operator of A that CG
    and kappa (dense and Lanczos) are given.  :meth:`apply_A` applies A
    from the factored masses of ``setup``; ``A`` is the assembled CSR
    from the setup's ``stiffness``, built by :func:`system_matrix` where
    :meth:`apply` takes its product (below the setup's
    :attr:`SystemSetup.factored_product_wins`, a rule that decides A's
    product alone) and elsewhere on its first read (by the SGS smoother
    and the matrix export); ``diagonal`` is A's diagonal, built without
    it."""

    setup: SystemSetup = field(repr=False)
    tau: float
    b: np.ndarray | None = field(repr=False, default=None)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.setup.space.total_dim,) * 2

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for x of shape (N,) or (N, k): :meth:`apply_A` where the
        setup's ``factored_product_wins``, else the CSR ``A``'s product."""
        return self.apply_A(x) if self.setup.factored_product_wins else self.A @ x

    def apply_A(self, x: np.ndarray) -> np.ndarray:
        """A x = D^T (M_range (D x)) + tau M_D x for x of shape (N,) or
        (N, k), with the masses applied by sum factorization."""
        setup = self.setup
        out = setup.M_D_op.apply(x)
        out *= self.tau
        out += setup.D_T @ setup.M_range_op.apply(setup.D_mat @ x)
        return out

    @cached_property
    def A(self) -> sp.csr_matrix:
        return drop_small(self.setup.stiffness + self.tau * self.setup.M_D)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """diag(A) = diag(D^T M_range D) + tau diag(M_D), with the
        entries that :attr:`A` drops set to zero."""
        diag = self.setup.stiffness_diagonal + self.tau * self.setup.M_D_op.diagonal()
        diag[np.abs(diag) < DROP_TOL] = 0.0
        return diag

    def sector_blocks(self) -> list[np.ndarray]:
        """Q^T A Q = Q^T K Q + tau Q^T M_D Q for each basis Q of
        ``space.sectors``, from :attr:`SystemSetup.sector_factors`."""
        return [K + self.tau * M for K, M in self.setup.sector_factors]


@dataclass(frozen=True, eq=False)
class Discretization:
    """The five de Rham spaces of one mesh (``spaces[kind]``), one
    quadrature rule per direction, the 1-D mass and stiffness factors
    keyed by factor space, and ``factor_blocks``, the 1-D blocks of the
    diagram's maps (identities, difference maps, histopolations) keyed by
    (source factor, target factor, map), which every differential and
    transfer of the mesh reads and the first one to need a block adds
    (:func:`iga_asp.derham.differential_blocks`), so that each is built
    once per mesh."""

    spaces: dict[str, TensorSpace] = field(repr=False)
    quads: tuple[QuadratureRule, ...] = field(repr=False)
    masses: dict[Space1D, sp.csr_matrix] = field(repr=False)
    stiffnesses: dict[Space1D, sp.csr_matrix] = field(repr=False)
    factor_blocks: dict[tuple, sp.csr_matrix] = field(default_factory=dict,
                                                      repr=False)


def discretize(p, n_elems, *, dim: int, bc: str) -> Discretization:
    """Build the spaces, the p + 2 point Gauss rules and the 1-D mass
    and stiffness factors of one mesh (scalars broadcast as in
    :func:`iga_asp.derham.build_space`)."""
    spaces = {kind: build_space(kind, p, n_elems, dim=dim, bc=bc)
              for kind in ("grad", "curl", "div", "l2", "vector")}
    quads = tuple(make_quadrature(kv) for kv in spaces["grad"].knots)
    rules = {f: q for space in spaces.values() for comp in space.components
             for f, q in zip(comp, quads)}
    return Discretization(
        spaces, quads, {f: mass_matrix_1d(f, q) for f, q in rules.items()},
        {f: stiffness_matrix_1d(f, q) for f, q in rules.items() if f.kind == "B"})


class KronSum(KronBlocks):
    """Block-diagonal matrix kept as its 1-D factors.  Block ``c`` is

        sum_k  K_k (x) (x)_{j != k} M_j  +  mass_coeff * (x)_j M_j

    with ``masses[c]`` the per-direction factors M_j and
    ``stiffnesses[c]`` the K_k (``None``: no stiffness terms, a pure
    mass); these stay for the eigenpairs of
    :class:`iga_asp.precond.InnerSolver`.  Components whose factor tuples
    are the same objects share one term list: identical blocks, which
    :meth:`iga_asp.derham.KronBlocks.apply` batches.
    """

    def __init__(self, masses: tuple[tuple], stiffnesses: tuple[tuple] | None = None,
                 mass_coeff: float = 1.0) -> None:
        self.masses, self.stiffnesses, self.mass_coeff = masses, stiffnesses, mass_coeff
        shared, blocks = {}, []
        for M, K in zip(masses, stiffnesses or (None,) * len(masses)):
            terms = [(mass_coeff, M)] if mass_coeff else []
            terms += [(1.0, M[:k] + (S,) + M[k + 1:]) for k, S in enumerate(K or ())]
            blocks.append(shared.setdefault((id(M), id(K)), terms))
        super().__init__(KronBlocks.block_diagonal(blocks).rows)


def mass_operator(disc: Discretization, kind: str) -> KronSum:
    """L2 mass of the space ``disc.spaces[kind]``: per component the
    Kronecker product of its 1-D factor masses."""
    return KronSum(tuple(tuple(disc.masses[f] for f in comp)
                         for comp in disc.spaces[kind].components))


def mass_matrix(disc: Discretization, kind: str) -> sp.csr_matrix:
    """Block-diagonal L2 mass matrix, assembled from :func:`mass_operator`."""
    return mass_operator(disc, kind).tocsr()


@dataclass(frozen=True, eq=False)
class SystemSetup:
    """Everything in the system of one problem on one mesh that does not
    depend on tau: the discretization, the differential D from the
    problem's space onto its range space, the masses M_D and M_range
    factored as ``M_D_op`` and ``M_range_op``, per distinct 1-D factor
    of the problem's space the Gauss nodes and transposed weighted basis
    values of the load vector.  :attr:`factored_product_wins` is the
    rule :func:`factored_product_wins` of the space, derived from it and
    not settable, which picks the product of A and nothing else
    (:meth:`AssembledSystem.apply`, :func:`system_matrix`).  The CSR
    ``M_D`` and ``M_range`` are assembled on first read (by the CSR A,
    A's sector factors and the matrix export), as is K = D^T M_range D
    (by the CSR A and the sector factors); A's diagonal needs none.  So
    is :attr:`mass_basis` (by the composite cycle).  A sweep builds the
    setup once per mesh and assembles each tau's system from it."""

    operator: str
    dim: int
    p: int | tuple[int, ...]
    n_elems: int | tuple[int, ...]
    bc: str
    disc: Discretization = field(repr=False)
    space: TensorSpace = field(repr=False)
    range_space: TensorSpace = field(repr=False)
    D_mat: sp.csr_matrix = field(repr=False)
    M_D_op: KronSum = field(repr=False)
    M_range_op: KronSum = field(repr=False)
    load_bases: dict[Space1D, tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @cached_property
    def factored_product_wins(self) -> bool:
        return factored_product_wins(self.space)

    @cached_property
    def M_D(self) -> sp.csr_matrix:
        return self.M_D_op.tocsr()

    @cached_property
    def M_range(self) -> sp.csr_matrix:
        return self.M_range_op.tocsr()

    @cached_property
    def D_T(self) -> sp.csc_matrix:
        return self.D_mat.T

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        return self.D_T @ self.M_range @ self.D_mat

    @cached_property
    def sector_factors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per basis Q of ``space.sectors`` the tau-independent factors
        (Q^T K Q, Q^T M_D Q) of A's sector block, built on the mesh's
        first dense kappa and kept: sparse products with the CSR K and
        M_D, on either side of :func:`factored_product_wins`; no CSR A
        is assembled for them."""
        return tuple(((Q.T @ self.stiffness @ Q).toarray(),
                      (Q.T @ self.M_D @ Q).toarray())
                     for Q in self.space.sectors)

    @cached_property
    def stiffness_diagonal(self) -> np.ndarray:
        """diag(D^T M_range D), the tau-independent part of A's diagonal,
        from the 1-D factors of D and M_range."""
        return differential_blocks(self.space, self.range_space,
                                   self.disc.factor_blocks).congruence(
            self.M_range_op).diagonal()

    @cached_property
    def mass_basis(self) -> MassBasis:
        """The :func:`mass_basis` of this setup, built on first read (by
        the composite cycle's constructor) and kept."""
        return mass_basis(self)


@dataclass(frozen=True, eq=False)
class MassBasis:
    """A basis of the problem's space and of its range space that is
    orthonormal in their L2 masses, from one basis per distinct 1-D
    factor space: with M_k = V_k diag(w_k) V_k^T, ``factors[f]`` is
    (C_k, R_k) = (V_k diag(w_k)^{-1/2}, V_k diag(w_k)^{1/2}), so that
    C_k^T M_k C_k = I and R_k = C_k^{-T}, R_k R_k^T = M_k.  Per component
    C = (x)_k C_k, so C C^T = M_D^{-1}, and on the range M_range = R R^T;
    in this basis A = D^T M_range D + tau M_D becomes

        C^T A C = W^T W + tau I,    W = R^T D C.

    Every identity factor of D cancels (R_k^T C_k = I), so a block of W is
    its block of D with the 1-D difference map delta of its one
    differentiated direction replaced by the dense R_D^T delta C_B, and
    the plan of its apply skips the identities.

    The range Laplacian L = W W^T, plus W_+^T W_+ on 3-D curl (W_+ the
    mass-basis div of the range space, which vanishes on range(W)), is per
    range component c a Kronecker sum of dense 1-D matrices G_{c,k}: the
    sum of w w^T over the single-axis factors w on axis k of W's blocks in
    row c, plus v^T v over those of W_+.  The other products cancel, since
    a block's one dense factor depends only on its differentiated axis.
    ``laplacian`` is its :class:`iga_asp.derham.KronEigenbasis`, one run
    per component of pencils (G_{c,k},), equal G's sharing one ``eigh``
    (the axes of an isotropic 3-D div mesh, the rows k != c of 3-D curl):
    L = V diag(mu) V^T, V = ``laplacian.U`` and mu its ``eigenvalues()``.
    W^T W + tau I acts as tau on ker W and as mu + tau on each W^T v /
    sqrt(mu) with mu > 0 (:class:`iga_asp.krylov.GltPreconditioner` runs
    its MINRES there).  The modes with mu at or below ``NULL_MODE_TOL``
    max mu are L's null space, in ker W^T: the constant of a scalar range,
    none on 3-D curl, where L is SPD.

    ``forward`` (C^T), ``backward`` (C), ``W``, ``W_T`` (W^T, W's
    :meth:`iga_asp.derham.KronBlocks.transpose`), and the laplacian's
    ``U`` and ``U_T`` are :class:`iga_asp.derham.KronBlocks` with their
    dense factors laid out by :func:`_laid_out`; ``mode_scale`` is the 1-D
    array of 1/sqrt(mu), 0 on the null modes."""

    factors: dict[Space1D, tuple[np.ndarray, np.ndarray]] = field(repr=False)
    forward: KronBlocks = field(repr=False)
    backward: KronBlocks = field(repr=False)
    W: KronBlocks = field(repr=False)
    W_T: KronBlocks = field(repr=False)
    laplacian: KronEigenbasis = field(repr=False)
    mode_scale: np.ndarray = field(repr=False)

    def solve(self, b: np.ndarray, tau: float) -> np.ndarray:
        """A^{-1} b for b of shape (N,) or (N, k): with y = C^T b,

            A^{-1} b = C (y - W^T (L + tau)^{-1} W y) / tau,

        (L + tau)^{-1} = ``laplacian.make(tau)``, which on range(W) is
        (W W^T + tau)^{-1} also on 3-D curl (W_+ W = 0).  The subtraction
        costs digits: on the cells p <= 3, n <= 5 the residual reached 43
        times SuperLU's (2-D div p=1 n=4, tau = 1e-4)."""
        y = self.forward.apply(b)
        z = self.W_T.apply(self.laplacian.make(tau)(self.W.apply(y)))
        return self.backward.apply((y - z) / tau)


def _laid_out(op: KronBlocks) -> KronBlocks:
    """``op`` with its dense factors copied C-ordered, and the last
    (applied by its transpose, from the right) Fortran-ordered, so that
    every operand of the planned matmuls is C-ordered; sparse ones as they
    are.  The plan takes dense factors as given, and their layout picks
    the BLAS calls and with them the round-off.  Blocks that share one
    term list still do."""
    def laid_out(factors):
        *left, last = [F if sp.issparse(F) else np.ascontiguousarray(F)
                       for F in factors]
        return left + [last if sp.issparse(last) else np.asfortranarray(last)]
    memo = {}
    return KronBlocks([[None if terms is None else memo.setdefault(
        id(terms), [(coeff, laid_out(factors)) for coeff, factors in terms])
        for terms in row] for row in op.rows])


# eigenvalues of the range Laplacian at or below this times the largest
# are its null modes (round-off of 0; the smallest other one is 2.0e-5 of
# the largest on 2-D curl p=6 n=64)
NULL_MODE_TOL = 1e-10


def mass_basis(setup: SystemSetup) -> MassBasis:
    """The :class:`MassBasis` of ``setup``: one eigendecomposition per
    distinct 1-D factor space of the space and the range space, the
    dense 1-D factors of W from D's blocks, W^T as W's transpose, and the
    eigenbasis of L from its G_{c,k}, with the scale 1/sqrt(mu) of L's
    modes past its null space."""
    factors = {}
    for space in (setup.space, setup.range_space):
        for f in {f for comp in space.components for f in comp} - factors.keys():
            w, V = sla.eigh(setup.disc.masses[f].toarray())
            factors[f] = (V / np.sqrt(w), V * np.sqrt(w))

    def per_component(pick) -> KronBlocks:
        shared = {}     # identical components share one term list
        return KronBlocks.block_diagonal([
            shared.setdefault(comp, [(1.0, [pick(f) for f in comp])])
            for comp in setup.space.components])

    def in_basis(terms, src, dst) -> list | None:
        """A block of D with its 1-D maps delta from a 'B' onto a 'D'
        factor replaced by R_D^T delta C_B; the identities stay."""
        if terms is None:
            return None
        return [(coeff, [F if s.kind == t.kind else factors[t][1].T @ (F @ factors[s][0])
                         for F, s, t in zip(Fs, src, dst)])
                for coeff, Fs in terms]

    def in_basis_blocks(src: TensorSpace, dst: TensorSpace) -> KronBlocks:
        D = differential_blocks(src, dst, setup.disc.factor_blocks)
        return KronBlocks([[in_basis(terms, s, t)
                            for terms, s in zip(row, src.components)]
                           for row, t in zip(D.rows, dst.components)])

    W = in_basis_blocks(setup.space, setup.range_space)
    # L's G_{c,k}: w w^T of W's single-axis factors by block row, and on a
    # vector range (3-D curl) v^T v of W_+'s by block column
    range_space = setup.range_space
    grams = [[np.zeros((f.dim, f.dim)) for f in comp]
             for comp in range_space.components]
    for c, row in enumerate(W.rows):
        for coeff, Fs in (term for terms in row for term in terms or ()):
            k, w = _single_axis(Fs)
            grams[c][k] += coeff**2 * (w @ w.T)
    if range_space.n_components > 1:
        _, after = derham.potential_and_range(range_space.kind.kind, setup.dim)
        W_next = in_basis_blocks(range_space, setup.disc.spaces[after])
        for c, terms in enumerate(W_next.rows[0]):
            for coeff, Fs in terms:
                k, v = _single_axis(Fs)
                grams[c][k] += coeff**2 * (v.T @ v)
    laplacian = KronEigenbasis([[(G,) for G in comp] for comp in grams],
                               [1] * len(grams), layout=_laid_out)
    mu = laplacian.eigenvalues()
    kept = mu > NULL_MODE_TOL * mu.max()
    mode_scale = np.zeros_like(mu)
    mode_scale[kept] = 1.0 / np.sqrt(mu[kept])
    return MassBasis(factors, _laid_out(per_component(lambda f: factors[f][0].T)),
                     _laid_out(per_component(lambda f: factors[f][0])),
                     _laid_out(W), _laid_out(W.transpose()), laplacian, mode_scale)


def _single_axis(factors) -> tuple[int, np.ndarray]:
    """The axis and the one dense factor of a block of a mass-basis
    differential, whose other factors are sparse identities."""
    (k, w), = [(k, F) for k, F in enumerate(factors) if not sp.issparse(F)]
    return k, w


# columns per product when dense kappa builds blocks: one block of n
# columns would hold a second n x n array at peak memory
_PANEL_WIDTH = 64


def column_panels(F: sp.spmatrix) -> Iterator[tuple[slice, np.ndarray]]:
    """``(columns, panel)``: the sparse F as dense panels of
    ``_PANEL_WIDTH`` columns, left to right, with their column slice;
    each panel is the CSC of its range of ``indptr``."""
    F = sp.csc_matrix(F)
    for lo in range(0, F.shape[1], _PANEL_WIDTH):
        hi = min(lo + _PANEL_WIDTH, F.shape[1])
        start, end = F.indptr[lo], F.indptr[hi]
        yield slice(lo, hi), sp.csc_matrix(
            (F.data[start:end], F.indices[start:end], F.indptr[lo:hi + 1] - start),
            shape=(F.shape[0], hi - lo)).toarray()


def system_setup(operator: str, dim: int, p, n_elems,
                 bc: str = "essential") -> SystemSetup:
    """Build the tau-independent part of the curl-curl (``operator``
    'curl') or grad-div ('div') problem on the unit square or cube
    (``dim`` 2 or 3) with ``n_elems`` elements of degree ``p`` per
    direction."""
    _, range_kind = derham.potential_and_range(operator, dim)
    disc = discretize(p, n_elems, dim=dim, bc=bc)
    space = disc.spaces[operator]
    range_space = disc.spaces[range_kind]
    M_D_op = mass_operator(disc, operator)
    M_range_op = mass_operator(disc, range_kind)
    return SystemSetup(
        operator, dim, p, n_elems, bc, disc, space, range_space,
        differential_matrix(space, range_space, disc.factor_blocks),
        M_D_op, M_range_op,
        _load_bases(space, disc))


def system_matrix(setup: SystemSetup, tau: float,
                  rhs: FieldFunc | None = None) -> AssembledSystem:
    """The system A = D^T M_range D + tau M_D of ``setup``, plus the load
    vector of ``rhs`` when given; all but tau and b is read from
    ``setup``.  Below the setup's :func:`factored_product_wins` the CSR A,
    whose product CG then takes, is assembled here; past it only when
    something reads it."""
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    b = assemble_rhs(setup, rhs) if rhs is not None else None
    system = AssembledSystem(setup, tau, b)
    if not setup.factored_product_wins:
        system.A
    return system


# One product with A, factored (``apply_A``) against CSR, one vCPU: the
# factored product wins on 3-D curl p=2 n=16 (about 0.5 vs 4.4 ms), 3-D
# div p=3 n=8, 3-D p=2 n=8 and 2-D curl p=3 n=32; CSR wins on 2-D p=2
# n=32, on p=1 (3-D p=1 n=16 is close) and on every cell with N <= 612
# (BENCH_csr_on_demand.json)
FACTORED_MIN_DOFS = 1500
FACTORED_MIN_DEGREE_PRODUCT = 8


def factored_product_wins(space: TensorSpace) -> bool:
    """Whether the factored product with the system matrix on ``space``
    is faster than the CSR one: N >= 1,500 and a product of the
    per-direction degrees >= 8 (3-D p >= 2, 2-D p >= 3)."""
    degrees = math.prod(kv.degree for kv in space.knots)
    return (space.total_dim >= FACTORED_MIN_DOFS
            and degrees >= FACTORED_MIN_DEGREE_PRODUCT)


def _h1_operator(space: TensorSpace, disc: Discretization,
                 mass_coeff: float) -> KronSum:
    """One block of sum_k K_k (x) M.. plus ``mass_coeff`` times the mass
    per component of ``space``, whose components are identical."""
    comp = space.components[0]
    masses = tuple(disc.masses[f] for f in comp)
    stiffs = tuple(disc.stiffnesses[f] for f in comp)
    n = space.n_components
    return KronSum((masses,) * n, (stiffs,) * n, mass_coeff)


def h1_vector_matrix(disc: Discretization) -> KronSum:
    """Matrix H: the full vector H1 inner product (grad-grad plus L2)
    on the auxiliary space, block-diagonal over the identical scalar
    components."""
    return _h1_operator(disc.spaces["vector"], disc, 1.0)


def scalar_laplacian_matrix(disc: Discretization) -> KronSum:
    """Matrix L: grad-grad form on the scalar potential space.

    Only the essential-bc space is supported: with natural bc the
    constants make L singular and the preconditioner formulas that use
    L^{-1} are meaningless.
    """
    grad_space = disc.spaces["grad"]
    if grad_space.kind.bc != "essential":
        raise ValueError("scalar Laplacian requires essential bc; "
                         "the natural-bc operator is singular (constants)")
    return _h1_operator(grad_space, disc, 0.0)


def curl_stiffness_matrix(C_op: KronBlocks, M_div_op: KronSum) -> sp.csr_matrix:
    """triu(Q_curl), Q_curl = C^T M_div C, from the factored 3-D curl
    matrix and div mass, written from the 1-D factors of their
    congruence (:meth:`iga_asp.derham.KronBlocks.upper_triangle`, which
    drops entries as :func:`iga_asp.splines1d.drop_small` does); neither
    C^T M_div C nor the CSR M_div is assembled.  The SGS curl smoother of
    the div problem, given that congruence, sweeps the same matrix by
    blocks and writes only the triangles of its diagonal blocks; this
    whole triangle, given to the smoother, is its test oracle."""
    return C_op.congruence(M_div_op).upper_triangle()


def field_coefficients(space: TensorSpace, funcs: FieldFunc,
                       factor_pairs) -> np.ndarray:
    """Per component, ``(x)_k T_k`` applied to the samples of the
    component's callable on the tensor grid of the nodes ``x_k``, with
    ``factor_pairs(component)`` the per-direction ``(x_k, T_k)``.

    ``funcs`` is a sequence of callables, one per component, each taking
    d coordinate arrays, the sparse (broadcastable) axes of the grid,
    and returning values that broadcast to the grid's shape.
    """
    if len(funcs) != space.n_components:
        raise ValueError("need one callable per component")
    out = []
    for comp, fc in zip(space.components, funcs):
        pairs = factor_pairs(comp)
        grids = np.meshgrid(*(x for x, _ in pairs), indexing="ij", sparse=True)
        # a contiguous copy of a broadcast sample keeps the products those
        # of the dense grid, bit for bit
        F = np.ascontiguousarray(np.broadcast_to(
            np.asarray(fc(*grids), dtype=float), tuple(len(x) for x, _ in pairs)))
        out.append(kron_apply([T for _, T in pairs], F[None]).ravel())
    return np.concatenate(out)


def _load_bases(space: TensorSpace, disc: Discretization) -> dict:
    """Per distinct 1-D factor of ``space``: the Gauss nodes of its
    direction and its basis values there, weighted and transposed."""
    rules = {fac: q for comp in space.components
             for fac, q in zip(comp, disc.quads)}
    return {fac: (q.flat_nodes,
                  (basis_values(fac, q.flat_nodes) * q.flat_weights[:, None]).T)
            for fac, q in rules.items()}


def assemble_rhs(setup: SystemSetup, f: FieldFunc) -> np.ndarray:
    """Load vector b_r = ∫ f · v_r on ``setup.space`` by tensor Gauss
    quadrature: per direction the factor's basis values weighted by the
    rule's weights, from ``setup.load_bases`` (see
    :func:`field_coefficients` for ``f``)."""
    return field_coefficients(
        setup.space, f, lambda comp: [setup.load_bases[fac] for fac in comp])


def export_matrix_market(system: AssembledSystem, directory) -> list[str]:
    """Write A, M_D, M_range, D_mat (and b if present) plus a JSON
    manifest into ``directory``; returns the written file names."""
    import json
    from pathlib import Path

    import scipy.io as sio

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    setup = system.setup
    mats = {"A": system.A, "M_D": setup.M_D,
            "M_range": setup.M_range, "D_mat": setup.D_mat}
    for name, mat in mats.items():
        path = directory / f"{name}.mtx"
        sio.mmwrite(path, sp.coo_matrix(mat))
        written.append(path.name)
    if system.b is not None:
        path = directory / "b.mtx"
        sio.mmwrite(path, system.b.reshape(-1, 1))
        written.append(path.name)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(system_manifest(system), indent=2,
                                   sort_keys=True) + "\n")
    written.append(manifest.name)
    return written


def system_manifest(system: AssembledSystem) -> dict:
    """JSON-ready manifest: problem spec, dims, nnz, and checksums."""
    def checksum(mat: sp.csr_matrix) -> str:
        h = hashlib.sha256()
        h.update(mat.indptr.tobytes())
        h.update(mat.indices.tobytes())
        h.update(np.round(mat.data, 12).tobytes())
        return h.hexdigest()[:16]

    setup = system.setup
    return {
        "problem": {
            "operator": setup.operator,
            "dim": setup.dim,
            "p": [int(v) for v in np.atleast_1d(setup.p)],
            "n_elems": [int(v) for v in np.atleast_1d(setup.n_elems)],
            "tau": system.tau,
            "bc": setup.bc,
        },
        "space": derham.space_descriptor(setup.space),
        "range_space": derham.space_descriptor(setup.range_space),
        "nnz": {"A": int(system.A.nnz), "M_D": int(setup.M_D.nnz),
                "M_range": int(setup.M_range.nnz), "D_mat": int(setup.D_mat.nnz)},
        "checksums": {"A": checksum(system.A), "M_D": checksum(setup.M_D),
                      "D_mat": checksum(setup.D_mat)},
    }
