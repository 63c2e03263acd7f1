"""Auxiliary-space preconditioners and their smoothers.

Every problem uses the one formula (Hiptmair & Xu, SIAM J. Numer.
Anal. 45, 2007)

    B = S^{-1} + P (H + tau M)^{-1} P^T + tau^{-1} T B_T T^T

with S the Jacobi or symmetric Gauss-Seidel smoother of A, P the
auxiliary-space transfer, H the vector H1 matrix and M the auxiliary
mass.  The potential map T and the potential-space operator B_T are

    curl (2-D, 3-D):  T = G (gradient),          B_T = L^{-1}
    div 2-D:          T = R (rotated gradient),  B_T = L^{-1}
    div 3-D:          T = C (curl),              B_T = W^{-1} + P_curl H^{-1} P_curl^T

with L the scalar Laplacian.  For 3-D div, B_T is itself an
auxiliary-space preconditioner on V(curl): W is either the diagonal of
Q_curl = C^T M_div C or its symmetric Gauss-Seidel matrix, and P_curl
the transfer onto V(curl).  Both read Q_curl as the congruence of the
factored C and M_div that the transfer set and the system setup hold,
without assembling Q_curl or the CSR M_div: its diagonal, or its blocks
(the whole triangle :func:`iga_asp.assembly.curl_stiffness_matrix`
writes is the sgs smoother's test oracle).

H + tau M, L and H are per component Kronecker sums of 1-D stiffness
and mass matrices (:class:`iga_asp.assembly.KronSum`, a KronBlocks).
:class:`InnerSolver` inverts them exactly as the
:class:`iga_asp.derham.KronEigenbasis` of their 1-D pencils (K_k, M_k),
built once per mesh: a solve is forward (U^T), scale (1/(Lambda +
shift)) and backward (U), one walk per run of identical components.
The Jacobi smoothers read diagonals built from the 1-D factors.  The
SGS smoothers of A and Q_curl are one block sweep (:class:`Smoother`)
that keeps a triangular factorization of the upper triangle of each
diagonal block: the SGS of A is one block, read from the CSR A; that of
Q_curl has one block per curl component, the triangle written from the
1-D factors, and applies its off-diagonal blocks factored.

With the Jacobi smoothers, B is therefore a sum of Gram terms F diag(w) F^T:

    (I, 1/diag A),  (P U_H, 1/(Lambda_H + tau)),  (T U_L, 1/(tau Lambda_L))

and for 3-D div, in place of the last, (C, 1/(tau diag Q_curl)) and
(C P_curl U_H, 1/(tau Lambda_H)).  Dense kappa forms its sector blocks
Q^T B Q from them (:meth:`AspPreconditioner.sector_blocks`) instead of
applying B; the SGS smoothers have no such form.

Only S and the shift of H + tau M depend on tau.  :class:`AspSetup`
holds everything else (P, T, P_curl, the eigenpairs of H and B_T, and
on the first dense kappa the Gram factors of the space's sectors)
for one mesh, and :class:`AspPreconditioner` adds the two per-tau
pieces.  The correction applies P, P_curl and their transposes by sum
factorization on every mesh, and T by its CSR, whose integer stencil
measured faster than the factored product; the transfer set also keeps
T factored, for Q_curl.  Only the Gram factors read the CSR P and
P_curl.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssembledSystem,
    KronSum,
    SystemSetup,
    column_panels,
    curl_stiffness_matrix,  # noqa: F401  (unused; perfbench/tracing.py wraps it by name)
    h1_vector_matrix,
    mass_matrix,  # noqa: F401  (unused; perfbench/tracing.py wraps it by name)
    scalar_laplacian_matrix,
)
from .derham import build_space  # noqa: F401  (unused; perfbench/tracing.py wraps it by name)
from .derham import KronBlocks, KronEigenbasis
from .splines1d import DROP_TOL
from .transfer import TransferSet, build_transfer_set

__all__ = [
    "Smoother",
    "InnerSolver",
    "AspSetup",
    "AspPreconditioner",
]

# largest relative row norm of U^T X that a reflection sector X still
# takes for round-off of the 1-D eigenvectors' parity (the rows of B's
# Gram factors that a sector drops)
SECTOR_TOL = 1e-10


def _upper_transposed(A: sp.csr_matrix) -> sp.csc_matrix:
    """triu(A)^T, sliced from the CSR A in one pass: the CSR arrays of
    triu(A) are the CSC arrays of its transpose."""
    upper = A.indices >= np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    indptr = np.concatenate(([0], np.cumsum(upper)))[A.indptr]
    return sp.csc_matrix((A.data[upper], A.indices[upper], indptr), A.shape)


def _is_upper_triangle(A: sp.csr_matrix) -> bool:
    """Whether the CSR A is its own upper triangle: sorted indices, and
    each row's first stored column at or right of the row."""
    stored = np.flatnonzero(np.diff(A.indptr))
    return bool(A.has_sorted_indices
                and np.all(A.indices[A.indptr[stored]] >= stored))


class Smoother:
    """Jacobi or symmetric Gauss-Seidel smoother of a symmetric matrix.

    ``apply`` realizes S^{-1} r for r of shape (N,) or a block (N, k):
    Jacobi divides by the diagonal D, which it is given alone
    (``diagonal=``); SGS, that of the matrix ``A`` it is given alone,
    evaluates L^{-1} D L^{-T} with L = triu(A)^T by one block sweep each
    way.  A sparse ``A``, or its upper triangle, is one block; a square
    :class:`iga_asp.derham.KronBlocks` is one block per block row.  Each
    diagonal block (c, c) keeps one triangular factorization of its
    upper triangle, read from the sparse A's CSR arrays or written from
    the 1-D factors (:meth:`iga_asp.derham.KronBlocks.upper_triangle`),
    and each other block (c, d) its :class:`iga_asp.derham.KronPlan`.
    The solve with L^T runs the block rows backward, taking the blocks
    d > c of row c off its right-hand side; the one with L forward,
    taking the blocks d < c off.  Neither kind keeps a sparse matrix.
    """

    def __init__(self, kind: str, A: sp.spmatrix | KronBlocks | None = None, *,
                 diagonal: np.ndarray | None = None) -> None:
        if kind not in ("jacobi", "gs"):
            raise ValueError("smoother kind must be 'jacobi' or 'gs'")
        if kind == "jacobi" and (A is not None or diagonal is None):
            raise ValueError("the Jacobi smoother takes the diagonal alone")
        if kind == "gs" and (A is None or diagonal is not None):
            raise ValueError("the Gauss-Seidel smoother takes the matrix alone")
        self.kind = kind
        if kind == "jacobi":
            _check_diagonal(diagonal)
            self.diagonal = diagonal
            return
        # per block row: (rows, factor of its block of L, the blocks d > c
        # and d < c as (columns, plan))
        self._sweep, diagonals, at = [], [], 0
        for diagonal, lower, later, earlier in _gs_blocks(A):
            diagonals.append(diagonal)
            self._sweep.append((slice(at, at + diagonal.size), lower, later, earlier))
            at += diagonal.size
        self.diagonal = np.concatenate(diagonals)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """S^{-1} r; an r whose length is not the matrix's raises
        ``ValueError``."""
        r = np.asarray(r, dtype=float)
        if r.shape[0] != self.diagonal.shape[0]:
            raise ValueError(f"r has {r.shape[0]} rows; the matrix has "
                             f"{self.diagonal.shape[0]} columns")
        d = self.diagonal.reshape((-1,) + (1,) * (r.ndim - 1))
        if self.kind == "jacobi":
            return r / d
        x = np.empty(r.shape)
        for rows, lower, later, _ in reversed(self._sweep):
            x[rows] = lower.solve(_take_off(r[rows], later, x), trans="T")
        x *= d
        for rows, lower, _, earlier in self._sweep:
            x[rows] = lower.solve(_take_off(x[rows], earlier, x))
        return x


def _check_diagonal(diagonal: np.ndarray) -> np.ndarray:
    """``diagonal``, after checking that no entry is zero."""
    if np.any(diagonal == 0.0):
        raise ArithmeticError("matrix has a zero diagonal entry")
    return diagonal


def _gs_blocks(A):
    """Per block row c of the SGS sweep of ``A``: the diagonal and the
    factor of L's block (c, c) (:func:`_lower_factor`), and the
    ``(columns, plan)`` of the blocks d > c and of the blocks d < c.  A
    sparse A is one block, given as it is; a square KronBlocks gives triu
    of each diagonal block, written when its block row is reached and
    dropped once factored, so that one triangle is held at a time."""
    if not isinstance(A, KronBlocks):
        yield *_lower_factor(sp.csr_matrix(A)), [], []
        return
    blocks = [[None if terms is None else KronBlocks([[terms]]) for terms in row]
              for row in A.rows]
    if any(row[c] is None for c, row in enumerate(blocks)):
        raise ArithmeticError("matrix has a zero diagonal entry")
    at = np.cumsum([0] + [row[c].shape[0] for c, row in enumerate(blocks)])
    for c, row in enumerate(blocks):
        off = [(d, slice(at[d], at[d + 1]), block.plan)
               for d, block in enumerate(row) if block is not None and d != c]
        yield (*_lower_factor(row[c].upper_triangle()),
               [(cols, plan) for d, cols, plan in off if d > c],
               [(cols, plan) for d, cols, plan in off if d < c])


def _lower_factor(block: sp.csr_matrix) -> tuple:
    """``(diagonal, factor)`` of the CSR ``block`` or its upper triangle:
    its diagonal, checked for zeros, and one SuperLU factorization of
    triu(block)^T."""
    diagonal = _check_diagonal(block.diagonal())
    # an upper triangle's CSR arrays are the CSC arrays of triu(A)^T
    lower = (sp.csc_matrix((block.data, block.indices, block.indptr), block.shape)
             if _is_upper_triangle(block) else _upper_transposed(block))
    # triangular: no fill, no pivots
    return diagonal, spla.splu(lower, permc_spec="NATURAL",
                               options={"DiagPivotThresh": 0.0})


def _take_off(b: np.ndarray, blocks: list, x: np.ndarray) -> np.ndarray:
    """b minus the sum of each block's plan times its columns of x."""
    for cols, plan in blocks:
        b = b - plan(x[cols])
    return b


class InnerSolver(KronEigenbasis):
    """(op + shift (x)M)^{-1} = ``make(shift)`` of the :class:`KronSum`
    ``op`` with stiffness factors (H, H + tau M or L): the
    :class:`iga_asp.derham.KronEigenbasis` of the pencils (K_k, M_k) of
    each of ``op``'s runs, offset by its mass coefficient, with the
    eigenvectors laid out as ``eigh`` returns them."""

    def __init__(self, op: KronSum) -> None:
        if not op.stiffnesses:
            raise ValueError("fast diagonalization needs the stiffness factors")
        super().__init__([list(zip(op.stiffnesses[run.row], op.masses[run.row]))
                          for run in op.runs],
                         [run.count for run in op.runs], op.mass_coeff)


def _checked_q_curl_diagonal(diagonal: np.ndarray) -> np.ndarray:
    """The diagonal of Q_curl with the entries below ``DROP_TOL`` set to
    zero, as :func:`iga_asp.splines1d.drop_small` drops them, after
    checking that every entry is positive."""
    diagonal = np.where(np.abs(diagonal) < DROP_TOL, 0.0, diagonal)
    if np.any(diagonal <= 0.0):
        raise ArithmeticError("Q_curl has a non-positive diagonal entry "
                              "(curl-free curl basis function)")
    return diagonal


def _significant_forward(solver: InnerSolver, X: sp.spmatrix):
    """``(rows, F)``: the rows of U^T X (``solver.forward`` of the sparse
    X) whose norm exceeds ``SECTOR_TOL`` times the largest, and their
    indices.  In a reflection sector the other rows are round-off of the
    1-D eigenvectors' parity.  The forward transform runs on the
    :func:`iga_asp.assembly.column_panels` of X, twice (norms, then
    rows), so that the full U^T X is never held."""
    norms2 = np.zeros(X.shape[0])
    for _, panel in column_panels(X):
        Y = solver.forward(panel)
        norms2 += np.einsum("ij,ij->i", Y, Y)
    rows = np.flatnonzero(norms2 > SECTOR_TOL**2 * norms2.max(initial=0.0))
    F = np.empty((rows.size, X.shape[1]))
    for columns, panel in column_panels(X):
        F[:, columns] = solver.forward(panel)[rows]
    return rows, F


def _add_gram(block: np.ndarray, F, w: np.ndarray) -> None:
    """block += F^T diag(w) F for a sparse or dense F and w > 0."""
    if sp.issparse(F):
        G = (F.T @ sp.diags(w) @ F).tocoo()
        np.add.at(block, (G.row, G.col), G.data)
    else:
        F = F * np.sqrt(w)[:, None]
        block += F.T @ F


class AspSetup:
    """The tau-independent part of the auxiliary-space preconditioner of
    one problem on one mesh: the transfers, the eigenpairs of H, B_T
    and the Gram factors of the space's sectors (on the first dense
    kappa, see :attr:`gram_factors`).  A sweep builds it once per mesh
    and every tau's :class:`AspPreconditioner` reads it.

    ``potential`` is the :class:`InnerSolver` of L (curl and 2-D div;
    ``None`` for 3-D div) and ``curl_smoother`` the smoother W of
    Q_curl (3-D div only); ``solve_potential`` applies B_T from them,
    with P_curl factored.
    """

    def __init__(self, setup: SystemSetup, curl_smoother: str = "diag") -> None:
        if curl_smoother not in ("diag", "sgs"):
            raise ValueError("curl smoother must be 'diag' or 'sgs'")
        if setup.bc != "essential":
            raise ValueError("the preconditioner requires essential bc")
        self.system_setup = setup
        self.transfers: TransferSet = build_transfer_set(setup)
        self.h1 = InnerSolver(h1_vector_matrix(setup.disc))
        self.potential: InnerSolver | None = None
        self.curl_smoother: Smoother | None = None
        if self.transfers.P_curl_op is None:
            # curl and 2-D div: B_T = L^{-1}
            self.potential = InnerSolver(scalar_laplacian_matrix(setup.disc))
            self.solve_potential = self.potential.make()
            return
        # 3-D div: B_T = W^{-1} + P_curl H^{-1} P_curl^T
        # Q_curl = C^T M_div C, factored, from the C and M_div held here
        q_curl = self.transfers.T_op.congruence(setup.M_D_op)
        diagonal = _checked_q_curl_diagonal(q_curl.diagonal())
        W = (Smoother("jacobi", diagonal=diagonal) if curl_smoother == "diag"
             else Smoother("gs", q_curl))
        self.curl_smoother = W
        solve_h = self.h1.make()
        P_curl, P_curl_T = self.transfers.P_curl_op, self.transfers.P_curl_op_T
        self.solve_potential = (
            lambda y: W.apply(y) + P_curl.apply(solve_h(P_curl_T.apply(y))))

    @cached_property
    def gram_factors(self) -> list[tuple] | None:
        """Per basis Q of the space's sectors (``space.sectors``, whose
        columns have disjoint supports) the tau-independent factors of
        Q^T B Q: ``(squares, rows, W, G)`` with ``squares`` = (Q o Q)^T,
        so that Q^T diag(w) Q = diag(squares @ w); W = U_H^T P^T Q kept
        on its ``rows`` (:func:`_significant_forward`, from the CSR P);
        and the Gram block G = Q^T T B_T T^T Q.  Built on the first read
        and kept; ``None`` when B_T has no term form (the sgs curl
        smoother)."""
        if self.curl_smoother is not None and self.curl_smoother.kind != "jacobi":
            return None
        ts = self.transfers
        factors = []
        for Q in self.system_setup.space.sectors:
            rows, W = _significant_forward(self.h1, ts.P_main_T @ Q)
            G = np.zeros((Q.shape[1], Q.shape[1]))
            for F, w in self._potential_terms(ts.potential_T @ Q):
                _add_gram(G, F, w)
            factors.append((Q.multiply(Q).T.tocsr(), rows, W, G))
        return factors

    def _potential_terms(self, X: sp.spmatrix) -> list[tuple]:
        """The pairs (F, w) with X^T B_T X = sum F^T diag(w) F, for X =
        T^T Q: (U_L^T X, 1/Lambda_L); for 3-D div (X, 1/diag Q_curl) and
        (U_H^T P_curl^T X, 1/Lambda_H)."""
        if self.potential is not None:
            rows, F = _significant_forward(self.potential, X)
            return [(F, 1.0 / self.potential.eigenvalues()[rows])]
        rows, F = _significant_forward(self.h1, self.transfers.P_curl_T @ X)
        return [(X, 1.0 / self.curl_smoother.diagonal),
                (F, 1.0 / self.h1.eigenvalues()[rows])]


class AspPreconditioner:
    """Matrix-free application of the auxiliary-space preconditioner of
    ``system``, whose system setup ``setup`` was built from.  Only the
    smoother of A and the shift of H + tau M are built per tau; the
    transfers and B_T are read through ``setup``.  Jacobi reads
    ``system.diagonal``, so only the SGS smoother reads the CSR A (where
    :func:`iga_asp.assembly.system_matrix` did not assemble it, its first
    read does)."""

    def __init__(self, setup: AspSetup, system: AssembledSystem,
                 smoother: str = "jacobi") -> None:
        if setup.system_setup is not system.setup:
            raise ValueError("setup was built for another system setup")
        self.setup = setup
        self.system = system
        self.tau = system.tau
        self.smoother = (Smoother("gs", system.A) if smoother == "gs"
                         else Smoother(smoother, diagonal=system.diagonal))
        self._solve_main = setup.h1.make(shift=self.tau)
        self.shape = system.shape

    def apply(self, r: np.ndarray) -> np.ndarray:
        """B r: smoother + auxiliary-space correction terms.  Like
        ``smoother.apply`` and ``correction``, takes r of shape (N,) or a
        block (N, k) and returns the same shape."""
        r = np.asarray(r, dtype=float)
        return self.smoother.apply(r) + self.correction(r)

    def correction(self, r: np.ndarray) -> np.ndarray:
        """K r = (B - S^{-1}) r: the auxiliary-space terms alone."""
        r = np.asarray(r, dtype=float)
        setup = self.setup
        ts = setup.transfers
        out = ts.P_op.apply(self._solve_main(ts.P_op_T.apply(r)))
        return out + (ts.potential @ setup.solve_potential(
            ts.potential_T @ r)) / self.tau

    def sector_blocks(self) -> list[np.ndarray] | None:
        """Q^T B Q for each basis Q of ``space.sectors``, from the terms
        of B and the per-mesh factors of :attr:`AspSetup.gram_factors`:

            diag(squares @ (1/diag A)) + W^T diag(1/(Lambda_H + tau)) W + G / tau

        ``None`` when the smoother (Gauss-Seidel) or B_T (the sgs curl
        smoother) has no term form; dense kappa then applies B to
        panels."""
        factors = self.smoother.kind == "jacobi" and self.setup.gram_factors
        if not factors:
            return None
        inv_diag = 1.0 / self.smoother.diagonal
        inv_lam = 1.0 / self.setup.h1.eigenvalues(self.tau)
        blocks = []
        for squares, rows, W, G in factors:
            block = G / self.tau
            _add_gram(block, W, inv_lam[rows])
            block.flat[::block.shape[0] + 1] += squares @ inv_diag
            blocks.append(block)
        return blocks
