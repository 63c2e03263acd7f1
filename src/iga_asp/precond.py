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
Q_curl = C^T M_div C, computed from the 1-D factors of C and M_div
without assembling Q_curl, or its symmetric Gauss-Seidel matrix, and
P_curl the transfer onto V(curl).

H + tau M, L and H are per component Kronecker sums of 1-D stiffness
and mass matrices (:class:`iga_asp.assembly.KronSum`).
:class:`InnerSolver` inverts them exactly by fast diagonalization
(Lynch, Rice & Thomas 1964): the 1-D generalized eigenpairs
K_k U_k = M_k U_k Lambda_k, computed once per mesh, turn every inverse
into dense 1-D matrix products and a pointwise division.  The Jacobi
smoothers read diagonals built from the 1-D factors; the SGS smoothers
of A and Q_curl, which are not Kronecker, assemble their matrix and
keep sparse triangular solves.

Only S and the shift of H + tau M depend on tau.  :class:`AspSetup`
holds everything else (P, T, P_curl, the eigenpairs of H and B_T) for
one mesh, and :class:`AspPreconditioner` adds the two per-tau pieces.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssembledSystem,
    KronSum,
    SystemSetup,
    curl_stiffness_diagonal,
    curl_stiffness_matrix,
    h1_vector_matrix,
    mass_matrix,  # noqa: F401  (unused; perfbench/tracing.py wraps it by name)
    scalar_laplacian_matrix,
)
from .derham import build_space  # noqa: F401  (unused; perfbench/tracing.py wraps it by name)
from .derham import kron_apply
from .splines1d import DROP_TOL
from .transfer import TransferSet, build_transfer_set

__all__ = [
    "Smoother",
    "InnerSolver",
    "AspSetup",
    "AspPreconditioner",
]


def _lower_upper(A: sp.csr_matrix) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    L = sp.tril(A, format="csc")
    U = sp.triu(A, format="csc")
    return L, U


def _triangular_factor(T: sp.csc_matrix):
    """Direct factorization of a triangular matrix (no fill, no pivots)."""
    return spla.splu(T, permc_spec="NATURAL",
                     options={"SymmetricMode": False, "DiagPivotThresh": 0.0})


class Smoother:
    """Jacobi or symmetric Gauss-Seidel smoother of a sparse matrix.

    ``apply`` realizes S^{-1} r for r of shape (N,) or a block (N, k):
    Jacobi divides by the diagonal; SGS evaluates
    L^{-1} - L^{-1} A U^{-1} + U^{-1} with L/U the lower and upper
    triangles including the diagonal.  Jacobi may be given the
    ``diagonal`` alone in place of ``A``, and keeps no matrix either way.
    """

    def __init__(self, kind: str, A: sp.spmatrix | None = None, *,
                 diagonal: np.ndarray | None = None) -> None:
        if kind not in ("jacobi", "gs"):
            raise ValueError("smoother kind must be 'jacobi' or 'gs'")
        if (A is None) == (diagonal is None):
            raise ValueError("give exactly one of the matrix and its diagonal")
        if A is None and kind == "gs":
            raise ValueError("the Gauss-Seidel smoother needs the matrix")
        self.kind = kind
        if A is not None:
            A = sp.csr_matrix(A)
            diagonal = A.diagonal()
        if np.any(diagonal == 0.0):
            raise ArithmeticError("matrix has a zero diagonal entry")
        self._diag = diagonal
        if kind == "gs":
            self._A = A
            L, U = _lower_upper(A)
            self._solve_l = _triangular_factor(L).solve
            self._solve_u = _triangular_factor(U).solve

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "jacobi":
            return r / self._diag.reshape((-1,) + (1,) * (r.ndim - 1))
        x = self._solve_u(r)
        return x + self._solve_l(r - self._A @ x)


def _m_orthonormal_eigenpairs(K, M) -> tuple[np.ndarray, np.ndarray]:
    """(lam, U) with K U = M U diag(lam) and U^T M U = I; without K,
    lam = 0 and U U^T = M^{-1}."""
    if K is None:
        w, V = sla.eigh(M.toarray())
        return np.zeros_like(w), V / np.sqrt(w)
    return sla.eigh(K.toarray(), M.toarray())


def _runs(op: KronSum) -> list[list]:
    """[masses, stiffnesses, count] of each run of consecutive components
    sharing their factor tuples (identical blocks)."""
    stiffnesses = op.stiffnesses or (None,) * len(op.masses)
    runs: list[list] = []
    for masses, stiffs in zip(op.masses, stiffnesses):
        if runs and runs[-1][0] is masses and runs[-1][1] is stiffs:
            runs[-1][2] += 1
        else:
            runs.append([masses, stiffs, 1])
    return runs


class InnerSolver:
    """Exact inverse of the :class:`KronSum` ``op`` by fast
    diagonalization.  The 1-D generalized eigenpairs are computed once,
    here; :meth:`make` builds the solve for one shift from them."""

    def __init__(self, op: KronSum) -> None:
        self.op = op
        self._blocks = []
        for masses, stiffs, count in _runs(op):
            pairs = [_m_orthonormal_eigenpairs(K, M)
                     for K, M in zip(stiffs or (None,) * len(masses), masses)]
            # forward applies (x) U_k^T, backward (x) U_k; kron_apply
            # multiplies by the last factor's transpose, which the Fortran
            # copy turns into a C-ordered operand
            Us = [U for _, U in pairs]
            forward = [np.ascontiguousarray(U.T) for U in Us[:-1]] + [Us[-1].T]
            backward = Us[:-1] + [np.asfortranarray(Us[-1])]
            self._blocks.append((count, [w for w, _ in pairs], forward,
                                 backward))

    def make(self, shift: float = 0.0):
        """Solve with ``op + shift * (x)M``.  The shift adds to the mass
        coefficient, so H + tau M is never formed; identical components,
        and the k columns of an (N, k) right-hand side, are solved as one
        batch."""
        blocks = []
        for count, eigenvalues, forward, backward in self._blocks:
            lam = sum(np.ix_(*eigenvalues), self.op.mass_coeff + shift)
            if np.any(lam <= 0.0):
                raise ArithmeticError("Kronecker-sum operator is not SPD")
            blocks.append((count, lam.shape, forward, backward, 1.0 / lam))

        def solve(b: np.ndarray) -> np.ndarray:
            b = np.asarray(b, dtype=float)
            rows = b.T.reshape(-1, b.shape[0])    # one row per column of b
            k = rows.shape[0]
            parts = []
            lo = 0
            for count, shape, forward, backward, inv_lam in blocks:
                hi = lo + count * inv_lam.size
                Y = kron_apply(forward, rows[:, lo:hi].reshape(k * count, *shape))
                parts.append(kron_apply(backward, Y * inv_lam).reshape(k, -1))
                lo = hi
            x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            return x.T.reshape(b.shape)
        return solve


def _checked_q_curl_diagonal(diagonal: np.ndarray) -> np.ndarray:
    """The diagonal of Q_curl with the entries below ``DROP_TOL`` set to
    zero, as :func:`iga_asp.splines1d.drop_small` drops them, after
    checking that every entry is positive."""
    diagonal = np.where(np.abs(diagonal) < DROP_TOL, 0.0, diagonal)
    if np.any(diagonal <= 0.0):
        raise ArithmeticError("Q_curl has a non-positive diagonal entry "
                              "(curl-free curl basis function)")
    return diagonal


class AspSetup:
    """The tau-independent part of the auxiliary-space preconditioner of
    one problem on one mesh: the transfers, the eigenpairs of H, B_T and
    the composite cycle's M_D inverse (on first use).  A sweep builds it
    once per mesh and every tau's :class:`AspPreconditioner` reads it."""

    def __init__(self, setup: SystemSetup, curl_smoother: str = "diag") -> None:
        if curl_smoother not in ("diag", "sgs"):
            raise ValueError("curl smoother must be 'diag' or 'sgs'")
        if setup.bc != "essential":
            raise ValueError("the preconditioner requires essential bc")
        self.system_setup = setup
        self.transfers: TransferSet = build_transfer_set(setup)
        self.h1 = InnerSolver(h1_vector_matrix(setup.disc))
        P_curl = self.transfers.P_curl
        if P_curl is None:
            # curl and 2-D div: B_T = L^{-1}
            self.solve_potential = InnerSolver(
                scalar_laplacian_matrix(setup.disc)).make()
            return
        # 3-D div: B_T = W^{-1} + P_curl H^{-1} P_curl^T
        if curl_smoother == "diag":
            diagonal = curl_stiffness_diagonal(setup.disc)
            W = Smoother("jacobi", diagonal=_checked_q_curl_diagonal(diagonal))
        else:
            Q_curl = curl_stiffness_matrix(self.transfers.potential, setup.M_D)
            _checked_q_curl_diagonal(Q_curl.diagonal())
            W = Smoother("gs", Q_curl)
        solve_h = self.h1.make()
        self.solve_potential = (
            lambda y: W.apply(y) + P_curl @ solve_h(P_curl.T @ y))

    @cached_property
    def mass_solver(self) -> InnerSolver:
        """The composite cycle's M_D inverse, built on first use."""
        return InnerSolver(self.system_setup.M_D_op)


class AspPreconditioner:
    """Matrix-free application of the auxiliary-space preconditioner of
    ``system``, whose system setup ``setup`` was built from.  Only the
    smoother of A and the shift of H + tau M are built per tau; the
    transfers and B_T are read through ``setup``.  Jacobi reads
    ``system.diagonal``, so only the SGS smoother assembles the CSR A."""

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
        n = system.setup.space.total_dim
        self.shape = (n, n)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """B r: smoother + auxiliary-space correction terms.  Like
        ``smoother.apply`` and ``correction``, takes r of shape (N,) or a
        block (N, k) and returns the same shape."""
        r = np.asarray(r, dtype=float)
        return self.smoother.apply(r) + self.correction(r)

    def correction(self, r: np.ndarray) -> np.ndarray:
        """K r = (B - S^{-1}) r: the auxiliary-space terms alone."""
        r = np.asarray(r, dtype=float)
        P = self.setup.transfers.P_main
        T = self.setup.transfers.potential
        out = P @ self._solve_main(P.T @ r)
        return out + (T @ self.setup.solve_potential(T.T @ r)) / self.tau
