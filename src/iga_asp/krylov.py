"""Krylov solvers and spectral estimation.

* :func:`pcg` -- outer preconditioned conjugate gradients with the
  true-residual stopping rule ||A x - b|| / ||b|| <= tol and zero
  initial guess; stopped without converging, it returns the iterate of
  smallest true residual.  It takes the flexible (Polak-Ribiere) direction
  update exactly when the preconditioner declares ``nonlinear = True``.
* :class:`GltPreconditioner` -- the composite cycle: relaxation sweeps,
  a fixed number of mass-preconditioned MINRES iterations on the
  system itself, then the auxiliary-space correction.  Its residuals
  apply A factored (``AssembledSystem.apply_A``: D^T M_range D + tau M_D
  with the masses applied by sum factorization); its MINRES runs in the
  mass-orthonormal basis of the system setup
  (:class:`iga_asp.assembly.MassBasis`), where the mass preconditioner
  is the identity and A is W^T W + tau I, and there on the eigenvalues
  of W^T W + tau I, which the basis's eigenbasis of the range Laplacian
  gives, so that its steps make no Kronecker product.  Its truncated
  MINRES step makes it nonlinear, and it says so.
* :func:`minres` -- unpreconditioned MINRES from zero for a fixed
  number of steps, which the cycle's smoothing step runs on a diagonal
  operator.  It keeps its Lanczos vectors and forms the iterate once,
  at the end, so that a step makes only the vector operations of the
  Lanczos recurrence.
* :func:`estimate_condition_number` -- extreme eigenvalues of the
  (preconditioned) operator, dense (up to ``DENSE_MAX_DIM`` unknowns)
  or via preconditioned Lanczos; it refuses a nonlinear preconditioner.
  Dense mode solves one pencil per basis of the space's bases adapted
  to the symmetries of the unit square or cube (``TensorSpace.sectors``)
  when the operators supply their blocks there: A's from per-mesh
  factors (:meth:`iga_asp.assembly.AssembledSystem.sector_blocks`) and,
  for a Jacobi ASP of that system, B's from the Gram terms of B
  (:meth:`iga_asp.precond.AspPreconditioner.sector_blocks`).  Every
  other pair takes the one-block path, which applies each operator that
  is not sparse to panels of the identity.

Every consumer takes one operator per system: the sweep gives CG and
both kappa modes the ``AssembledSystem`` itself, whose ``apply`` is the
factored product past a measured rule and below it the product of the
CSR A that :func:`iga_asp.assembly.system_matrix` assembled with the
system.  The rule decides A's product only: the ASP applies its
transfers factored on every mesh.  Dense kappa's sector blocks of A are
sparse products with the CSR K and M_D on either side of the rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import column_panels
from .precond import AspPreconditioner

__all__ = [
    "SolveReport",
    "GltPreconditioner",
    "minres",
    "pcg",
    "estimate_condition_number",
    "DENSE_MAX_DIM",
    "AUTO_DENSE_MAX_DIM",
]

# largest dimension that dense kappa materializes
DENSE_MAX_DIM = 20000
# largest dimension at which mode="auto" picks dense kappa over Lanczos
AUTO_DENSE_MAX_DIM = 2500


@dataclass
class SolveReport:
    """Outcome of one Krylov solve."""

    iterations: int
    converged: bool
    residuals: list[float] = field(repr=False, default_factory=list)
    wall_time: float = 0.0
    max_iter: int = 0
    breakdown: bool = False


def _as_matvec(op):
    if op is None:
        return lambda v: v
    if hasattr(op, "apply"):
        return op.apply
    return lambda v: op @ v


def pcg(A, b: np.ndarray, B=None, tol: float = 1e-6, max_iter: int = 3000):
    """Preconditioned CG with true-residual stopping.

    ``A`` and ``B`` may be matrices, LinearOperators, or objects with
    ``apply``.  The convergence test uses the recomputed residual
    ||b - A x||, not the recurrence residual.  A ``B`` with a true
    ``nonlinear`` attribute gets the flexible (Polak-Ribiere) update
    beta = z^T (r - r_old) / rz (Notay, SIAM J. Sci. Comput. 22, 2000);
    any other ``B`` the standard beta = z^T r / rz.  The returned x is
    the iterate of smallest true residual, ``min(report.residuals)``;
    when it converged, that is the last one.
    """
    amat = _as_matvec(A)
    bmat = _as_matvec(B)
    flexible = getattr(B, "nonlinear", False)
    b = np.asarray(b, dtype=float)
    x = np.zeros(b.shape[0])
    t0 = time.perf_counter()
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return x, SolveReport(0, True, [0.0], time.perf_counter() - t0, max_iter)
    r = b.copy()  # the residual of x = 0
    residuals = [float(np.linalg.norm(r) / nb)]
    if residuals[-1] <= tol:
        return x, SolveReport(0, True, residuals, time.perf_counter() - t0, max_iter)
    z = bmat(r)
    p = z.copy()
    rz = float(r @ z)
    # x is rebound at every step, so the best iterate needs no copy
    best_x, best_res = x, residuals[0]
    breakdown = False
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        Ap = amat(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            breakdown = True
            it -= 1
            break
        alpha = rz / pAp
        r_old = r.copy() if flexible else None
        x = x + alpha * p
        r = r - alpha * Ap
        true_res = float(np.linalg.norm(b - amat(x)) / nb)
        residuals.append(true_res)
        if true_res < best_res:
            best_x, best_res = x, true_res
        if true_res <= tol:
            converged = True
            break
        z = bmat(r)
        rz_old, rz = rz, float(r @ z)
        if flexible:
            beta = float(z @ (r - r_old)) / rz_old
        else:
            beta = rz / rz_old
        if rz == 0.0:
            breakdown = True
            break
        p = z + beta * p
    report = SolveReport(it, converged, residuals,
                         time.perf_counter() - t0, max_iter, breakdown)
    return best_x, report


def minres(matvec, b: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` iterations of MINRES (Paige & Saunders, SIAM J. Numer.
    Anal. 12, 1975) on the symmetric operator ``matvec`` from x = 0,
    unpreconditioned: the Lanczos recurrence with the QR factorization of
    its tridiagonal matrix updated by one Givens rotation per step, so
    that x minimizes ||b - A x|| over the Krylov space of b.  The Lanczos
    recurrence is scipy's unnormalized one, with its order of operations.
    It stops early only on a Lanczos breakdown, beta_{k+1} <= 10 eps
    beta_1, where that space is invariant and x solves the system
    (scipy's ``istop = -1``); it makes no residual test.

    The Lanczos vectors v_k are kept as the rows of one (steps, N) array,
    and x is formed once, at the end: x = V^T c with R c = phi, where R is
    the upper-triangular factor of the tridiagonal matrix (diagonal
    gamma_k, superdiagonals delta_k and eps_k) and phi the rotated
    right-hand side, so c comes by back-substitution.  Scipy's MINRES
    forms the same x as sum phi_k w_k with W = V R^{-1} updated per step;
    here a step makes only the recurrence's vector operations.  ``matvec``
    receives rows of that array and must return a new array on every
    call."""
    b = np.asarray(b, dtype=float)
    beta1 = math.sqrt(b @ b)
    if beta1 == 0.0:
        return np.zeros_like(b)
    eps = np.finfo(float).eps
    # r1, r2: the last two Lanczos vectors times their norms oldb, beta
    # (y is matvec's new array, updated in place)
    r1 = r2 = y = b
    oldb, beta = 0.0, beta1
    cs, sn, dbar, epsln, phibar = -1.0, 0.0, 0.0, 0.0, beta1
    V, tmp = np.empty((steps, b.shape[0])), np.empty_like(b)
    # R's diagonal gamma_k and superdiagonals delta_k (row k - 1) and
    # eps_k (row k - 2), and phi
    gammas, deltas, epsilons, phis = [], [], [], []
    for k in range(steps):
        v = np.multiply(1.0 / beta, y, out=V[k])
        y = matvec(v)
        if k:
            y -= np.multiply(beta / oldb, r1, out=tmp)
        alpha = float(v @ y)
        y -= np.multiply(alpha / beta, r2, out=tmp)
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(y @ y)
        # the last rotation on the new column of the tridiagonal matrix,
        # then the rotation that annihilates its subdiagonal entry beta
        oldeps, epsln = epsln, sn * beta
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        dbar = -cs * beta
        gamma = max(math.sqrt(gbar * gbar + beta * beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        gammas.append(gamma)
        deltas.append(delta)
        epsilons.append(oldeps)
        phis.append(phi)
        if beta <= 10.0 * eps * beta1:
            break
    # R c = phi by back-substitution, with R's entries past its last
    # column 0
    m = len(phis)
    deltas += [0.0]
    epsilons += [0.0, 0.0]
    c = [0.0] * (m + 2)
    for k in reversed(range(m)):
        c[k] = (phis[k] - deltas[k + 1] * c[k + 1]
                - epsilons[k + 2] * c[k + 2]) / gammas[k]
    return np.array(c[:m]) @ V[:m]


class GltPreconditioner:
    """Composite preconditioner: per cycle, nu1 relaxation sweeps, then
    nu2 iterations of MINRES on the system preconditioned by the exact
    inverse mass matrix (the degree-robust "GLT" smoothing step), then
    the auxiliary-space correction; nu_asp cycles per application.

    The system is ``asp.system``.  The relaxation residuals and the
    residual before the correction are its ``apply_A`` (A factored, never
    the assembled CSR); the first sweep of an application starts from
    x = 0 and relaxes b itself, with no product.  The MINRES step runs in
    the mass-orthonormal basis of the system setup
    (:class:`iga_asp.assembly.MassBasis`, built once per mesh, here):
    preconditioning by M_D^{-1} = C C^T gives, in exact arithmetic, the
    iterates of plain MINRES on S = C^T A C = W^T W + tau I from
    r = C^T (b - A x), and x gains C y.

    MINRES from zero depends only on the spectral measure of r under S,
    so :meth:`_smoothing_step` runs it on S's eigenvalues instead, with
    the range Laplacian's eigenbasis V, mu that the mass basis holds as
    ``laplacian`` and its ``mode_scale`` s (1/sqrt mu, 0 on L's null
    modes, which are in ker W^T): z = s V^T W r, r0 = r - W^T V (s z) the
    part of r in ker W, and :func:`minres` on the diagonal (tau, mu + tau)
    with right-hand side (||r0||, z), whose null-mode entries are 0 and
    stay 0; its y maps back as y_0 r0 / ||r0|| + W^T V (s y_1).  In exact
    arithmetic these are the iterates of MINRES on S.  The nu2 steps make
    no Kronecker product; the step makes six (W and V^T once, V and W^T
    twice), where MINRES on S made two per step.
    """

    # MINRES truncated at nu2 steps is not a fixed linear map of b: pcg
    # takes the flexible update for it, and it has no condition number
    nonlinear = True

    def __init__(self, asp: AspPreconditioner, nu1: int = 1, nu2: int = 1,
                 nu_asp: int = 3) -> None:
        if min(nu1, nu2, nu_asp) < 1:
            raise ValueError("all cycle counts must be positive")
        self.system = asp.system
        self.asp = asp
        self.nu1, self.nu2, self.nu_asp = nu1, nu2, nu_asp
        basis = self._basis = self.system.setup.mass_basis
        self._spectrum = np.concatenate(([self.system.tau],
                                         basis.laplacian.eigenvalues()
                                         + self.system.tau))

    def _smoothing_step(self, r: np.ndarray) -> np.ndarray:
        """nu2 MINRES steps on W^T W + tau I from zero, run on its
        eigenvalues (see the class docstring)."""
        basis = self._basis
        scale, V = basis.mode_scale, basis.laplacian.U
        z = basis.laplacian.forward(basis.W.apply(r)) * scale
        r0 = r - basis.W_T.apply(V.apply(z * scale))
        norm_r0 = math.sqrt(r0 @ r0)
        spectrum = self._spectrum
        y = minres(lambda v: spectrum * v, np.concatenate(([norm_r0], z)),
                   self.nu2)
        x = basis.W_T.apply(V.apply(y[1:] * scale))
        if norm_r0 > 0.0:
            x += (y[0] / norm_r0) * r0
        return x

    def apply(self, b: np.ndarray) -> np.ndarray:
        A, smooth = self.system.apply_A, self.asp.smoother.apply
        basis = self._basis
        b = np.asarray(b, dtype=float)
        # the first sweep starts from x = 0, whose residual is b itself
        x = smooth(b)
        for cycle in range(self.nu_asp):
            for _ in range(self.nu1 if cycle else self.nu1 - 1):
                x = x + smooth(b - A(x))
            r = basis.forward.apply(b - A(x))
            x = x + basis.backward.apply(self._smoothing_step(r))
            d = b - A(x)
            x = x + self.asp.correction(d)
        return x


def _dense(op) -> np.ndarray:
    """The dense matrix of ``op``: ``toarray()`` of a sparse ``op``, else
    ``op`` applied to the :func:`iga_asp.assembly.column_panels` of the
    identity, entry for entry."""
    if sp.issparse(op):
        return op.toarray()
    n = op.shape[0]
    mv = _as_matvec(op)
    out = np.empty((n, n))
    for columns, panel in column_panels(sp.identity(n, format="csc")):
        out[:, columns] = mv(panel)
    return out


def _sector_pairs(A, B) -> list[tuple] | None:
    """(Q^T A Q, Q^T B Q) per basis Q of ``space.sectors`` of A's space,
    from the operators' ``sector_blocks()``, or ``None`` when they do not
    supply them: A has none, or B is neither ``None`` nor a preconditioner
    of A itself (``B.system is A``) whose ``sector_blocks()`` gives blocks.
    B is asked first, so a B without a term form (the Gauss-Seidel or the
    sgs curl smoother) builds neither the sectors nor A's factors."""
    if not hasattr(A, "sector_blocks"):
        return None
    if B is None:
        return [(Ad, None) for Ad in A.sector_blocks()]
    if getattr(B, "system", None) is not A or not hasattr(B, "sector_blocks"):
        return None
    B_blocks = B.sector_blocks()
    return list(zip(A.sector_blocks(), B_blocks)) if B_blocks else None


def _symmetrize(X: np.ndarray) -> np.ndarray:
    """(X + X^T) / 2 in place of the dense X (numpy buffers the
    overlapping operand)."""
    X += X.T
    X *= 0.5
    return X


def _pencil_eigenvalues(Ad, Bd) -> np.ndarray:
    """Eigenvalues of B A (of A when ``Bd`` is None) from dense matrices,
    which are symmetrized in place."""
    Ad = _symmetrize(Ad)
    if Bd is None:
        return sla.eigvalsh(Ad)
    # eigenvalues of B A via the symmetric pencil form
    return sla.eigh(Ad, _symmetrize(Bd), type=3, eigvals_only=True)


def estimate_condition_number(A, B=None, mode: str = "dense", k: int = 200,
                              seed: int = 0):
    """Extreme eigenvalues and condition number of B A (or A alone).

    ``dense`` materializes the operators (dim <= ``DENSE_MAX_DIM``) and
    solves the generalized symmetric eigenproblem exactly.  When A is an
    :class:`iga_asp.assembly.AssembledSystem` and B is ``None`` or a
    Jacobi ASP of that very system, both supply their blocks Q^T A Q and
    Q^T B Q per basis Q of ``space.sectors`` (A's from per-mesh factors,
    B's from the Gram terms of B, so B is not applied): both commute with
    the reflections of the square or cube and with the swap of x_0 and
    x_1 by construction, so B A is block-diagonal in the reflection
    sectors and has the same spectrum on the two sectors of each pair
    that the swap exchanges, and dense mode solves one pencil per basis,
    which together keep about 3/4 of the unknowns.  Every other pair
    (the Gauss-Seidel smoother is not reflection-equivariant) takes the
    one-block path: an operator that is not a scipy sparse matrix is
    applied to (n, 64) panels of the identity, so it must accept (n, k)
    blocks as well as vectors.  The term blocks agree with B applied to
    the bases to 1e-14 relative per block.  On the README sweep's dense
    cells (2-D curl, N <= 2,244) the sectored kappa is within 2.3e-13
    relative of the one-block kappa at tau >= 1; below, B's tau^{-1}
    gradient term makes the pencil ill-conditioned, and they differ by
    up to 1.8e-12 (tau = 0.1), 3.3e-11 (1e-2), 1.6e-10 (1e-3) and
    4.5e-9 (1e-4), as the reflection sectors alone do (3.2e-9 there).
    ``lanczos`` runs ``k`` preconditioned-Lanczos steps with full
    reorthogonalization and returns the extreme Ritz values.  Measured
    at k = 200 on four 2-D curl Jacobi-ASP cells with N <= 2,244 (p = 3,
    n = 32, tau = 1e-4 and 1e4; p = 2, n = 32, tau = 1; p = 1, n = 16,
    tau = 1e-4), kappa was within 4.6e-9 relative of dense.  ``auto`` is
    ``dense`` up to ``AUTO_DENSE_MAX_DIM`` unknowns, else ``lanczos``, so
    it runs Lanczos only on larger cells; there, on 2-D curl Jacobi-ASP
    cells at n = 64 (N = 8,064 and 8,580), k = 200 was off dense by up
    to 2.3e-4 relative (p = 1, tau = 1e-4), all of it in lambda_max.

    A ``B`` with a true ``nonlinear`` attribute (the composite cycle)
    is no linear operator, so B A has no spectrum, and ``k < 1`` leaves
    no Lanczos step: both raise ``ValueError`` in every mode, before any
    work.
    """
    if getattr(B, "nonlinear", False):
        raise ValueError(f"{type(B).__name__} is a nonlinear preconditioner;"
                         " B A has no condition number")
    if k < 1:
        raise ValueError(f"k = {k} Lanczos steps; k must be at least 1")
    n = A.shape[0]
    if mode == "auto":
        mode = "dense" if n <= AUTO_DENSE_MAX_DIM else "lanczos"
    if mode == "dense":
        if n > DENSE_MAX_DIM:
            raise ValueError(f"dense mode limited to dimension {DENSE_MAX_DIM}")
        pairs = _sector_pairs(A, B) or [
            (_dense(A), None if B is None else _dense(B))]
        spectra = [_pencil_eigenvalues(Ad, Bd) for Ad, Bd in pairs]
        lam_min = float(min(w[0] for w in spectra))
        lam_max = float(max(w[-1] for w in spectra))
    elif mode == "lanczos":
        lam_min, lam_max = _lanczos_extremes(A, B, min(k, n), seed)
    else:
        raise ValueError("mode must be 'auto', 'dense' or 'lanczos'")
    if lam_min <= 0.0:
        raise ArithmeticError("non-positive extreme eigenvalue estimate; "
                              "operator pair is not SPD to working accuracy")
    return lam_min, lam_max, lam_max / lam_min


def _lanczos_extremes(A, B, k: int, seed: int) -> tuple[float, float]:
    amat = _as_matvec(A)
    bmat = _as_matvec(B)
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    z = bmat(v)
    beta = float(np.sqrt(v @ z))
    # Lanczos vectors and their B-images as rows: row-major keeps each
    # vector contiguous for the operators and the reorthogonalization
    V = np.empty((k + 1, n))
    Z = np.empty((k + 1, n))
    V[0] = v / beta
    Z[0] = z / beta
    alphas: list[float] = []
    betas: list[float] = []
    v_prev = np.zeros(n)
    beta_j = 0.0
    for j in range(k):
        w = amat(Z[j]) - beta_j * v_prev
        alpha = float(w @ Z[j])
        w = w - alpha * V[j]
        # full reorthogonalization in the B inner product
        w -= (Z[: j + 1] @ w) @ V[: j + 1]
        wz = bmat(w)
        beta_j = float(np.sqrt(max(w @ wz, 0.0)))
        alphas.append(alpha)
        if beta_j <= 1e-14 * abs(alpha):
            break
        betas.append(beta_j)
        v_prev = V[j]
        V[j + 1] = w / beta_j
        Z[j + 1] = wz / beta_j
    if len(betas) >= len(alphas):
        betas = betas[: len(alphas) - 1]
    w = sla.eigvalsh_tridiagonal(np.array(alphas), np.array(betas))
    return float(w[0]), float(w[-1])
