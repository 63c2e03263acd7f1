"""Kronecker-structured assembly of all global matrices and vectors.

Every global matrix here is a (block-diagonal of) Kronecker products of
the 1-D factor matrices from :mod:`iga_asp.splines1d`:

* ``discretize``            -- the tau-independent ``Discretization`` of
                               one mesh: its five spaces, a p + 2 point
                               Gauss rule per direction, and one 1-D mass
                               (stiffness) per distinct (B) factor space,
                               which every function below looks up,
* ``KronSum``               -- block-diagonal Kronecker sums of 1-D
                               stiffness and mass factors, kept factored,
                               applied by sum factorization, with their
                               diagonal from the 1-D diagonals,
* ``congruence_diagonal``   -- diag(B^T op B) for a block Kronecker B
                               (a differential) and a KronSum op, from
                               the 1-D factors: the Jacobi diagonals of
                               D^T M_range D and Q_curl,
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
* ``system_matrix``         -- the ``AssembledSystem(setup, tau, b)`` of
                               one tau: A = K + tau M_D as a product
                               from the factored masses, its diagonal
                               from the 1-D factors, and its CSR
                               assembled from K only when read,
* ``factored_product_wins`` -- the measured rule on which spaces that
                               factored product is faster than CSR,
* ``h1_vector_matrix``      -- vector H1 inner product on the auxiliary
                               space (KronSum H, includes the L2 part),
* ``scalar_laplacian_matrix`` -- grad-grad form on the scalar potential
                               space (KronSum L, essential bc only),
* ``curl_stiffness_matrix`` -- Q_curl = C^T M_div C assembled from the
                               curl matrix and div mass (the SGS curl
                               smoother of 3-D div),
* ``curl_stiffness_diagonal`` -- its diagonal from the 1-D factors (the
                               ``diag`` curl smoother),
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
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import derham
from .derham import (
    TensorSpace,
    block_diagonal,
    build_space,
    differential_blocks,
    differential_matrix,
    kron_apply,
    kron_blocks,
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
    "mass_operator",
    "mass_matrix",
    "congruence_diagonal",
    "system_matrix",
    "factored_product_wins",
    "h1_vector_matrix",
    "scalar_laplacian_matrix",
    "curl_stiffness_matrix",
    "curl_stiffness_diagonal",
    "assemble_rhs",
    "field_coefficients",
    "system_manifest",
    "export_matrix_market",
]

FieldFunc = Sequence[Callable[..., np.ndarray]]


def _range_kind(operator: str, dim: int) -> str:
    """Kind of the range space of the problem's differential, after
    checking the operator and the dimension."""
    if operator not in ("curl", "div"):
        raise ValueError("operator must be 'curl' or 'div'")
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    return derham.potential_and_range(operator, dim)[1]


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """System of one tau: the tau-independent ``setup`` it was built
    from, tau, and the load vector ``b``.  :meth:`apply_A` applies A
    from the factored masses of ``setup``; ``A`` is the assembled CSR,
    built on its first read (by the SGS smoother, the matrix export, and
    ``product`` below the rule) from the setup's ``stiffness``;
    ``diagonal`` is A's diagonal, built without it."""

    setup: SystemSetup = field(repr=False)
    tau: float
    b: np.ndarray | None = field(repr=False, default=None)

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

    @property
    def product(self) -> _SystemProduct:
        """The one product with A that CG and kappa (dense and Lanczos)
        are given: an operator whose ``apply`` is ``apply_A`` where
        :func:`factored_product_wins`, else the CSR ``A``'s product, and
        whose ``sector_blocks`` gives dense kappa A's sector blocks.  A
        new one on each read: the system keeps none, so that no
        reference cycle holds a finished system until garbage
        collection."""
        return _SystemProduct(self)


class _SystemProduct(spla.LinearOperator):
    """``AssembledSystem.product``: ``apply`` takes x of shape (N,) or
    (N, k), and :meth:`sector_blocks` forms Q^T A Q from the setup's
    per-mesh :attr:`SystemSetup.sector_factors`."""

    def __init__(self, system: AssembledSystem) -> None:
        space = system.setup.space
        super().__init__(float, (space.total_dim,) * 2)
        self.system = system
        self.apply = (system.apply_A if factored_product_wins(space)
                      else system.A.dot)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    _matmat = _matvec

    def sector_blocks(self, bases) -> list[np.ndarray] | None:
        """Q^T A Q = Q^T K Q + tau Q^T M_D Q for each basis Q of the
        space's sectors; ``None`` unless ``bases`` is ``space.sectors``
        itself (dense kappa then applies the product to panels)."""
        setup, tau = self.system.setup, self.system.tau
        if bases is not setup.space.sectors:
            return None
        return [K + tau * M for K, M in setup.sector_factors]


@dataclass(frozen=True, eq=False)
class Discretization:
    """The five de Rham spaces of one mesh (``spaces[kind]``), one
    quadrature rule per direction, and the 1-D factor matrices keyed by
    factor space."""

    spaces: dict[str, TensorSpace] = field(repr=False)
    quads: tuple[QuadratureRule, ...] = field(repr=False)
    masses: dict[Space1D, sp.csr_matrix] = field(repr=False)
    stiffnesses: dict[Space1D, sp.csr_matrix] = field(repr=False)


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


@dataclass(frozen=True, eq=False)
class KronSum:
    """Block-diagonal matrix kept as its 1-D factors.  Block ``c`` is

        sum_k  K_k (x) (x)_{j != k} M_j  +  mass_coeff * (x)_j M_j

    with ``masses[c]`` the per-direction factors M_j and
    ``stiffnesses[c]`` the K_k (``None``: no stiffness terms, a pure
    mass).  Components whose factor tuples are the same objects are
    identical blocks, which the fast-diagonalization solve of
    :class:`iga_asp.precond.InnerSolver` treats as one batch.
    """

    masses: tuple[tuple[sp.csr_matrix, ...], ...] = field(repr=False)
    stiffnesses: tuple[tuple[sp.csr_matrix, ...], ...] | None = field(
        repr=False, default=None)
    mass_coeff: float = 1.0

    def _terms(self) -> list[list[tuple[float, tuple]]]:
        """Per component, the ``(coeff, factors)`` terms of its block in
        the form :func:`iga_asp.derham.kron_blocks` takes."""
        out = []
        for c, masses in enumerate(self.masses):
            terms = [(self.mass_coeff, masses)] if self.mass_coeff else []
            if self.stiffnesses is not None:
                terms += [(1.0, masses[:k] + (K,) + masses[k + 1:])
                          for k, K in enumerate(self.stiffnesses[c])]
            out.append(terms)
        return out

    def tocsr(self) -> sp.csr_matrix:
        return kron_blocks(block_diagonal(self._terms()))

    def diagonal(self) -> np.ndarray:
        """The diagonal, from the 1-D factors: per component and term
        ``coeff * (x)_k diag(F_k)``."""
        return np.concatenate([
            sum(coeff * _kron_vectors([F.diagonal() for F in factors])
                for coeff, factors in terms)
            for terms in self._terms()])

    @cached_property
    def _dense_terms(self) -> list[tuple[tuple[int, ...], list]]:
        """Per component its shape and its terms with dense factors,
        built on the first :meth:`apply` and kept with the operator."""
        return [(tuple(M.shape[0] for M in masses),
                 [(coeff, [F.toarray() for F in factors])
                  for coeff, factors in terms])
                for masses, terms in zip(self.masses, self._terms())]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The matrix times x of shape (N,) or (N, k), without assembly:
        per component and term one :func:`iga_asp.derham.kron_apply` of
        the dense 1-D factors (sum factorization)."""
        x = np.asarray(x, dtype=float)
        rows = x.T.reshape(-1, x.shape[0])    # one row per column of x
        k = rows.shape[0]
        out = np.empty_like(rows)
        lo = 0
        for shape, terms in self._dense_terms:
            hi = lo + math.prod(shape)
            X = rows[:, lo:hi].reshape(k, *shape)
            block = out[:, lo:hi]
            for i, (coeff, factors) in enumerate(terms):
                Y = kron_apply(factors, X).reshape(k, -1)
                if coeff != 1.0:
                    Y *= coeff
                if i:
                    block += Y
                else:
                    block[...] = Y
            lo = hi
        return out.T.reshape(x.shape)


def _kron_vectors(vectors) -> np.ndarray:
    """(x)_k v_k of 1-D vectors, last index fastest as in ``sp.kron``."""
    return reduce(np.multiply.outer, vectors).ravel()


def congruence_diagonal(blocks, op: KronSum) -> np.ndarray:
    """diag(B^T op B) from the 1-D factors, with B given as the block
    terms of :func:`iga_asp.derham.kron_blocks`, one term (a, F) per
    block as a differential has, whose block rows are the components of
    the block-diagonal ``op``.  Block column c is the sum over block
    rows r and over the terms (m, M) of op's component r of

        a^2 m (x)_k diag(F_k^T M_k F_k)."""
    out = []
    for c in range(len(blocks[0])):
        total = 0.0
        for row, op_terms in zip(blocks, op._terms()):
            if row[c] is None:
                continue
            (a, factors), = row[c]
            for m, masses in op_terms:
                diags = []
                for F, M in zip(factors, masses):
                    F = F.toarray()
                    diags.append(np.einsum("ij,ij->j", F, M @ F))
                total = total + a * a * m * _kron_vectors(diags)
        out.append(total)
    return np.concatenate(out)


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
    factored as ``M_D_op`` and ``M_range_op``, and per distinct 1-D
    factor of the problem's space the Gauss nodes and transposed
    weighted basis values of the load vector.  The CSR ``M_D`` and
    ``M_range`` are assembled on first read (by the CSR A, the SGS
    Q_curl and the matrix export), as is K = D^T M_range D (by the CSR
    A); A's diagonal needs none.  A sweep builds the setup once per mesh
    and assembles each tau's system from it."""

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
        first dense kappa and kept.  Where :func:`factored_product_wins`
        they are (D Q)^T M_range (D Q) and Q^T M_D Q from the factored
        masses (:func:`_congruence`), and no CSR A, K or M_D is
        assembled; below it, sparse products with the CSR K and M_D that
        the CSR A is built from."""
        if factored_product_wins(self.space):
            return tuple((_congruence(self.M_range_op, self.D_mat @ Q),
                          _congruence(self.M_D_op, Q))
                         for Q in self.space.sectors)
        return tuple(((Q.T @ self.stiffness @ Q).toarray(),
                      (Q.T @ self.M_D @ Q).toarray())
                     for Q in self.space.sectors)

    @cached_property
    def stiffness_diagonal(self) -> np.ndarray:
        """diag(D^T M_range D), the tau-independent part of A's diagonal,
        from the 1-D factors of D and M_range."""
        return congruence_diagonal(
            differential_blocks(self.space, self.range_space), self.M_range_op)


# columns per product when dense kappa builds blocks: one block of n
# columns would hold a second n x n array at peak memory
_PANEL_WIDTH = 64


def _congruence(op: KronSum, F: sp.spmatrix) -> np.ndarray:
    """F^T op F for a sparse F, with ``op`` applied by sum factorization
    to panels of ``_PANEL_WIDTH`` columns of F."""
    F = sp.csc_matrix(F)
    F_T = F.T
    out = np.empty((F.shape[1], F.shape[1]))
    for lo in range(0, F.shape[1], _PANEL_WIDTH):
        out[:, lo:lo + _PANEL_WIDTH] = F_T @ op.apply(
            F[:, lo:lo + _PANEL_WIDTH].toarray())
    return out


def system_setup(operator: str, dim: int, p, n_elems,
                 bc: str = "essential") -> SystemSetup:
    """Build the tau-independent part of the curl-curl (``operator``
    'curl') or grad-div ('div') problem on the unit square or cube
    (``dim`` 2 or 3) with ``n_elems`` elements of degree ``p`` per
    direction."""
    range_kind = _range_kind(operator, dim)
    disc = discretize(p, n_elems, dim=dim, bc=bc)
    space = disc.spaces[operator]
    range_space = disc.spaces[range_kind]
    M_D_op = mass_operator(disc, operator)
    M_range_op = mass_operator(disc, range_kind)
    return SystemSetup(
        operator, dim, p, n_elems, bc, disc, space, range_space,
        differential_matrix(space, range_space), M_D_op, M_range_op,
        _load_bases(space, disc))


def system_matrix(setup: SystemSetup, tau: float,
                  rhs: FieldFunc | None = None) -> AssembledSystem:
    """The system A = D^T M_range D + tau M_D of ``setup``, plus the load
    vector of ``rhs`` when given; all but tau and b is read from
    ``setup``, and the CSR A is assembled only when something reads it."""
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    b = assemble_rhs(setup, rhs) if rhs is not None else None
    return AssembledSystem(setup, tau, b)


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


def curl_stiffness_matrix(C: sp.csr_matrix, M_div: sp.csr_matrix) -> sp.csr_matrix:
    """Q_curl = C^T M_div C from the 3-D curl matrix and the div mass:
    the curl-curl stiffness of the SGS curl smoother of the div problem
    (the ``diag`` smoother reads its diagonal from the 1-D factors)."""
    return drop_small(C.T @ M_div @ C)


def curl_stiffness_diagonal(disc: Discretization) -> np.ndarray:
    """diag(Q_curl) = diag(C^T M_div C) of a 3-D mesh, from the 1-D
    factors of the curl matrix and the div mass, without assembling
    either (the ``diag`` curl smoother of the div problem)."""
    spaces = disc.spaces
    return congruence_diagonal(differential_blocks(spaces["curl"], spaces["div"]),
                               mass_operator(disc, "div"))


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
