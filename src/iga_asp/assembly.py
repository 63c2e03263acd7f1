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
* ``mass_operator``         -- L2 mass of any tensor space as a KronSum,
* ``mass_matrix``           -- the same, assembled,
* ``system_setup``          -- the tau-independent ``SystemSetup`` of one
                               problem on one mesh: its discretization,
                               D, M_D, M_range and the load vector's
                               weighted 1-D bases, built once per mesh,
* ``system_matrix``         -- A = D^T M_range D + tau M_D and the load
                               vector for one tau, from a ``SystemSetup``,
* ``h1_vector_matrix``      -- vector H1 inner product on the auxiliary
                               space (KronSum H, includes the L2 part),
* ``scalar_laplacian_matrix`` -- grad-grad form on the scalar potential
                               space (KronSum L, essential bc only),
* ``curl_stiffness_matrix`` -- Q_curl = C^T M_div C from the curl matrix
                               and div mass already built (3-D div),
* ``assemble_rhs``          -- load vector from an analytic field,
* ``field_coefficients``    -- the Kronecker apply of per-direction
                               (nodes, matrix) pairs to a sampled field
                               that the load vector and the commuting
                               quasi-interpolant share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import derham
from .derham import (
    TensorSpace,
    build_space,
    differential_matrix,
    kron_apply,
    kron_blocks,
)
from .splines1d import (
    QuadratureRule,
    Space1D,
    drop_small,
    make_quadrature,
    mass_matrix_1d,
    stiffness_matrix_1d,
    basis_values,
)

__all__ = [
    "ProblemSpec",
    "AssembledSystem",
    "KronSum",
    "Discretization",
    "discretize",
    "SystemSetup",
    "system_setup",
    "mass_operator",
    "mass_matrix",
    "system_matrix",
    "h1_vector_matrix",
    "scalar_laplacian_matrix",
    "curl_stiffness_matrix",
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
    return "div" if (operator, dim) == ("curl", 3) else "l2"


@dataclass(frozen=True)
class ProblemSpec:
    """One curl-curl or grad-div model problem on the unit square/cube."""

    operator: str                     # 'curl' or 'div'
    dim: int
    p: int | tuple[int, ...]
    n_elems: int | tuple[int, ...]
    tau: float
    bc: str = "essential"
    rhs: FieldFunc | None = None

    def __post_init__(self) -> None:
        _range_kind(self.operator, self.dim)
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")


def _from_setup(name: str) -> property:
    return property(lambda self: getattr(self.setup, name),
                    doc=f"``setup.{name}``")


@dataclass(frozen=True)
class AssembledSystem:
    """System matrix and load vector of one tau, plus the tau-independent
    pieces they were assembled from (``setup``; its spaces and matrices
    are read through as attributes of the system)."""

    spec: ProblemSpec
    setup: SystemSetup = field(repr=False)
    A: sp.csr_matrix = field(repr=False)
    b: np.ndarray | None = field(repr=False, default=None)

    space = _from_setup("space")
    range_space = _from_setup("range_space")
    M_D = _from_setup("M_D")
    M_range = _from_setup("M_range")
    D_mat = _from_setup("D_mat")
    # the spaces, rules and 1-D factors everything was assembled from
    disc = _from_setup("disc")


@dataclass(frozen=True, eq=False)
class Discretization:
    """The five de Rham spaces of one mesh (``spaces[kind]``), one
    quadrature rule per direction, and the 1-D factor matrices keyed by
    factor space."""

    spaces: dict[str, TensorSpace] = field(repr=False)
    quads: tuple[QuadratureRule, ...] = field(repr=False)
    masses: dict[Space1D, sp.csr_matrix] = field(repr=False)
    stiffnesses: dict[Space1D, sp.csr_matrix] = field(repr=False)

    def check(self, space: TensorSpace) -> None:
        """Raise unless ``space`` is one of the five spaces."""
        if self.spaces[space.kind.kind] != space:
            raise ValueError("space is not part of this discretization "
                             "(other mesh, dimension or bc)")


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
        spaces, quads, {f: mass_matrix_1d(f, f, q) for f, q in rules.items()},
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

    def tocsr(self) -> sp.csr_matrix:
        rows = [[None] * len(self.masses) for _ in self.masses]
        for c, masses in enumerate(self.masses):
            terms = [(self.mass_coeff, masses)] if self.mass_coeff else []
            if self.stiffnesses is not None:
                terms += [(1.0, masses[:k] + (K,) + masses[k + 1:])
                          for k, K in enumerate(self.stiffnesses[c])]
            rows[c][c] = terms
        return kron_blocks(rows)

    def toarray(self) -> np.ndarray:
        return self.tocsr().toarray()


def mass_operator(space: TensorSpace, disc: Discretization) -> KronSum:
    """L2 mass of a tensor space: per component the Kronecker product
    of its 1-D factor masses."""
    disc.check(space)
    return KronSum(tuple(tuple(disc.masses[f] for f in comp)
                         for comp in space.components))


def mass_matrix(space: TensorSpace, disc: Discretization) -> sp.csr_matrix:
    """Block-diagonal L2 mass matrix, assembled from :func:`mass_operator`."""
    return mass_operator(space, disc).tocsr()


@dataclass(frozen=True, eq=False)
class SystemSetup:
    """Everything in the system of one problem on one mesh that does not
    depend on tau: the discretization, the differential D from the
    problem's space onto its range space, the masses M_D and M_range,
    and per distinct 1-D factor of the problem's space the Gauss nodes
    and transposed weighted basis values of the load vector.  A sweep
    builds it once per mesh and assembles each tau's system from it."""

    operator: str
    dim: int
    p: int | tuple[int, ...]
    n_elems: int | tuple[int, ...]
    bc: str
    disc: Discretization = field(repr=False)
    space: TensorSpace = field(repr=False)
    range_space: TensorSpace = field(repr=False)
    D_mat: sp.csr_matrix = field(repr=False)
    M_D: sp.csr_matrix = field(repr=False)
    M_range: sp.csr_matrix = field(repr=False)
    load_bases: dict[Space1D, tuple[np.ndarray, np.ndarray]] = field(repr=False)


def system_setup(operator: str, dim: int, p, n_elems,
                 bc: str = "essential") -> SystemSetup:
    """Build the tau-independent part of the system of every
    ``ProblemSpec(operator, dim, p, n_elems, tau, bc)``."""
    range_kind = _range_kind(operator, dim)
    disc = discretize(p, n_elems, dim=dim, bc=bc)
    space = disc.spaces[operator]
    range_space = disc.spaces[range_kind]
    return SystemSetup(
        operator, dim, p, n_elems, bc, disc, space, range_space,
        differential_matrix(space, range_space), mass_matrix(space, disc),
        mass_matrix(range_space, disc), _load_bases(space, disc))


_mesh_key = attrgetter("operator", "dim", "p", "n_elems", "bc")


def system_matrix(spec: ProblemSpec,
                  setup: SystemSetup | None = None) -> AssembledSystem:
    """Assemble A = D^T M_range D + tau M_D for the problem, plus the
    load vector when a right-hand side is attached, from ``setup``
    (built from ``spec`` when not given)."""
    if setup is None:
        setup = system_setup(*_mesh_key(spec))
    elif _mesh_key(setup) != _mesh_key(spec):
        raise ValueError(f"setup was built for {_mesh_key(setup)}, "
                         f"not {_mesh_key(spec)}")
    A = drop_small(setup.D_mat.T @ setup.M_range @ setup.D_mat
                   + spec.tau * setup.M_D)
    b = (assemble_rhs(setup.space, spec.rhs, setup.disc, setup.load_bases)
         if spec.rhs is not None else None)
    return AssembledSystem(spec, setup, A, b)


def _h1_operator(space: TensorSpace, disc: Discretization,
                 mass_coeff: float) -> KronSum:
    """One block of sum_k K_k (x) M.. plus ``mass_coeff`` times the mass
    per component of ``space``, whose components are identical."""
    disc.check(space)
    comp = space.components[0]
    masses = tuple(disc.masses[f] for f in comp)
    stiffs = tuple(disc.stiffnesses[f] for f in comp)
    n = space.n_components
    return KronSum((masses,) * n, (stiffs,) * n, mass_coeff)


def h1_vector_matrix(vector_space: TensorSpace, disc: Discretization) -> KronSum:
    """Matrix H: the full vector H1 inner product (grad-grad plus L2)
    on the auxiliary space, block-diagonal over the identical scalar
    components."""
    if vector_space.kind.kind != "vector":
        raise ValueError("H is assembled on the auxiliary vector space")
    return _h1_operator(vector_space, disc, 1.0)


def scalar_laplacian_matrix(grad_space: TensorSpace,
                            disc: Discretization) -> KronSum:
    """Matrix L: grad-grad form on the scalar potential space.

    Only the essential-bc space is supported: with natural bc the
    constants make L singular and the preconditioner formulas that use
    L^{-1} are meaningless.
    """
    if grad_space.kind.kind != "grad":
        raise ValueError("L is assembled on the scalar grad space")
    if grad_space.kind.bc != "essential":
        raise ValueError("scalar Laplacian requires essential bc; "
                         "the natural-bc operator is singular (constants)")
    return _h1_operator(grad_space, disc, 0.0)


def curl_stiffness_matrix(C: sp.csr_matrix, M_div: sp.csr_matrix) -> sp.csr_matrix:
    """Q_curl = C^T M_div C from the 3-D curl matrix and the div mass:
    the curl-curl stiffness whose diagonal drives the extra div-problem
    smoother."""
    return drop_small(C.T @ M_div @ C)


def field_coefficients(space: TensorSpace, funcs: FieldFunc,
                       factor_pairs) -> np.ndarray:
    """Per component, ``(x)_k T_k`` applied to the samples of the
    component's callable on the tensor grid of the nodes ``x_k``, with
    ``factor_pairs(component)`` the per-direction ``(x_k, T_k)``.

    ``funcs`` is a sequence of callables, one per component, each taking
    d coordinate arrays (broadcastable) and returning values.
    """
    if callable(funcs):
        funcs = [funcs]
    if len(funcs) != space.n_components:
        raise ValueError("need one callable per component")
    out = []
    for comp, fc in zip(space.components, funcs):
        pairs = factor_pairs(comp)
        grids = np.meshgrid(*(x for x, _ in pairs), indexing="ij")
        F = np.broadcast_to(np.asarray(fc(*grids), dtype=float), grids[0].shape)
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


def assemble_rhs(space: TensorSpace, f: FieldFunc, disc: Discretization,
                 load_bases: dict | None = None) -> np.ndarray:
    """Load vector b_r = ∫ f · v_r by tensor Gauss quadrature: per
    direction the factor's basis values weighted by the rule's weights
    (see :func:`field_coefficients` for ``f``).  ``load_bases``, from
    :attr:`SystemSetup.load_bases`, saves recomputing them."""
    disc.check(space)
    if load_bases is None:
        load_bases = _load_bases(space, disc)
    return field_coefficients(space, f,
                              lambda comp: [load_bases[fac] for fac in comp])


def export_matrix_market(system: AssembledSystem, directory) -> list[str]:
    """Write A, M_D, M_range, D_mat (and b if present) plus a JSON
    manifest into ``directory``; returns the written file names."""
    import json
    from pathlib import Path

    import scipy.io as sio

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    mats = {"A": system.A, "M_D": system.M_D,
            "M_range": system.M_range, "D_mat": system.D_mat}
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

    return {
        "problem": {
            "operator": system.spec.operator,
            "dim": system.spec.dim,
            "p": [int(v) for v in np.atleast_1d(system.spec.p)],
            "n_elems": [int(v) for v in np.atleast_1d(system.spec.n_elems)],
            "tau": system.spec.tau,
            "bc": system.spec.bc,
        },
        "space": derham.space_descriptor(system.space),
        "range_space": derham.space_descriptor(system.range_space),
        "nnz": {"A": int(system.A.nnz), "M_D": int(system.M_D.nnz),
                "M_range": int(system.M_range.nnz), "D_mat": int(system.D_mat.nnz)},
        "checksums": {"A": checksum(system.A), "M_D": checksum(system.M_D),
                      "D_mat": checksum(system.D_mat)},
    }
