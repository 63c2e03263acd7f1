"""Auxiliary-space transfer matrices.

Restricted to the spline inputs of the auxiliary vector space, the
quasi-interpolation onto the curl/div spaces is block-diagonal with
Kronecker products of identities (Greville interpolation reproduces its
own space) and bc-restricted 1-D histopolations Q per block:

    P_curl = diag(Q1 x I x I,  I x Q2 x I,  I x I x Q3)
    P_div  = diag(I x Q2 x Q3, Q1 x I x Q3, Q1 x Q2 x I)   (3-D)
    P_div  = diag(I x Q2,      Q1 x I)                     (2-D)

:func:`iga_asp.derham.transfer_blocks` builds them by the differentials'
per-factor rule with Q in place of the difference matrix; a mesh's
transfers and differentials read their 1-D blocks (identities, the
difference maps, one Q per knot vector) from the mesh's
:attr:`iga_asp.assembly.Discretization.factor_blocks`, built once.  A
:class:`TransferSet` keeps the transfers onto the problem's space and
(3-D div) onto its potential space factored, each as that
:class:`iga_asp.derham.KronBlocks` and its transpose, which the
correction applies on every mesh, and assembles their CSR only when
read.  It keeps the potential map T (G, R or C) as the KronBlocks it is
written from, whose congruence T^T M T gives Q_curl's diagonal and upper
triangle from the 1-D factors (3-D div), and writes its CSR from it,
whose product the correction takes.  Every CSR here is written straight
from the 1-D factors (:meth:`iga_asp.derham.KronBlocks.tocsr`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import SystemSetup
from .derham import (KronBlocks, TensorSpace, differential_blocks,
                     potential_and_range, transfer_blocks)
from .derham import build_space  # noqa: F401  (unused; perfbench/tracing.py wraps it by name)
from .splines1d import (
    Space1D,
    difference_matrix_1d,
    greville_points,
    greville_rule,
    histopolation_matrix_1d,
    interpolation_matrix_1d,
)

__all__ = [
    "TransferSet",
    "build_p_curl",
    "build_p_div",
    "build_transfer_set",
    "function_projection_1d",
]


@dataclass(frozen=True)
class TransferSet:
    """All matrices one ASP formula needs besides the smoother, and the
    transposes its apply reads.  The transfers onto the problem's space
    and (3-D div; else ``None``) onto its potential space are kept
    factored, as ``P_op`` and ``P_curl_op``, with their transposes
    ``P_op_T`` and ``P_curl_op_T``; ``P_main`` and ``P_curl`` are their
    CSR and ``P_main_T`` and ``P_curl_T`` the CSC views ``.T`` returns,
    all built on first read.  The potential map is kept factored, as
    ``T_op``; ``potential`` is its CSR and ``potential_T`` the CSC view
    that shares its arrays."""

    P_op: KronBlocks = field(repr=False)
    T_op: KronBlocks = field(repr=False)   # G (curl), R (2-D div), C (3-D div)
    P_curl_op: KronBlocks | None = field(repr=False, default=None)  # 3-D div
    potential: sp.csr_matrix = field(init=False, repr=False)
    potential_T: sp.csc_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "potential", self.T_op.tocsr())
        object.__setattr__(self, "potential_T", self.potential.T)

    # the transposes, and the CSR forms with their CSC views, built on
    # first read; P_curl's are None where P_curl_op is
    P_op_T = cached_property(lambda self: self.P_op.transpose())
    P_main = cached_property(lambda self: self.P_op.tocsr())
    P_main_T = cached_property(lambda self: self.P_main.T)
    P_curl_op_T = cached_property(
        lambda self: self.P_curl_op and self.P_curl_op.transpose())
    P_curl = cached_property(lambda self: self.P_curl_op and self.P_curl_op.tocsr())
    P_curl_T = cached_property(lambda self: self.P_curl_op and self.P_curl.T)


def _histopolation(knot) -> sp.csr_matrix:
    """The transfers' 1-D B -> D map: the histopolation of a knot
    vector's full B-spline space.  A mesh's transfers look their blocks
    up in its :attr:`iga_asp.assembly.Discretization.factor_blocks`, so
    it runs once per knot vector and mesh."""
    return histopolation_matrix_1d(Space1D(knot))


def build_p_curl(xh_space: TensorSpace, curl_space: TensorSpace) -> sp.csr_matrix:
    """Transfer matrix from the auxiliary vector space onto V(curl)."""
    if curl_space.kind.kind != "curl":
        raise ValueError("target must be a curl space")
    return transfer_blocks(xh_space, curl_space, _histopolation).tocsr()


def build_p_div(xh_space: TensorSpace, div_space: TensorSpace) -> sp.csr_matrix:
    """Transfer matrix from the auxiliary vector space onto V(div)."""
    if div_space.kind.kind != "div":
        raise ValueError("target must be a div space")
    return transfer_blocks(xh_space, div_space, _histopolation).tocsr()


def function_projection_1d(factor: Space1D) -> tuple[np.ndarray, np.ndarray]:
    """Sampling nodes and matrix realizing the commuting 1-D projector
    on analytic data.

    Returns ``(nodes, T)`` such that ``T @ f(nodes)`` gives the factor's
    coefficients of the projection of a univariate function ``f``:

    * B factors: Greville interpolation, ``T = A^{-1}`` (rows restricted
      to the interior for zero-trace factors, valid for data satisfying
      the boundary conditions);
    * D factors: histopolation, ``T = Diff A^{-1} Cum`` on the nodes and
      antiderivative matrix ``Cum`` of
      :func:`iga_asp.splines1d.greville_rule`, the rule
      :func:`histopolation_matrix_1d` applies to the B-splines.
    """
    kv = factor.knot
    A = interpolation_matrix_1d(Space1D(kv)).toarray()
    if factor.kind == "B":
        T = np.linalg.inv(A)
        return greville_points(kv), T[factor.indices(), :]
    nodes, Cum = greville_rule(kv)
    T = difference_matrix_1d(kv.n).toarray() @ np.linalg.solve(A, Cum)
    return nodes, T


def build_transfer_set(setup: SystemSetup) -> TransferSet:
    """The transfer-matrix set of the problem of ``setup`` (tau does not
    enter): the transfers onto its space and, unless that is the scalar
    grad space, onto its potential space, both factored, and the
    differential from the potential space, factored and assembled; every
    1-D block comes from the mesh's ``factor_blocks``, shared with D and
    the other maps of the mesh."""
    if setup.bc != "essential":
        raise ValueError("transfer sets exist for essential bc only")
    spaces, blocks = setup.disc.spaces, setup.disc.factor_blocks
    potential, _ = potential_and_range(setup.operator, setup.dim)
    xh = spaces["vector"]
    return TransferSet(
        P_op=transfer_blocks(xh, setup.space, _histopolation, blocks),
        T_op=differential_blocks(spaces[potential], setup.space, blocks),
        P_curl_op=None if potential == "grad" else
        transfer_blocks(xh, spaces[potential], _histopolation, blocks))
