"""Auxiliary-space transfer matrices.

The quasi-interpolation operators onto the curl/div spaces are tensor
products of the 1-D Greville interpolation P and histopolation Q.
Restricted to spline inputs (the auxiliary space is a vector of scalar
spline spaces), P is the identity on its own space, so each transfer
block is a Kronecker product of identities and 1-D histopolation
matrices:

    P_curl = diag(Q1 x I x I,  I x Q2 x I,  I x I x Q3)
    P_div  = diag(I x Q2 x Q3, Q1 x I x Q3, Q1 x Q2 x I)   (3-D)
    P_div  = diag(I x Q2,      Q1 x I)                     (2-D)

Essential boundary conditions restrict rows/columns of the 1-D factors
to interior indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import derham
from .assembly import SystemSetup
from .derham import TensorSpace, kron_blocks
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
    """All matrices one ASP formula needs besides the smoother."""

    P_main: sp.csr_matrix = field(repr=False)
    potential: sp.csr_matrix = field(repr=False)   # G (curl), R (2-D div), C (3-D div)
    P_curl: sp.csr_matrix | None = field(repr=False, default=None)  # 3-D div


def _factor_transfer(src: Space1D, dst: Space1D,
                     histopolations: dict[Space1D, sp.csr_matrix]) -> sp.csr_matrix:
    """1-D transfer from a B factor of the auxiliary space onto the
    matching factor (same knots and bc) of the target space: identity
    for B targets (Greville interpolation reproduces its own space),
    bc-restricted histopolation for D targets, computed once per
    ``src`` into ``histopolations``."""
    if dst.kind == "B":
        return sp.identity(src.dim, format="csr")
    if src not in histopolations:
        Q = histopolation_matrix_1d(Space1D(src.knot))
        histopolations[src] = Q[:, src.indices()]
    return histopolations[src]


def _block_diag_transfer(xh_space: TensorSpace, target: TensorSpace,
                         histopolations: dict[Space1D, sp.csr_matrix]) -> sp.csr_matrix:
    if xh_space.kind.kind != "vector":
        raise ValueError("transfers act on the auxiliary vector space")
    if xh_space.knots != target.knots or xh_space.kind.bc != target.kind.bc:
        raise ValueError("spaces must share knots and bc")
    if xh_space.n_components != target.n_components:
        raise ValueError("component count mismatch")
    rows = [[None] * target.n_components for _ in target.components]
    for c, (src_comp, dst_comp) in enumerate(zip(xh_space.components,
                                                 target.components)):
        facs = [_factor_transfer(s, d, histopolations)
                for s, d in zip(src_comp, dst_comp)]
        rows[c][c] = [(1.0, facs)]
    return kron_blocks(rows)


def build_p_curl(xh_space: TensorSpace, curl_space: TensorSpace) -> sp.csr_matrix:
    """Transfer matrix from the auxiliary vector space onto V(curl)."""
    if curl_space.kind.kind != "curl":
        raise ValueError("target must be a curl space")
    return _block_diag_transfer(xh_space, curl_space, {})


def build_p_div(xh_space: TensorSpace, div_space: TensorSpace) -> sp.csr_matrix:
    """Transfer matrix from the auxiliary vector space onto V(div)."""
    if div_space.kind.kind != "div":
        raise ValueError("target must be a div space")
    return _block_diag_transfer(xh_space, div_space, {})


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
    """Assemble the complete transfer-matrix set of the problem of
    ``setup`` on ``setup.disc`` (tau does not enter).  Its transfers
    share one histopolation per 1-D factor: 3-D div builds P_div and
    P_curl from the same Q."""
    if setup.bc != "essential":
        raise ValueError("transfer sets exist for essential bc only")
    spaces = setup.disc.spaces
    xh, grad, curl, div = (spaces[k] for k in ("vector", "grad", "curl", "div"))
    histopolations: dict[Space1D, sp.csr_matrix] = {}
    if setup.operator == "curl":
        return TransferSet(P_main=_block_diag_transfer(xh, curl, histopolations),
                           potential=derham.gradient_matrix(grad, curl))
    P_div = _block_diag_transfer(xh, div, histopolations)
    if setup.dim == 2:
        return TransferSet(P_main=P_div,
                           potential=derham.vector_curl_matrix(grad, div))
    return TransferSet(P_main=P_div, potential=derham.curl_matrix(curl, div),
                       P_curl=_block_diag_transfer(xh, curl, histopolations))
