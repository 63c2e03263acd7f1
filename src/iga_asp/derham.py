"""Tensor-product discrete de Rham spaces and their exact difference
matrices.

A :class:`TensorSpace` is one scalar or vector spline space in the
grad -> curl -> div -> L2 chain (2-D: grad -> curl -> L2 and the
rotated grad -> div -> L2 variant).  Per component and direction each
factor is either the degree-p B-spline space ('B') or the reduced
degree-(p-1) Curry-Schoenberg space ('D'):

    3-D:  grad (B,B,B); curl (D,B,B),(B,D,B),(B,B,D);
          div (B,D,D),(D,B,D),(D,D,B); L2 (D,D,D)
    2-D:  grad (B,B); curl (D,B),(B,D); div (B,D),(D,B); L2 (D,D)

'vector' is the auxiliary space: d copies of the scalar grad space.
Essential boundary conditions constrain B factors only (first/last
B-spline dropped per constrained direction).

Every map of the diagram follows one per-factor rule: the identity
between factors of one kind, a 1-D B -> D map onto a D factor.  With the
difference matrix and the signs of ``_DIFFERENTIALS`` it gives the exact
integer differentials, whose compositions vanish with zero stored
entries; with the histopolation and diagonal signs, the transfers.  The
1-D blocks are looked up by (source factor, target factor, map) in a
dict that the mesh's :class:`iga_asp.assembly.Discretization` holds, so
that every map of one mesh shares them and each is built once.  A
problem's potential and range are read from the ``_DIFFERENTIALS`` keys.

DOF numbering is component-major, then lexicographic with the *last*
coordinate index fastest, so a component's coefficients reshape to an
array of shape ``(n_1, ..., n_d)`` and a Kronecker product
``F_1 (x) ... (x) F_d`` acts on it one axis at a time.  Every matrix of
the diagram is a :class:`KronBlocks`, a block matrix of sums of such
products: ``tocsr`` writes it, and ``upper_triangle`` the upper
triangle of a square one, as sorted CSR straight from the 1-D factors
(one writer: per block row and axis a window of columns per row, the
products and their columns in one buffer, and a mask of the entries
stored), ``transpose`` transposes it factored, ``congruence`` gives
B^T op B with dense 1-D factors, and ``apply`` applies it without
assembly through its
:class:`KronPlan`, compiled once per operator: per run of identical
blocks and per term the list of (batched) matmuls with their view
shapes, which one walk takes for (N,) and (N, k) inputs alike.
:func:`kron_apply` compiles and runs the steps of one product.

With uniform open knots every factor basis is mirror-symmetric,
b_i(1 - x) = b_{m-1-i}(x) with m its dimension (essential bc drops one
function at each end), so the reflection x_k -> 1 - x_k reverses the
indices of direction k.  Pulled back as a form it also negates every component
whose factor k is 'D' (a difference image: d/dx changes sign under the
reflection), and then commutes with every mass and every differential.
The reflection sectors span the joint eigenspaces of the d reflections.
With equal knots in x_0 and x_1, the swap of those two coordinates
(``TensorSpace.swap``) commutes with them too, and
``TensorSpace.sectors`` adapts the bases to both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .splines1d import (DROP_TOL, KnotVector, Space1D, difference_matrix_1d,
                        make_uniform_open_knots)

__all__ = [
    "SpaceKind",
    "TensorSpace",
    "build_space",
    "gradient_matrix",
    "curl_matrix",
    "divergence_matrix",
    "scalar_curl_matrix",
    "vector_curl_matrix",
    "differential_blocks",
    "differential_matrix",
    "potential_and_range",
    "space_descriptor",
    "KronBlocks",
    "KronEigenbasis",
    "KronPlan",
    "kron_apply",
    "transfer_blocks",
]

_FACTOR_TABLE = {
    ("grad", 2): [("B", "B")],
    ("curl", 2): [("D", "B"), ("B", "D")],
    ("div", 2): [("B", "D"), ("D", "B")],
    ("l2", 2): [("D", "D")],
    ("vector", 2): [("B", "B"), ("B", "B")],
    ("grad", 3): [("B", "B", "B")],
    ("curl", 3): [("D", "B", "B"), ("B", "D", "B"), ("B", "B", "D")],
    ("div", 3): [("B", "D", "D"), ("D", "B", "D"), ("D", "D", "B")],
    ("l2", 3): [("D", "D", "D")],
    ("vector", 3): [("B", "B", "B")] * 3,
}


@dataclass(frozen=True)
class SpaceKind:
    """Which de Rham space: kind of field, spatial dimension, bc flavour."""

    kind: str
    dim: int
    bc: str = "natural"

    def __post_init__(self) -> None:
        if self.kind not in ("grad", "curl", "div", "l2", "vector"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.dim not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.bc not in ("natural", "essential"):
            raise ValueError("bc must be 'natural' or 'essential'")


@dataclass(frozen=True)
class TensorSpace:
    """One tensor-product de Rham space with fixed DOF numbering."""

    kind: SpaceKind
    knots: tuple[KnotVector, ...]
    components: tuple[tuple[Space1D, ...], ...]

    @property
    def dim(self) -> int:
        return self.kind.dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def component_shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(f.dim for f in comp) for comp in self.components)

    @property
    def component_dims(self) -> tuple[int, ...]:
        return tuple(int(np.prod(s)) for s in self.component_shapes)

    @cached_property
    def total_dim(self) -> int:
        return sum(self.component_dims)

    @cached_property
    def swap(self) -> np.ndarray | None:
        """The swap x_0 <-> x_1 as an index permutation (the swapped
        coefficient vector of c is ``c[swap]``), or ``None`` unless the
        first two knot vectors are equal.  It maps component c to
        component (1, 0, 2)[c] (a scalar space to itself) with the first
        two index axes exchanged; every mass and every differential
        commutes with it up to one sign per space."""
        if self.knots[0] != self.knots[1]:
            return None
        targets = (1, 0, 2) if self.n_components > 1 else (0,)
        offsets = np.cumsum((0,) + self.component_dims)
        blocks = [None] * self.n_components
        for c, shape in enumerate(self.component_shapes):
            index = np.arange(offsets[c], offsets[c + 1]).reshape(shape)
            blocks[targets[c]] = np.swapaxes(index, 0, 1).ravel()
        return np.concatenate(blocks)

    @cached_property
    def sectors(self) -> tuple[sp.csc_matrix, ...]:
        """The bases in which dense kappa splits A and B, and in which
        :meth:`iga_asp.assembly.AssembledSystem.sector_blocks` and
        :meth:`iga_asp.precond.AspPreconditioner.sector_blocks` form
        their blocks: the non-empty reflection sectors
        (:func:`_reflection_sector`) in chi order.  With a :attr:`swap`,
        which maps sector chi onto its twin with chi_0 and chi_1
        exchanged (B A has the same spectrum on both), only the twin
        with chi_0 < chi_1 is kept, and a sector with chi_0 = chi_1
        gives its swap-even and swap-odd halves instead
        (:func:`_swap_halves`).  The columns of each block have disjoint
        supports.  Built on the first term-block build and kept."""
        out = []
        for chi in itertools.product((0, 1), repeat=self.dim):
            if self.swap is not None and chi[0] > chi[1]:
                continue
            Q = _reflection_sector(self, chi)
            if not Q.shape[1]:
                continue
            if self.swap is None or chi[0] < chi[1]:
                out.append(Q)
            else:
                out += [H for H in _swap_halves(Q, self.swap) if H.shape[1]]
        return tuple(out)


def build_space(kind: str, p, n_elems, *, dim: int,
                bc: str = "natural") -> TensorSpace:
    """Build a tensor-product space from per-direction degrees and
    element counts (scalars broadcast)."""
    p = tuple(int(v) for v in np.atleast_1d(p))
    n_elems = tuple(int(v) for v in np.atleast_1d(n_elems))
    if len(p) == 1:
        p = p * dim
    if len(n_elems) == 1:
        n_elems = n_elems * dim
    if len(p) != dim or len(n_elems) != dim:
        raise ValueError("degrees/elements do not match the dimension")
    sk = SpaceKind(kind, dim, bc)
    knots = tuple(make_uniform_open_knots(n, q) for n, q in zip(n_elems, p))
    comps = []
    for letters in _FACTOR_TABLE[(kind, dim)]:
        factors = []
        for direction, letter in enumerate(letters):
            if letter == "D":
                factors.append(Space1D(knots[direction], kind="D"))
            else:
                fbc = "zero" if bc == "essential" else "free"
                factors.append(Space1D(knots[direction], kind="B", bc=fbc))
        comps.append(tuple(factors))
    return TensorSpace(sk, knots, tuple(comps))


def _factor_block(src_factor: Space1D, dst_factor: Space1D, b_to_d) -> sp.csr_matrix:
    """The per-factor rule of every map in the diagram: the identity
    between factors of one kind; B -> D, the 1-D map ``b_to_d(knot)`` of
    the full B-spline space on the columns the source factor keeps."""
    if src_factor.kind == dst_factor.kind:
        return sp.identity(src_factor.dim, format="csr")
    if (src_factor.kind, dst_factor.kind) != ("B", "D"):
        raise ValueError("factors of the diagram only map B to D")
    return sp.csr_matrix(b_to_d(src_factor.knot)[:, src_factor.indices()])


def _difference(knot: KnotVector) -> sp.csr_matrix:
    """The differentials' 1-D B -> D map: the difference matrix of the
    knot vector's full B-spline space."""
    return difference_matrix_1d(knot.n)


@dataclass(eq=False)
class _Run:
    """``count`` blocks of a :class:`KronBlocks` from block (row, col)
    down the diagonal that are one term list, with their row and column
    slices ``out`` and ``inp`` and one block's input ``shape``; ``first``
    when it opens its block rows."""

    row: int
    col: int
    terms: list
    first: bool
    count: int = 1
    out: slice | None = None
    inp: slice | None = None
    shape: tuple[int, ...] = ()


class KronPlan:
    """A compiled block-Kronecker product: the matrix ``shape`` and per
    run ``(inp, out, first, terms)``, its column and row slices, whether
    it opens its block rows, and per term ``(coeff, steps)`` with the
    steps of :func:`_compile`.  Called on x of shape (N,) or (N, k), it
    walks the runs once; this is the one walk of every Kronecker product
    here.  A run's k columns (and its ``count`` blocks) are one batch
    that each term's steps take in turn, the terms are scaled by coeff
    != 1 and summed in order, and the sum is written into the run's
    output rows, or added to them after the run that opened them.  An x
    whose N is not the matrix's column count raises ``ValueError``."""

    def __init__(self, shape: tuple[int, int], runs: list) -> None:
        self.shape, self.runs = shape, runs

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"x has {x.shape[0]} rows; the matrix has "
                             f"{self.shape[1]} columns")
        cols = x.reshape(x.shape[0], -1).T    # one row per column of x
        k = cols.shape[0]
        out = np.empty((k, self.shape[0]))
        for inp, rows, first, terms in self.runs:
            total = None
            for coeff, steps in terms:
                Y = cols[:, inp]
                for func, M, shape, left in steps:
                    Y = func(M, Y.reshape(shape)) if left else func(Y.reshape(shape), M)
                Y = Y.reshape(k, -1)
                if coeff != 1.0:
                    Y *= coeff
                total = Y if total is None else np.add(total, Y, out=total)
            if first:
                out[:, rows] = total
            else:
                out[:, rows] += total
        return out[0] if x.ndim == 1 else out.T

    def compose(self, scales: list, after: KronPlan) -> KronPlan:
        """The plan of ``after`` diag(s) ``self``, for two plans of one
        term per run on the same runs (a block-diagonal operator and its
        transpose): per run the steps of this plan's term, the product
        with ``scales[i]``, an array of one block's outputs that every
        block of run i shares, then the steps of ``after``'s term."""
        return KronPlan((after.shape[0], self.shape[1]), [
            (inp, rows, first,
             [(1.0, steps + [(np.multiply, s.ravel(), (-1, s.size), False)]
               + then)])
            for (inp, rows, first, [(_, steps)]), (*_, [(_, then)]), s
            in zip(self.runs, after.runs, scales)])


class KronBlocks:
    """Block matrix of Kronecker products.  ``rows[i][j]`` is ``None`` (a
    zero block) or a list of ``(coeff, factors)`` terms, and the block is
    the sum of ``coeff * factors[0] (x) factors[1] (x) ...`` in term
    order, with factors of any shape.  Every block row and column needs a
    non-``None`` entry, from which the zero blocks take their shapes.
    Blocks that are the same term list object are identical, which
    :meth:`apply` batches; :meth:`tocsr` writes the matrix and
    :meth:`upper_triangle` the upper triangle of a square one as CSR from
    the 1-D factors, both by :meth:`_write`, and :meth:`transpose` gives
    the transpose and :meth:`congruence` B^T op B, both factored."""

    def __init__(self, rows) -> None:
        self.rows = rows

    @classmethod
    def block_diagonal(cls, blocks: list) -> KronBlocks:
        """``blocks[c]`` on the diagonal and ``None`` off it."""
        return cls([[terms if c == j else None for j in range(len(blocks))]
                    for c, terms in enumerate(blocks)])

    @cached_property
    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each block row and each block column starts, and ends."""
        def offsets(lines, axis):
            return np.cumsum([0] + [math.prod(F.shape[axis] for F in next(
                t for t in line if t is not None)[0][1]) for line in lines])
        return offsets(self.rows, 0), offsets(zip(*self.rows), 1)

    @cached_property
    def shape(self) -> tuple[int, int]:
        return tuple(int(at[-1]) for at in self._offsets)

    def tocsr(self) -> sp.csr_matrix:
        """The assembled matrix, CSR with sorted indices, written from the
        1-D factors by :meth:`_write`; an entry is stored where the sum
        of its block's terms is not zero (an explicit zero of a sparse
        factor is not stored)."""
        return self._write(upper=False)

    def diagonal(self) -> np.ndarray:
        """The diagonal of a square block-diagonal matrix, from the 1-D
        factors: per block and term ``coeff * (x)_k diag(F_k)``."""
        return np.concatenate([
            sum(coeff * _outer([F.diagonal() for F in factors])
                for coeff, factors in row[c])
            for c, row in enumerate(self.rows)])

    def congruence(self, op: KronBlocks) -> KronBlocks:
        """B^T op B of this B, factored, with ``op`` square and
        block-diagonal over B's block rows.  Block (c, d) is the sum over
        block rows r, over pairs of terms (a, F) of block (r, c) and (b, G)
        of block (r, d) and over the terms (m, M) of op's block r of

            a b m (x)_k F_k^T M_k G_k,

        one dense 1-D factor per axis, in that order of terms; ``None``
        where no block row pairs c with d."""
        def block(col_c, col_d):
            return [(a * b * m, [_array(f).T @ (M @ _array(g))
                                 for f, M, g in zip(F, masses, G)])
                    for r, (left, right) in enumerate(zip(col_c, col_d))
                    if left and right
                    for (a, F), (b, G) in itertools.product(left, right)
                    for m, masses in op.rows[r][r]] or None
        cols = list(zip(*self.rows))
        return KronBlocks([[block(c, d) for d in cols] for c in cols])

    def upper_triangle(self) -> sp.csr_matrix:
        """triu of this square matrix, whose block rows and columns split
        alike, without the entries below ``DROP_TOL`` in absolute value
        (the rule of :func:`iga_asp.splines1d.drop_small`): CSR with sorted
        indices, written by :meth:`_write`."""
        row_at, col_at = self._offsets
        if not np.array_equal(row_at, col_at):
            raise ValueError("the upper triangle needs a square matrix whose "
                             "block rows and columns split alike")
        return self._write(upper=True)

    def _write(self, upper: bool) -> sp.csr_matrix:
        """The matrix, or with ``upper`` the blocks d >= c of each block
        row c, as sorted CSR written from the 1-D factors without
        assembling the blocks.  Per block row c and block d it takes, each
        axis takes per row the window of columns that spans the nonzeros
        of the sum of the terms' |F_k| (:func:`_windows`); the products
        coeff ((F_1 F_2) ... F_d) of every row over its windows, summed
        over the terms in order (:func:`_window_products`), and their
        int32 columns (:func:`_window_columns`) go into one buffer per
        block row.  Block columns come in order and the windows are
        lexicographic, so each row's entries are sorted.  A mask picks the
        entries stored: those not zero, or with ``upper`` those at or above
        ``DROP_TOL`` in absolute value and, in a diagonal block, on or
        right of the diagonal."""
        row_at, col_at = self._offsets
        data, indices, counts = [], [], []
        for c, row in enumerate(self.rows):
            blocks = [(d, terms, _windows(terms)) for d, terms in enumerate(row)
                      if terms is not None and (d >= c or not upper)]
            widths = [math.prod(w.shape[1] for w in windows)
                      for *_, windows in blocks]
            values = np.empty((row_at[c + 1] - row_at[c], sum(widths)))
            columns = np.empty(values.shape, dtype=np.int32)
            kept = np.zeros(values.shape, dtype=bool)
            at = 0
            for (d, terms, windows), width in zip(blocks, widths):
                block = slice(at, at + width)
                at += width
                if not values[:, block].size:
                    continue
                _window_products(terms, windows, values[:, block])
                _window_columns(terms, windows, col_at[d], columns[:, block])
                if not upper:
                    np.not_equal(values[:, block], 0.0, out=kept[:, block])
                    continue
                np.greater_equal(np.abs(values[:, block]), DROP_TOL,
                                 out=kept[:, block])
                if d == c:
                    kept[:, block] &= columns[:, block] >= np.arange(
                        row_at[c], row_at[c + 1])[:, None]
            data.append(values[kept])
            indices.append(columns[kept])
            counts.append(np.count_nonzero(kept, axis=1))
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        return sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                              indptr), shape=self.shape)

    @cached_property
    def runs(self) -> list[_Run]:
        """The runs of :meth:`apply`: the blocks row by row, each run of
        consecutive diagonal blocks that are alone in their block rows and
        one term list as one :class:`_Run` (a run that opens its rows and
        is the last of the rows before is alone in them)."""
        row_at, col_at = self._offsets
        runs: list[_Run] = []
        for i, row in enumerate(self.rows):
            blocks = [(j, terms) for j, terms in enumerate(row) if terms is not None]
            for j, terms in blocks:
                last = runs[-1] if runs else None
                if (len(blocks) == 1 and last is not None and last.first
                        and last.terms is terms
                        and (last.row + last.count, last.col + last.count) == (i, j)):
                    last.count += 1
                else:
                    runs.append(_Run(i, j, terms, j == blocks[0][0]))
        for run in runs:
            run.out = slice(row_at[run.row], row_at[run.row + run.count])
            run.inp = slice(col_at[run.col], col_at[run.col + run.count])
            run.shape = tuple(F.shape[1] for F in run.terms[0][1])
        return runs

    @cached_property
    def plan(self) -> KronPlan:
        """:attr:`runs` compiled once: each term's steps (:func:`_compile`)
        on dense copies of its factors, ``None`` for a sparse identity
        (its axis is skipped), ``toarray()`` of any other sparse factor
        and a dense factor as it is given.  The layout of a dense factor
        is its builder's: it fixes the BLAS calls of the steps, and with
        them the round-off."""
        return KronPlan(self.shape, [
            (run.inp, run.out, run.first,
             [(coeff, _compile([_dense(F) for F in factors], run.shape)[0])
              for coeff, factors in run.terms])
            for run in self.runs])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The matrix times x of shape (N,) or (N, k), without assembly,
        by sum factorization: :attr:`plan` called on x.  An x whose N is
        not the matrix's column count raises ``ValueError``."""
        return self.plan(x)

    def transpose(self) -> KronBlocks:
        """The transpose, factored: block (i, j) moved to (j, i) with
        every factor transposed (a dense one as a view).  Blocks that
        share one term list here share one there."""
        transposed = {}

        def terms_T(terms):
            if terms is not None and id(terms) not in transposed:
                transposed[id(terms)] = [(coeff, [F.T for F in factors])
                                         for coeff, factors in terms]
            return None if terms is None else transposed[id(terms)]
        return KronBlocks([[terms_T(terms) for terms in col]
                           for col in zip(*self.rows)])


def _eigh(pencil) -> tuple[np.ndarray, np.ndarray]:
    """(lam, U) of a dense 1-D pencil: (K, M) with U^T M U = I, or (G,)."""
    return sla.eigh(*pencil)


class KronEigenbasis:
    """Fast diagonalization (Lynch, Rice & Thomas 1964) of a block-diagonal
    Kronecker sum: per run of ``counts[i]`` identical blocks the sum over
    the axes k of K_k (x) (x)_{j != k} M_j plus ``offset`` (x)_j M_j, from
    the 1-D pencils ``pencils[i][k]``, (K_k, M_k) or (G_k,) with M_k = I.
    One :func:`_eigh` per distinct pencil, keyed on its bytes, gives U_k
    and lam_k; the block is U^{-T} diag(Lambda) U^{-1} with U = (x)U_k and
    Lambda the sums offset + lam_1 + ... + lam_d.  U^T is kept as the
    block-diagonal :class:`KronBlocks` ``U_T`` with the runs of ``counts``
    and U as its transpose ``U``, both passed through ``layout``: the
    layout of their dense factors fixes the round-off of their plans."""

    def __init__(self, pencils: list, counts: list[int], offset: float = 0.0,
                 layout=lambda op: op) -> None:
        self.offset = offset
        eighs = {}
        self._eigenvalues, blocks = [], []    # per run: the 1-D eigenvalues
        for run, count in zip(pencils, counts):
            pairs = []
            for pencil in run:
                pencil = [_array(F) for F in pencil]
                key = tuple((F.shape, F.tobytes()) for F in pencil)
                if key not in eighs:
                    eighs[key] = _eigh(pencil)
                pairs.append(eighs[key])
            self._eigenvalues.append([lam for lam, _ in pairs])
            blocks += [[(1.0, [U.T for _, U in pairs])]] * count
        U_T = KronBlocks.block_diagonal(blocks)
        self.U_T, self.U = layout(U_T), layout(U_T.transpose())

    def _sums(self, shift: float) -> list[np.ndarray]:
        """Per run Lambda + shift, shaped as one block."""
        return [sum(np.ix_(*eigenvalues), self.offset + shift)
                for eigenvalues in self._eigenvalues]

    def eigenvalues(self, shift: float = 0.0) -> np.ndarray:
        """Lambda + shift in the order of :meth:`forward`'s coefficients."""
        return np.concatenate([np.tile(lam.ravel(), run.count) for lam, run
                               in zip(self._sums(shift), self.U_T.runs)])

    def forward(self, b: np.ndarray) -> np.ndarray:
        """The eigen-coefficients U^T b of b of shape (N,) or (N, k)."""
        return self.U_T.apply(b)

    def make(self, shift: float = 0.0) -> KronPlan:
        """Solve with the sum plus ``shift`` (x)M: ``U_T``'s plan composed
        with ``U``'s (:meth:`KronPlan.compose`), one walk per run, whose
        blocks and the k columns of an (N, k) input are one batch.  Raises
        ``ArithmeticError`` where Lambda + shift is not positive."""
        sums = self._sums(shift)
        if any(np.any(lam <= 0.0) for lam in sums):
            raise ArithmeticError("Kronecker-sum operator is not SPD")
        return self.U_T.plan.compose([1.0 / lam for lam in sums], self.U.plan)


def _outer(vectors) -> np.ndarray:
    """(x)_k v_k of 1-D vectors, last index fastest as in a Kronecker product."""
    return reduce(np.multiply.outer, vectors).ravel()


def _outer_sum(vectors) -> np.ndarray:
    """The sums v_1[i_1] + ... + v_d[i_d] of 1-D vectors, last index
    fastest."""
    return reduce(np.add.outer, vectors).ravel()


def _array(F) -> np.ndarray:
    """F as a dense array."""
    return F.toarray() if sp.issparse(F) else np.asarray(F)


def _windows(terms) -> list[np.ndarray]:
    """Per axis k of a block, the ``(n_k, width)`` columns of each row's
    window: ``width`` consecutive columns from the first nonzero of the
    row in the sum of the terms' |F_k|, with ``width`` the widest span of
    nonzeros and the window shifted left where it would pass the last
    column (a row without nonzeros starts at 0; an axis without columns
    has width 0)."""
    out = []
    for k, F in enumerate(terms[0][1]):
        if not F.shape[1]:
            out.append(np.zeros((F.shape[0], 0), dtype=np.intp))
            continue
        nonzero = sum(np.abs(_array(factors[k])) for _, factors in terms) != 0.0
        first = nonzero.argmax(axis=1)
        end = F.shape[1] - nonzero[:, ::-1].argmax(axis=1)
        empty = ~nonzero.any(axis=1)
        first[empty], end[empty] = 0, 1
        width = int((end - first).max(initial=0))
        out.append(np.minimum(first, F.shape[1] - width)[:, None] + np.arange(width))
    return out


def _window_columns(terms, windows, start: int, out: np.ndarray) -> None:
    """Write into ``out``, laid out as in :func:`_window_products`, the
    column of each entry: ``start`` plus the lexicographic index of its
    window point in the block's columns."""
    sizes = [F.shape[1] for F in terms[0][1]]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    np.add(_outer_sum([w[:, 0] * s for w, s in zip(windows, strides)])[:, None],
           _outer_sum([np.arange(w.shape[1]) * s for w, s in zip(windows, strides)])
           + start, out=out, casting="unsafe")


def _window_products(terms, windows, out: np.ndarray) -> None:
    """Write into ``out`` (one row per row of the block, one column per
    point of its windows, both lexicographic) the sum over the terms of
    coeff ((F_1 F_2) ... F_d) on the windows, in term order: the order
    of scipy's Kronecker product and sparse sum, whose assembly this
    equals bit for bit."""
    gathered = [[_array(F)[np.arange(F.shape[0])[:, None], w]
                 for F, w in zip(factors, windows)] for _, factors in terms]
    n, w = gathered[0][-1].shape
    # splitting the axes of a slice is always a view of it
    split = out.reshape(out.shape[0] // n, n, out.shape[1] // w, w)
    for t, ((coeff, _), g) in enumerate(zip(terms, gathered)):
        prefix = np.ones((1, 1))
        for gk in g[:-1]:
            prefix = (prefix[:, None, :, None] * gk[None, :, None, :]).reshape(
                prefix.shape[0] * gk.shape[0], -1)
        term = split if t == 0 else np.empty(split.shape)
        np.multiply(prefix[:, None, :, None], g[-1][None, :, None, :], out=term)
        if coeff != 1.0:
            term *= coeff
        if t:
            split += term


def kron_apply(factors, X: np.ndarray) -> np.ndarray:
    """``F_1 (x) ... (x) F_d`` applied to each of the ``count`` rows of
    ``X``, a ``(count, n_1 * ... * n_d)`` or ``(count, n_1, ..., n_d)``
    array with ``F_k`` of shape ``(m_k, n_k)``; returns shape ``(count,
    m_1, ..., m_d)``: the steps of :func:`_compile`, run by a one-block
    :class:`KronPlan`.  A factor ``None`` is the identity of its axis,
    which is skipped; ``X`` then has the shape ``(count, n_1, ..., n_d)``.
    The result never shares memory with ``X``."""
    if X.ndim == len(factors) + 1:
        sizes = X.shape[1:]
    else:
        sizes = [F.shape[1] for F in factors]
    steps, out = _compile(factors, sizes)
    everything = slice(None)
    plan = KronPlan((math.prod(out), math.prod(sizes)),
                    [(everything, everything, True, [(1.0, steps)])])
    return plan(X.reshape(X.shape[0], -1).T).T.reshape(X.shape[0], *out)


def _compile(factors, sizes) -> tuple[list, list[int]]:
    """The steps of ``F_1 (x) ... (x) F_d`` on a batch of arrays of shape
    ``sizes`` = (n_1, ..., n_d), and the output sizes (m_1, ..., m_d).
    A step ``(func, M, shape, left)`` reshapes the batch to ``shape``, whose
    lead axis -1 takes the batch, and gives ``func(M, Y)`` (``left``) or
    ``func(Y, M)``: ``F_1 .. F_{d-1}`` multiply their axes from the left,
    with the axes after theirs as one, and ``F_d`` the last axis from the
    right, as ``F_d.T`` (one, batched, matmul per factor).  A ``None``
    factor is the identity of its axis and gives no step; with every
    factor ``None`` the one step is a product with 1.0, a copy, so that
    :class:`KronPlan` never scales or sums into its input."""
    steps, out = [], []
    last = len(factors) - 1
    for k, (F, n) in enumerate(zip(factors, sizes)):
        if F is None:
            out.append(n)
            continue
        if k < last:
            steps.append((np.matmul, F, (-1, n, math.prod(sizes[k + 1:])), True))
        else:
            steps.append((np.matmul, F.T, (-1, n), False))
        out.append(F.shape[0])
    return steps or [(np.multiply, 1.0, (-1,), False)], out


def _dense(F):
    """The factor F as :func:`_compile` takes it: ``None`` for a sparse
    identity (the factor of a block between factor spaces of one kind),
    ``toarray()`` of another sparse matrix, F itself when dense."""
    if not sp.issparse(F):
        return F
    if (F.shape[0] == F.shape[1] and F.nnz == F.shape[0]
            and bool(np.all(F.diagonal() == 1.0))):
        return None
    return F.toarray()


# The sign of each block of the differentials between neighbouring
# spaces, keyed by (source kind, target kind, dimension): entry [i][j]
# maps source component j into target component i, ``None`` is a zero
# block.  The factor kinds fix which direction each block differentiates.
_DIFFERENTIALS = {
    ("grad", "curl", 2): [[1], [1]],
    ("grad", "curl", 3): [[1], [1], [1]],
    ("curl", "div", 3): [[None, -1, 1], [1, None, -1], [-1, 1, None]],
    ("div", "l2", 2): [[1, 1]],
    ("div", "l2", 3): [[1, 1, 1]],
    ("curl", "l2", 2): [[1, -1]],
    ("grad", "div", 2): [[1], [-1]],
}


def potential_and_range(kind: str, dim: int) -> tuple[str, str]:
    """The potential and the range of the problem on the space ``kind``:
    the source of the differential into it and the target of the one out.
    A space without exactly one of each (any kind but curl and div, any
    dimension but 2 and 3) raises ``ValueError``."""
    potentials = [s for s, t, d in _DIFFERENTIALS if (t, d) == (kind, dim)]
    ranges = [t for s, t, d in _DIFFERENTIALS if (s, d) == (kind, dim)]
    if len(potentials) != 1 or len(ranges) != 1:
        raise ValueError(f"no problem on the {kind!r} space in dimension {dim}:"
                         " the problems are 'curl' and 'div' in dimension 2 or 3")
    return potentials[0], ranges[0]


def _blocks(src: TensorSpace, dst: TensorSpace, signs, b_to_d,
            factor_blocks: dict | None) -> KronBlocks:
    """The map from ``src`` into ``dst`` with the block signs ``signs``:
    block [i][j] is ``None`` or the one term ``(sign, factors)``, its
    factors by :func:`_factor_block`, each looked up in ``factor_blocks``
    by (source factor, target factor, map) and built only when missing
    (the map is ``None`` for the identity, which every map shares).  A
    mesh's :class:`iga_asp.assembly.Discretization` holds that dict, so
    that each 1-D block is built once per mesh; without one the blocks
    are shared within this map only."""
    if src.knots != dst.knots or src.kind.bc != dst.kind.bc or src.dim != dst.dim:
        raise ValueError("spaces must share knots, bc, and dimension")
    memo = {} if factor_blocks is None else factor_blocks

    def block(sf: Space1D, df: Space1D) -> sp.csr_matrix:
        key = (sf, df, None if sf.kind == df.kind else b_to_d)
        if key not in memo:
            memo[key] = _factor_block(sf, df, b_to_d)
        return memo[key]
    return KronBlocks([[None if sign is None else
                        [(sign, [block(sf, df) for sf, df in zip(src_comp, dst_comp)])]
                        for sign, src_comp in zip(row, src.components)]
                       for row, dst_comp in zip(signs, dst.components)])


def differential_blocks(src: TensorSpace, dst: TensorSpace,
                        factor_blocks: dict | None = None) -> KronBlocks:
    """The differential between two neighbouring spaces, with the signs
    of ``_DIFFERENTIALS`` and the difference matrix as the 1-D map, its
    1-D blocks read from (and added to) ``factor_blocks`` (see
    :func:`_blocks`); the assembled matrix and the 1-D diagonals read
    it."""
    key = (src.kind.kind, dst.kind.kind, src.dim)
    if key not in _DIFFERENTIALS:
        raise ValueError(f"no differential between {src.kind} and {dst.kind}")
    return _blocks(src, dst, _DIFFERENTIALS[key], _difference, factor_blocks)


def differential_matrix(src: TensorSpace, dst: TensorSpace,
                        factor_blocks: dict | None = None) -> sp.csr_matrix:
    """The de Rham differential between two neighbouring spaces,
    assembled from :func:`differential_blocks`."""
    return differential_blocks(src, dst, factor_blocks).tocsr()


def transfer_blocks(aux: TensorSpace, dst: TensorSpace, b_to_d,
                    factor_blocks: dict | None = None) -> KronBlocks:
    """The transfer from the auxiliary vector space onto a curl or div
    space: diagonal signs, and ``b_to_d`` the histopolation (a function
    of the knot vector, the same object for every call that should share
    its blocks in ``factor_blocks``)."""
    if aux.kind.kind != "vector" or dst.kind.kind not in ("curl", "div"):
        raise ValueError("transfers map the auxiliary space into curl or div")
    signs = np.where(np.eye(dst.n_components), 1.0, None).tolist()
    return _blocks(aux, dst, signs, b_to_d, factor_blocks)


def gradient_matrix(grad_space: TensorSpace, curl_space: TensorSpace) -> sp.csr_matrix:
    """Exact gradient matrix G: V(grad) -> V(curl), stacked blocks of
    bc-restricted difference factors."""
    if grad_space.kind.kind != "grad" or curl_space.kind.kind != "curl":
        raise ValueError("gradient maps the grad space into the curl space")
    return differential_matrix(grad_space, curl_space)


def curl_matrix(curl_space: TensorSpace, div_space: TensorSpace) -> sp.csr_matrix:
    """Exact 3-D curl matrix C: V(curl) -> V(div), realizing
    (d2 u3 - d3 u2, d3 u1 - d1 u3, d1 u2 - d2 u1)."""
    if curl_space.kind.kind != "curl" or div_space.kind.kind != "div":
        raise ValueError("curl maps the curl space into the div space")
    return differential_matrix(curl_space, div_space)


def divergence_matrix(div_space: TensorSpace, l2_space: TensorSpace) -> sp.csr_matrix:
    """Exact divergence matrix D: V(div) -> V(L2)."""
    if div_space.kind.kind != "div" or l2_space.kind.kind != "l2":
        raise ValueError("divergence maps the div space into the L2 space")
    return differential_matrix(div_space, l2_space)


def scalar_curl_matrix(curl_space: TensorSpace, l2_space: TensorSpace) -> sp.csr_matrix:
    """2-D scalar curl matrix: curl u = d u1/d x2 - d u2/d x1,
    V(curl) -> V(L2)."""
    if curl_space.kind.kind != "curl" or l2_space.kind.kind != "l2":
        raise ValueError("scalar curl maps the curl space into the L2 space")
    return differential_matrix(curl_space, l2_space)


def vector_curl_matrix(grad_space: TensorSpace, div_space: TensorSpace) -> sp.csr_matrix:
    """2-D vector curl (rotated gradient) R: V(grad) -> V(div),
    curl u = (d u/d x2, -d u/d x1)."""
    if grad_space.kind.kind != "grad" or div_space.kind.kind != "div":
        raise ValueError("vector curl maps the grad space into the div space")
    return differential_matrix(grad_space, div_space)


def _reversal_basis(n: int, odd: bool) -> np.ndarray:
    """Orthonormal basis of the vectors of length n that the reversal
    i -> n-1-i maps to themselves (``odd`` False) or to their negatives:
    columns (e_i +- e_{n-1-i}) / sqrt 2 for i < n // 2, then e_{n//2} in
    the even basis when n is odd; dense, as the CSR writer reads it."""
    half = n // 2
    i = np.arange(half)
    out = np.zeros((n, half if odd else n - half))
    out[i, i] = np.sqrt(0.5)
    out[n - 1 - i, i] = -np.sqrt(0.5) if odd else np.sqrt(0.5)
    if n % 2 and not odd:
        out[half, half] = 1.0
    return out


def _swap_halves(Q: sp.csc_matrix, swap: np.ndarray) -> list[sp.csc_matrix]:
    """The swap-even and swap-odd halves of a reflection sector Q that the
    swap maps onto itself.  Each column of Q lives on one orbit of the
    reflections, and the swap maps orbits onto orbits, so S Q = Q C with C
    a signed permutation: S q_j = s_j q_pi(j).  The half of sign +-1 takes
    (q_j +- s_j q_pi(j)) / sqrt 2 per pair j < pi(j), and q_j where pi(j)
    = j and s_j = +-1; its columns keep disjoint supports."""
    C = (Q.T @ Q[swap]).tocsc()
    j, pi, s = np.arange(Q.shape[1]), C.indices, np.rint(C.data)
    pair = j < pi
    r = np.sqrt(0.5)
    halves = []
    for sign in (1.0, -1.0):
        keep = pair | (j == pi) & (s == sign)
        col = np.cumsum(keep) - 1
        Z = sp.csc_matrix(
            (np.r_[np.where(pair[keep], r, 1.0), sign * r * s[pair]],
             (np.r_[j[keep], pi[pair]], np.r_[col[keep], col[pair]])),
            shape=(Q.shape[1], int(keep.sum())))
        halves.append((Q @ Z).tocsc())
    return halves


def _reflection_sector(space: TensorSpace, chi: tuple[int, ...]) -> sp.csc_matrix:
    """The reflection sector of the character chi in {0, 1}^d: the
    orthonormal column block Q_chi spanning the coefficient vectors that
    the reflection of direction k maps to (-1)^chi_k times themselves.
    Q_chi is block-diagonal over components; a component's block is the
    Kronecker product over directions of the reversal-even or -odd basis,
    odd when chi_k XOR [factor k is 'D'].  The 2^d blocks are disjoint
    and together span the space; with uniform knots every mass and every
    differential maps sector chi of one space into sector chi of the
    other."""
    return KronBlocks.block_diagonal(
        [[(1.0, [_reversal_basis(f.dim, bool(c) != (f.kind == "D"))
                 for c, f in zip(chi, comp)])]
         for comp in space.components]).tocsr().tocsc()


def space_descriptor(space: TensorSpace) -> dict:
    """JSON-ready description of a space for experiment manifests."""
    return {
        "kind": space.kind.kind,
        "dim": space.kind.dim,
        "bc": space.kind.bc,
        "degrees": [kv.degree for kv in space.knots],
        "elements": [len(kv.breakpoints) - 1 for kv in space.knots],
        "component_dims": list(space.component_dims),
        "total_dim": space.total_dim,
    }
