"""Tensor-product de Rham spaces and exact difference matrices."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iga_asp.assembly import (discretize, h1_vector_matrix,
                              scalar_laplacian_matrix, system_setup)
from iga_asp.derham import (
    SpaceKind,
    build_space,
    curl_matrix,
    differential_matrix,
    divergence_matrix,
    gradient_matrix,
    KronBlocks,
    differential_blocks,
    kron_apply,
    scalar_curl_matrix,
    space_descriptor,
    vector_curl_matrix,
)
from iga_asp.derham import _reflection_sector
from iga_asp.precond import InnerSolver
from iga_asp.splines1d import drop_small


class TestBuildSpace:
    def test_3d_dimension_counts(self):
        # p=2, n=8 per direction: B has 10 dofs, D has 9
        grad = build_space("grad", 2, 8, dim=3)
        curl = build_space("curl", 2, 8, dim=3)
        div = build_space("div", 2, 8, dim=3)
        assert grad.total_dim == 1000
        assert curl.total_dim == 3 * 9 * 10 * 10
        assert div.total_dim == 3 * 9 * 9 * 10

    def test_essential_bc_counts(self):
        # essential bc drops two dofs per constrained B factor
        grad = build_space("grad", 2, 8, dim=3, bc="essential")
        curl = build_space("curl", 2, 8, dim=3, bc="essential")
        l2 = build_space("l2", 2, 8, dim=3, bc="essential")
        assert grad.total_dim == 512
        assert curl.total_dim == 3 * 9 * 8 * 8 == 1728
        assert l2.total_dim == 729

    def test_2d_curl_essential_example(self):
        curl = build_space("curl", 2, 8, dim=2, bc="essential")
        assert curl.component_shapes == ((9, 8), (8, 9))
        assert curl.total_dim == 144

    def test_vector_space_is_copies_of_grad(self):
        vec = build_space("vector", 3, 4, dim=2, bc="essential")
        grad = build_space("grad", 3, 4, dim=2, bc="essential")
        assert vec.n_components == 2
        assert vec.component_dims == grad.component_dims * 2

    def test_anisotropic_degrees(self):
        space = build_space("grad", (1, 3), (2, 4), dim=2)
        assert space.component_shapes == ((3, 7),)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            build_space("hcurl", 2, 8, dim=3)
        with pytest.raises(ValueError):
            SpaceKind("grad", 4)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_space("grad", (2, 2), 8, dim=3)


class TestKronBlocks:
    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_kron_oracle(self, n_rows, n_cols, n_factors, seed):
        # oracle: np.block of sums of np.kron products, over random
        # small non-square factors, None blocks and multi-term blocks
        rng = np.random.default_rng(seed)
        row_dims = rng.integers(1, 4, size=(n_rows, n_factors))
        col_dims = rng.integers(1, 4, size=(n_cols, n_factors))
        present = rng.random((n_rows, n_cols)) < 0.5
        # every block row and column keeps one entry
        present[np.arange(n_rows), np.arange(n_rows) % n_cols] = True
        present[np.arange(n_cols) % n_rows, np.arange(n_cols)] = True
        rows, dense = [], []
        for i in range(n_rows):
            row, dense_row = [], []
            for j in range(n_cols):
                block = np.zeros((row_dims[i].prod(), col_dims[j].prod()))
                dense_row.append(block)
                if not present[i, j]:
                    row.append(None)
                    continue
                terms = []
                for _ in range(rng.integers(1, 4)):
                    coeff = rng.standard_normal()
                    factors = [rng.standard_normal((r, c)) * (rng.random((r, c)) < 0.6)
                               for r, c in zip(row_dims[i], col_dims[j])]
                    terms.append((coeff, [sp.csr_matrix(f) for f in factors]))
                    product = np.ones((1, 1))
                    for f in factors:
                        product = np.kron(product, f)
                    block += coeff * product
                row.append(terms)
            rows.append(row)
            dense.append(dense_row)
        out = KronBlocks(rows).tocsr()
        assert isinstance(out, sp.csr_matrix) and out.has_sorted_indices
        np.testing.assert_allclose(out.toarray(), np.block(dense),
                                   rtol=1e-13, atol=1e-13)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_writes_the_kron_bmat_oracle(self, n_rows, n_cols, n_factors,
                                         explicit_zeros, seed):
        # the writer against the sp.kron + bmat assembly it replaced: None
        # blocks, sparse and dense factors (some with zero rows or no
        # columns), shared term lists, +-1 and random coefficients,
        # multi-term blocks and terms that cancel.  indptr, indices and
        # data are equal bit for bit to the oracle's without its stored
        # zeros: the writer stores no zero, so an explicit zero of a
        # sparse factor is not stored, and neither is a sum that cancels
        # (the oracle's sparse addition drops that too)
        rng = np.random.default_rng(seed)
        row_dims = rng.integers(0, 4, size=(n_rows, n_factors)) + (rng.random(
            (n_rows, n_factors)) < 0.9)
        col_dims = rng.integers(0, 4, size=(n_cols, n_factors)) + (rng.random(
            (n_cols, n_factors)) < 0.9)
        present = rng.random((n_rows, n_cols)) < 0.5
        present[np.arange(n_rows), np.arange(n_rows) % n_cols] = True
        present[np.arange(n_cols) % n_rows, np.arange(n_cols)] = True

        def factor(r, c):
            F = rng.standard_normal((r, c)) * (rng.random((r, c)) < 0.6)
            F[rng.random(r) < 0.2] = 0.0            # empty rows
            if rng.random() < 0.3:
                return F                            # dense
            F = sp.csr_matrix(F)
            if explicit_zeros and F.nnz:
                F.data[rng.random(F.nnz) < 0.3] = 0.0
            return F

        shared = {}
        rows = []
        for i in range(n_rows):
            row = []
            for j in range(n_cols):
                if not present[i, j]:
                    row.append(None)
                    continue
                key = (tuple(row_dims[i]), tuple(col_dims[j]))
                if key in shared and rng.random() < 0.5:
                    row.append(shared[key])         # one term list, twice
                    continue
                terms = []
                for _ in range(rng.integers(1, 4)):
                    coeff = rng.choice([1.0, -1.0, rng.standard_normal()])
                    factors = [factor(r, c) for r, c in zip(row_dims[i], col_dims[j])]
                    terms.append((coeff, factors))
                    if rng.random() < 0.2:
                        terms.append((-coeff, factors))   # cancels exactly
                shared[key] = terms
                row.append(terms)
            rows.append(row)
        K = KronBlocks(rows)
        got, ref = K.tocsr(), kron_bmat_oracle(K)
        assert isinstance(got, sp.csr_matrix) and got.has_sorted_indices
        assert got.shape == ref.shape == K.shape
        assert ref.has_sorted_indices
        ref.eliminate_zeros()
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(ref, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_explicit_zeros_of_a_sparse_factor_are_not_stored(self):
        # the oracle stores the products of an explicit zero; the writer
        # stores what is left without them
        F = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        F.data[1] = 0.0
        G = sp.csr_matrix(np.array([[1.0, -1.0]]))
        K = KronBlocks([[[(1.0, [F, G])]]])
        assert kron_bmat_oracle(K).nnz == 6
        got = K.tocsr()
        assert got.nnz == 4
        np.testing.assert_array_equal(got.toarray(), [[1, -1, 0, 0], [0, 0, 3, -3]])


def kron_bmat_oracle(K: KronBlocks) -> sp.csr_matrix:
    """The assembly :meth:`KronBlocks.tocsr` replaced: per block the COO
    ``sp.kron`` chain of each term times its coefficient, the terms
    summed by sparse addition in order, and ``sp.bmat`` of the blocks,
    CSR with sorted indices."""
    def block(terms):
        if terms is None:
            return None
        mats = []
        for coeff, factors in terms:
            out = sp.coo_matrix(factors[0])
            for f in factors[1:]:
                out = sp.kron(out, f, format="coo")
            mats.append(coeff * out)
        return sum(mats[1:], mats[0])

    out = sp.bmat([[block(t) for t in row] for row in K.rows], format="csr")
    out.sort_indices()
    return out


def random_kron_blocks(rng, n_rows, n_cols, n_factors, mixed=False):
    """A random KronBlocks of small sparse non-square factors: ``None``,
    multi-term and off-diagonal blocks, and diagonal blocks that are the
    term list of the block before them (runs of identical blocks), most
    of them alone in their block rows.  ``mixed`` makes some square
    factors sparse identities (which the plan skips) and some factors
    dense, C- or Fortran-ordered."""
    row_dims = rng.integers(1, 4, size=(n_rows, n_factors))
    col_dims = rng.integers(1, 4, size=(n_cols, n_factors))
    present = rng.random((n_rows, n_cols)) < 0.4
    shared = [i for i in range(1, min(n_rows, n_cols)) if rng.random() < 0.5]
    for i in shared:
        row_dims[i], col_dims[i] = row_dims[i - 1], col_dims[i - 1]
        if rng.random() < 0.8:      # alone in their rows: a run
            present[[i - 1, i]] = False
        present[i - 1, i - 1] = present[i, i] = True
    in_runs = {r for i in shared for r in (i - 1, i)}
    free = [r for r in range(n_rows) if r not in in_runs] or range(n_rows)
    for j in np.flatnonzero(~present.any(axis=0)):
        present[rng.choice(free), j] = True
    for i in np.flatnonzero(~present.any(axis=1)):
        present[i, i % n_cols] = True

    def factor(r, c):
        F = rng.standard_normal((r, c)) * (rng.random((r, c)) < 0.6)
        if not mixed:
            return sp.csr_matrix(F)
        kind = rng.integers(3)
        if kind == 0 and r == c:
            return sp.identity(r, format="csr")
        if kind == 1:
            return np.asfortranarray(F) if rng.random() < 0.5 else F
        return sp.csr_matrix(F)

    def terms(i, j):
        out = []
        for _ in range(rng.integers(1, 4)):
            coeff = 1.0 if rng.random() < 0.3 else rng.standard_normal()
            out.append((coeff, [factor(r, c)
                                for r, c in zip(row_dims[i], col_dims[j])]))
        return out

    rows = [[terms(i, j) if present[i, j] else None for j in range(n_cols)]
            for i in range(n_rows)]
    for i in shared:
        rows[i][i] = rows[i - 1][i - 1]
    return KronBlocks(rows)


def oracle_kron_apply(factors, X):
    """The axis walk that the compiled plans replaced, kept as their
    oracle: F_1 .. F_{d-1} multiply from the left, F_d from the right as
    F_d.T, each on a view of the shape reached so far; a ``None`` factor
    skips its axis."""
    count, Y = X.shape[0], X
    if X.ndim == len(factors) + 1:
        sizes = X.shape[1:]
    else:
        sizes = [F.shape[1] for F in factors]
    last = len(factors) - 1
    out, lead = [], count
    for k, (F, n) in enumerate(zip(factors, sizes)):
        if F is None:
            out.append(n)
        else:
            Y = F @ Y.reshape(lead, n, -1) if k < last else Y.reshape(-1, n) @ F.T
            out.append(F.shape[0])
        lead *= out[-1]
    return (Y.copy() if Y is X else Y).reshape(count, *out)


def oracle_apply(B, x, steps=None):
    """B x by the walk that preceded the plans: per run of ``B.runs`` its
    k columns and ``count`` blocks as one (k * count, n_1, ..., n_d)
    batch, the terms by :func:`oracle_kron_apply` of their dense copies
    (``None`` for a sparse identity), or ``steps[i]`` in place of run i."""
    def dense(F):
        if not sp.issparse(F):
            return F
        if (F.shape[0] == F.shape[1] and F.nnz == F.shape[0]
                and np.all(F.diagonal() == 1.0)):
            return None
        return F.toarray()

    cols = x.T.reshape(-1, x.shape[0])
    k = cols.shape[0]
    out = np.empty((k, B.shape[0]))
    for i, run in enumerate(B.runs):
        X = cols[:, run.inp].reshape(k * run.count, *run.shape)
        if steps is not None:
            Y = steps[i](X)
        else:
            Y = None
            for coeff, factors in run.terms:
                T = oracle_kron_apply([dense(F) for F in factors], X)
                if coeff != 1.0:
                    T *= coeff
                Y = T if Y is None else np.add(Y, T, out=Y)
        Y = Y.reshape(k, -1)
        if run.first:
            out[:, run.out] = Y
        else:
            out[:, run.out] += Y
    return out.T.reshape(out.shape[1], *x.shape[1:])


def oracle_solve(solver, shift, x):
    """The solve of ``solver.make(shift)`` by the walk that preceded the
    plans: per run forward, scale by 1/(Lambda + shift), backward, with
    the eigenvectors laid out as that walk had them."""
    steps = []
    for run, lam in zip(solver.U_T.runs, solver._sums(shift)):
        Us = [F.T for F in run.terms[0][1]]
        forward = [np.ascontiguousarray(U.T) for U in Us[:-1]] + [Us[-1].T]
        backward = Us[:-1] + [np.asfortranarray(Us[-1])]
        steps.append(lambda X, f=forward, b=backward, inv=1.0 / lam:
                     oracle_kron_apply(b, oracle_kron_apply(f, X) * inv))
    return oracle_apply(solver.U_T, x, steps)


class TestPlannedWalk:
    """The compiled plans against the walk they replaced, bit for bit."""

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([None, 1, 3]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_apply_is_the_old_walk(self, n_rows, n_cols, n_factors, k, seed):
        # None factors, non-square and dense factors of both layouts,
        # several terms, coefficients != 1, off-diagonal blocks and runs
        # of one shared term list
        rng = np.random.default_rng(seed)
        B = random_kron_blocks(rng, n_rows, n_cols, n_factors, mixed=True)
        x = rng.standard_normal((B.shape[1],) if k is None else (B.shape[1], k))
        y = B.apply(x)
        assert y.shape == (B.shape[0],) + x.shape[1:]
        assert np.array_equal(y, oracle_apply(B, x))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_operators_of_the_diagram_are_the_old_walk(self, dim):
        setup = system_setup("div", dim, 3, 4)
        basis = setup.mass_basis
        rng = np.random.default_rng(dim)
        for op in (setup.M_D_op, setup.M_range_op, basis.W, basis.W_T,
                   basis.forward, basis.backward,
                   differential_blocks(setup.space, setup.range_space)):
            for cols in ((), (1,), (4,)):
                x = rng.standard_normal((op.shape[1], *cols))
                assert np.array_equal(op.apply(x), oracle_apply(op, x))

    @given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=5),
           st.floats(min_value=-4.0, max_value=4.0),
           st.sampled_from([None, 1, 3]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_solves_are_the_old_walk(self, dim, p, n, log_shift, k, seed):
        disc = discretize(p, n, dim=dim, bc="essential")
        rng = np.random.default_rng(seed)
        for op in (h1_vector_matrix(disc), scalar_laplacian_matrix(disc)):
            solver = InnerSolver(op)
            x = rng.standard_normal((op.shape[1],) if k is None else (op.shape[1], k))
            shift = 10.0 ** log_shift
            assert np.array_equal(solver.make(shift)(x), oracle_solve(solver, shift, x))
            assert np.array_equal(solver.forward(x), oracle_apply(solver.U_T, x))

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_transpose(self, n_rows, n_cols, n_factors, seed):
        # the factored transpose assembles to the transposed assembly, and
        # blocks that shared a term list still do (the same runs)
        rng = np.random.default_rng(seed)
        B = random_kron_blocks(rng, n_rows, n_cols, n_factors, mixed=True)
        T = B.transpose()
        assert T.shape == B.shape[::-1]
        assert np.array_equal(T.tocsr().toarray(), B.tocsr().T.toarray())
        assert all(T.rows[j][i] is T.rows[b][a]
                   for i, row in enumerate(B.rows) for j, terms in enumerate(row)
                   for a, other in enumerate(B.rows) for b, terms_ in enumerate(other)
                   if terms is not None and terms is terms_)
        x = rng.standard_normal((T.shape[1], 2))
        assert np.array_equal(T.apply(x), oracle_apply(T, x))


def absolute(B: KronBlocks) -> KronBlocks:
    """B with every coefficient and factor in absolute value: its
    assembled matrix bounds |B| entry by entry, and adds the terms that
    cancel in B without cancellation."""
    return KronBlocks([[None if terms is None else
                        [(abs(coeff), [abs(F) for F in factors])
                         for coeff, factors in terms]
                        for terms in row] for row in B.rows])


def random_congruence(rng, n_rows, n_cols, n_factors, mixed=False):
    """A random B (:func:`random_kron_blocks`), a random square op
    block-diagonal over B's block rows with one to two terms of dense or
    sparse factors per block, and B^T op B, factored."""
    B = random_kron_blocks(rng, n_rows, n_cols, n_factors, mixed)
    dims = [[F.shape[0] for F in next(t for t in row if t)[0][1]]
            for row in B.rows]

    def factor(m):
        F = rng.standard_normal((m, m))
        return F if mixed and rng.random() < 0.5 else sp.csr_matrix(F)
    op = KronBlocks.block_diagonal([
        [(rng.standard_normal(), [factor(m) for m in d])
         for _ in range(rng.integers(1, 3))] for d in dims])
    return B, op, B.congruence(op)


class TestKronBlocksOperator:
    """apply, diagonal, congruence and upper_triangle against ``tocsr()``.  The
    round-off of either side is on the scale of B's terms, not of their
    sum, which cancels on some draws (seed 1093: a difference of 1.1e-16
    against ||A x|| = 9.1e-4), so both bounds scale by :func:`absolute`,
    never less than the assembled matrices' |A|; the pinned draws failed
    the bounds on the assembled matrices."""

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([None, 1, 3]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(4, 3, 3, None, 1093)
    @example(1, 4, 1, None, 2168741208)
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_assembled(self, n_rows, n_cols, n_factors, k, seed):
        rng = np.random.default_rng(seed)
        B = random_kron_blocks(rng, n_rows, n_cols, n_factors)
        A = B.tocsr()
        assert B.shape == A.shape
        x = rng.standard_normal((A.shape[1],) if k is None else (A.shape[1], k))
        y, ref = B.apply(x), A @ x
        assert y.shape == ref.shape
        scale = max(np.linalg.norm(ref),
                    np.linalg.norm(absolute(B).tocsr() @ np.abs(x)))
        assert np.linalg.norm(y - ref) <= 1e-14 * scale

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(3, 4, 1, 769068387)
    @example(4, 4, 1, 2878292695)
    @example(2, 2, 1, 2467342646)
    @example(1, 3, 1, 936935699)
    @settings(max_examples=60, deadline=None)
    def test_diagonals_match_assembled(self, n_rows, n_cols, n_factors, seed):
        # diag(B^T op B) for a random B and a random block-diagonal op on
        # B's block rows, and op's own diagonal
        rng = np.random.default_rng(seed)
        B, op, BtopB = random_congruence(rng, n_rows, n_cols, n_factors)
        Bd, opd = B.tocsr().toarray(), op.tocsr().toarray()
        ref = np.einsum("ij,ij->j", Bd, opd @ Bd)
        Ba, opa = absolute(B).tocsr().toarray(), absolute(op).tocsr().toarray()
        scale = np.maximum(np.abs(Bd).T @ np.abs(opd) @ np.abs(Bd),
                           Ba.T @ opa @ Ba)
        assert np.all(np.abs(BtopB.diagonal() - ref) <= 1e-13 * scale.diagonal())
        np.testing.assert_array_equal(op.diagonal(), np.diagonal(opd))

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_congruence_matches_assembled(self, n_rows, n_cols, n_factors,
                                          mixed, seed):
        # B^T op B, factored, against the product of the assembled
        # matrices; the products of the absolute values bound the
        # round-off of both sides
        rng = np.random.default_rng(seed)
        B, op, BtopB = random_congruence(rng, n_rows, n_cols, n_factors, mixed)
        Bs, ops = B.tocsr(), op.tocsr()
        got, ref = BtopB.tocsr().toarray(), (Bs.T @ ops @ Bs).toarray()
        assert got.shape == ref.shape == (B.shape[1],) * 2
        Ba, opa = absolute(B).tocsr(), absolute(op).tocsr()
        scale = np.maximum((abs(Bs).T @ abs(ops) @ abs(Bs)).toarray(),
                           (Ba.T @ opa @ Ba).toarray())
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_upper_triangle_matches_assembled(self, n_rows, n_cols, n_factors,
                                              mixed, seed):
        # written from the 1-D factors: the pattern of triu(drop_small())
        # of the assembled matrix, its values within the round-off of
        # either side's sums of terms
        rng = np.random.default_rng(seed)
        *_, K = random_congruence(rng, n_rows, n_cols, n_factors, mixed)
        got = K.upper_triangle()
        ref = sp.triu(drop_small(K.tocsr()), format="csr")
        assert got.has_sorted_indices
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        scale = sp.triu(absolute(K).tocsr())
        assert (abs(got - ref) - 1e-14 * scale).max() <= 0.0

    def test_upper_triangle_drops_below_tol(self):
        # entries below DROP_TOL and below the diagonal go, DROP_TOL itself
        # stays; explicit zeros of the factors inside a row's window are
        # not stored
        F = np.array([[4.0, 0.0, 1e-15], [0.0, 2.0, 3.0], [5.0, 0.0, 1e-14]])
        got = KronBlocks([[[(1.0, [F])]]]).upper_triangle()
        np.testing.assert_array_equal(got.toarray(), np.triu(F) * (np.abs(F) >= 1e-14))
        assert got.nnz == 4

    def test_upper_triangle_needs_blocks_split_alike(self):
        # square, but block row 0 has one row and block column 0 two
        B = KronBlocks([[[(1.0, [np.ones((1, 2))])], [(1.0, [np.ones((1, 1))])]],
                        [[(1.0, [np.ones((2, 2))])], [(1.0, [np.ones((2, 1))])]]])
        with pytest.raises(ValueError, match="split alike"):
            B.upper_triangle()

    def test_identical_components_are_one_run(self):
        # H's components share one term list: the walk batches them, and
        # U^T of its inverse keeps the same runs
        for dim in (2, 3):
            H = h1_vector_matrix(discretize(2, 4, dim=dim, bc="essential"))
            assert [(run.row, run.count) for run in H.runs] == [(0, dim)]
            solver = InnerSolver(H)
            assert [run.count for run in solver.U_T.runs] == [dim]
            # an input of any other length raises, naming both sizes
            N = H.shape[1]
            for shape in ((N - 1,), (N + 1,), (N + 1, 3)):
                for apply in (H.apply, solver.make()):
                    with pytest.raises(ValueError,
                                       match=f"{shape[0]} rows.*{N} columns"):
                        apply(np.ones(shape))

    def test_runs_batch_only_blocks_alone_in_their_rows(self):
        # S on the diagonal of block rows 1 and 2, but row 1 also holds X:
        # S of row 1 adds to X, so it cannot open a batch with row 2
        rng = np.random.default_rng(0)
        S = [(2.0, [sp.csr_matrix(rng.standard_normal((2, 3)))] * 2)]
        X = [(1.0, [sp.csr_matrix(rng.standard_normal((2, 1)))] * 2)]
        B = KronBlocks([[X, None, None], [X, S, None], [None, None, S]])
        assert [(r.row, r.col, r.count, r.first) for r in B.runs] == [
            (0, 0, 1, True), (1, 0, 1, True), (1, 1, 1, False), (2, 2, 1, True)]
        x = rng.standard_normal((B.shape[1], 2))
        np.testing.assert_allclose(B.apply(x), B.tocsr() @ x, rtol=1e-14)
        B = KronBlocks([[X, None, None], [None, S, None], [None, None, S]])
        assert [r.count for r in B.runs] == [1, 2]
        np.testing.assert_allclose(B.apply(x), B.tocsr() @ x, rtol=1e-14)

    def test_runs_of_a_differential(self):
        # 3-D curl: two blocks per block row, so every block is its own
        # run, and the second of each row adds to the first
        curl = build_space("curl", 2, 3, dim=3, bc="essential")
        div = build_space("div", 2, 3, dim=3, bc="essential")
        runs = differential_blocks(curl, div).runs
        assert [(r.row, r.col, r.count, r.first) for r in runs] == [
            (0, 1, 1, True), (0, 2, 1, False), (1, 0, 1, True),
            (1, 2, 1, False), (2, 0, 1, True), (2, 1, 1, False)]


class TestKronApply:
    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_kron_oracle(self, n_factors, count, seed):
        # oracle: each row of X times the transpose of np.kron of the
        # dense non-square factors, in the last-index-fastest numbering
        rng = np.random.default_rng(seed)
        shapes = rng.integers(1, 5, size=(n_factors, 2))
        factors = [rng.standard_normal((m, n)) for m, n in shapes]
        X = rng.standard_normal((count, shapes[:, 1].prod()))
        product = np.ones((1, 1))
        for f in factors:
            product = np.kron(product, f)
        out = kron_apply(factors, X)
        assert out.shape == (count, *shapes[:, 0])
        np.testing.assert_allclose(out.reshape(count, -1), X @ product.T,
                                   rtol=1e-13, atol=1e-13)
        assert np.array_equal(out, oracle_kron_apply(factors, X))

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_none_is_the_identity(self, n_factors, count, seed):
        # a None factor skips its axis; the oracle puts the identity there.
        # The result is never a view of X, not even when every factor is
        # None
        rng = np.random.default_rng(seed)
        shapes = rng.integers(1, 5, size=(n_factors, 2))
        skip = rng.random(n_factors) < 0.5
        shapes[skip, 0] = shapes[skip, 1]
        factors = [None if s else rng.standard_normal((m, n))
                   for s, (m, n) in zip(skip, shapes)]
        X = rng.standard_normal((count, *shapes[:, 1]))
        product = np.ones((1, 1))
        for f, n in zip(factors, shapes[:, 1]):
            product = np.kron(product, np.eye(n) if f is None else f)
        out = kron_apply(factors, X)
        assert out.shape == (count, *shapes[:, 0])
        assert not np.shares_memory(out, X)
        np.testing.assert_allclose(out.reshape(count, -1),
                                   X.reshape(count, -1) @ product.T,
                                   rtol=1e-13, atol=1e-13)
        assert np.array_equal(out, oracle_kron_apply(factors, X))


class TestDifferentialMatrices:
    def test_gradient_entries_are_exact_integers(self):
        grad = build_space("grad", 3, 4, dim=2)
        curl = build_space("curl", 3, 4, dim=2)
        G = gradient_matrix(grad, curl)
        assert G.shape == (curl.total_dim, grad.total_dim)
        assert set(np.unique(G.data)) <= {-1.0, 1.0}

    def test_curl_of_gradient_is_structurally_zero_3d(self):
        grad = build_space("grad", 2, 3, dim=3, bc="essential")
        curl = build_space("curl", 2, 3, dim=3, bc="essential")
        div = build_space("div", 2, 3, dim=3, bc="essential")
        CG = (curl_matrix(curl, div) @ gradient_matrix(grad, curl))
        CG.eliminate_zeros()
        assert CG.nnz == 0

    def test_div_of_curl_is_structurally_zero_3d(self):
        curl = build_space("curl", 2, 3, dim=3)
        div = build_space("div", 2, 3, dim=3)
        l2 = build_space("l2", 2, 3, dim=3)
        DC = divergence_matrix(div, l2) @ curl_matrix(curl, div)
        DC.eliminate_zeros()
        assert DC.nnz == 0

    def test_scalar_curl_of_gradient_is_zero_2d(self):
        grad = build_space("grad", 3, 4, dim=2, bc="essential")
        curl = build_space("curl", 3, 4, dim=2, bc="essential")
        l2 = build_space("l2", 3, 4, dim=2, bc="essential")
        RG = scalar_curl_matrix(curl, l2) @ gradient_matrix(grad, curl)
        RG.eliminate_zeros()
        assert RG.nnz == 0

    def test_div_of_vector_curl_is_zero_2d(self):
        grad = build_space("grad", 2, 5, dim=2)
        div = build_space("div", 2, 5, dim=2)
        l2 = build_space("l2", 2, 5, dim=2)
        DR = divergence_matrix(div, l2) @ vector_curl_matrix(grad, div)
        DR.eliminate_zeros()
        assert DR.nnz == 0

    def test_differential_matrix_dispatch(self):
        grad = build_space("grad", 2, 4, dim=2)
        curl = build_space("curl", 2, 4, dim=2)
        np.testing.assert_array_equal(
            differential_matrix(grad, curl).toarray(),
            gradient_matrix(grad, curl).toarray())
        with pytest.raises(ValueError):
            differential_matrix(curl, grad)

    @pytest.mark.parametrize("matrix, src, dst, dim", [
        (curl_matrix, "curl", "div", 2),
        (scalar_curl_matrix, "curl", "l2", 3),
        (vector_curl_matrix, "grad", "div", 3),
    ])
    def test_wrong_dimension_rejected_by_the_table(self, matrix, src, dst, dim):
        # the de Rham table has no such differential; its error names
        # both spaces
        with pytest.raises(ValueError, match="no differential between") as err:
            matrix(build_space(src, 2, 3, dim=dim), build_space(dst, 2, 3, dim=dim))
        assert str(err.value).count(f"dim={dim}") == 2

    def test_incompatible_spaces_rejected(self):
        grad = build_space("grad", 2, 4, dim=2)
        curl = build_space("curl", 2, 8, dim=2)
        with pytest.raises(ValueError):
            gradient_matrix(grad, curl)
        curl_ess = build_space("curl", 2, 4, dim=2, bc="essential")
        with pytest.raises(ValueError):
            gradient_matrix(grad, curl_ess)


# the de Rham differentials between neighbouring spaces, per dimension
NEIGHBOURS = {2: [("grad", "curl"), ("curl", "l2"), ("grad", "div"), ("div", "l2")],
              3: [("grad", "curl"), ("curl", "div"), ("div", "l2")]}


def off_sector_part(X, Q_dst, Q_src) -> float:
    """Largest entry of Q_chi(dst)^T X Q_chi'(src) over chi != chi',
    relative to the largest entry of X."""
    def stacked(Q):
        labels = np.concatenate([np.full(q.shape[1], i)
                                 for i, q in enumerate(Q.values())])
        return sp.hstack(list(Q.values())), labels
    (Qd, ld), (Qs, ls) = stacked(Q_dst), stacked(Q_src)
    C = (Qd.T @ X @ Qs).toarray()
    off = np.abs(C[ld[:, None] != ls[None, :]])
    return off.max(initial=0.0) / max(abs(X).max(), 1e-300) if X.nnz else 0.0


def reversal(n, odd):
    """Dense orthonormal basis of the length-n vectors that the reversal
    i -> n-1-i maps to themselves (``odd`` False) or to their negatives."""
    V = np.zeros((n, n // 2 if odd else n - n // 2))
    s = np.sqrt(0.5)
    for i in range(n // 2):
        V[i, i], V[n - 1 - i, i] = s, -s if odd else s
    if n % 2 and not odd:
        V[n // 2, n // 2] = 1.0
    return V


def reflection_sectors(space):
    """Oracle of the reflection sectors: per character chi in {0, 1}^d
    (``itertools.product`` order) the block Q_chi spanning the vectors
    that the reflection of direction k maps to (-1)^chi_k times
    themselves, block-diagonal over components, a component's block the
    dense Kronecker product over directions of the reversal-even or -odd
    basis, odd when chi_k XOR [factor k is 'D']."""
    sectors = {}
    for chi in itertools.product((0, 1), repeat=space.dim):
        blocks = []
        for comp in space.components:
            block = np.ones((1, 1))
            for c, f in zip(chi, comp):
                block = np.kron(block, reversal(f.dim, bool(c) != (f.kind == "D")))
            blocks.append(block)
        sectors[chi] = sp.block_diag(blocks, format="csc")
    return sectors


class TestReflectionSectors:
    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_orthonormal_complete_and_kept_by_masses_and_differentials(
            self, dim, data):
        from iga_asp.assembly import discretize, mass_operator
        n_max = 5 if dim == 2 else 3
        p = data.draw(st.tuples(*[st.integers(1, 3)] * dim), label="p")
        n = data.draw(st.tuples(*[st.integers(1, n_max)] * dim), label="n")
        bc = data.draw(st.sampled_from(["natural", "essential"]), label="bc")
        disc = discretize(p, n, dim=dim, bc=bc)
        sectors = {kind: reflection_sectors(space)
                   for kind, space in disc.spaces.items()}
        for kind, Q in sectors.items():
            N = disc.spaces[kind].total_dim
            assert len(Q) == 2 ** dim
            assert sum(q.shape[1] for q in Q.values()) == N
            # orthonormal within and across the blocks: the blocks are
            # disjoint and, by the count above, complete
            Q_all = sp.hstack(list(Q.values())).toarray()
            np.testing.assert_allclose(Q_all.T @ Q_all, np.eye(N), atol=1e-15)
            M = mass_operator(disc, kind).tocsr()
            assert off_sector_part(M, Q, Q) <= 1e-13
        for src, dst in NEIGHBOURS[dim]:
            D = differential_matrix(disc.spaces[src], disc.spaces[dst])
            assert off_sector_part(D, sectors[dst], sectors[src]) <= 1e-15

    def test_parity_of_one_component(self):
        # 2-D curl, p=1, n=2: component 0 is (D, B) with shapes (2, 1)
        # under essential bc; chi = (0, 0) takes the reversal-odd D basis
        # (e_0 - e_1)/sqrt 2 and the even B basis e_0
        space = build_space("curl", 1, 2, dim=2, bc="essential")
        assert space.component_shapes == ((2, 1), (1, 2))
        Q = reflection_sectors(space)[(0, 0)].toarray()
        np.testing.assert_allclose(Q[:, 0], [0.5 ** 0.5, -(0.5 ** 0.5), 0, 0])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bc", ["natural", "essential"])
    def test_blocks_equal_the_per_component_kronecker_oracle(self, dim, bc):
        # the sectors that TensorSpace.sectors builds against the dense
        # per-component Kronecker oracle; values are compared, since
        # sp.kron of tiny factors stores explicit zeros
        for kind, p, n in itertools.product(
                ("grad", "curl", "div", "l2", "vector"), (1, 2, 3), (2, 3, 5)):
            space = build_space(kind, p, n, dim=dim, bc=bc)
            for chi, oracle in reflection_sectors(space).items():
                Q = _reflection_sector(space, chi)
                assert Q.shape == oracle.shape
                assert (Q != oracle).nnz == 0, (kind, p, n, chi)

    def test_kept_with_the_space(self):
        # equal knots: per chi in order, the sector itself where chi_0 <
        # chi_1 (its twin chi_0 > chi_1 is left out) and its swap-even
        # and swap-odd halves where chi_0 = chi_1; empty blocks dropped
        space = build_space("div", 1, 2, dim=3, bc="essential")
        assert space.sectors is space.sectors
        ref = reflection_sectors(space)
        assert sum(not Q.shape[1] for Q in ref.values()) > 0
        expected = []
        for chi, Q in ref.items():
            if chi[0] < chi[1]:
                expected.append(Q.shape[1])
            elif chi[0] == chi[1]:
                S = sp.identity(space.total_dim, format="csr")[space.swap]
                Q = Q.toarray()
                rank = np.linalg.matrix_rank(Q + S @ Q) if Q.shape[1] else 0
                expected += [rank, Q.shape[1] - rank]
        assert [Q.shape[1] for Q in space.sectors] == [m for m in expected if m]
        # unequal knots in directions 0 and 1: the non-empty sectors
        space = build_space("div", 1, (2, 3, 2), dim=3, bc="essential")
        assert space.swap is None
        ref = [Q for Q in reflection_sectors(space).values() if Q.shape[1]]
        assert len(space.sectors) == len(ref)
        for Q, R in zip(space.sectors, ref):
            assert Q.shape == R.shape and (Q != R).nnz == 0

    def test_block_sizes_of_the_square(self):
        # 2-D curl p=3 n=16: reflection sectors 162/153/153/144
        space = build_space("curl", 3, 16, dim=2, bc="essential")
        assert [Q.shape[1] for Q in reflection_sectors(space).values()] == [
            162, 153, 153, 144]
        assert [Q.shape[1] for Q in space.sectors] == [81, 81, 153, 72, 72]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["grad", "curl", "div"])
    def test_columns_have_disjoint_supports(self, kind, dim):
        # the Gram factors read Q^T diag(w) Q as diag((Q o Q)^T w), which
        # holds because no two columns of a block share a row; with the
        # twins left out (chi_0 > chi_1) the blocks count N columns
        for p, n in [(1, 2), (1, 3), (2, 3), (3, 4)]:
            space = build_space(kind, p, n, dim=dim, bc="essential")
            twins = sum(Q.shape[1] for chi, Q in reflection_sectors(space).items()
                        if chi[0] > chi[1])
            assert sum(Q.shape[1] for Q in space.sectors) + twins == space.total_dim
            for Q in space.sectors:
                assert Q.shape[1] > 0
                assert np.unique(Q.indices).size == Q.nnz, (kind, p, n)

    @given(st.sampled_from(["grad", "curl", "div"]), st.sampled_from([2, 3]),
           st.sampled_from(["natural", "essential"]), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetry_adapted_bases(self, kind, dim, bc, equal, data):
        # each basis is orthonormal with disjoint column supports, the
        # bases are mutually orthogonal, and with the swapped twins of
        # the representatives they span the space; the swap commutes with
        # the mass.  Unequal knots in directions 0 and 1 keep the plain
        # reflection sectors.
        from iga_asp.assembly import discretize, mass_operator
        n_max = 5 if dim == 2 else 3
        p = data.draw(st.tuples(*[st.integers(1, 3)] * dim), label="p")
        n = data.draw(st.tuples(*[st.integers(1, n_max)] * dim), label="n")
        if equal:
            p, n = (p[0], p[0]) + p[2:], (n[0], n[0]) + n[2:]
        elif (p[0], n[0]) == (p[1], n[1]):
            n = (n[0], n[0] + 1) + n[2:]
        disc = discretize(p, n, dim=dim, bc=bc)
        space = disc.spaces[kind]
        N = space.total_dim
        assume(N > 0)
        bases = list(space.sectors)
        for Q in bases:
            assert np.unique(Q.indices).size == Q.nnz
        if not equal:
            assert space.swap is None
            ref = [Q for Q in reflection_sectors(space).values() if Q.shape[1]]
            assert all((Q != R).nnz == 0 for Q, R in zip(bases, ref))
            assert len(bases) == len(ref)
        else:
            swap = space.swap
            assert np.array_equal(np.sort(swap), np.arange(N))
            S = sp.identity(N, format="csr")[swap]
            M = mass_operator(disc, kind).tocsr()
            assert abs(S @ M @ S.T - M).max() <= 1e-14 * abs(M).max()
            # the swap maps each half onto itself (+-1) and each
            # representative onto its twin, orthogonal to it
            for Q in bases:
                P = (Q.T @ Q[swap]).toarray()
                I = np.eye(Q.shape[1])
                assert min(abs(P - I).max(), abs(P + I).max(), abs(P).max()) <= 1e-14
            bases += [Q[swap] for chi, Q in reflection_sectors(space).items()
                      if chi[0] < chi[1] and Q.shape[1]]
        Q_all = sp.hstack(bases).toarray()
        assert Q_all.shape == (N, N)
        np.testing.assert_allclose(Q_all.T @ Q_all, np.eye(N), atol=1e-15)


class TestDifferentialSemantics:
    """Point-value oracle: applying the matrix to the coefficients of a
    spline field must reproduce its analytic derivative."""

    @staticmethod
    def _eval_scalar(space, comp_idx, coeffs, pts):
        from iga_asp.splines1d import basis_values
        comp = space.components[comp_idx]
        shape = space.component_shapes[comp_idx]
        C = coeffs.reshape(shape)
        for ax, fac in enumerate(comp):
            V = basis_values(fac, pts[ax])
            C = np.tensordot(V, C, axes=([1], [0]))
            C = np.moveaxis(C, 0, len(comp) - 1)
        return C

    def test_gradient_values_match_finite_differences(self):
        grad = build_space("grad", 3, 4, dim=2)
        curl = build_space("curl", 3, 4, dim=2)
        G = gradient_matrix(grad, curl)
        rng = np.random.default_rng(2)
        c = rng.standard_normal(grad.total_dim)
        gc = G @ c
        h = 1e-6
        pts = np.array([0.3, 0.61])
        for direction in range(2):
            lo = list(pts)
            hi = list(pts)
            lo[direction] -= h
            hi[direction] += h
            f_hi = self._eval_scalar(grad, 0, c, [np.array([v]) for v in hi])
            f_lo = self._eval_scalar(grad, 0, c, [np.array([v]) for v in lo])
            fd = float((f_hi - f_lo).ravel()[0]) / (2 * h)
            off = sum(curl.component_dims[:direction])
            comp_c = gc[off: off + curl.component_dims[direction]]
            val = float(self._eval_scalar(curl, direction, comp_c,
                                          [np.array([v]) for v in pts]).ravel()[0])
            assert abs(val - fd) <= 1e-5

    def test_scalar_curl_values_match_finite_differences(self):
        curl = build_space("curl", 2, 4, dim=2)
        l2 = build_space("l2", 2, 4, dim=2)
        R = scalar_curl_matrix(curl, l2)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(curl.total_dim)
        ru = R @ u
        h = 1e-6
        x = np.array([0.37]), np.array([0.72])
        def comp(i, pts):
            off = sum(curl.component_dims[:i])
            return float(self._eval_scalar(
                curl, i, u[off: off + curl.component_dims[i]], list(pts)).ravel()[0])
        # curl u = d u1 / d x2 - d u2 / d x1
        d1_dx2 = (comp(0, (x[0], x[1] + h)) - comp(0, (x[0], x[1] - h))) / (2 * h)
        d2_dx1 = (comp(1, (x[0] + h, x[1])) - comp(1, (x[0] - h, x[1]))) / (2 * h)
        val = float(self._eval_scalar(l2, 0, ru, list(x)).ravel()[0])
        assert abs(val - (d1_dx2 - d2_dx1)) <= 1e-5

    def test_3d_curl_values_match_finite_differences(self):
        curl = build_space("curl", 2, 3, dim=3)
        div = build_space("div", 2, 3, dim=3)
        C = curl_matrix(curl, div)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(curl.total_dim)
        cu = C @ u
        h = 1e-6
        x = [0.31, 0.57, 0.74]
        def comp(space, vec, i, pts):
            off = sum(space.component_dims[:i])
            return float(self._eval_scalar(
                space, i, vec[off: off + space.component_dims[i]],
                [np.array([v]) for v in pts]).ravel()[0])
        def du(i, j):                 # d u_i / d x_j
            hi, lo = list(x), list(x)
            hi[j] += h
            lo[j] -= h
            return (comp(curl, u, i, hi) - comp(curl, u, i, lo)) / (2 * h)
        expect = [du(2, 1) - du(1, 2), du(0, 2) - du(2, 0), du(1, 0) - du(0, 1)]
        for i in range(3):
            assert abs(comp(div, cu, i, x) - expect[i]) <= 1e-5


class TestDescriptor:
    def test_fields(self):
        space = build_space("div", 3, 8, dim=3, bc="essential")
        desc = space_descriptor(space)
        assert desc["kind"] == "div"
        assert desc["degrees"] == [3, 3, 3]
        assert desc["elements"] == [8, 8, 8]
        assert desc["total_dim"] == space.total_dim
        import json
        json.dumps(desc)        # must be JSON-serializable
