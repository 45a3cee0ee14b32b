"""Weighted Laplacians and per-commodity minimum-energy electrical flows.

For capacities ``x > 0`` the conductance of edge ``e`` is ``x_e / c_e`` and
``L(x) = A X C^-1 A^T``.  Each demand column ``b`` induces node potentials
``L(x) p = b`` (unique after grounding), normalized drops
``lambda = C^-1 A^T p`` and the minimum-energy flow ``q = x * lambda``.
Capacities may sit at a tiny positive floor; all formulas below only ever
multiply by ``x`` (the ``0^2/0 = 0`` convention), never divide by it.

Demands usually share a few terminals, so the solve works in a column basis
``U`` (n x s) of the demands with ``B = U W`` (to ``BASIS_TOL``), where
the rows of ``W`` are orthonormal: the grounded Laplacian is factored once
per call and solved for the basis potentials ``G`` in ``L(x) G = U``.
Then ``P = G W``, the drop norms ``||Lambda_e||_2`` are the row norms of
the basis drops (``W W^T = I``), and energies and residuals are computed
from ``G`` and ``W`` in ``s`` columns; the k-column ``P``, ``Q`` and
``Lambda`` are formed only when asked for.

The grounded Laplacian's pattern is fixed per grounding, so its layout
is computed once.  A graph's nodes are ordered by reverse Cuthill-McKee
from a pseudo-peripheral level set (George and Liu), which narrows the
band of the eight-neighbour grids by a quarter to a third against scipy's
``reverse_cuthill_mckee``, and every step assembles the matrix straight
into LAPACK band storage and factors it by banded Cholesky; a general
matrix takes the full width.  Wide bands with many right-hand sides are
solved block by block with level-3 BLAS (``_BandBlocks``), the others by
LAPACK's column-by-column ``pbtrs``.  A graph whose band is wider than
``MAX_BANDWIDTH`` (a hub, long edges) is ordered by symmetric minimum
degree instead, and every step factors the reordered CSC matrix by sparse
LU on its diagonal, without pivoting, which for a symmetric positive
definite matrix is as stable as Cholesky.  Iterative refinement works on
the residual in incidence form, ``A X (C^-1 A^T G) - U``, on a graph one
sparse product with the capacities folded into ``A``'s entries, which also
serves the final check.

Each step's BLAS calls are small, so ``dynamics.run`` integrates with every
OpenBLAS in the process set to one thread (``_single_threaded_blas``).
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Iterator

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg as spla

from .errors import ScenarioError, SolverError
from .model import Instance

DEFAULT_SOLVE_TOL = 1e-10

# Incidence systems whose half-bandwidth b in ``_band_order`` is at most
# this are factored as a band, wider ones by sparse LU.  Band work grows
# like size * b^2 and LU work on these graphs about like size, so the
# crossover is a width.  Factor plus a 19-column solve at log-uniform
# capacities, one OpenBLAS thread (ms, band/LU, median of 3 x 8 calls), on
# generated grids with random long edges (0 to 30 node pairs): of 1,568
# nodes, b = 50 1.1/2.7, 97 1.7/2.7, 113 1.9/2.9, 134 2.3/2.8, 159 2.7/2.9,
# 165 2.9/2.8, 177 2.9/2.8, 196 3.2/2.9; of 3,217 nodes, b = 76 2.9/5.9,
# 123 4.5/5.9, 176 6.4/6.3, 179 6.3/7.0, 187 6.9/6.0, 217 7.9/6.2,
# 265 11.0/6.2; of 6,305 nodes, b = 103 7.6/13.6, 326 28.9/14.1.
MAX_BANDWIDTH = 160

# Band systems at least this wide, with at least this many right-hand
# sides, are solved by ``_BandBlocks``; the others by LAPACK ``pbtrs``.
# The blocked solve pays per block in Python and per factor for its mask,
# and gains on each column.  solve_commodities per call, one OpenBLAS
# thread (ms, LAPACK/blocked, median of 7 x 40 calls), on generated grids
# with 19 columns: b = 10 0.076/0.089, 14 0.124/0.119, 17 0.189/0.184,
# 22 0.279/0.239, 26 0.454/0.338, 33 0.793/0.621, 50 2.08/1.53; with s
# columns at b = 22 (s = 4, 8, 10, 12, 16: 0.123/0.156, 0.161/0.171,
# 0.183/0.186, 0.199/0.188, 0.237/0.196) and at b = 50 (s = 1, 4, 8:
# 0.63/0.87, 0.92/1.01, 1.24/1.13).
BLOCKED_SOLVE_MIN_BANDWIDTH = 20
BLOCKED_SOLVE_MIN_COLUMNS = 12

# Iterative refinement stops at this fraction of ``solve_tol`` so that the
# per-commodity residual check after it passes with room to spare.
INNER_TOL_FACTOR = 0.1

# ``FlowSolution.lambda_blocks`` forms ``Lambda = drops W`` in blocks of
# edge rows of about this many bytes, ``2**18 // (8 k)`` rows, so no m x k
# array is made.  One-norm drop norms / record-time flow ratio, one OpenBLAS
# thread on a 2-vCPU VM (ms, best of 7 x 50 calls; whole m x k array, then
# blocks of 64, 128, 256, 512 KB, 1 and 2 MB): 393-node grid (m = 1,447,
# k = 93) 0.94/0.45, 0.30/0.50, 0.26/0.49, 0.24/0.46, 0.28/0.48,
# 0.28/0.47, 0.27/0.47; 1,569-node grid (m = 6,028, k = 88) 3.03/2.02,
# 1.11/1.91, 0.93/1.84, 0.87/1.74, 0.99/1.82, 0.97/1.75, 1.06/1.82.
ROW_BLOCK_BYTES = 2 ** 18

# The orthonormal demand basis is kept when it reproduces every demand
# column to this relative error; the rotation's rounding is up to 9e-15
# on the generated grids and below 1.5e-14 on small random graphs.  The
# error is added to each commodity's checked residual.
BASIS_TOL = 1e-13


@dataclass(frozen=True)
class GroundingPlan:
    """Node indices whose potential is pinned to zero.

    One node per connected component for incidence matrices; for a general
    matrix, a row set that makes a kernel basis of ``A^T`` nonsingular.
    """

    nodes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """Potentials, flows and normalized drops for all commodities at one x.

    The solve's own results are in the ``s`` columns of the demand basis
    (``B = U W`` with ``W W^T = I``); ``P``, ``Lambda``, ``Q`` and the
    per-edge drop norms are derived from them on first access.  A per-edge
    reduction over the ``k`` commodities goes through ``lambda_blocks``,
    which forms ``Lambda`` a block of edges at a time and keeps none of it.
    """

    G: np.ndarray        # (n, s) basis potentials, L(x) G = U
    W: np.ndarray        # (s, k) basis coefficients of the demands, orthonormal rows
    drops: np.ndarray    # (m, s) basis drops per unit cost, C^-1 A^T G
    x: np.ndarray        # (m,) capacities of the solve
    energy_per_commodity: np.ndarray  # (k,) values b_i^T p_i
    residuals: np.ndarray             # (k,) relative residuals of the solves

    @cached_property
    def P(self) -> np.ndarray:
        """(n, k) node potentials; first access forms an n x k array and
        keeps it on the solution."""
        return self.G @ self.W

    @cached_property
    def Lambda(self) -> np.ndarray:
        """(m, k) potential drops per unit cost; first access forms an
        m x k array and keeps it on the solution."""
        return self.drops @ self.W

    @cached_property
    def Q(self) -> np.ndarray:
        """(m, k) minimum-energy flows; first access forms an m x k array,
        and ``Lambda`` with it, and keeps both on the solution."""
        return self.x[:, None] * self.Lambda

    def lambda_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """``(rows, Lambda[rows])`` for consecutive blocks of edges.

        Each block of ``Lambda = drops W`` is formed in one buffer of about
        ``ROW_BLOCK_BYTES``, which the caller may overwrite and which the
        next block reuses.  No block has a single row unless ``m = 1``:
        numpy multiplies a single row by a matrix-vector kernel, whose sums
        may round differently from the matrix product's, and with two rows
        or more each entry is computed as in ``Lambda``.
        """
        m, k = self.drops.shape[0], self.W.shape[1]
        rows = max(ROW_BLOCK_BYTES // (8 * max(k, 1)), 2)
        # Blocks start below m - 1, so the last one has 2 to rows + 1 rows.
        starts = range(0, max(m - 1, 1), rows)
        buffer = np.empty((min(rows + 1, m), k))
        for lo, hi in zip(starts, [*starts[1:], m]):
            block = np.matmul(self.drops[lo:hi], self.W, out=buffer[:hi - lo])
            yield slice(lo, hi), block

    @cached_property
    def lambda_sq_norms(self) -> np.ndarray:
        """(m,) squared two-norms ``||Lambda_e||_2^2``: ``Lambda = drops W``
        and ``W W^T = I``, so they are the row sums of ``drops ** 2``."""
        return np.einsum("es,es->e", self.drops, self.drops)


def _demand_basis(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns ``U``, coefficients ``W`` with ``B = U W`` and ``W W^T = I``,
    and the basis error ``_basis_error(U, W, B)``, read on the terminals'
    rows (the zero rows add exact zeros to its sums).

    On incidence instances every terminal other than one reference per
    component gives the balanced column ``e_s - e_ref`` with coefficients
    ``B[s]``.  That basis is considered when it has fewer columns than
    ``B`` and reproduces it exactly.  Its coefficients are then rotated by
    their singular value decomposition ``W = V S Z^T`` into ``U V S`` and
    ``Z^T``, dropping the directions whose singular value is at rounding
    level, so a rank-deficient demand set solves fewer columns.  The
    rotation rounds, so it is kept only when it reproduces every demand
    column to ``BASIS_TOL`` relative; otherwise ``U = B`` and ``W = I``,
    which is exact, with a zero error.
    """
    B = instance.B
    k = B.shape[1]
    if instance.is_incidence and k > 0:
        terminals = np.flatnonzero(np.any(B != 0, axis=1))
        comp = instance.components()[terminals]
        _, first = np.unique(comp, return_index=True)
        ref = np.zeros(instance.n, dtype=np.intp)
        ref[comp[first]] = terminals[first]
        others = np.setdiff1d(np.arange(terminals.size), first)
        if others.size < k:
            cols = np.arange(others.size)
            U = np.zeros((instance.n, others.size))
            U[terminals[others], cols] = 1.0
            U[ref[comp[others]], cols] = -1.0
            W = B[terminals[others]]
            # U and B are zero outside the terminals' rows.
            B_t = B[terminals]
            if np.array_equal(U[terminals] @ W, B_t):
                V, sigma, Zt = np.linalg.svd(W, full_matrices=False)
                rank = np.count_nonzero(
                    sigma > sigma.max(initial=0.0) * max(W.shape) * np.finfo(float).eps)
                U, W = U @ (V[:, :rank] * sigma[:rank]), Zt[:rank]
                error = _basis_error(U[terminals], W, B_t)
                if np.all(error <= BASIS_TOL):
                    return U, W, error
    return np.array(B), np.eye(k), np.zeros(k)


def _column_scale(M: np.ndarray) -> np.ndarray:
    """Per column of ``M``, the power of two that brings its largest entry
    into ``[0.5, 1)``, or 1 for every column when all of them lie in
    ``[2^-128, 2^128)``; 1 for a zero column."""
    top = np.abs(M).max(axis=0, initial=0.0)
    if np.all((top == 0) | ((top >= 2.0 ** -128) & (top < 2.0 ** 128))):
        return np.ones(M.shape[1])
    return np.ldexp(1.0, -np.frexp(top)[1])


def _basis_error(U: np.ndarray, W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(k,) relative errors ``||U w_i - b_i|| / ||b_i||`` of a demand basis.

    Each column is first divided by its largest entry, so that the squares
    of a tiny demand do not underflow to a zero error.
    """
    scale = np.maximum(np.abs(B).max(axis=0, initial=0.0), 1e-300)
    return (np.linalg.norm((U @ W - B) / scale, axis=0)
            / np.maximum(np.linalg.norm(B / scale, axis=0), 1e-300))


class _GroundedSystem:
    """The grounded Laplacian ``L(x)[keep][:, keep]`` for one grounding plan.

    The layout the solver factors is fixed when the system is built, from
    the pattern alone.  ``keep`` and ``rhs`` list the grounded nodes in
    elimination order, and ``grounded`` the pinned ones.

    - Band (the default): incidence instances order the nodes by
      ``_band_order``, reverse Cuthill-McKee from a pseudo-peripheral
      level set, and each edge's lower-triangle entries get a fixed slot
      in LAPACK's lower band storage ``(b + 1, size)``, so assembly is one
      sparse product with the conductances, a row per distinct slot.  A
      band of at least ``BLOCKED_SOLVE_MIN_BANDWIDTH`` with at least
      ``BLOCKED_SOLVE_MIN_COLUMNS`` right-hand sides is padded to whole
      ``b x b`` blocks and solved by ``_BandBlocks``; the others by LAPACK
      ``pbtrs``.  General matrices keep their node order and take the full
      width, ``b = size - 1``, and ``pbtrs``.  The band is factored and
      solved in a ``_BandWorkspace``, built once and then taken from and
      handed back to the system's idle ones.
    - Sparse LU (``splu``): an incidence system whose half-bandwidth
      ``b`` exceeds ``MAX_BANDWIDTH`` is ordered by symmetric minimum
      degree instead and refilled into a fixed CSC pattern.
    """

    def __init__(self, instance: Instance, nodes: tuple[int, ...], U: np.ndarray):
        n, m = instance.n, instance.m
        self.grounded = np.array(nodes, dtype=np.intp)
        keep = np.setdiff1d(np.arange(n), self.grounded)
        size = self.size = keep.size
        self.columns = U.shape[1]
        self.splu, self.blocked = False, False
        self.pad = np.zeros(0, dtype=np.intp)
        self._idle: list[_BandWorkspace] = []
        if not instance.is_incidence:
            self.A_keep = instance.A[keep]
            self.width = size  # b = size - 1
            rows, cols = np.tril_indices(size)
            self.slot, self.src = _band_slot(rows, cols, size), rows * size + cols
            self.keep, self.rhs = keep, np.ascontiguousarray(U[keep])
            return
        self.A_keep = None
        pos = np.full(n, -1, dtype=np.intp)
        pos[keep] = np.arange(size)
        tails, heads = instance.edge_endpoints()
        pt, ph = pos[tails], pos[heads]
        rows = np.concatenate([pt, ph, pt, ph])
        cols = np.concatenate([ph, pt, pt, ph])
        edge = np.tile(np.arange(m), 4)
        sign = np.repeat([-1.0, -1.0, 1.0, 1.0], m)
        inside = (rows >= 0) & (cols >= 0)
        rows, cols, edge, sign = rows[inside], cols[inside], edge[inside], sign[inside]
        pattern = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(size, size))
        order = _band_order(pattern)
        rank = np.empty(size, dtype=np.intp)
        rank[order] = np.arange(size)
        r, c = rank[rows], rank[cols]
        bandwidth = int(np.abs(r - c).max(initial=0))
        self.splu = bandwidth > MAX_BANDWIDTH
        if self.splu:
            # Unit conductances plus the identity give a positive definite
            # matrix on the pattern whatever the plan; perm_c maps each
            # grounded node to its place in the minimum-degree order.
            unit = (sp.csc_matrix((sign, (rows, cols)), shape=(size, size))
                    + sp.identity(size, format="csc"))
            perm_c = spla.splu(unit, permc_spec="MMD_AT_PLUS_A",
                               options={"SymmetricMode": True}).perm_c.astype(np.intp)
            slot, self.indices, self.indptr = _csc_pattern(perm_c[rows], perm_c[cols], size)
            self.assemble = _slot_sums(slot, edge, sign, self.indices.size, m)
            order = np.argsort(perm_c)
        else:
            lower = r >= c
            self.width = bandwidth + 1
            self.blocked = (bandwidth >= BLOCKED_SOLVE_MIN_BANDWIDTH
                            and self.columns >= BLOCKED_SOLVE_MIN_COLUMNS)
            if self.blocked:
                padded = _BandBlocks.padded_size(size, bandwidth)
                self.pad = np.arange(size, padded) * self.width
            self.slot, inverse = np.unique(
                _band_slot(r[lower], c[lower], self.width), return_inverse=True)
            self.assemble = _slot_sums(inverse, edge[lower], sign[lower], self.slot.size, m)
        self.keep, self.rhs = keep[order], np.ascontiguousarray(U[keep[order]])

    def __getstate__(self) -> dict:
        # A workspace's arrays are views of one buffer, which a copy or a
        # pickle would detach from each other; a copy builds its own.
        return {**self.__dict__, "_idle": []}

    def factor(self, w: np.ndarray):
        """Factor the system at conductances ``w``.

        Returns the factor, whose ``solve(R)`` takes right-hand sides in the
        order of ``keep``; hand it back with ``release`` when its last solve
        is used.  The matrix is symmetric positive definite: the band takes
        Cholesky, and sparse LU takes the diagonal pivots in the fixed
        order, which for such a matrix is as stable as Cholesky.
        """
        if self.splu:
            Lr = sp.csc_matrix((self.assemble @ w, self.indices, self.indptr),
                               shape=(self.size, self.size))
            try:
                return spla.splu(Lr, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        try:
            space = self._idle.pop()
        except IndexError:
            space = (_BandBlocks(self.size, self.width - 1, self.columns) if self.blocked
                     else _BandWorkspace(self.size, self.width, self.size))
        flat = space.flat
        flat.fill(0.0)
        if self.A_keep is None:
            flat[self.slot] = self.assemble @ w
        else:
            flat[self.slot] = ((self.A_keep * w) @ self.A_keep.T).ravel()[self.src]
        flat[self.pad] = 1.0
        info = scipy.linalg.lapack.dpbtrf(space.ab, 1, self.width, 1)[1]
        if info:
            self._idle.append(space)
            raise SolverError(f"grounded Laplacian is not positive definite: "
                              f"{info}-th leading minor not positive definite")
        space.load()
        return space

    def release(self, factor) -> None:
        """Hand back what ``factor`` returned; a band workspace becomes idle."""
        if not self.splu:
            self._idle.append(factor)


# LAPACK and BLAS routines of the band solves, called with positional
# arguments: keywords cost about 0.8 us a call in the f2py wrappers.
_pbtrs = scipy.linalg.lapack.dpbtrs
_trsm, _gemm = scipy.linalg.blas.dtrsm, scipy.linalg.blas.dgemm


class _BandWorkspace:
    """Buffers of one band factor and its solves; a system keeps one for
    each of its solves that runs at the same time.

    ``ab`` is LAPACK's lower band storage ``(width, padded)`` in Fortran
    order, ``flat`` the same memory as one vector with ``ab[i, j]`` at
    ``j * width + i``.  The system fills ``flat`` and ``pbtrf`` overwrites
    it with the factor, which ``pbtrs`` then reads column by column.
    """

    def __init__(self, size: int, width: int, padded: int):
        self.size = size
        self.flat = np.zeros(width * padded)
        self.ab = self.flat.reshape(padded, width).T

    def load(self) -> None:
        """Read what the solves need from a new factor in ``ab``."""

    def solve(self, R: np.ndarray) -> np.ndarray:
        """``G`` with ``L L^T G = R``."""
        return _pbtrs(self.ab, R, 1)[0]


class _BandBlocks(_BandWorkspace):
    """A band workspace solved by blocks with level-3 BLAS.

    Cut into ``b x b`` blocks (``q = max(b, 1)`` rows each), a band factor
    of half-bandwidth ``b`` is block bidiagonal: lower-triangular diagonal
    blocks ``D_K`` and upper-triangular sub-diagonal blocks ``S_K``.
    LAPACK's lower band storage puts ``L[i, j]`` at flat offset
    ``j b + i``, so both families are strided views of ``flat`` with
    leading dimension ``b``, made once; ``trsm`` reads only the lower
    triangle of ``D_K``, while the entries of ``S_K`` below its triangle
    belong to other columns and are masked off into ``S`` by ``load``.
    The band is padded to whole blocks, with a unit diagonal in the
    padding, and ``L L^T G = R`` costs one ``dtrsm`` and one ``dgemm`` per
    block each way, on all ``columns`` at once, where LAPACK ``pbtrs``
    takes the columns one by one.
    """

    @staticmethod
    def padded_size(size: int, b: int) -> int:
        q = max(b, 1)
        return -(-size // q) * q

    def __init__(self, size: int, b: int, columns: int):
        q = max(b, 1)
        padded = self.padded_size(size, b)
        super().__init__(size, b + 1, padded)
        self.count = count = padded // q
        below = max(count - 1, 0)
        flat, step = self.flat, self.flat.itemsize
        # D[K][r, c] = L[K q + r, K q + c]: Fortran order with leading dimension b.
        self.D = list(np.lib.stride_tricks.as_strided(
            flat, shape=(count, q, q), strides=(q * (b + 1) * step, step, b * step)))
        # S[K, c, r] = L[(K + 1) q + r, K q + c] lies in the band iff r - c <= b - q.
        self.below = np.lib.stride_tricks.as_strided(
            flat[q:], shape=(below, q, q), strides=(q * (b + 1) * step, b * step, step))
        col, row = np.indices((q, q))
        self.mask = row - col <= b - q
        self.S = np.zeros((below, q, q))
        # S[K].T is S_K in Fortran order.
        self.ST = [S_K.T for S_K in self.S]
        # Z[K] is the block Y_K^T of the solve buffer Y, in Fortran order.
        self.Y = np.empty((padded, columns))
        self.Z = list(self.Y.reshape(count, q, columns).transpose(0, 2, 1))

    def load(self) -> None:
        np.copyto(self.S, self.below, where=self.mask)

    def solve(self, R: np.ndarray) -> np.ndarray:
        """``G`` with ``L L^T G = R``, a view of the workspace valid until
        its next solve."""
        Y, Z, D, ST, count = self.Y, self.Z, self.D, self.ST, self.count
        Y[:self.size], Y[self.size:] = R, 0.0
        # Positional: trsm(alpha, A, B, side, lower, trans_a, diag, overwrite_b)
        # and gemm(alpha, A, B, beta, C, trans_a, trans_b, overwrite_c).
        trsm, gemm = _trsm, _gemm
        # Forward: Y_K^T D_K^T = R_K^T - Y_{K-1}^T S_{K-1}^T, with Y = L^-1 R.
        for K in range(count):
            if K:
                gemm(-1.0, Z[K - 1], ST[K - 1], 1.0, Z[K], 0, 1, 1)
            trsm(1.0, D[K], Z[K], 1, 1, 1, 0, 1)
        # Backward: G_K^T D_K = Y_K^T - G_{K+1}^T S_K.
        for K in range(count - 1, -1, -1):
            if K < count - 1:
                gemm(-1.0, Z[K + 1], ST[K], 1.0, Z[K], 0, 0, 1)
            trsm(1.0, D[K], Z[K], 1, 1, 0, 0, 1)
        return Y[:self.size]


def _band_order(pattern: sp.csr_matrix) -> np.ndarray:
    """Reverse Cuthill-McKee order of a symmetric pattern for a narrow band.

    The search of George and Liu (1981) finds a pseudo-peripheral node;
    the Cuthill-McKee order then starts from every node of that node's
    last level at once, in the order its own Cuthill-McKee order lists
    them, and is reversed.  On the eight-neighbour grids this gives
    half-bandwidths of 26 and 50 where scipy's ``reverse_cuthill_mckee``,
    started from a node of minimum degree, gives 34 and 73.  scipy's order
    is kept where it is narrower and for a disconnected pattern.
    """
    order = scipy.sparse.csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True)
    size = pattern.shape[0]
    if size < 3:  # every order of two nodes is as narrow
        return order
    degree = np.diff(pattern.indptr)
    bfs = partial(scipy.sparse.csgraph.dijkstra, pattern, unweighted=True)
    dist = bfs(indices=int(np.argmin(degree)))
    if not np.all(np.isfinite(dist)):
        return order
    while True:
        last = np.flatnonzero(dist == dist.max())
        node = int(last[np.argmin(degree[last])])
        further = bfs(indices=node)
        if further.max() <= dist.max():
            break
        dist = further
    around = _cuthill_mckee(pattern, further, np.array([node]))
    start = around[size - np.count_nonzero(further == further.max()):]
    level_order = _cuthill_mckee(pattern, bfs(indices=start, min_only=True), start)[::-1]
    if _half_bandwidth(pattern, order) < _half_bandwidth(pattern, level_order):
        return order
    return level_order


def _cuthill_mckee(pattern: sp.csr_matrix, dist: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Cuthill-McKee order of a connected pattern from the nodes ``start``.

    ``dist`` is each node's distance from ``start``.  Level by level, each
    node follows the first-placed of its neighbours one level in, ties
    broken by degree and then by index.
    """
    size = pattern.shape[0]
    degree = np.diff(pattern.indptr)
    dist = dist.astype(np.intp)
    rows = np.repeat(np.arange(size), degree)
    outward = dist[pattern.indices] == dist[rows] + 1
    parent, child = rows[outward], pattern.indices[outward]
    by = np.lexsort((child, dist[child]))
    parent, child = parent[by], child[by]
    # Each child's edges form one run; the runs are sorted by level.
    first = np.flatnonzero(np.r_[True, child[1:] != child[:-1]])
    nodes, first = child[first], np.r_[first, child.size]
    bounds = np.searchsorted(dist[nodes], np.arange(1, dist.max() + 2))
    pos = np.empty(size, dtype=np.intp)
    pos[start] = np.arange(start.size)
    levels = [start]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        key = np.minimum.reduceat(pos[parent[first[lo]:first[hi]]], first[lo:hi] - first[lo])
        level = nodes[lo:hi][np.lexsort((degree[nodes[lo:hi]], key))]
        pos[level] = np.arange(hi - lo) + (lo + start.size)
        levels.append(level)
    return np.concatenate(levels)


def _half_bandwidth(pattern: sp.csr_matrix, order: np.ndarray) -> int:
    """Largest ``|rank[i] - rank[j]|`` over the entries ``(i, j)`` of the pattern."""
    rank = np.empty(pattern.shape[0], dtype=np.intp)
    rank[order] = np.arange(order.size)
    rows = np.repeat(rank, np.diff(pattern.indptr))
    return int(np.abs(rows - rank[pattern.indices]).max(initial=0))


def _band_slot(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Flat slot of lower-triangle entries in Fortran-ordered lower band
    storage of ``width`` rows: ``ab[i - j, j] = a[i, j]``."""
    return cols * width + (rows - cols)


def _slot_sums(slot: np.ndarray, edge: np.ndarray, sign: np.ndarray, slots: int,
               m: int) -> sp.csr_matrix:
    """The matrix whose product with the conductances ``w`` sums
    ``sign * w[edge]`` into each of ``slots`` slots.

    Row ``i`` lists the entries of slot ``i`` in the order given here, so
    the product adds them exactly as a bincount over the slots would, and
    it takes less time than that bincount.
    """
    by = np.argsort(slot, kind="stable")
    indptr = np.searchsorted(slot[by], np.arange(slots + 1))
    return sp.csr_matrix((sign[by], edge[by], indptr), shape=(slots, m))


def _csc_pattern(rows: np.ndarray, cols: np.ndarray, size: int):
    """Slot of each entry, ``indices`` and ``indptr`` of the CSC pattern."""
    # Keys sorted by (column, row) are the CSC order of the entries.
    keys, slot = np.unique(cols * size + rows, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // size, minlength=size))])
    return slot, (keys % size).astype(np.int32), indptr.astype(np.int32)


class _Context:
    """Per-instance precomputation shared by repeated solves.

    It is cached on the instance and holds no reference back to it, so the
    instance is freed with its last user.
    """

    def __init__(self, instance: Instance):
        # C^-1 A^T: drops per unit cost come from one product.
        if instance.is_incidence:
            self.AT = instance.A.T.tocsr()
            self.AT.data /= np.repeat(instance.c, np.diff(self.AT.indptr))
        else:
            self.AT = instance.A.T / instance.c[:, None]
        self.U, self.W, self.basis_error = _demand_basis(instance)
        # Zero rows change no column norm or maximum of B or U.
        B = instance.B[np.any(instance.B != 0, axis=1)]
        # The residual check reads squared norms, which underflow for a
        # demand of about 1e-150; columns of U (and so of the residual) and
        # of B scaled by powers of two keep them in range and, being exact,
        # change nothing for other demands.  Without a column out of range
        # the scaling is skipped.
        # U is zero outside the terminals' rows.
        self.terminals = np.flatnonzero(np.any(self.U != 0, axis=1))
        self.U_terminals = self.U[self.terminals]
        u_scale, b_scale = _column_scale(self.U_terminals), _column_scale(B)
        if np.all(u_scale == 1.0) and np.all(b_scale == 1.0):
            self.residual_scale, self.check_W = None, self.W
        else:
            self.residual_scale = u_scale
            self.check_W = self.W * (b_scale / u_scale[:, None])
        self.b_scale = np.maximum(np.linalg.norm(B * b_scale, axis=0), 1e-300)
        self.inner_target = INNER_TOL_FACTOR * np.maximum(
            np.linalg.norm(self.U_terminals * u_scale, axis=0), 1e-300)
        self._targets: dict[float, np.ndarray] = {}
        self._systems: dict[tuple[int, ...], _GroundedSystem] = {}
        self._default_grounding: GroundingPlan | None = None
        self._idle_AX: list[sp.csr_matrix] = []

    def refinement_target(self, solve_tol: float) -> np.ndarray:
        """Squared column norms of a residual that ends refinement, in the
        scale of the checked residual; computed once per tolerance."""
        target = self._targets.get(solve_tol)
        if target is None:
            target = self._targets[solve_tol] = (self.inner_target * solve_tol) ** 2
        return target

    def scaled_incidence(self, A: sp.csr_matrix, x: np.ndarray) -> sp.csr_matrix:
        """``A X`` of a graph: each entry of ``A`` times its column's capacity.

        The CSR buffer is taken from the idle ones, since building a new
        matrix costs 20-30 us (a fifth of a bow-tie step), and handed back
        by ``release``, so solves that run at once in several threads never
        share one.
        """
        try:
            AX = self._idle_AX.pop()
        except IndexError:
            AX = A.copy()
        np.multiply(A.data, x[A.indices], out=AX.data)
        return AX

    def release(self, AX: sp.csr_matrix) -> None:
        self._idle_AX.append(AX)

    def default_grounding(self, instance: Instance) -> GroundingPlan:
        """``default_grounding(instance)``, computed on first use."""
        if self._default_grounding is None:
            self._default_grounding = default_grounding(instance)
        return self._default_grounding

    def system(self, instance: Instance, grounding: GroundingPlan) -> _GroundedSystem:
        system = self._systems.get(grounding.nodes)
        if system is None:
            system = _GroundedSystem(instance, grounding.nodes, self.U)
            self._systems[grounding.nodes] = system
        return system


def _context(instance: Instance) -> _Context:
    ctx = getattr(instance, "_electrical_context", None)
    if ctx is None:
        ctx = _Context(instance)
        object.__setattr__(instance, "_electrical_context", ctx)
    return ctx


def assemble_laplacian(instance: Instance, x: np.ndarray, *,
                       grounding: GroundingPlan | None = None):
    """Weighted Laplacian ``A X C^-1 A^T`` (symmetric PSD, n x n).

    CSC for incidence instances, a dense array for general matrices.  With
    a ``grounding`` plan, the principal submatrix on the nodes it does not
    pin.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ScenarioError("capacities must be nonnegative")
    A, w = instance.A, x / instance.c
    L = (A @ sp.diags(w) @ A.T).tocsc() if instance.is_incidence else (A * w) @ A.T
    if grounding is not None:
        keep = np.setdiff1d(np.arange(instance.n), grounding.nodes)
        L = L[keep][:, keep]
    return L


def default_grounding(instance: Instance, variant: int = 0) -> GroundingPlan:
    """A grounding set that makes potentials unique.

    ``variant`` selects among valid plans (useful for checking that solved
    quantities do not depend on the particular grounding).
    """
    if instance.is_incidence:
        labels = instance.components()
        nodes = []
        for comp in range(labels.max() + 1):
            members = np.nonzero(labels == comp)[0]
            nodes.append(int(members[0] if variant == 0 else members[-1]))
        return GroundingPlan(nodes=tuple(sorted(nodes)))
    # Ker(A^T) equals Ker(L(x)) for every x > 0.
    K = scipy.linalg.null_space(instance.A.T)
    if K.shape[1] == 0:
        return GroundingPlan(nodes=())
    order = np.arange(instance.n) if variant == 0 else np.arange(instance.n)[::-1]
    # Column-pivoted QR on K^T picks rows that keep the basis nonsingular.
    _, _, piv = scipy.linalg.qr(K[order].T, pivoting=True)
    nodes = sorted(int(order[j]) for j in piv[: K.shape[1]])
    sub = K[nodes, :]
    if abs(np.linalg.det(sub)) < 1e-12:
        raise SolverError("failed to find a nonsingular grounding set")
    return GroundingPlan(nodes=tuple(nodes))


@cache
def _openblas_controls() -> tuple:
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS loaded.

    numpy and scipy wheels each bundle their own OpenBLAS, with symbols
    prefixed ``scipy_`` and, for the 64-bit integer build, suffixed ``64_``.
    Empty where ``/proc/self/maps`` is missing or no OpenBLAS is loaded.
    """
    try:
        with open("/proc/self/maps") as maps:
            # The path is the sixth field of a mapping line.
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    names = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
             for prefix in ("openblas_", "scipy_openblas_") for suffix in ("", "64_")]
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in names:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the block with every loaded OpenBLAS on one thread.

    numpy's and scipy's OpenBLAS keep separate thread pools; on the small
    per-step kernels their workers only compete with the main thread for
    the cores.  The thread counts are process-global state: the previous
    counts come back on exit, also when the block raises, but blocks
    running at once in several Python threads can restore each other's
    counts out of order, so this is not thread-safe.
    """
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


def _quadratic_forms(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``diag(W^T M W)``: one quadratic form per commodity."""
    return np.einsum("sk,sk->k", W, M @ W)


def solve_commodities(instance: Instance, x: np.ndarray,
                      grounding: GroundingPlan | None = None,
                      solve_tol: float = DEFAULT_SOLVE_TOL) -> FlowSolution:
    """Solve ``L(x) p_i = b_i`` for all commodities and derive flows.

    One factorization of the grounded Laplacian serves every column of the
    demand basis, followed by iterative refinement.  The pattern decides
    the factorization, once per grounding plan: banded Cholesky, or sparse
    LU for graphs whose band is wider than ``MAX_BANDWIDTH``.

    The returned quantities ``b^T p``, ``p^T L p`` and ``Q`` are independent
    of the grounding plan.  Raises :class:`SolverError` when the relative
    residual of any commodity exceeds ``solve_tol``.
    """
    x = np.array(x, dtype=float)
    inst = instance
    ctx = _context(inst)
    if grounding is None:
        grounding = ctx.default_grounding(inst)

    W = ctx.W
    if inst.k == 0:
        return FlowSolution(G=np.zeros(ctx.U.shape), W=W, drops=np.zeros((inst.m, 0)),
                            x=x, energy_per_commodity=np.zeros(0),
                            residuals=np.zeros(0))
    if np.any(x < 0):
        raise ScenarioError("capacities must be nonnegative")
    w = x / inst.c
    system = ctx.system(inst, grounding)
    factor = system.factor(w)
    AX = ctx.scaled_incidence(inst.A, x) if inst.is_incidence else None
    try:
        G = np.empty(ctx.U.shape)
        G[system.grounded] = 0.0
        G[system.keep] = factor.solve(system.rhs)

        # Up to two rounds of iterative refinement guard against
        # ill-conditioned states (capacities spread over many orders of
        # magnitude near the floor).  They refine against the residual
        # R = L(x) G - U in incidence form, A X drops - U with
        # drops = C^-1 A^T G, which keeps floor-level conductances that the
        # assembled diagonal sums round away; its last value also serves the
        # check below.  On a graph, A X scales each entry of A by its
        # column's capacity, exactly on its +-1 entries, so the product needs
        # no m x s temporary; U is subtracted on its nonzero rows only.  The
        # diagonal of each round's Gram matrix R^T R, of R's columns scaled
        # as ``_Context`` says, holds the squared column norms the refinement
        # reads.
        target, scale = ctx.refinement_target(solve_tol), ctx.residual_scale
        for rounds_left in (2, 1, 0):
            drops = ctx.AT @ G
            R = AX @ drops if AX is not None else inst.A @ (x[:, None] * drops)
            R[ctx.terminals] -= ctx.U_terminals
            Rs = R if scale is None else R * scale
            gram = Rs.T @ Rs
            if rounds_left == 0 or (gram.diagonal() <= target).all():
                break
            G[system.keep] -= factor.solve(R[system.keep])
    finally:
        system.release(factor)
        if AX is not None:
            ctx.release(AX)
    # L(x) P - B = R W + (U W - B); the per-commodity norms of R W follow
    # from the Gram matrix, and the basis error bounds the second term.
    residuals = (np.sqrt(np.maximum(_quadratic_forms(ctx.check_W, gram), 0.0)) / ctx.b_scale
                 + ctx.basis_error)
    if not np.all(residuals <= solve_tol):  # a NaN residual fails too
        worst = int(np.argmax(residuals))
        raise SolverError(
            f"linear solve did not converge (commodity {worst}, "
            f"relative residual {residuals[worst]:.3e} > {solve_tol:.1e})",
            residual=float(residuals[worst]), commodity=worst)

    energy = _quadratic_forms(W, ctx.U_terminals.T @ G[ctx.terminals])
    return FlowSolution(G=G, W=W, drops=drops, x=x,
                        energy_per_commodity=energy, residuals=residuals)


def network_cost(instance: Instance, x: np.ndarray) -> float:
    """Cost ``c^T x`` of a capacity vector."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ScenarioError("capacities must be nonnegative")
    return float(instance.c @ x)
