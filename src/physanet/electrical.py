"""Weighted Laplacians and per-commodity minimum-energy electrical flows.

For capacities ``x > 0`` the conductance of edge ``e`` is ``x_e / c_e`` and
``L(x) = A X C^-1 A^T``.  Each demand column ``b`` induces node potentials
``L(x) p = b`` (unique after grounding), normalized drops
``lambda = C^-1 A^T p`` and the minimum-energy flow ``q = x * lambda``.
Capacities may sit at a tiny positive floor; all formulas below only ever
multiply by ``x`` (the ``0^2/0 = 0`` convention), never divide by it.

Demands usually share a few terminals, so the solve works in a column basis
``U`` (n x s) of the demands with ``B = U W``: the grounded Laplacian is
factored once per call and solved for the basis potentials ``G`` in
``L(x) G = U``.  Then ``P = G W``, and energies, drop norms and residuals
are all computed from ``G`` and ``W`` in ``s`` columns; the k-column
``P``, ``Q`` and ``Lambda`` are formed only when asked for.

Large graphs are factored by sparse LU.  The grounded Laplacian's pattern
is fixed per grounding, so a symmetric minimum-degree order is computed
for it once, and every step factors the reordered matrix on its diagonal,
without pivoting.  The matrix is symmetric positive definite, so diagonal
pivots are as stable as Cholesky.  Iterative refinement works on the
residual in incidence form, ``A (w * A^T G) - U``, which also serves the
final check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ScenarioError, SolverError
from .model import Instance

DEFAULT_SOLVE_TOL = 1e-10

# Direct factorizations stay accurate when capacities span ten orders of
# magnitude (edges parked at the floor).  Incidence instances above this
# many nodes take sparse LU, all others dense Cholesky.  Per solve on grids
# (ms, dense/LU, median of 10 alternating repeats of 30 calls, OpenBLAS
# 2 threads): n=153 0.56/0.66, n=165 0.67/0.79, n=174 0.64/0.80,
# n=199 0.61/0.68, n=237 1.00/0.86, n=279 1.19/1.23, n=393 2.43/1.81.
# Dense is faster up to about 200 and LU from about 240 on; the limit
# stays at 150 until a change of it is measured on its own.
DENSE_SOLVER_MAX_N = 150

# Iterative refinement stops at this fraction of ``solve_tol`` so that the
# per-commodity residual check after it passes with room to spare.
INNER_TOL_FACTOR = 0.1


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
    (``B = U W``); ``P``, ``Lambda``, ``Q`` and the per-edge drop norms are
    derived from them on first access.
    """

    G: np.ndarray        # (n, s) basis potentials, L(x) G = U
    W: np.ndarray        # (s, k) basis coefficients of the demands
    drops: np.ndarray    # (m, s) basis drops per unit cost, C^-1 A^T G
    x: np.ndarray        # (m,) capacities of the solve
    energy_per_commodity: np.ndarray  # (k,) values b_i^T p_i
    residuals: np.ndarray             # (k,) relative residuals of the solves

    @cached_property
    def P(self) -> np.ndarray:
        """(n, k) node potentials."""
        return self.G @ self.W

    @cached_property
    def Lambda(self) -> np.ndarray:
        """(m, k) potential drops per unit cost."""
        return self.drops @ self.W

    @cached_property
    def Q(self) -> np.ndarray:
        """(m, k) minimum-energy flows."""
        return self.x[:, None] * self.Lambda

    @cached_property
    def lambda_sq_norms(self) -> np.ndarray:
        """(m,) squared two-norms ``||Lambda_e||_2^2``, via the Gram matrix W W^T."""
        quad = np.einsum("es,es->e", self.drops @ (self.W @ self.W.T), self.drops)
        return np.maximum(quad, 0.0)


def _demand_basis(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``U`` and coefficients ``W`` with ``B = U W`` exactly.

    On incidence instances every terminal other than one reference per
    component gives the balanced column ``e_s - e_ref`` with coefficients
    ``B[s]``.  That basis is taken when it has fewer columns than ``B`` and
    reproduces it exactly; otherwise ``U = B`` and ``W = I``.
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
            if np.array_equal(U @ W, B):
                return U, W
    return np.array(B), np.eye(k)


class _GroundedSystem:
    """The grounded Laplacian ``L(x)[keep][:, keep]`` for one grounding plan.

    It also fixes the format the solver factors: CSC for incidence
    instances with more than ``DENSE_SOLVER_MAX_N`` nodes (``sparse``), a
    dense array otherwise.  For incidence instances the position of each
    edge's four entries is fixed, so assembly is one ``bincount`` per call.

    A sparse system also fixes its elimination order, once: a symmetric
    minimum-degree order of the pattern.  ``keep`` and ``rhs`` list the
    grounded nodes in that order, and ``factor_order`` gathers an assembled
    matrix into it.
    """

    def __init__(self, instance: Instance, nodes: tuple[int, ...], U: np.ndarray):
        n, m = instance.n, instance.m
        self.keep = np.setdiff1d(np.arange(n), np.array(nodes, dtype=np.intp))
        size = self.size = self.keep.size
        self.rhs = np.ascontiguousarray(U[self.keep])  # grounded basis columns
        self.sparse = instance.is_incidence and n > DENSE_SOLVER_MAX_N
        if not instance.is_incidence:
            self.A_keep = instance.A[self.keep]
            return
        self.A_keep = None
        pos = np.full(n, -1, dtype=np.intp)
        pos[self.keep] = np.arange(size)
        tails, heads = instance.edge_endpoints()
        pt, ph = pos[tails], pos[heads]
        rows = np.concatenate([pt, ph, pt, ph])
        cols = np.concatenate([ph, pt, pt, ph])
        edge = np.tile(np.arange(m), 4)
        sign = np.repeat([-1.0, -1.0, 1.0, 1.0], m)
        inside = (rows >= 0) & (cols >= 0)
        rows, cols = rows[inside], cols[inside]
        self.edge, self.sign = edge[inside], sign[inside]
        if not self.sparse:
            self.flat = rows * size + cols
            return
        self.slot, self.indices, self.indptr = _csc_pattern(rows, cols, size)
        # The order depends on the pattern alone.  Unit conductances plus the
        # identity give a positive definite matrix on it whatever the plan;
        # perm_c maps each grounded node to its place in the order, and the
        # reordered pattern is one gather of the assembled entries.
        unit = self.matrix(np.ones(m)) + sp.identity(size, format="csc")
        perm_c = spla.splu(unit, permc_spec="MMD_AT_PLUS_A",
                           options={"SymmetricMode": True}).perm_c.astype(np.intp)
        order, self.factor_indices, self.factor_indptr = _csc_pattern(
            perm_c[self.indices], np.repeat(perm_c, np.diff(self.indptr)), size)
        self.gather = np.argsort(order)
        ordered = np.argsort(perm_c)
        self.keep, self.rhs = self.keep[ordered], self.rhs[ordered]

    def matrix(self, w: np.ndarray):
        if self.A_keep is not None:
            return (self.A_keep * w) @ self.A_keep.T
        vals = self.sign * w[self.edge]
        if self.sparse:
            data = np.bincount(self.slot, weights=vals, minlength=self.indices.size)
            return sp.csc_matrix((data, self.indices, self.indptr),
                                 shape=(self.size, self.size))
        return np.bincount(self.flat, weights=vals,
                           minlength=self.size * self.size).reshape(self.size, self.size)

    def factor_order(self, Lr):
        """``Lr`` with rows and columns in the order of ``keep``."""
        if not self.sparse:
            return Lr
        return sp.csc_matrix((Lr.data[self.gather], self.factor_indices,
                              self.factor_indptr), shape=(self.size, self.size))


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
        self.AT = instance.A.T.tocsr() if instance.is_incidence else instance.A.T
        self.U, self.W = _demand_basis(instance)
        self.b_scale = np.maximum(np.linalg.norm(instance.B, axis=0), 1e-300)
        self.inner_target = INNER_TOL_FACTOR * np.maximum(
            np.linalg.norm(self.U, axis=0), 1e-300)
        self._systems: dict[tuple[int, ...], _GroundedSystem] = {}
        self._default_grounding: GroundingPlan | None = None

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

    With a ``grounding`` plan, the principal submatrix on the nodes it does
    not pin.  The result is in the format ``solve_commodities`` factors: a
    CSC matrix for incidence instances with more than ``DENSE_SOLVER_MAX_N``
    nodes, a dense array otherwise.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ScenarioError("capacities must be nonnegative")
    plan = grounding if grounding is not None else GroundingPlan(nodes=())
    return _context(instance).system(instance, plan).matrix(x / instance.c)


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


def _factor(Lr):
    """Factor the grounded Laplacian once; returns the solve for it.

    ``Lr`` is symmetric positive definite.  Sparse LU takes the diagonal
    pivots in the given order, which for such a matrix is as stable as
    Cholesky; dense matrices take Cholesky.
    """
    if sp.issparse(Lr):
        try:
            return spla.splu(Lr, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True}).solve
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc
    try:
        factor = scipy.linalg.cho_factor(Lr, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"grounded Laplacian is not positive definite: {exc}") from exc

    def solve(R):
        return scipy.linalg.cho_solve(factor, R, check_finite=False)
    return solve


def _quadratic_forms(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``diag(W^T M W)``: one quadratic form per commodity."""
    return np.einsum("sk,sk->k", W, M @ W)


def solve_commodities(instance: Instance, x: np.ndarray,
                      grounding: GroundingPlan | None = None,
                      solve_tol: float = DEFAULT_SOLVE_TOL) -> FlowSolution:
    """Solve ``L(x) p_i = b_i`` for all commodities and derive flows.

    One factorization of the grounded Laplacian serves every column of the
    demand basis, followed by iterative refinement.  The instance decides
    the factorization: sparse LU for incidence instances with more than
    ``DENSE_SOLVER_MAX_N`` nodes, dense Cholesky otherwise.

    The returned quantities ``b^T p``, ``p^T L p`` and ``Q`` are independent
    of the grounding plan.  Raises :class:`SolverError` when the relative
    residual of any commodity exceeds ``solve_tol``.
    """
    x = np.array(x, dtype=float)
    inst = instance
    ctx = _context(inst)
    if grounding is None:
        grounding = ctx.default_grounding(inst)

    U, W = ctx.U, ctx.W
    G = np.zeros(U.shape)
    if inst.k == 0:
        return FlowSolution(G=G, W=W, drops=np.zeros((inst.m, 0)), x=x,
                            energy_per_commodity=np.zeros(0),
                            residuals=np.zeros(0))
    system = ctx.system(inst, grounding)
    solve = _factor(system.factor_order(assemble_laplacian(inst, x, grounding=grounding)))
    G[system.keep] = solve(system.rhs)

    # Up to two rounds of iterative refinement guard against ill-conditioned
    # states (capacities spread over many orders of magnitude near the floor).
    # They refine against the residual R = L(x) G - U in incidence form,
    # which keeps floor-level conductances that the assembled diagonal sums
    # round away; its last value also serves the check below.
    w = x / inst.c
    target = ctx.inner_target * solve_tol
    for rounds_left in (2, 1, 0):
        drops = ctx.AT @ G
        R = inst.A @ (w[:, None] * drops) - U
        if rounds_left == 0 or np.all(np.linalg.norm(R, axis=0) <= target):
            break
        G[system.keep] -= solve(R[system.keep])
    # B = U W, so L(x) P - B = R W; the per-commodity residual norms follow
    # from the small Gram matrix R^T R.
    residuals = np.sqrt(np.maximum(_quadratic_forms(W, R.T @ R), 0.0)) / ctx.b_scale
    if np.any(residuals > solve_tol):
        worst = int(np.argmax(residuals))
        raise SolverError(
            f"linear solve did not converge (commodity {worst}, "
            f"relative residual {residuals[worst]:.3e} > {solve_tol:.1e})",
            residual=float(residuals[worst]), commodity=worst)

    energy = _quadratic_forms(W, U.T @ G)
    return FlowSolution(G=G, W=W, drops=drops / inst.c[:, None], x=x,
                        energy_per_commodity=energy, residuals=residuals)


def network_cost(instance: Instance, x: np.ndarray) -> float:
    """Cost ``c^T x`` of a capacity vector."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ScenarioError("capacities must be nonnegative")
    return float(instance.c @ x)
