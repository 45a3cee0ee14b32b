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
# magnitude (edges parked at the floor), which stalls iterative solvers;
# dense Cholesky for small systems, sparse LU for large incidence systems,
# Jacobi-preconditioned CG as the iterative option.
DENSE_SOLVER_MAX_N = 200

# The factorizations and CG stop at this fraction of ``solve_tol`` so that
# the per-commodity residual check after them passes with room to spare.
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

    For incidence instances its CSC sparsity pattern and the scatter of each
    edge's four entries into ``data`` are fixed, so assembly is one
    ``bincount`` per call.
    """

    def __init__(self, instance: Instance, nodes: tuple[int, ...], U: np.ndarray):
        n, m = instance.n, instance.m
        self.keep = np.setdiff1d(np.arange(n), np.array(nodes, dtype=np.intp))
        size = self.size = self.keep.size
        self.rhs = np.ascontiguousarray(U[self.keep])  # grounded basis columns
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
        self.flat = rows * size + cols
        # Keys sorted by (column, row) are the CSC order of the entries.
        keys, self.slot = np.unique(cols * size + rows, return_inverse=True)
        self.indices = (keys % size).astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // size, minlength=size))]
        ).astype(np.int32)

    def matrix(self, w: np.ndarray, sparse: bool):
        if self.A_keep is not None:
            L = (self.A_keep * w) @ self.A_keep.T
            return sp.csc_matrix(L) if sparse else L
        vals = self.sign * w[self.edge]
        if sparse:
            data = np.bincount(self.slot, weights=vals, minlength=self.indices.size)
            return sp.csc_matrix((data, self.indices, self.indptr),
                                 shape=(self.size, self.size))
        return np.bincount(self.flat, weights=vals,
                           minlength=self.size * self.size).reshape(self.size, self.size)


class _Context:
    """Per-instance precomputation shared by repeated solves.

    It is cached on the instance and holds no reference back to it, so the
    instance is freed with its last user.
    """

    def __init__(self, instance: Instance):
        if instance.is_incidence:
            m = instance.m
            tails, heads = instance.edge_endpoints()
            rows = np.concatenate([tails, heads])
            cols = np.concatenate([np.arange(m), np.arange(m)])
            data = np.concatenate([np.ones(m), -np.ones(m)])
            self.A = sp.csr_matrix((data, (rows, cols)), shape=(instance.n, m))
            self.AT = self.A.T.tocsr()
        else:
            self.A, self.AT = instance.A, instance.A.T
        self.U, self.W = _demand_basis(instance)
        self.b_scale = np.maximum(np.linalg.norm(instance.B, axis=0), 1e-300)
        self._systems: dict[tuple[int, ...], _GroundedSystem] = {}

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


def _kernel_basis(instance: Instance) -> np.ndarray:
    """Basis of Ker(A^T), which equals Ker(L(x)) for every x > 0."""
    if instance.is_incidence:
        labels = instance.components()
        K = np.zeros((instance.n, labels.max() + 1))
        K[np.arange(instance.n), labels] = 1.0
        return K
    return scipy.linalg.null_space(instance.A.T)


def assemble_laplacian(instance: Instance, x: np.ndarray, *,
                       sparse: bool = False,
                       grounding: GroundingPlan | None = None):
    """Weighted Laplacian ``A X C^-1 A^T`` (symmetric PSD, n x n).

    With a ``grounding`` plan, the principal submatrix on the nodes it does
    not pin.  ``sparse`` returns a CSC matrix instead of a dense array.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ScenarioError("capacities must be nonnegative")
    plan = grounding if grounding is not None else GroundingPlan(nodes=())
    return _context(instance).system(instance, plan).matrix(x / instance.c, sparse)


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
    K = _kernel_basis(instance)
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


def _solve_direct(Lr, rhs: np.ndarray, solve_tol: float) -> np.ndarray:
    """Factor once (dense Cholesky or sparse LU) and solve for every column."""
    if sp.issparse(Lr):
        try:
            solve = spla.splu(Lr).solve
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc
    else:
        try:
            factor = scipy.linalg.cho_factor(Lr, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(
                f"grounded Laplacian is not positive definite: {exc}") from exc

        def solve(R):
            return scipy.linalg.cho_solve(factor, R, check_finite=False)

    X = solve(rhs)
    # Up to two rounds of iterative refinement guard against ill-conditioned
    # states (capacities spread over many orders of magnitude near the floor).
    target = INNER_TOL_FACTOR * solve_tol * np.maximum(
        np.linalg.norm(rhs, axis=0), 1e-300)
    for _ in range(2):
        R = rhs - Lr @ X
        if np.all(np.linalg.norm(R, axis=0) <= target):
            break
        X += solve(R)
    return X


def _solve_cg(Lr: sp.csc_matrix, Br: np.ndarray, X0: np.ndarray,
              rtol: float, max_iter: int) -> np.ndarray:
    diag = Lr.diagonal()
    minv = 1.0 / np.where(diag > 0, diag, 1.0)
    X = X0.copy()
    R = Br - Lr @ X
    target = np.maximum(rtol * np.linalg.norm(Br, axis=0), 1e-300)
    Z = minv[:, None] * R
    Pd = Z.copy()
    rz = np.einsum("ij,ij->j", R, Z)
    for _ in range(max_iter):
        active = np.linalg.norm(R, axis=0) > target
        if not active.any():
            break
        Ap = Lr @ Pd
        pAp = np.einsum("ij,ij->j", Pd, Ap)
        safe = np.where(pAp != 0, pAp, 1.0)
        alpha = np.where(active, rz / safe, 0.0)
        X += alpha * Pd
        R -= alpha * Ap
        Z = minv[:, None] * R
        rz_new = np.einsum("ij,ij->j", R, Z)
        beta = np.where(active & (rz != 0), rz_new / np.where(rz != 0, rz, 1.0), 0.0)
        Pd = Z + beta * Pd
        rz = rz_new
    return X


def _quadratic_forms(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``diag(W^T M W)``: one quadratic form per commodity."""
    return np.einsum("sk,sk->k", W, M @ W)


def solve_commodities(instance: Instance, x: np.ndarray,
                      grounding: GroundingPlan | None = None,
                      solve_tol: float = DEFAULT_SOLVE_TOL,
                      solver: str = "auto",
                      warm_start: np.ndarray | None = None) -> FlowSolution:
    """Solve ``L(x) p_i = b_i`` for all commodities and derive flows.

    One factorization of the grounded Laplacian serves every column of the
    demand basis.  ``warm_start`` (basis potentials ``G`` of an earlier
    solution) seeds the ``cg`` solver and is ignored by the direct ones.

    The returned quantities ``b^T p``, ``p^T L p`` and ``Q`` are independent
    of the grounding plan.  Raises :class:`SolverError` when the relative
    residual of any commodity exceeds ``solve_tol``.
    """
    x = np.array(x, dtype=float)
    inst = instance
    ctx = _context(inst)
    if grounding is None:
        grounding = default_grounding(inst)
    if solver == "auto":
        if inst.n <= DENSE_SOLVER_MAX_N or not inst.is_incidence:
            solver = "dense"
        else:
            solver = "splu"
    if solver not in ("dense", "splu", "cg"):
        raise ScenarioError(f"unknown solver {solver!r}")

    U, W = ctx.U, ctx.W
    G = np.zeros(U.shape)
    if inst.k == 0:
        return FlowSolution(G=G, W=W, drops=np.zeros((inst.m, 0)), x=x,
                            energy_per_commodity=np.zeros(0),
                            residuals=np.zeros(0))
    system = ctx.system(inst, grounding)
    rhs = system.rhs
    Lr = assemble_laplacian(inst, x, sparse=solver != "dense",
                            grounding=grounding)
    if solver == "cg":
        X0 = np.zeros(rhs.shape)
        if warm_start is not None:
            warm = np.asarray(warm_start, dtype=float)
            if warm.shape != G.shape:
                raise ScenarioError(f"warm_start must have shape {G.shape}")
            X0 = warm[system.keep]
        G[system.keep] = _solve_cg(Lr, rhs, X0, INNER_TOL_FACTOR * solve_tol,
                                   max(10 * inst.n, 50))
    else:
        G[system.keep] = _solve_direct(Lr, rhs, solve_tol)

    drops = ctx.AT @ G
    # B = U W, so L(x) P - B = R W with R = L(x) G - U; the per-commodity
    # residual norms follow from the small Gram matrix R^T R.
    R = ctx.A @ ((x / inst.c)[:, None] * drops) - U
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


def energy_dissipation(instance: Instance, x: np.ndarray,
                       solution: FlowSolution) -> float:
    """Total energy ``sum_i b_i^T p_i`` = ``Tr(P^T L(x) P)`` (nonnegative)."""
    return float(solution.energy_per_commodity.sum())


def network_cost(instance: Instance, x: np.ndarray) -> float:
    """Cost ``c^T x`` of a capacity vector."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ScenarioError("capacities must be nonnegative")
    return float(instance.c @ x)
