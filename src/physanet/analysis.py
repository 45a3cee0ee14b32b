"""Lyapunov diagnostics, duality certificates, and independent oracles.

The central object is ``L(x) = (c^T x + total energy) / 2``.  It decreases
along the two-norm/generalized/mirror dynamics, its gradient has the closed
form ``(c_e/2)(1 - ||Lambda_e||_2^2)``, and its minimum equals both the
optimal value of the group-norm flow program and of the dual potential
program.  Everything here is pure in its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ScenarioError, SolverError
from .electrical import FlowSolution, network_cost, solve_commodities
from .dynamics import DynamicsKind, Trajectory, lambda_norms
from .model import Instance


@dataclass(frozen=True, eq=False)
class LyapunovReport:
    """Value, cost and energy of the (beta-)Lyapunov function at ``x``.

    The gradient needs the per-edge drop norms, which the value does not,
    so it is computed from ``solution`` on first access.
    """

    value: float
    cost: float
    energy: float
    c: np.ndarray
    x: np.ndarray
    solution: FlowSolution
    beta: float | None = None

    @cached_property
    def gradient(self) -> np.ndarray:
        """(m,) analytic gradient ``dL/dx``."""
        nrm2 = lambda_norms(self.solution, DynamicsKind.TWO_NORM) ** 2
        if self.beta is None:
            return 0.5 * self.c * (1.0 - nrm2)
        return 0.5 * self.c * (self.x ** (1.0 - self.beta) - nrm2)


@dataclass(frozen=True)
class Certificate:
    """Primal/dual bracket around the optimal design value.

    ``primal`` is the cost of the current feasible flows, ``dual`` the value
    of the feasibility-scaled potentials, and ``lyapunov`` the current
    ``L(x)``; all three coincide (with the true optimum) in the limit.
    """

    primal: float
    dual: float
    lyapunov: float
    gap: float
    scaling: float


@dataclass(frozen=True)
class BregmanReport:
    divergence: float
    max_ratio: float  # of max_t t * (L(x(t)) - L(x*)) to the divergence
    passed: bool


@dataclass(frozen=True)
class MonotonicityReport:
    max_excess: float
    violations: int


def lyapunov(instance: Instance, x: np.ndarray, solution: FlowSolution,
             beta: float | None = None) -> LyapunovReport:
    """Value and analytic gradient of the cost/energy Lyapunov function.

    With ``beta`` in (0, 2) it is the functional of the beta dynamics, whose
    ``cost`` field holds the tilted cost term ``c^T x^(2-beta) / (2-beta)``;
    at ``beta = 1`` that reduces to the plain functional.
    """
    if beta is not None and not 0 < beta < 2:
        raise ScenarioError("beta must lie in (0, 2)")
    x = np.array(x, dtype=float)  # kept for the gradient, so not a view
    if beta is None:
        cost = network_cost(instance, x)
    else:
        cost = float(instance.c @ x ** (2.0 - beta)) / (2.0 - beta)
    energy = float(solution.energy_per_commodity.sum())
    return LyapunovReport(value=0.5 * (cost + energy), cost=cost, energy=energy,
                          c=instance.c, x=x, solution=solution, beta=beta)


def finite_difference_gradient(instance: Instance, x: np.ndarray, eps: float,
                               beta: float | None = None) -> np.ndarray:
    """Central differences of the (beta-)Lyapunov value, one edge at a time.

    Serves as the independent oracle for the analytic gradient formulas.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= eps):
        raise ScenarioError("x must exceed eps in every coordinate")

    def value(xv: np.ndarray) -> float:
        return lyapunov(instance, xv, solve_commodities(instance, xv), beta).value

    grad = np.zeros_like(x)
    for j in range(instance.m):
        up = x.copy()
        dn = x.copy()
        up[j] += eps
        dn[j] -= eps
        grad[j] = (value(up) - value(dn)) / (2.0 * eps)
    return grad


def certificate(instance: Instance, x: np.ndarray,
                solution: FlowSolution) -> Certificate:
    """Primal value, feasibility-scaled dual value, and their gap.

    Raw potentials usually violate the dual constraint
    ``||A_e^T P||_2 <= c_e``; scaling ``P`` by
    ``gamma = min_e c_e / ||A_e^T P||_2`` restores feasibility, so
    ``gamma * Tr(B^T P)`` is a valid lower bound at every state.
    """
    lyap = lyapunov(instance, x, solution)
    nrm = lambda_norms(solution, DynamicsKind.TWO_NORM)
    # ||Q_e||_2 = x_e ||Lambda_e||_2 at the solution's capacities.
    primal = float(instance.c @ (solution.x * nrm))
    worst = float(nrm.max()) if nrm.size else 0.0
    if worst <= 0.0:
        if float(np.abs(instance.B).sum()) > 0:
            raise SolverError("degenerate potentials: zero drops with nonzero demands")
        return Certificate(primal=0.0, dual=0.0, lyapunov=lyap.value, gap=0.0,
                           scaling=1.0)
    gamma = 1.0 / worst
    dual = gamma * lyap.energy
    return Certificate(primal=primal, dual=dual, lyapunov=lyap.value,
                       gap=primal - dual, scaling=gamma)


# ---------------------------------------------------------------------------
# Brute-force Lyapunov minimization (oracle for small instances)


# Capacities range over [BRUTE_FORCE_LO, max(1, ||B||_1)]; the full search
# scans a log-spaced grid and then refines one edge at a time.
BRUTE_FORCE_LO = 1e-3
BRUTE_FORCE_POINTS = 9
BRUTE_FORCE_REFINE_PASSES = 60


def _golden_min(f, lo: float, hi: float, iters: int = 80):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _lyapunov_at(instance: Instance, x: np.ndarray) -> float:
    return lyapunov(instance, x, solve_commodities(instance, x)).value


def min_lyapunov_search(instance: Instance, *,
                        mode: str = "auto") -> tuple[float, np.ndarray]:
    """Grid scan plus golden-section refinement; returns (value, argmin).
    ``mode`` is ``"full"`` (m <= 4), ``"symmetric"`` or ``"auto"`` (full)."""
    if mode == "auto":
        if instance.m > 4:
            raise ScenarioError(
                "brute-force search needs m <= 4; declare mode='symmetric' "
                "for symmetric instances")
        mode = "full"
    hi = max(1.0, float(np.abs(instance.B).sum()))
    ones = np.ones(instance.m)

    if mode == "symmetric":
        z, val = _golden_min(lambda z: _lyapunov_at(instance, z * ones),
                             BRUTE_FORCE_LO, hi)
        return val, z * ones
    if mode != "full":
        raise ScenarioError(f"unknown brute-force mode {mode!r}")
    if instance.m > 4:
        raise ScenarioError("full brute-force search supports at most 4 edges")

    grid = np.geomspace(BRUTE_FORCE_LO, hi, BRUTE_FORCE_POINTS)
    best_x, best = None, math.inf
    mesh = np.meshgrid(*([grid] * instance.m), indexing="ij")
    for point in zip(*(g.ravel() for g in mesh)):
        xv = np.array(point)
        val = _lyapunov_at(instance, xv)
        if val < best:
            best, best_x = val, xv
    x = best_x.copy()
    for _ in range(BRUTE_FORCE_REFINE_PASSES):
        before = best
        for j in range(instance.m):
            def along(z, j=j):
                xv = x.copy()
                xv[j] = z
                return _lyapunov_at(instance, xv)
            zj, val = _golden_min(along, BRUTE_FORCE_LO, hi, iters=40)
            if val < best:
                best = val
                x[j] = zj
        if before - best < 1e-12 * (1.0 + abs(best)):
            break
    return best, x


# ---------------------------------------------------------------------------
# Mirror-descent convergence bound


def relative_entropy(x: np.ndarray, y: np.ndarray) -> float:
    """Bregman divergence of ``sum x ln x - sum x`` (0 ln 0 = 0)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ScenarioError("reference point must be strictly positive")
    pos = x > 0
    out = float(y.sum() - x.sum())
    out += float((x[pos] * (np.log(x[pos]) - np.log(y[pos]))).sum())
    return out


def bregman_bound_check(trajectory: Trajectory, x_star: np.ndarray,
                        slack: float = 0.2) -> BregmanReport:
    """Check ``t * (L(x(t)) - L(x*)) <= (1 + slack) * D_h(x*, x(0))``.

    Valid for mirror-dynamics trajectories; ``slack`` absorbs the Euler
    discretization error.  Coordinates where ``x*`` is zero contribute only
    their ``x(0)`` term to the divergence.
    """
    if trajectory.spec.kind != DynamicsKind.MIRROR:
        raise ScenarioError("Bregman bound applies to mirror-dynamics trajectories")
    inst = trajectory.instance
    x_star = np.asarray(x_star, dtype=float)
    x0 = trajectory.records[0].x
    d_h = relative_entropy(x_star, x0)

    l_star = lyapunov(inst, x_star, solve_commodities(inst, x_star)).value

    worst = 0.0
    for rec in trajectory.records:
        if rec.t >= 1.0 - 1e-12:
            worst = max(worst, rec.t * (rec.lyapunov - l_star))
    if d_h > 1e-12:
        max_ratio = worst / d_h
        passed = max_ratio <= 1.0 + slack
    else:
        # Started at the minimizer: the bound degenerates to L being flat.
        max_ratio = 0.0 if worst <= 1e-8 * max(1.0, abs(l_star)) else math.inf
        passed = max_ratio == 0.0
    return BregmanReport(divergence=d_h, max_ratio=max_ratio, passed=passed)


def check_lyapunov_monotone(trajectory: Trajectory) -> MonotonicityReport:
    """Largest Lyapunov increase between consecutive records beyond the
    accumulated per-step Euler allowance (nonpositive means monotone)."""
    records = trajectory.records
    excess = [cur.lyapunov - prev.lyapunov - cur.slack_from_prev
              for prev, cur in zip(records, records[1:])]
    return MonotonicityReport(max_excess=max(excess, default=0.0),
                              violations=sum(e > 0 for e in excess))
