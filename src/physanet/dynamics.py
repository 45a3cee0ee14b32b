"""The capacity dynamics and their forward-Euler integration.

Five right-hand sides are supported, all driven by the per-edge normalized
potential drops ``Lambda_e`` of the current minimum-energy flows:

* one-norm:      ``xdot = x * (||Lambda_e||_1 - 1)``
* two-norm:      ``xdot = x * (||Lambda_e||_2 - 1)``
* generalized:   ``xdot = x * (g(||Lambda_e||_2) - 1)`` for an increasing,
  nonnegative response function with ``g(1) = 1``
* beta:          ``xdot = x^beta * ||Lambda_e||_2^2 - x`` with beta in (0, 2)
* mirror:        ``xdot = (c/2) * x * (||Lambda_e||_2^2 - 1)``, i.e. mirror
  descent on the cost/energy Lyapunov function
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError, SolverError
from .electrical import FlowSolution, _single_threaded_blas, solve_commodities
from .model import Instance, max_flow_bound


class DynamicsKind(str, enum.Enum):
    ONE_NORM = "one-norm"
    TWO_NORM = "two-norm"
    GENERALIZED = "generalized"
    BETA = "beta"
    MIRROR = "mirror"


@dataclass(frozen=True)
class GFunction:
    """Edge response function for the generalized dynamics.

    Every variant is nonnegative and increasing on ``z >= 0`` with
    ``g(1) = 1``; parameters are validated to preserve that.
    """

    kind: str
    d: float | None = None
    mu: float | None = None
    alpha: float | None = None

    @staticmethod
    def identity() -> "GFunction":
        return GFunction(kind="identity")

    @staticmethod
    def reactive(d: float) -> "GFunction":
        if not 0 < d <= 1:
            raise ScenarioError("reactivity d must lie in (0, 1] to keep g nonnegative")
        return GFunction(kind="reactive", d=d)

    @staticmethod
    def reactive_squared(d: float) -> "GFunction":
        if not 0 < d <= 1:
            raise ScenarioError("reactivity d must lie in (0, 1] to keep g nonnegative")
        return GFunction(kind="reactive-squared", d=d)

    @staticmethod
    def power(mu: float) -> "GFunction":
        if not mu > 0:
            raise ScenarioError("power exponent mu must be positive")
        return GFunction(kind="power", mu=mu)

    @staticmethod
    def saturating(alpha: float, mu: float) -> "GFunction":
        if not (alpha > 0 and mu > 0):
            raise ScenarioError("saturating parameters alpha, mu must be positive")
        return GFunction(kind="saturating", alpha=alpha, mu=mu)

    @staticmethod
    def parse(text: str) -> "GFunction":
        """Parse compact CLI syntax, e.g. ``reactive:0.5`` or ``saturating:1,2``."""
        name, _, args = text.partition(":")
        make = {"identity": GFunction.identity, "reactive": GFunction.reactive,
                "reactive-squared": GFunction.reactive_squared,
                "power": GFunction.power, "saturating": GFunction.saturating}.get(name)
        if make is None:
            raise ScenarioError(f"unknown g function {name!r}")
        try:
            return make(*(float(v) for v in args.split(",") if v))
        except (TypeError, ValueError):
            raise ScenarioError(f"wrong number or kind of parameters in g spec {text!r}") from None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.kind == "identity":
            return z
        if self.kind == "reactive":
            return 1.0 + self.d * (z - 1.0)
        if self.kind == "reactive-squared":
            return 1.0 + self.d * (z * z - 1.0)
        if self.kind == "power":
            return z ** self.mu
        zmu = z ** self.mu
        return (1.0 + self.alpha) * zmu / (1.0 + self.alpha * zmu)

    def spec_string(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind in ("reactive", "reactive-squared"):
            return f"{self.kind}:{self.d:g}"
        if self.kind == "power":
            return f"power:{self.mu:g}"
        return f"saturating:{self.alpha:g},{self.mu:g}"


@dataclass(frozen=True)
class DynamicsSpec:
    """Which dynamics to integrate and with what discretization."""

    kind: DynamicsKind
    g: GFunction | None = None
    beta: float | None = None
    h: float = 0.01
    max_steps: int = 200_000
    stop_tol: float = 1e-7
    capacity_floor: float = 1e-9

    def __post_init__(self):
        if not 0 < self.h < 1:
            raise ScenarioError("step size h must lie in (0, 1)")
        if not (0 < self.stop_tol < np.inf and 0 < self.capacity_floor < np.inf):
            raise ScenarioError("stop_tol and capacity_floor must be positive and finite")
        if self.max_steps < 1:
            raise ScenarioError("max_steps must be at least 1")
        if self.kind == DynamicsKind.GENERALIZED:
            if self.g is None:
                raise ScenarioError("generalized dynamics needs a g function")
        elif self.g is not None:
            raise ScenarioError("g function is only valid for the generalized dynamics")
        if self.kind == DynamicsKind.BETA:
            if self.beta is None or not 0 < self.beta < 2:
                raise ScenarioError("beta dynamics needs beta in (0, 2)")
        elif self.beta is not None:
            raise ScenarioError("beta is only valid for the beta dynamics")


class TerminalStatus(str, enum.Enum):
    CONVERGED = "converged"
    MAX_STEPS = "max-steps"
    SOLVER_FAILURE = "solver-failure"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class TrajectoryRecord:
    """A recorded step's state and values; its flows come from a solve at ``x``."""

    t: float
    x: np.ndarray
    lyapunov: float
    cost: float
    energy: float
    residual: float
    gap: float | None = None
    # Allowed Lyapunov increase accumulated since the previous record
    # (second-order Euler error).
    slack_from_prev: float = 0.0


@dataclass
class Trajectory:
    instance: Instance
    spec: DynamicsSpec
    records: list[TrajectoryRecord] = field(default_factory=list)
    status: TerminalStatus = TerminalStatus.MAX_STEPS
    steps: int = 0
    # "step N: ..." for a solver failure or divergence; None otherwise.
    message: str | None = None
    # The solve at final_x; None when the run ends in a solver failure.
    final_solution: FlowSolution | None = None

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    def write_csv(self, path) -> None:
        labels = self.instance.edge_labels()
        cols = ["t", "lyapunov", "cost", "energy", "residual"]
        has_gap = any(r.gap is not None for r in self.records)
        if has_gap:
            cols.append("gap")
        header = ",".join(cols + [f"x_{lab}" for lab in labels])
        row = ",".join(["%.12g"] * (len(cols) + len(labels)))
        lines = [header]
        for r in self.records:
            vals = [r.t, r.lyapunov, r.cost, r.energy, r.residual]
            if has_gap:
                vals.append(float("nan") if r.gap is None else r.gap)
            vals.extend(r.x)
            lines.append(row % tuple(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class DiagnosticsConfig:
    record_every: int = 1
    record_gap: bool = False

    def __post_init__(self):
        if not self.record_every >= 1:
            raise ScenarioError("record_every must be at least 1")


def lambda_norms(solution: FlowSolution, kind: DynamicsKind) -> np.ndarray:
    """Per-edge aggregation of normalized drops: 1-norm for the one-norm
    dynamics, 2-norm for everything else.  Neither forms or keeps an
    m x k array."""
    if kind == DynamicsKind.ONE_NORM:
        norms = np.empty(solution.drops.shape[0])
        for rows, block in solution.lambda_blocks():
            norms[rows] = np.abs(block, out=block).sum(axis=1)
        return norms
    return np.sqrt(solution.lambda_sq_norms)


def rhs(instance: Instance, x: np.ndarray, solution: FlowSolution,
        spec: DynamicsSpec, *, norms: np.ndarray | None = None) -> np.ndarray:
    """Time derivative of the capacities under the selected dynamics.

    ``norms`` may pass in ``lambda_norms(solution, spec.kind)`` when the
    caller already has it.
    """
    x = np.asarray(x, dtype=float)
    kind = spec.kind
    nrm = lambda_norms(solution, kind) if norms is None else norms
    if kind in (DynamicsKind.ONE_NORM, DynamicsKind.TWO_NORM):
        return x * (nrm - 1.0)
    if kind == DynamicsKind.GENERALIZED:
        return x * (spec.g(nrm) - 1.0)
    if kind == DynamicsKind.BETA:
        return x ** spec.beta * nrm ** 2 - x
    # mirror: -x * dL/dx with dL/dx_e = (c_e/2)(1 - ||Lambda_e||^2)
    return 0.5 * instance.c * x * (nrm ** 2 - 1.0)


def euler_step(x: np.ndarray, xdot: np.ndarray, h: float,
               capacity_floor: float) -> np.ndarray:
    """Forward Euler update clamped at the positive capacity floor."""
    return np.maximum(x + h * xdot, capacity_floor)


def fixed_point_residual(instance: Instance, x: np.ndarray,
                         solution: FlowSolution, spec: DynamicsSpec, *,
                         norms: np.ndarray | None = None) -> float:
    """Distance from the fixed-point condition "x_e = 0 or unit drop".

    Per edge the score is ``min(c_e * x_e, c_e * |target - 1|)`` where the
    target is ``||Lambda_e||`` in the matching norm (for the beta dynamics:
    ``x^(beta-1) * ||Lambda_e||_2^2``, whose unit value characterizes its
    fixed points).  The min lets edges parked at the capacity floor count
    as converged.  ``norms`` may pass in ``lambda_norms(solution,
    spec.kind)`` when the caller already has it.
    """
    x = np.asarray(x, dtype=float)
    target = lambda_norms(solution, spec.kind) if norms is None else norms
    if spec.kind == DynamicsKind.BETA:
        target = x ** (spec.beta - 1.0) * target ** 2
    per_edge = np.minimum(instance.c * x, instance.c * np.abs(target - 1.0))
    return float(per_edge.max()) if per_edge.size else 0.0


def run(instance: Instance, x0, spec: DynamicsSpec,
        diagnostics: DiagnosticsConfig | None = None, *,
        solve_tol: float = 1e-10) -> Trajectory:
    """Integrate the dynamics from the capacity array ``x0`` until one of
    the endings of :class:`TerminalStatus`, which ``status`` names:

    * ``CONVERGED``: the fixed-point residual drops below ``spec.stop_tol``;
    * ``MAX_STEPS``: ``spec.max_steps`` Euler steps have been taken;
    * ``SOLVER_FAILURE``: a solve misses ``solve_tol``;
    * ``DIVERGED``: the step's cost term leaves a bound the dynamics
      cannot leave (below).

    Each ending sets ``steps`` to the step it happened at, and the two
    failures set ``message`` to ``"step N: ..."``.  Every ending but a
    solver failure records that step's state, also between record points,
    and keeps its solve as ``final_solution``.  Neither failure raises; a
    bad ``x0`` raises :class:`ScenarioError`.

    Capacities stay strictly positive throughout (multiplicative shrinkage
    plus an explicit floor).  The divergence bound is

    * one-norm: ``c^T max(x0, sum_i f_i)``, with ``f_i`` the per-commodity
      bound of :func:`~physanet.model.max_flow_bound`.  The step is
      ``max((1 - h) x + h ||Q_e||_1, floor)`` and ``||Q_e||_1 <= sum_i
      f_i``, so no edge grows past ``max(x0_e, sum_i f_i)``.  Its Lyapunov
      value need not decrease on several commodities, so twice the starting
      value is no bound for it.  Where ``max_flow_bound`` gives none, the
      check below is used.
    * every other kind: twice the starting value of its Lyapunov function,
      which decreases along the continuous dynamics.

    Every solve takes the instance's default grounding plan.

    The steps run with every loaded OpenBLAS set to one thread, and the
    previous thread counts are restored on return or raise.  Those counts
    are process-global, so concurrent runs from several Python threads are
    not thread-safe in that respect.
    """
    diag = diagnostics or DiagnosticsConfig()
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (instance.m,):
        raise ScenarioError(f"x0 must have length {instance.m}")
    if not np.all((x > 0) & (x < np.inf)):
        raise ScenarioError("x0 must be strictly positive and finite")
    x = np.maximum(x, spec.capacity_floor)

    traj = Trajectory(instance=instance, spec=spec)
    c = instance.c

    flow_bound = (max_flow_bound(instance) if spec.kind == DynamicsKind.ONE_NORM
                  else None)
    if flow_bound is None:
        bound, bound_name = None, "bounded-domain limit 2 L(x0)"
    else:
        bound = float(c @ np.maximum(x, sum(flow_bound)))
        bound_name = "flow-bound limit c^T max(x0, sum_i f_i)"
    slack_accum = 0.0
    step = 0
    with _single_threaded_blas():
        while True:
            try:
                sol = solve_commodities(instance, x, solve_tol=solve_tol)
            except SolverError as exc:
                traj.status = TerminalStatus.SOLVER_FAILURE
                traj.message = f"step {step}: {exc}"
                break
            energy = float(sol.energy_per_commodity.sum())
            cost = float(c @ x)
            # Cost part of the kind-matched Lyapunov functional.
            cost_term = cost
            if spec.kind == DynamicsKind.BETA:
                cost_term = float(c @ x ** (2.0 - spec.beta)) / (2.0 - spec.beta)
            lyap = 0.5 * (cost_term + energy)
            norms = lambda_norms(sol, spec.kind)
            residual = fixed_point_residual(instance, x, sol, spec, norms=norms)
            if bound is None:
                bound = 2.0 * lyap

            diverged = cost_term > bound * (1.0 + 1e-9)
            done = diverged or residual <= spec.stop_tol or step >= spec.max_steps
            if step % diag.record_every == 0 or done:
                gap = None
                if diag.record_gap:
                    from .analysis import certificate
                    gap = certificate(instance, x, sol).gap
                traj.records.append(TrajectoryRecord(
                    t=step * spec.h, x=x.copy(), lyapunov=lyap, cost=cost,
                    energy=energy, residual=residual, gap=gap,
                    slack_from_prev=slack_accum))
                slack_accum = 0.0
            if done:  # the status stays MAX_STEPS unless set below
                traj.final_solution = sol
                if diverged:
                    traj.status = TerminalStatus.DIVERGED
                    traj.message = (f"step {step}: cost term {cost_term:.6g} "
                                    f"exceeds {bound_name} = {bound:.6g}")
                elif residual <= spec.stop_tol:
                    traj.status = TerminalStatus.CONVERGED
                break

            xdot = rhs(instance, x, sol, spec, norms=norms)
            # Second-order Euler error allowance for the Lyapunov decrease.
            curvature = float((c / x).max()) if x.size else 0.0
            slack_accum += 1e-10 * abs(lyap) + spec.h ** 2 * float(xdot @ xdot) * curvature
            x = euler_step(x, xdot, spec.h, spec.capacity_floor)
            step += 1
    traj.steps = step
    return traj
