"""Exception types shared across the package."""

from __future__ import annotations


class PhysanetError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioError(PhysanetError):
    """A scenario document or instance definition is malformed."""


class InfeasibleDemandError(ScenarioError):
    """A demand right-hand side is not realizable on the given matrix/graph."""


class SolverError(PhysanetError):
    """A linear solve did not reach the requested residual tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(PhysanetError):
    """A trajectory left the bounded domain implied by its starting state.

    ``step`` is the Euler step at which the bound was crossed and ``x`` the
    capacities there.
    """

    def __init__(self, message: str, step: int | None = None, x=None):
        super().__init__(message)
        self.step = step
        self.x = x


class PruningError(PhysanetError):
    """Pruning disconnected a demand pair."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair
