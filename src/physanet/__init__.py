"""Physarum-style capacity dynamics for multi-commodity network design."""

from .analysis import (BregmanReport, Certificate, LyapunovReport,
                       bregman_bound_check, certificate,
                       check_lyapunov_monotone, finite_difference_gradient,
                       lyapunov, min_lyapunov_search, relative_entropy)
from .dynamics import (DiagnosticsConfig, DynamicsKind, DynamicsSpec,
                       GFunction, TerminalStatus, Trajectory,
                       TrajectoryRecord, euler_step, fixed_point_residual,
                       lambda_norms, rhs, run)
from .electrical import (FlowSolution, GroundingPlan, assemble_laplacian,
                         default_grounding, network_cost, solve_commodities)
from .errors import (InfeasibleDemandError, PhysanetError, PruningError,
                     ScenarioError, SolverError)
from .model import (DemandSpec, EdgeMeta, InitialCapacity, Instance, Scenario,
                    graph_instance, load_scenario, max_flow_bound,
                    scenario_document)
from .scenarios import (BaselineReport, PruneResult, RegionGrid, TerminalSet,
                        bowtie_edge_indices, bowtie_scenario,
                        demands_by_threshold, grid_region_scenario,
                        grid_scenario, pick_terminals, prune_degree_one,
                        ring_scenario, shortest_path_length,
                        shortest_path_union_baseline, synthetic_region_polygon)

__version__ = "0.1.0"
