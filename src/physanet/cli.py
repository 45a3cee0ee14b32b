"""Command-line interface: run, sweep, certify, export, gen-scenario."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics, electrical, render, scenarios
from .errors import PhysanetError, ScenarioError
from .model import Scenario, load_scenario, read_scenario_file, scenario_document

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
# The stderr kind of each ending that fails a run.
_FAILED_KIND = {dynamics.TerminalStatus.SOLVER_FAILURE: "solver",
                dynamics.TerminalStatus.DIVERGED: "runtime"}


def _error_json(kind: str, message: str) -> None:
    print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _number(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"{flag} takes numbers, not {text!r}") from None


def _seed(args) -> int:
    if args.seed < 0:  # numpy's generators take nonnegative seeds
        raise ScenarioError(f"--seed must be nonnegative, not {args.seed}")
    return args.seed


def _add_dynamics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dynamics", default="two-norm",
                        choices=[k.value for k in dynamics.DynamicsKind])
    parser.add_argument("--g", default=None,
                        help="g function for --dynamics generalized, e.g. "
                             "identity, reactive:0.5, power:2, saturating:1,2")
    parser.add_argument("--beta", type=float, default=None,
                        help="exponent for --dynamics beta, in (0, 2)")
    parser.add_argument("--h", type=float, default=0.01, help="Euler step size")
    parser.add_argument("--max-steps", type=int, default=200_000)
    parser.add_argument("--stop-tol", type=float, default=1e-7)
    parser.add_argument("--capacity-floor", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled initial capacities")
    parser.add_argument("--record-every", type=int, default=100)
    parser.add_argument("--solver", default="auto", choices=["auto"],
                        help="ignored: the instance picks the factorization")
    parser.add_argument("--solve-tol", type=float, default=1e-10)


def _spec_from_args(args) -> dynamics.DynamicsSpec:
    kind = dynamics.DynamicsKind(args.dynamics)
    # DynamicsSpec refuses a g function for the other kinds.
    g = args.g or ("identity" if kind == dynamics.DynamicsKind.GENERALIZED else None)
    g = dynamics.GFunction.parse(g) if g else None
    return dynamics.DynamicsSpec(kind=kind, g=g, beta=args.beta, h=args.h,
                                 max_steps=args.max_steps,
                                 stop_tol=args.stop_tol,
                                 capacity_floor=args.capacity_floor)


def _spec_document(spec: dynamics.DynamicsSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "g": spec.g.spec_string() if spec.g else None,
        "beta": spec.beta,
        "h": spec.h,
        "max_steps": spec.max_steps,
        "stop_tol": spec.stop_tol,
        "capacity_floor": spec.capacity_floor,
    }


def _run_dynamics(scenario: Scenario, args, record_gap: bool = False):
    """Integrate ``scenario`` as the dynamics flags say; returns x0 and the
    trajectory."""
    spec = _spec_from_args(args)
    x0 = scenario.sample_x0(seed=_seed(args))
    diag = dynamics.DiagnosticsConfig(record_every=args.record_every,
                                      record_gap=record_gap)
    return x0, dynamics.run(scenario.instance, x0, spec, diag,
                            solve_tol=args.solve_tol)


def _write_state(outdir: Path, source: bytes, x, status: str, steps: int) -> None:
    """``scenario.json`` (the input's bytes) and ``final_state.json``: what
    ``certify`` and ``export`` read back from a run directory."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "scenario.json").write_bytes(source)
    _write_json(outdir / "final_state.json", {
        "x": np.asarray(x, dtype=float).tolist(), "status": status, "steps": steps,
    })


def _read_json(path: Path, **options):
    """The document in a JSON file; a file that cannot be read or parsed is
    a configuration error that names it."""
    try:
        return json.loads(path.read_bytes(), **options)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None


def _read_run_dir(run_dir: Path) -> tuple[Scenario, np.ndarray]:
    """The scenario and the final capacities ``x`` a run directory holds."""
    scenario = load_scenario(run_dir / "scenario.json")
    path = run_dir / "final_state.json"
    # Integers read as floats, so one too large for a float reads as inf.
    state = _read_json(path, parse_int=float)
    x = state.get("x") if isinstance(state, dict) else None
    m = scenario.instance.m
    if not (isinstance(x, list) and len(x) == m
            and all(type(v) is float and 0 <= v < math.inf for v in x)):
        raise ScenarioError(f"{path}: x must be a list of {m} finite, nonnegative numbers")
    return scenario, np.array(x)


def _cmd_run(args) -> int:
    # One read: a FIFO or /dev/stdin gives its bytes once, and --out may be
    # the directory that holds the input.
    source = read_scenario_file(args.scenario)
    scenario = load_scenario(source)
    outdir = Path(args.out)
    x0, traj = _run_dynamics(scenario, args, record_gap=args.record_gap)
    # A failed first solve leaves no record; the state is then x0.
    _write_state(outdir, source, traj.final_x if traj.records else x0,
                 traj.status.value, traj.steps)
    traj.write_csv(outdir / "trajectory.csv")
    if traj.status in _FAILED_KIND:
        _error_json(_FAILED_KIND[traj.status], traj.message)
        return EXIT_RUNTIME

    final, sol = traj.final, traj.final_solution
    lyap = analysis.lyapunov(scenario.instance, final.x, sol)
    report = {
        "scenario": scenario.name,
        "dynamics": _spec_document(traj.spec),
        "seed": args.seed,
        "status": traj.status.value,
        "steps": traj.steps,
        "final": {
            "cost": lyap.cost,
            "energy": lyap.energy,
            "lyapunov": lyap.value,
            "residual": final.residual,
        },
        "certificate": dataclasses.asdict(
            analysis.certificate(scenario.instance, final.x, sol)),
    }
    _write_json(outdir / "report.json", report)
    if args.dot:
        (outdir / "network.dot").write_text(
            render.to_dot(scenario.instance, final.x))
    if args.svg:
        (outdir / "network.svg").write_text(
            render.to_svg(scenario.instance, final.x, scenario.layout,
                          scenario.terminals))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    values = [_number("--values", v) for v in args.values.split(",") if v]
    if not values:
        raise ScenarioError("--values must list at least one L value")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for L in values:
        scenario = scenarios.bowtie_scenario(L)
        try:
            _, traj = _run_dynamics(scenario, args)
            if traj.status in _FAILED_KIND:
                raise PhysanetError(traj.message)
            x, sol = traj.final_x, traj.final_solution
            idx = scenarios.bowtie_edge_indices(scenario.instance)
            q_t = float(sol.Q[idx["top"], 0])
            q_b = float(sol.Q[idx["bottom"], 0])
            q_m = float(sol.Q[idx["middle"], 0]) if "middle" in idx else 0.0
            x_m = float(x[idx["middle"]]) if "middle" in idx else 0.0
            lyap = analysis.lyapunov(scenario.instance, x, sol)
            cert = analysis.certificate(scenario.instance, x, sol)
            rows.append((L, q_b, q_m, q_t, x_m, lyap.cost, lyap.energy, cert.gap))
        except ScenarioError:
            raise  # a bad flag fails the command, not one L value
        except PhysanetError as exc:
            _error_json("sweep-value", f"L={L:g}: {exc}")
            nan = float("nan")
            rows.append((L, nan, nan, nan, nan, nan, nan, nan))
    lines = ["L,q_b,q_m,q_t,x_m,cost,energy,gap"]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    (outdir / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_certify(args) -> int:
    if not 0 <= args.gap_tol < math.inf:
        raise ScenarioError(f"--gap-tol must be nonnegative and finite, not {args.gap_tol}")
    if args.run_dir:
        scenario, x = _read_run_dir(Path(args.run_dir))
        sol = electrical.solve_commodities(scenario.instance, x,
                                           solve_tol=args.solve_tol)
    else:
        if not args.scenario:
            raise ScenarioError("certify needs --scenario or --run-dir")
        scenario = load_scenario(Path(args.scenario))
        _, traj = _run_dynamics(scenario, args)
        if traj.status in _FAILED_KIND:
            _error_json(_FAILED_KIND[traj.status], traj.message)
            return EXIT_RUNTIME
        x, sol = traj.final_x, traj.final_solution
    cert = analysis.certificate(scenario.instance, x, sol)
    payload = {**dataclasses.asdict(cert), "gap_tolerance": args.gap_tol}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if cert.gap <= args.gap_tol else EXIT_RUNTIME


def _cmd_export(args) -> int:
    if args.format not in ("dot", "svg"):
        raise ScenarioError(f"unknown export format {args.format!r}")
    run_dir = Path(args.run_dir)
    scenario, x = _read_run_dir(run_dir)
    if args.format == "dot":
        text = render.to_dot(scenario.instance, x)
    else:
        text = render.to_svg(scenario.instance, x, scenario.layout,
                             scenario.terminals)
    out = Path(args.out) if args.out else run_dir / f"network.{args.format}"
    out.write_text(text)
    print(str(out))
    return EXIT_OK


def _cmd_gen_scenario(args) -> int:
    if args.kind == "ring":
        scenario = scenarios.ring_scenario()
    elif args.kind == "bowtie":
        scenario = scenarios.bowtie_scenario(_number("--L", args.L))
    elif args.kind == "grid":
        if args.polygon:
            poly = _read_json(Path(args.polygon))
        else:
            poly = scenarios.synthetic_region_polygon()
        grid, _ = scenarios.grid_region_scenario(poly, args.spacing, _seed(args))
        terminals = scenarios.pick_terminals(grid, args.terminal_count,
                                             args.threshold_fraction)
        demands = scenarios.demands_by_threshold(grid, terminals)
        scenario = scenarios.grid_scenario(grid, demands, terminals,
                                           initial_capacity=args.initial_capacity,
                                           name="grid-synthetic")
    else:
        raise ScenarioError(f"unknown scenario kind {args.kind!r}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, scenario_document(scenario))
    print(str(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physanet",
        description="Simulate capacity dynamics on multi-commodity flow "
                    "networks and certify the designs they converge to.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario and write reports")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--dot", action="store_true", help="also write network.dot")
    p_run.add_argument("--svg", action="store_true", help="also write network.svg")
    p_run.add_argument("--record-gap", action="store_true",
                       help="include the duality gap in trajectory records")
    _add_dynamics_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep the bow-tie middle-edge cost L")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated L values, e.g. 8.0,8.5,9.0")
    p_sweep.add_argument("--out", required=True)
    _add_dynamics_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cert = sub.add_parser("certify", help="print the optimality certificate")
    p_cert.add_argument("--scenario")
    p_cert.add_argument("--run-dir", help="reuse final_state.json of a run")
    p_cert.add_argument("--gap-tol", type=float, default=1e-3)
    _add_dynamics_flags(p_cert)
    p_cert.set_defaults(func=_cmd_certify)

    p_exp = sub.add_parser("export", help="render the final state of a run")
    p_exp.add_argument("--run-dir", required=True)
    p_exp.add_argument("--format", required=True)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=_cmd_export)

    p_gen = sub.add_parser("gen-scenario", help="write a built-in scenario file")
    p_gen.add_argument("--kind", required=True, choices=["ring", "bowtie", "grid"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--L", default="8", help="bow-tie middle cost (or 'inf')")
    p_gen.add_argument("--spacing", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--terminal-count", type=int, default=20)
    p_gen.add_argument("--threshold-fraction", type=float, default=0.5)
    p_gen.add_argument("--initial-capacity", type=float, default=0.5)
    p_gen.add_argument("--polygon", help="JSON file with [[x, y], ...] vertices")
    p_gen.set_defaults(func=_cmd_gen_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, FileNotFoundError, json.JSONDecodeError) as exc:
        _error_json("config", str(exc))
        return EXIT_CONFIG
    except PhysanetError as exc:
        _error_json("runtime", str(exc))
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
