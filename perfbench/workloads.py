"""The benchmark's workloads, the checks on their outputs, and their metrics.

Every workload drives ``physanet.cli.main`` in process, exactly as a user's
``physanet run`` / ``physanet sweep`` would, and writes into a temporary
directory.  Inputs are generated by ``physanet gen-scenario`` in a child
process, so the generator's memory never counts in ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Observer, Patches, SpanStore

# What users get: the README's dynamics and the automatic solver choice.
DYNAMICS = ["--dynamics", "two-norm", "--solver", "auto", "--stop-tol", "1e-6"]
STOP_TOL = 1e-6
SOLVE_TOL = 1e-10  # the CLI's default --solve-tol

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps": "steps",
    "peak_rss_mb": "MB",
    "final_lyapunov": "cost",
}

PER_LAYER_UNITS = {
    "electrical.factor_ms_p50": "ms",
    "electrical.factor_share": "ratio",
    "electrical.assemble_ms_p50": "ms",
    "electrical.assemble_share": "ratio",
    "electrical.solve_ms_p50": "ms",
    "electrical.solve_ms_p99": "ms",
    "electrical.solve_self_share": "ratio",
    "electrical.solve_calls": "count",
    "electrical.max_solve_residual": "rel",
    "dynamics.self_ms_per_step": "ms/step",
    "dynamics.lambda_norms_calls_per_step": "calls/step",
    "dynamics.rhs_ms_p50": "ms",
    "dynamics.residual_ms_p50": "ms",
    "dynamics.steps_per_run": "steps",
    "dynamics.steps_max_run": "steps",
    "dynamics.final_residual": "cost",
    "analysis.rel_gap": "ratio",
    "analysis.certificate_calls": "count",
    "analysis.certificate_ms": "ms",
    "model.load_scenario_s": "s",
    "model.peak_alloc_mb": "MB",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}

# Set-up is timed in chunks of at least MIN_SETUP_REPS repetitions, one
# chunk before each timed pass, until the chunk has run SETUP_CHUNK_S (or
# MAX_SETUP_REPS).  Spreading it over the run lets its median see the same
# phases of a shared machine as the passes' median does, and every chunk
# then follows a pass, so all of them start from the same heap state (set-up
# right after a pass ran up to 40% faster than set-up before the first one).
MIN_SETUP_REPS = 2
SETUP_CHUNK_S = 0.2
MAX_SETUP_REPS = 400
# Timed passes of a window workload per run, at least; one untimed warm-up
# pass comes before them.
MIN_WINDOW_PASSES = 3


@dataclass
class Op:
    """One operation: one ``run`` or one sweep L value."""

    label: str
    failures: list[str] = field(default_factory=list)
    steps: int = 0
    lyapunov: float = math.nan
    rel_gap: float = math.nan
    residual: float = math.nan


@dataclass
class Pass:
    """One execution of a workload's timed section."""

    wall_s: float
    ops: list[Op]
    output: bytes          # report.json or sweep_summary.csv, for determinism
    run_steps: list[int]   # steps of each dynamics.run the CLI made

    @property
    def quality(self) -> tuple[int, float, float, float]:
        """steps, final_lyapunov (summed), rel_gap and final_residual (max)."""
        return (sum(op.steps for op in self.ops),
                sum(op.lyapunov for op in self.ops),
                max(op.rel_gap for op in self.ops),
                max(op.residual for op in self.ops))


class Bench:
    """The package under test plus the state one benchmark run shares."""

    def __init__(self, root: Path, work: Path, seed: int):
        import physanet
        import physanet.cli

        self.physanet = physanet
        self.root = root
        self.work = work
        self.seed = seed
        self.observer = Observer()
        self._passes = 0

    def out_dir(self) -> Path:
        self._passes += 1
        return self.work / f"out{self._passes}"

    def cli(self, argv: list[str]) -> tuple[object, float]:
        """Call ``physanet.cli.main``; return its exit code and wall time.

        An exception escaping the CLI is reported as the exit code, so the
        operation counts as failed instead of ending the benchmark.
        """
        t0 = time.perf_counter()
        try:
            code = self.physanet.cli.main(argv)
        except Exception:  # noqa: BLE001 - recorded as a failed operation
            code = "exception: " + traceback.format_exc(limit=3).strip()
        return code, time.perf_counter() - t0


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.is_file() else b""


class BowtieSweep:
    """The README's ``physanet sweep``, every L value run to convergence."""

    name = "bowtie-sweep"
    default_seed = 0
    values = ("8.0", "8.5", "9.0", "9.5", "10.0")
    h = "0.05"
    # Final Lyapunov value per L, as the seed code converges to it from any
    # initial capacities; runs of different seeds agree to about 1e-9.
    reference_lyapunov = {8.0: 15.3137086, 8.5: 16.0205245, 9.0: 16.4776415,
                          9.5: 16.6588737, 10.0: 16.6848336}
    reference_rtol = 1e-6
    trace_pairs = 1

    def gen_jobs(self, bench: Bench) -> list[list[str]]:
        return [["gen-scenario", "--kind", "bowtie", "--L", v,
                 "--out", str(bench.work / f"bowtie_L{v}.json")]
                for v in self.values]

    def scenario_files(self, bench: Bench) -> list[Path]:
        return [bench.work / f"bowtie_L{v}.json" for v in self.values]

    def input_failures(self, bench: Bench) -> list[str]:
        return []

    def _sweep(self, bench: Bench, values) -> tuple[object, float, Path, list, list]:
        out = bench.out_dir()
        code, wall = bench.cli(["sweep", "--values", ",".join(values),
                                "--h", self.h, *DYNAMICS,
                                "--seed", str(bench.seed), "--out", str(out)])
        trajs, certs, _ = bench.observer.take()
        return code, wall, out / "sweep_summary.csv", trajs, certs

    def run_pass(self, bench: Bench) -> Pass:
        code, wall, csv_path, trajs, certs = self._sweep(bench, self.values)
        text = _read(csv_path)
        rows = text.decode().splitlines()[1:]
        ops = []
        for i, v in enumerate(self.values):
            L = float(v)
            op = Op(label=f"L={v}")
            ops.append(op)
            if code != 0:
                op.failures.append(f"sweep exited with {code}")
            if len(trajs) != len(self.values) or len(certs) != len(self.values):
                op.failures.append(f"expected {len(self.values)} runs and "
                                   f"certificates, saw {len(trajs)} and {len(certs)}")
                continue
            traj, cert = trajs[i], certs[i]
            op.steps = traj.steps
            op.lyapunov = cert.lyapunov
            op.rel_gap = cert.gap / cert.primal
            op.residual = traj.final.residual
            if traj.status.value != "converged":
                op.failures.append(f"status {traj.status.value}, not converged")
            if not traj.final.residual <= STOP_TOL:
                op.failures.append(f"final residual {traj.final.residual:.3e} > {STOP_TOL}")
            if not cert.dual <= cert.primal:
                op.failures.append("weak duality violated: dual > primal")
            cols = rows[i].split(",") if i < len(rows) else []
            if len(cols) != 8 or float(cols[0]) != L:
                op.failures.append(f"sweep_summary.csv has no row for L={v}")
                continue
            cost, energy = float(cols[5]), float(cols[6])
            lyap = 0.5 * (cost + energy)
            ref = self.reference_lyapunov[L]
            if not abs(lyap - ref) <= self.reference_rtol * ref:
                op.failures.append(f"final Lyapunov {lyap:.9g} differs from "
                                   f"reference {ref} by more than {self.reference_rtol:g}")
        return Pass(wall_s=wall, ops=ops, output=text,
                    run_steps=[t.steps for t in trajs])

    def rerun_op(self, bench: Bench, first: Pass) -> Op:
        """Sweep the first L value alone and compare its CSV row byte for byte."""
        v = self.values[0]
        code, _, csv_path, _, _ = self._sweep(bench, [v])
        op = Op(label=f"L={v} rerun")
        if code != 0:
            op.failures.append(f"sweep exited with {code}")
        again = _read(csv_path).splitlines()[1:2]
        if again != first.output.splitlines()[1:2]:
            op.failures.append(f"rerun of L={v} is not byte-identical: {again!r}")
        return op


class Window:
    """``physanet run`` for a fixed number of Euler steps from x0."""

    default_seed = 7
    h = "0.5"
    trace_pairs = 2

    def __init__(self, name: str, gen_args: list[str], steps: int,
                 pass_s: float, reference_file: str | None = None):
        self.name = name
        self.gen_args = gen_args
        self.steps = steps
        # Seconds one pass took where the bounds were set.  The pass count
        # follows from it and --seconds alone, so both commits of a
        # comparison do the same work (and leak the same memory, see README).
        self.pass_s = pass_s
        # A checked-in scenario the generator must reproduce at default_seed.
        self.reference_file = reference_file

    def scenario(self, bench: Bench) -> Path:
        return bench.work / f"{self.name}.json"

    def gen_jobs(self, bench: Bench) -> list[list[str]]:
        return [["gen-scenario", *self.gen_args, "--seed", str(bench.seed),
                 "--out", str(self.scenario(bench))]]

    def scenario_files(self, bench: Bench) -> list[Path]:
        return [self.scenario(bench)]

    def input_failures(self, bench: Bench) -> list[str]:
        if self.reference_file is None or bench.seed != self.default_seed:
            return []
        if _read(self.scenario(bench)) != _read(bench.root / self.reference_file):
            return [f"gen-scenario at seed {bench.seed} differs from {self.reference_file}"]
        return []

    def run_pass(self, bench: Bench) -> Pass:
        out = bench.out_dir()
        code, wall = bench.cli(["run", "--scenario", str(self.scenario(bench)),
                                "--out", str(out), "--h", self.h, *DYNAMICS,
                                "--max-steps", str(self.steps),
                                "--seed", str(bench.seed)])
        trajs, _, load_s = bench.observer.take()
        op = Op(label="run")
        report_bytes = _read(out / "report.json")
        p = Pass(wall_s=wall - load_s, ops=[op], output=report_bytes,
                 run_steps=[t.steps for t in trajs])
        if code != 0:
            op.failures.append(f"run exited with {code}")
        if not report_bytes:
            op.failures.append("no report.json")
            return p
        report = json.loads(report_bytes)
        state = json.loads(_read(out / "final_state.json") or b"{}")
        cert, final = report["certificate"], report["final"]
        op.steps = report["steps"]
        op.lyapunov = final["lyapunov"]
        op.rel_gap = cert["gap"] / cert["primal"]
        op.residual = final["residual"]
        # A solve whose residual exceeds --solve-tol ends the run with
        # status solver-failure, so these statuses imply every solve passed.
        status = report["status"]
        if status not in ("max-steps", "converged"):
            op.failures.append(f"status {status}")
        elif op.steps > self.steps or (status == "max-steps" and op.steps != self.steps):
            op.failures.append(f"{op.steps} steps in a {self.steps}-step window")
        if state.get("steps") != op.steps or state.get("status") != status:
            op.failures.append("final_state.json disagrees with report.json")
        lines = _read(out / "trajectory.csv").decode().splitlines()
        lyap0 = float(lines[1].split(",")[1]) if len(lines) > 1 else math.nan
        if not op.lyapunov <= lyap0:
            op.failures.append(f"Lyapunov rose over the window: {lyap0} -> {op.lyapunov}")
        if not cert["dual"] <= cert["primal"]:
            op.failures.append("weak duality violated: dual > primal")
        return p


WORKLOADS = {w.name: w for w in (
    BowtieSweep(),
    Window("grid98-window", ["--kind", "grid", "--spacing", "2.0"], steps=200,
           pass_s=2.8),
    Window("grid393-window", ["--kind", "grid", "--spacing", "1.0"], steps=300,
           pass_s=2.3, reference_file="scenarios/tokyo_like_synthetic.json"),
    Window("grid1569-window", ["--kind", "grid", "--spacing", "0.5"], steps=240,
           pass_s=7.5),
)}

GEN_CHILD = ("import json, sys\n"
             "from physanet.cli import main\n"
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")


def generate_inputs(bench: Bench, jobs: list[list[str]]) -> None:
    """Run ``physanet gen-scenario`` jobs in one child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(bench.root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", GEN_CHILD, json.dumps(jobs)],
                          env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"gen-scenario failed ({proc.returncode}): {proc.stderr}")


def time_setup(bench: Bench, files: list[Path], budget_s: float = SETUP_CHUNK_S,
               ) -> list[float]:
    """Scenario file to validated instance plus x0, repeated."""
    model = bench.physanet.model
    samples: list[float] = []
    t_begin = time.perf_counter()
    while len(samples) < MAX_SETUP_REPS and (
            len(samples) < MIN_SETUP_REPS
            or time.perf_counter() - t_begin < budget_s):
        t0 = time.perf_counter()
        for path in files:
            model.load_scenario(path).sample_x0(seed=bench.seed)
        samples.append(time.perf_counter() - t0)
    return samples


def _percentile_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values.size else 0.0


def layer_metrics(store: SpanStore, untraced: list[Pass], traced: list[Pass],
                  peak_alloc_mb: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes."""
    empty = {"dur": np.zeros(0), "self": np.zeros(0), "parent_layer": np.zeros(0, str)}
    spans = store.summary()

    def get(name):
        return spans.get(name, empty)

    n = len(traced)
    main_total = float(get("cli.main")["dur"].sum())
    steps = sum(p.quality[0] for p in traced)
    run_steps = [s for p in traced for s in p.run_steps]
    factor, assemble = get("electrical.factor"), get("electrical.assemble_laplacian")
    solve = get("electrical.solve_commodities")
    lam = get("dynamics.lambda_norms")
    cert = get("analysis.certificate")
    return {
        "electrical.factor_ms_p50": _percentile_ms(factor["dur"], 50),
        "electrical.factor_share": float(factor["dur"].sum()) / main_total,
        "electrical.assemble_ms_p50": _percentile_ms(assemble["dur"], 50),
        "electrical.assemble_share": float(assemble["dur"].sum()) / main_total,
        "electrical.solve_ms_p50": _percentile_ms(solve["dur"], 50),
        "electrical.solve_ms_p99": _percentile_ms(solve["dur"], 99),
        "electrical.solve_self_share": float(solve["self"].sum()) / main_total,
        "electrical.solve_calls": solve["dur"].size / n,
        "electrical.max_solve_residual": store.solve_residual_max,
        "dynamics.self_ms_per_step":
            float(get("dynamics.run")["self"].sum()) * 1e3 / max(steps, 1),
        "dynamics.lambda_norms_calls_per_step":
            int((lam["parent_layer"] == "dynamics").sum()) / max(steps, 1),
        "dynamics.rhs_ms_p50": _percentile_ms(get("dynamics.rhs")["dur"], 50),
        "dynamics.residual_ms_p50":
            _percentile_ms(get("dynamics.fixed_point_residual")["dur"], 50),
        "dynamics.steps_per_run": statistics.fmean(run_steps) if run_steps else 0.0,
        "dynamics.steps_max_run": max(run_steps, default=0),
        "dynamics.final_residual": max(p.quality[3] for p in traced),
        "analysis.rel_gap": max(p.quality[2] for p in traced),
        "analysis.certificate_calls": cert["dur"].size / n,
        "analysis.certificate_ms": _percentile_ms(cert["dur"], 50),
        "model.load_scenario_s": _percentile_ms(get("model.load_scenario")["dur"], 50) / 1e3,
        "model.peak_alloc_mb": peak_alloc_mb,
        "cli.self_s": float(get("cli.main")["self"].sum()) / n,
        "trace.overhead_share":
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced) - 1.0,
    }


def _check_same_output(reference: Pass, other: Pass, what: str) -> None:
    if other.output != reference.output:
        other.ops[-1].failures.append(f"{what}: output differs from the first pass")


def _timed_passes(workload, bench: Bench, seconds: float,
                  files: list[Path]) -> tuple[list[Pass], list[Op], list[float]]:
    """The untraced run: the workload's passes, plus the sweep's rerun.

    A window run makes one untimed warm-up pass, then its timed passes, each
    after a chunk of set-up repetitions.  The warm-up is checked like the
    others but is not among the returned passes.
    """
    with Patches() as patches:
        bench.observer.install(bench.physanet, patches)
        if isinstance(workload, BowtieSweep):
            setup = time_setup(bench, files, 2.0)
            passes = [workload.run_pass(bench)]
            return passes, [workload.rerun_op(bench, passes[0])], setup
        warmup = workload.run_pass(bench)
        wanted = max(MIN_WINDOW_PASSES, round(seconds / workload.pass_s))
        passes, setup = [], []
        while len(passes) < wanted:
            setup += time_setup(bench, files)
            passes.append(workload.run_pass(bench))
            _check_same_output(warmup, passes[-1], "determinism")
    return passes, warmup.ops, setup


def _traced_passes(workload, bench: Bench, store: SpanStore) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes in turn; the traced ones must match."""
    untraced, traced = [], []
    with Patches() as patches:
        bench.observer.install(bench.physanet, patches)
        for _ in range(workload.trace_pairs):
            untraced.append(workload.run_pass(bench))
            with Patches() as tracing:
                store.install(bench.physanet, tracing)
                traced.append(workload.run_pass(bench))
            _check_same_output(untraced[0], untraced[-1], "determinism")
            _check_same_output(untraced[0], traced[-1], "traced run")
            if traced[-1].quality != untraced[0].quality:
                traced[-1].ops[-1].failures.append(
                    f"traced quality {traced[-1].quality} != untraced {untraced[0].quality}")
    if store.solve_residual_max > SOLVE_TOL:
        traced[-1].ops[-1].failures.append(
            f"a solve returned residual {store.solve_residual_max:.3e} > {SOLVE_TOL}")
    return untraced, traced


def measure(workload, bench: Bench, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result and details."""
    generate_inputs(bench, workload.gen_jobs(bench))
    files = workload.scenario_files(bench)
    input_failures = workload.input_failures(bench)
    if trace:
        store = SpanStore()
        untraced, traced = _traced_passes(workload, bench, store)
        passes, extra_ops, setup = untraced + traced, [], []
        with Patches() as tracing:  # spans of model.load_scenario
            store.install(bench.physanet, tracing)
            time_setup(bench, files, 1.0)
        tracemalloc.start()
        bench.physanet.model.load_scenario(files[-1])
        peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    else:
        passes, extra_ops, setup = _timed_passes(workload, bench, seconds, files)
        untraced, traced = passes, []

    ops = [op for p in passes for op in p.ops] + extra_ops
    ops[0].failures.extend(input_failures)
    first = passes[0]
    steps, lyapunov, rel_gap, residual = first.quality
    if trace:
        metrics = layer_metrics(store, untraced, traced, peak_alloc_mb)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setup),
            "steps": steps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_lyapunov": lyapunov,
        }
        units = END_TO_END_UNITS
    failed = sum(1 for op in ops if op.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k]) else None,
                        "unit": units[k]} for k in units},
    }
    details = {
        "workload": workload.name,
        "seed": bench.seed,
        "trace": trace,
        "wall_s_samples": [p.wall_s for p in untraced],
        "traced_wall_s_samples": [p.wall_s for p in traced],
        "setup_s_samples": setup,
        "failed_ops": failed / len(ops),
        "rel_gap": rel_gap,
        "final_residual": residual,
        "run_steps": first.run_steps,
        "ops": [{"label": op.label, "steps": op.steps, "lyapunov": op.lyapunov,
                 "rel_gap": op.rel_gap, "residual": op.residual,
                 "failures": op.failures} for op in ops],
    }
    return {"result": result, "details": details,
            "spans": store if trace else None}
