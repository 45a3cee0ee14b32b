from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import physanet as pn
from physanet.cli import main
from physanet.render import to_dot, to_svg


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ring_path(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("scen") / "ring.json"
    assert run_cli("gen-scenario", "--kind", "ring", "--out", out) == 0
    return out


def test_dot_export_deterministic(ring):
    x = np.full(3, math.sqrt(2 / 3))
    a = to_dot(ring.instance, x)
    b = to_dot(ring.instance, x)
    assert a == b
    assert a.count("--") == 3
    assert 'label="0.816"' in a
    # near-equal capacities get near-equal pen widths
    widths = [float(part.split("=")[1].split(" ")[0])
              for part in a.splitlines() if "penwidth" in part
              for part in [part.split("[")[1]]]
    assert max(widths) - min(widths) <= 1e-6


def test_svg_export_layout_and_terminals(ring):
    x = np.array([1.0, 0.5, 0.25])
    svg = to_svg(ring.instance, x, ring.layout, ("a",))
    assert svg.startswith("<svg")
    assert svg.count("<line") == 3
    assert svg.count('fill="#c53030"') == 1  # one highlighted terminal
    assert to_svg(ring.instance, x, ring.layout, ("a",)) == svg
    # falls back to a circular layout without coordinates
    assert to_svg(ring.instance, x).count("<line") == 3


def test_svg_omits_starved_edges(ring):
    # edges at the capacity floor would render at zero width; they are
    # dropped so an exported pruned network shows only surviving edges
    svg = to_svg(ring.instance, np.array([1.0, 0.5, 1e-9]), ring.layout)
    assert svg.count("<line") == 2


def test_cli_run_ring_report(tmp_path, ring_path):
    out = tmp_path / "run"
    code = run_cli("run", "--scenario", ring_path, "--out", out,
                   "--dynamics", "two-norm", "--h", "0.02", "--seed", "3",
                   "--record-every", "200", "--dot", "--svg")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    final = report["final"]
    assert abs(final["cost"] - math.sqrt(6)) <= 1e-2
    assert abs(final["energy"] - math.sqrt(6)) <= 1e-2
    assert final["lyapunov"] == pytest.approx(
        0.5 * (final["cost"] + final["energy"]), abs=1e-12)
    assert report["status"] == "converged"
    for name in ("trajectory.csv", "final_state.json", "scenario.json",
                 "network.dot", "network.svg"):
        assert (out / name).exists()
    state = json.loads((out / "final_state.json").read_text())
    assert state["status"] == "converged"
    assert len(state["x"]) == 3


def test_cli_run_deterministic_repeat(tmp_path, ring_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("run", "--scenario", ring_path, "--out", out,
                       "--h", "0.05", "--seed", "9",
                       "--record-every", "100") == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_run_missing_scenario_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--scenario", tmp_path / "missing.json",
                   "--out", tmp_path / "o")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "config"


def test_cli_certify_converged_ring(tmp_path, ring_path, capsys):
    code = run_cli("certify", "--scenario", ring_path, "--h", "0.02",
                   "--seed", "1", "--gap-tol", "1e-3")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["primal"] - math.sqrt(6)) <= 1e-3
    assert payload["gap"] <= 1e-3


def test_cli_certify_early_stop_has_gap(tmp_path, ring_path, capsys):
    code = run_cli("certify", "--scenario", ring_path, "--h", "0.02",
                   "--seed", "1", "--max-steps", "10", "--gap-tol", "1e-3")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] > 1e-3


def test_cli_certify_from_run_dir(tmp_path, ring_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", ring_path, "--out", out,
                   "--h", "0.02", "--seed", "2") == 0
    capsys.readouterr()
    assert run_cli("certify", "--run-dir", out, "--gap-tol", "1e-3") == 0
    capsys.readouterr()
    assert run_cli("certify", "--run-dir", out, "--solve-tol", "1e-30") == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "runtime"


def _count_solves(monkeypatch):
    """Count solve_commodities calls from every module that makes them, and
    keep the trajectory of each dynamics.run."""
    calls, trajs = [], []
    solve, run = pn.electrical.solve_commodities, pn.dynamics.run

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    def kept(*args, **kwargs):
        trajs.append(run(*args, **kwargs))
        return trajs[-1]

    for module in (pn.electrical, pn.dynamics, pn.analysis):
        monkeypatch.setattr(module, "solve_commodities", counted)
    monkeypatch.setattr(pn.dynamics, "run", kept)
    return calls, trajs, solve


def test_cli_run_solves_each_state_once(tmp_path, ring_path, monkeypatch):
    calls, trajs, solve = _count_solves(monkeypatch)
    assert run_cli("run", "--scenario", ring_path, "--out", tmp_path / "run",
                   "--h", "0.02", "--seed", "3", "--max-steps", "20") == 0
    (traj,) = trajs
    assert traj.status == pn.TerminalStatus.MAX_STEPS and traj.steps == 20
    assert len(calls) == 21
    kept, fresh = traj.final_solution, solve(traj.instance, traj.final_x)
    for name in ("G", "W", "drops", "x", "energy_per_commodity", "residuals", "Q"):
        assert np.array_equal(getattr(kept, name), getattr(fresh, name)), name


@pytest.mark.parametrize("flags", [(), ("--dynamics", "beta", "--beta", "1.5")])
def test_cli_report_matches_library(tmp_path, ring_path, monkeypatch, flags):
    # the report's final and certificate blocks are exactly the library's
    # values at the run's final solve; under the beta dynamics the report
    # still gives the plain L(x), not the tilted value the trajectory records
    _, trajs, _ = _count_solves(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", ring_path, "--out", out, "--h", "0.5",
                   "--seed", "7", "--max-steps", "100", *flags) == 0
    (traj,) = trajs
    inst, x, sol = traj.instance, traj.final_x, traj.final_solution
    lyap, cert = pn.lyapunov(inst, x, sol), pn.certificate(inst, x, sol)
    report = json.loads((out / "report.json").read_text())
    assert report["final"] == {"cost": lyap.cost, "energy": lyap.energy,
                               "lyapunov": lyap.value,
                               "residual": traj.final.residual}
    assert report["certificate"] == {"primal": cert.primal, "dual": cert.dual,
                                     "lyapunov": cert.lyapunov, "gap": cert.gap,
                                     "scaling": cert.scaling}
    assert (traj.final.lyapunov == lyap.value) == (not flags)


@pytest.mark.parametrize("command", ["sweep", "certify"])
def test_cli_record_gap_is_only_a_run_flag(tmp_path, ring_path, capsys, command):
    args = {"sweep": ("--values", "8.0", "--out", tmp_path / "sweep"),
            "certify": ("--scenario", ring_path)}[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, "--record-gap")
    assert exc.value.code == 2
    assert "unrecognized arguments: --record-gap" in capsys.readouterr().err


def test_cli_sweep_bad_dynamics_flags_are_config_errors(tmp_path, capsys):
    # a flag error fails the whole sweep, not each L value in turn
    assert run_cli("sweep", "--values", "8.0,9.0", "--out", tmp_path / "sweep",
                   "--dynamics", "beta") == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert not (tmp_path / "sweep" / "sweep_summary.csv").exists()


def test_cli_run_first_solve_failure_writes_state(tmp_path, ring_path,
                                                  monkeypatch, capsys):
    calls, trajs, _ = _count_solves(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", ring_path, "--out", out,
                   "--solve-tol", "1e-30", "--max-steps", "5") == 1
    assert len(calls) == 1 and trajs[0].final_solution is None
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "solver"
    state = json.loads((out / "final_state.json").read_text())
    x0 = pn.load_scenario(ring_path).sample_x0(seed=0)
    assert state == {"x": x0.tolist(), "status": "solver-failure", "steps": 0}
    assert not (out / "report.json").exists()


def test_cli_sweep_summary(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--values", "7.0,11.0", "--out", out,
                   "--h", "0.05", "--stop-tol", "1e-6", "--seed", "0",
                   "--record-every", "1000")
    assert code == 0
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "L,q_b,q_m,q_t,x_m,cost,energy,gap"
    for line in lines[1:]:
        vals = dict(zip(lines[0].split(","), (float(v) for v in line.split(","))))
        assert vals["q_b"] + vals["q_m"] + vals["q_t"] == pytest.approx(1.0, abs=1e-6)
    row7 = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
    assert row7["q_m"] > 0.99
    row11 = dict(zip(lines[0].split(","), (float(v) for v in lines[2].split(","))))
    assert row11["q_m"] < 0.01


def test_cli_export_formats(tmp_path, ring_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", ring_path, "--out", out,
                   "--h", "0.05", "--seed", "0") == 0
    assert run_cli("export", "--run-dir", out, "--format", "dot") == 0
    assert run_cli("export", "--run-dir", out, "--format", "svg") == 0
    assert (out / "network.dot").exists()
    assert (out / "network.svg").exists()
    assert run_cli("export", "--run-dir", out, "--format", "xyz") == 2


def test_cli_gen_scenario_bowtie_and_grid(tmp_path):
    bow = tmp_path / "bow.json"
    assert run_cli("gen-scenario", "--kind", "bowtie", "--L", "8", "--out", bow) == 0
    scen = pn.load_scenario(bow)
    assert scen.instance.m == 7
    bow_inf = tmp_path / "bowinf.json"
    assert run_cli("gen-scenario", "--kind", "bowtie", "--L", "inf",
                   "--out", bow_inf) == 0
    assert pn.load_scenario(bow_inf).instance.m == 6
    grid = tmp_path / "grid.json"
    assert run_cli("gen-scenario", "--kind", "grid", "--seed", "7",
                   "--terminal-count", "8", "--out", grid) == 0
    gscen = pn.load_scenario(grid)
    assert gscen.instance.k > 0
    assert gscen.layout is not None
    assert gscen.terminals is not None


def test_cli_run_bowtie_l8_cost(tmp_path):
    bow = tmp_path / "bow8.json"
    assert run_cli("gen-scenario", "--kind", "bowtie", "--L", "8",
                   "--out", bow) == 0
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", bow, "--out", out, "--h", "0.05",
                   "--stop-tol", "1e-6", "--seed", "0",
                   "--record-every", "1000") == 0
    report = json.loads((out / "report.json").read_text())
    # middle-edge regime: cost = 4 + 8 sqrt(2), i.e. about 15.3
    assert abs(report["final"]["cost"] - 15.3) <= 0.02 * 15.3
