from __future__ import annotations

import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import physanet as pn
from physanet.cli import main
from physanet.render import to_dot, to_svg

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_cli_run_one_norm_on_the_grid(tmp_path):
    # 93 commodities: the one-norm cost passes 2 L(x0) at step 17 of a run
    # that converges, and only the flow bound may stop it
    out = tmp_path / "run"
    code = run_cli("run", "--scenario", SCENARIOS / "tokyo_like_synthetic.json",
                   "--out", out, "--dynamics", "one-norm", "--h", "0.05",
                   "--max-steps", "100", "--record-every", "50")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "max-steps" and report["steps"] == 100


def test_cli_run_deterministic_repeat(tmp_path, ring_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("run", "--scenario", ring_path, "--out", out,
                       "--h", "0.05", "--seed", "9",
                       "--record-every", "100", "--dot", "--svg") == 0
        outs.append(_files(out))
    assert sorted(outs[0]) == ["final_state.json", "network.dot", "network.svg",
                               "report.json", "scenario.json", "trajectory.csv"]
    assert outs[0] == outs[1]


def _compact_without_initial_capacity(path: Path) -> bytes:
    doc = json.loads(path.read_text())
    del doc["initial_capacity"]
    return json.dumps(doc, separators=(",", ":")).encode()


def test_cli_run_dir_keeps_a_compact_input(tmp_path, ring_path, capsys):
    # scenario.json is the input verbatim, also where it is not the canonical
    # form, and certify and export read the run back from it
    source = tmp_path / "compact.json"
    source.write_bytes(_compact_without_initial_capacity(ring_path))
    canonical = tmp_path / "canonical.json"
    canonical.write_text(json.dumps(pn.scenario_document(pn.load_scenario(source))))
    flags = ("--h", "0.05", "--seed", "4", "--record-every", "100")
    out, ref = tmp_path / "run", tmp_path / "ref"
    assert run_cli("run", "--scenario", source, "--out", out, *flags) == 0
    assert run_cli("run", "--scenario", canonical, "--out", ref, *flags) == 0
    assert (out / "scenario.json").read_bytes() == source.read_bytes()
    assert (out / "report.json").read_bytes() == (ref / "report.json").read_bytes()
    capsys.readouterr()
    payloads = []
    for run_dir in (out, ref):
        assert run_cli("certify", "--run-dir", run_dir) == 0
        payloads.append(capsys.readouterr().out)
    assert payloads[0] == payloads[1]
    assert run_cli("export", "--run-dir", out, "--format", "dot") == 0
    state = json.loads((out / "final_state.json").read_text())
    expected = to_dot(pn.load_scenario(source).instance, np.array(state["x"]))
    assert (out / "network.dot").read_text() == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_cli_run_reads_a_fifo_once(tmp_path, ring_path):
    fifo, data = tmp_path / "scenario.fifo", ring_path.read_bytes()
    os.mkfifo(fifo)
    done = threading.Event()

    def feed():
        fifo.write_bytes(data)
        # A second open for reading would block for a writer: give it an
        # empty file instead, so that the run fails rather than hangs.
        while not done.wait(0.01):
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader waiting
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        code = run_cli("run", "--scenario", fifo, "--out", tmp_path / "run",
                       "--h", "0.05", "--seed", "9", "--record-every", "100")
    finally:
        done.set()
        writer.join(timeout=10)
    assert code == 0 and not writer.is_alive()
    assert (tmp_path / "run" / "scenario.json").read_bytes() == data


def test_cli_run_out_may_hold_the_input(tmp_path, ring_path):
    out = tmp_path / "run"
    out.mkdir()
    data = _compact_without_initial_capacity(ring_path)
    (out / "scenario.json").write_bytes(data)
    assert run_cli("run", "--scenario", out / "scenario.json", "--out", out,
                   "--h", "0.05", "--seed", "9", "--record-every", "100") == 0
    assert (out / "scenario.json").read_bytes() == data
    assert (out / "report.json").exists()


def test_cli_run_missing_scenario_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--scenario", tmp_path / "missing.json",
                   "--out", tmp_path / "o")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "config"


@pytest.mark.parametrize("data, message", [
    (None, "cannot read scenario file: "),
    (b'{"nodes": [', "scenario is not valid JSON: Expecting value: line 1 column 12"),
    (b"\xff\xfe{", "scenario is not valid JSON: 'utf-16-le' codec can't decode"),
    (b"[1, 2]", "scenario document must be a JSON object"),
], ids=["directory", "truncated", "undecodable", "not-an-object"])
def test_cli_run_unreadable_scenario_is_config_error(tmp_path, capsys, data, message):
    path = tmp_path / "scenario.json"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    assert run_cli("run", "--scenario", path, "--out", tmp_path / "o") == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "config" and err["error"].startswith(message)


def _malformed(path: tuple, value) -> dict:
    doc = {"nodes": ["a", "b"],
           "edges": [{"u": "a", "v": "b", "cost": 1.0}],
           "demands": [{"source": "a", "sink": "b", "amount": 1.0}],
           "layout": {"a": [0.0, 0.0], "b": [1.0, 0.0]}}
    *parents, key = path
    target = doc
    for part in parents:
        target = target[part]
    target[key] = value
    return doc


@pytest.mark.parametrize("doc", [
    _malformed(("edges", 0, "cost"), "abc"),
    _malformed(("edges", 0, "cost"), None),
    _malformed(("demands", 0, "amount"), "x"),
    _malformed(("layout", "a"), [0.0]),
    _malformed(("initial_capacity",), {"random_uniform": [1]}),
    _malformed(("initial_capacity",), math.nan),
    _malformed(("initial_capacity",), math.inf),
    _malformed(("initial_capacity",), [math.nan]),
    _malformed(("initial_capacity",), {"random_uniform": [0.5, math.inf]}),
    _malformed(("edges", 0, "u"), ["a"]),
    _malformed(("demands", 0, "source"), {"a": 1}),
], ids=["cost-text", "cost-null", "amount-text", "layout-not-pair", "random-uniform-one",
        "capacity-nan", "capacity-infinity", "capacity-list-nan", "random-uniform-infinity",
        "edge-endpoint-list", "demand-endpoint-object"])
def test_cli_run_malformed_values_are_config_errors(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", path, "--out", tmp_path / "o") == 2
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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_cli_certify_bad_gap_tol_is_config_error(ring_path, capsys, tol):
    # refused before the run: a NaN or negative tolerance fails every
    # certificate, and NaN or inf would print as invalid JSON
    assert run_cli("certify", "--scenario", ring_path, "--gap-tol", tol) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err == {"error": f"--gap-tol must be nonnegative and finite, not {float(tol)}",
                   "kind": "config"}


def test_cli_certify_scenario_solver_failure(ring_path, capsys):
    # a tolerance no solve reaches fails the run's first solve
    assert run_cli("certify", "--scenario", ring_path, "--solve-tol", "1e-30") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "solver" and err["error"].startswith("step 0: ")


def test_cli_certify_from_run_dir(tmp_path, ring_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", ring_path, "--out", out,
                   "--h", "0.02", "--seed", "2") == 0
    capsys.readouterr()
    assert run_cli("certify", "--run-dir", out, "--gap-tol", "1e-3") == 0
    capsys.readouterr()
    # a negative tolerance fails every solve, also one whose residual
    # rounds to exactly zero (refinement reaches that on the ring)
    assert run_cli("certify", "--run-dir", out, "--solve-tol", "-1") == 1
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


@pytest.mark.parametrize("argv, flag", [
    (("sweep", "--values", "8,abc"), "--values"),
    (("gen-scenario", "--kind", "bowtie", "--L", "abc"), "--L"),
], ids=["sweep-values", "gen-scenario-L"])
def test_cli_bad_number_flags_are_config_errors(tmp_path, capsys, argv, flag):
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": f"{flag} takes numbers, not 'abc'", "kind": "config"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (("run", "--record-every", "0"), "record_every must be at least 1"),
    (("run", "--seed", "-1"), "--seed must be nonnegative, not -1"),
    (("run", "--capacity-floor", "nan"),
     "stop_tol and capacity_floor must be positive and finite"),
    (("run", "--stop-tol", "nan"), "stop_tol and capacity_floor must be positive and finite"),
    (("gen-scenario", "--kind", "grid", "--seed", "-2"), "--seed must be nonnegative, not -2"),
    (("gen-scenario", "--kind", "grid", "--spacing", "nan"), "spacing must be positive and finite"),
    (("gen-scenario", "--kind", "grid", "--spacing", "2", "--initial-capacity", "nan"),
     "initial capacity must be positive and finite"),
    (("gen-scenario", "--kind", "grid", "--spacing", "2", "--initial-capacity", "0"),
     "initial capacity must be positive and finite"),
    (("gen-scenario", "--kind", "grid", "--spacing", "2", "--initial-capacity", "-1"),
     "initial capacity must be positive and finite"),
    (("gen-scenario", "--kind", "grid", "--spacing", "2", "--threshold-fraction", "nan"),
     "threshold must be positive"),
], ids=["record-every-zero", "run-seed-negative", "capacity-floor-nan", "stop-tol-nan",
        "gen-scenario-seed-negative", "gen-scenario-spacing-nan",
        "gen-scenario-initial-capacity-nan", "gen-scenario-initial-capacity-zero",
        "gen-scenario-initial-capacity-negative", "gen-scenario-threshold-nan"])
def test_cli_bad_flag_values_are_config_errors(tmp_path, ring_path, capsys, argv, message):
    if argv[0] == "run":
        argv = (*argv, "--scenario", ring_path, "--max-steps", "50")
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": message, "kind": "config"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("polygon, message", [
    ([[0, 0], [1, "x"], [2, 2]], "polygon vertices must be [x, y] pairs of numbers"),
    ([[0, 0], [1], [2, 2]], "polygon vertices must be [x, y] pairs of numbers"),
    (5, "polygon vertices must be [x, y] pairs of numbers"),
    ([[0, 0], [1, math.nan], [2, 2]], "polygon vertices must be finite"),
], ids=["not-a-number", "not-a-pair", "not-a-list", "nan"])
def test_cli_gen_scenario_bad_polygon_is_config_error(tmp_path, capsys, polygon, message):
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps(polygon))
    assert run_cli("gen-scenario", "--kind", "grid", "--polygon", path,
                   "--out", tmp_path / "grid.json") == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": message, "kind": "config"}


@pytest.mark.parametrize("state", [
    {"x": [1.0, 2.0]},
    {"x": [1.0, 2.0, 3.0, 4.0]},
    {"x": [1.0, "a", 2.0]},
    {"status": "converged", "steps": 3},
    [1.0, 2.0, 3.0],
    {"x": [1.0, -1.0, 1.0]},
    {"x": [1.0, math.nan, 1.0]},
], ids=["short", "long", "not-a-number", "missing", "not-an-object", "negative", "nan"])
@pytest.mark.parametrize("command", ["certify", "export"])
def test_cli_bad_run_dir_state_is_config_error(tmp_path, ring_path, capsys, command, state):
    # certify and export read a run directory alike, and name the file
    # whose x is not m finite, nonnegative numbers
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "scenario.json").write_bytes(ring_path.read_bytes())
    (run_dir / "final_state.json").write_text(json.dumps(state))
    argv = {"certify": ("certify", "--run-dir", run_dir),
            "export": ("export", "--run-dir", run_dir, "--format", "svg")}[command]
    assert run_cli(*argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": f"{run_dir / 'final_state.json'}: x must be a list of 3 "
                            "finite, nonnegative numbers", "kind": "config"}
    assert not (run_dir / "network.svg").exists()


@pytest.mark.parametrize("data", [None, b"\xff\xfe{", b'{"x": ['],
                         ids=["directory", "undecodable", "truncated"])
@pytest.mark.parametrize("command", ["certify", "export", "polygon"])
def test_cli_unreadable_json_input_is_config_error(tmp_path, ring_path, capsys, command, data):
    # a run directory's final_state.json, or a --polygon file, that cannot
    # be read or parsed is a config error naming the file
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "scenario.json").write_bytes(ring_path.read_bytes())
    path = tmp_path / "poly.json" if command == "polygon" else run_dir / "final_state.json"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    argv = {"certify": ("certify", "--run-dir", run_dir),
            "export": ("export", "--run-dir", run_dir, "--format", "svg"),
            "polygon": ("gen-scenario", "--kind", "grid", "--polygon", path,
                        "--out", tmp_path / "grid.json")}[command]
    assert run_cli(*argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "config" and err["error"].startswith(f"cannot read {path}: ")


def test_cli_run_and_certify_without_demands(tmp_path, capsys):
    # every solve of a scenario without demands is the k = 0 one: the
    # capacities decay to the stop tolerance, and the certificate is zero
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"nodes": ["a", "b", "c"],
                                "edges": [{"u": "a", "v": "b", "cost": 1.0},
                                          {"u": "b", "v": "c", "cost": 1.0}]}))
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", path, "--out", out, "--h", "0.5") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged" and report["final"]["energy"] == 0.0
    capsys.readouterr()
    assert run_cli("certify", "--run-dir", out) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["primal"] == cert["dual"] == cert["gap"] == 0.0


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


def test_cli_run_divergence_writes_state(tmp_path, ring_path, monkeypatch, capsys):
    # a right-hand side that grows x diverges within a few steps; the run
    # still fails, but leaves the state at which the bound was crossed and
    # the trajectory up to it
    monkeypatch.setattr(pn.dynamics, "rhs",
                        lambda instance, x, solution, spec, **kw: np.asarray(x))
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", ring_path, "--out", out, "--h", "0.5",
                   "--max-steps", "10000", "--record-every", "2000") == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "runtime"
    state = json.loads((out / "final_state.json").read_text())
    assert state["status"] == "diverged" and 0 < state["steps"] < 10
    assert err["error"].startswith(f"step {state['steps']}:")
    x0 = pn.load_scenario(ring_path).sample_x0(seed=0)
    assert np.allclose(state["x"], x0 * 1.5 ** state["steps"], rtol=1e-12, atol=0)
    assert (out / "scenario.json").exists() and not (out / "report.json").exists()
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert float(rows[-1].split(",")[0]) == state["steps"] * 0.5


def test_cli_certify_and_sweep_report_divergence(tmp_path, ring_path, monkeypatch,
                                                 capsys):
    # certify fails a diverged run as a runtime error; sweep gives its L a
    # NaN row and goes on
    monkeypatch.setattr(pn.dynamics, "rhs",
                        lambda instance, x, solution, spec, **kw: np.asarray(x))
    assert run_cli("certify", "--scenario", ring_path, "--h", "0.5",
                   "--max-steps", "10000") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "runtime" and "exceeds bounded-domain limit" in err["error"]
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--values", "8", "--out", out, "--h", "0.5",
                   "--max-steps", "10000") == 0
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "sweep-value" and err["error"].startswith("L=8: step ")
    assert (out / "sweep_summary.csv").read_text().splitlines()[1] == "8" + ",nan" * 7


def test_cli_sweep_failed_values_are_nan_rows(tmp_path, capsys):
    # a tolerance no solve reaches fails each L value: it gets a NaN row and
    # one sweep-value line on stderr, and the sweep itself succeeds
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--values", "8,9", "--out", out, "--solve-tol", "1e-30") == 0
    errs = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert [e["kind"] for e in errs] == ["sweep-value"] * 2
    assert [e["error"][:len("L=8: step 0: ")] for e in errs] == ["L=8: step 0: ",
                                                                "L=9: step 0: "]
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[1:] == ["8" + ",nan" * 7, "9" + ",nan" * 7]


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


@pytest.mark.parametrize("reference, flags", [
    ("ring.json", ("--kind", "ring")),
    ("bowtie_L8.json", ("--kind", "bowtie", "--L", "8")),
    ("tokyo_like_synthetic.json", ("--kind", "grid", "--seed", "7")),
], ids=["ring", "bowtie-L8", "grid-seed7"])
def test_cli_gen_scenario_reproduces_checked_in_files(tmp_path, reference, flags):
    out = tmp_path / reference
    assert run_cli("gen-scenario", *flags, "--out", out) == 0
    assert out.read_bytes() == (SCENARIOS / reference).read_bytes()
