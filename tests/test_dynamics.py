from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import physanet as pn
from physanet.dynamics import DynamicsKind, GFunction
from physanet.errors import DivergenceError, ScenarioError

from conftest import random_graph_instance

K = DynamicsKind

TOKYO = Path(__file__).resolve().parents[1] / "scenarios" / "tokyo_like_synthetic.json"


@pytest.fixture(scope="module")
def tokyo():
    return pn.load_scenario(TOKYO)


def all_g_variants():
    return [GFunction.identity(), GFunction.reactive(0.5),
            GFunction.reactive_squared(0.5), GFunction.power(2.0),
            GFunction.saturating(1.0, 2.0)]


@pytest.mark.parametrize("g", all_g_variants(), ids=lambda g: g.spec_string())
def test_g_functions_normalized_increasing_nonnegative(g):
    z = np.linspace(0.0, 3.0, 301)
    vals = g(z)
    assert np.isclose(g(np.array([1.0]))[0], 1.0)
    assert np.all(vals >= -1e-12)
    assert np.all(np.diff(vals) > -1e-12)


def test_g_identity_is_plain_z():
    z = np.linspace(0.0, 2.0, 21)
    assert np.allclose(GFunction.identity()(z), z)


def test_g_parse_roundtrip():
    for text in ("identity", "reactive:0.5", "reactive-squared:0.25",
                 "power:2", "saturating:1,2"):
        assert GFunction.parse(text).spec_string().startswith(text.split(":")[0])
    with pytest.raises(ScenarioError):
        GFunction.parse("nope")
    with pytest.raises(ScenarioError):
        GFunction.parse("reactive:2.5")   # would go negative near z=0
    with pytest.raises(ScenarioError):
        GFunction.parse("saturating:1")   # missing parameter
    for bad in ("reactive-squared:0", "power:0", "saturating:0,1", "saturating:1,-1",
                "identity:1", "reactive:abc", "power:nan", "saturating:1,nan"):
        with pytest.raises(ScenarioError):
            GFunction.parse(bad)


def test_dynamics_spec_validation():
    pn.DynamicsSpec(kind=K.TWO_NORM)
    with pytest.raises(ScenarioError):
        pn.DynamicsSpec(kind=K.TWO_NORM, h=1.0)
    with pytest.raises(ScenarioError):
        pn.DynamicsSpec(kind=K.GENERALIZED)
    with pytest.raises(ScenarioError):
        pn.DynamicsSpec(kind=K.BETA, beta=2.0)
    with pytest.raises(ScenarioError):
        pn.DynamicsSpec(kind=K.TWO_NORM, beta=1.0)
    with pytest.raises(ScenarioError):
        pn.DynamicsSpec(kind=K.ONE_NORM, g=GFunction.identity())
    # a NaN compares false, so it fails these checks too
    for bad in ({"stop_tol": 0.0}, {"stop_tol": math.nan}, {"stop_tol": math.inf},
                {"capacity_floor": -1e-9}, {"capacity_floor": math.nan}):
        with pytest.raises(ScenarioError, match="must be positive and finite"):
            pn.DynamicsSpec(kind=K.TWO_NORM, **bad)
    with pytest.raises(ScenarioError, match="max_steps must be at least 1"):
        pn.DynamicsSpec(kind=K.TWO_NORM, max_steps=0)
    with pytest.raises(ScenarioError, match="record_every must be at least 1"):
        pn.DiagnosticsConfig(record_every=0)


def specs_for_all_kinds():
    return [pn.DynamicsSpec(kind=K.ONE_NORM),
            pn.DynamicsSpec(kind=K.TWO_NORM),
            pn.DynamicsSpec(kind=K.GENERALIZED, g=GFunction.power(2.0)),
            pn.DynamicsSpec(kind=K.BETA, beta=1.5),
            pn.DynamicsSpec(kind=K.MIRROR)]


@pytest.mark.parametrize("spec", specs_for_all_kinds(), ids=lambda s: s.kind.value)
def test_single_edge_is_fixed_point_for_every_kind(spec, single_edge):
    x = np.array([1.0])
    sol = pn.solve_commodities(single_edge, x)
    assert np.allclose(pn.rhs(single_edge, x, sol, spec), 0.0, atol=1e-12)


def test_ring_two_norm_equilibrium_is_fixed_point(ring):
    x = np.full(3, math.sqrt(2 / 3))
    sol = pn.solve_commodities(ring.instance, x)
    xdot = pn.rhs(ring.instance, x, sol, pn.DynamicsSpec(kind=K.TWO_NORM))
    assert np.abs(xdot).max() <= 1e-12


def test_ring_one_norm_equilibrium_is_fixed_point(ring):
    x = np.full(3, 4 / 3)
    sol = pn.solve_commodities(ring.instance, x)
    xdot = pn.rhs(ring.instance, x, sol, pn.DynamicsSpec(kind=K.ONE_NORM))
    assert np.abs(xdot).max() <= 1e-12


def test_mirror_rhs_is_negative_x_times_gradient():
    rng = np.random.default_rng(2)
    for _ in range(6):
        inst = random_graph_instance(rng)
        x = rng.uniform(0.3, 2.0, size=inst.m)
        sol = pn.solve_commodities(inst, x)
        xdot = pn.rhs(inst, x, sol, pn.DynamicsSpec(kind=K.MIRROR))
        grad = pn.lyapunov(inst, x, sol).gradient
        assert np.allclose(xdot, -x * grad, rtol=1e-12, atol=1e-14)


def test_one_and_two_norm_coincide_for_single_commodity():
    rng = np.random.default_rng(8)
    for _ in range(6):
        inst = random_graph_instance(rng, k_max=1)
        x = rng.uniform(0.3, 2.0, size=inst.m)
        sol = pn.solve_commodities(inst, x)
        one = pn.rhs(inst, x, sol, pn.DynamicsSpec(kind=K.ONE_NORM))
        two = pn.rhs(inst, x, sol, pn.DynamicsSpec(kind=K.TWO_NORM))
        assert np.allclose(one, two, rtol=0, atol=1e-14)


def test_euler_step_basics():
    assert pn.euler_step(np.array([1.0]), np.array([0.0]), 0.1, 1e-9)[0] == 1.0
    x = np.array([1.0])
    for _ in range(50):
        x = pn.euler_step(x, -x, 0.1, 1e-9)
    assert np.isclose(x[0], 0.9 ** 50)
    assert x[0] > 0
    clamped = pn.euler_step(np.array([2e-9]), np.array([-2e-9]), 0.5, 1e-9)
    assert clamped[0] == 1e-9


def test_fixed_point_residual_ring(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM)
    x = np.full(3, math.sqrt(2 / 3))
    sol = pn.solve_commodities(ring.instance, x)
    assert pn.fixed_point_residual(ring.instance, x, sol, spec) <= 1e-8
    x1 = np.ones(3)
    sol1 = pn.solve_commodities(ring.instance, x1)
    assert pn.fixed_point_residual(ring.instance, x1, sol1, spec) > 0.1


def test_fixed_point_residual_floored_edges_count_as_converged():
    # expensive parallel edge is starved; residual reduces to floor * cost
    inst = pn.graph_instance(["u", "v"],
                             [("u", "v", 1.0), ("u", "v", 5.0)],
                             [pn.DemandSpec("u", "v", 1.0)])
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.05, stop_tol=1e-6)
    traj = pn.run(inst, np.array([1.0, 1.0]), spec,
                  pn.DiagnosticsConfig(record_every=100))
    assert traj.status == pn.TerminalStatus.CONVERGED
    # starved edge is far below any useful capacity but may not have hit the
    # floor yet; the min() in the residual lets it count as converged anyway
    assert traj.final_x[1] <= spec.stop_tol
    assert np.isclose(traj.final_x[0], 1.0, rtol=1e-4)


@pytest.mark.parametrize("spec", specs_for_all_kinds(), ids=lambda s: s.kind.value)
def test_single_edge_converges_from_above(spec, single_edge):
    traj = pn.run(single_edge, np.array([5.0]), spec,
                  pn.DiagnosticsConfig(record_every=100))
    assert traj.status == pn.TerminalStatus.CONVERGED
    assert np.isclose(traj.final_x[0], 1.0, rtol=1e-5)


def test_ring_two_norm_converges_to_symmetric_equilibrium(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02)
    for seed in range(3):
        traj = pn.run(ring.instance, ring.sample_x0(seed=seed), spec,
                      pn.DiagnosticsConfig(record_every=100))
        assert traj.status == pn.TerminalStatus.CONVERGED
        assert np.abs(traj.final_x - math.sqrt(2 / 3)).max() <= 0.01 * math.sqrt(2 / 3)


def test_trajectory_time_axis_and_records(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02, max_steps=200,
                           stop_tol=1e-12)
    traj = pn.run(ring.instance, ring.sample_x0(seed=0), spec,
                  pn.DiagnosticsConfig(record_every=50))
    times = [r.t for r in traj.records]
    assert times == sorted(times)
    assert traj.status == pn.TerminalStatus.MAX_STEPS
    assert traj.records[-1].t == pytest.approx(200 * 0.02)
    steps = np.diff([r.t for r in traj.records[:-1]])
    assert np.allclose(steps, 50 * 0.02)


def test_flow_bound_holds_along_trajectories(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02)
    traj = pn.run(ring.instance, ring.sample_x0(seed=4), spec,
                  pn.DiagnosticsConfig(record_every=10))
    b1 = np.abs(ring.instance.B).sum(axis=0)
    ratios = [(np.abs(pn.solve_commodities(ring.instance, r.x).Q) / b1).max()
              for r in traj.records]
    assert max(ratios) <= 1.0 + 1e-9
    # the run forms no flows: the kept final solution has not formed them
    sol = traj.final_solution
    assert "Q" not in vars(sol) and "Lambda" not in vars(sol)
    assert ratios[-1] == (np.abs(sol.Q) / b1).max()


def test_solver_choice_does_not_change_trajectory(factorization):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.05, max_steps=500,
                           stop_tol=1e-12)
    finals = {}
    for kind in ("band", "splu"):
        factorization(kind)
        ring = pn.ring_scenario()
        finals[kind] = pn.run(ring.instance, ring.sample_x0(seed=9), spec,
                              pn.DiagnosticsConfig(record_every=100)).final_x
    assert np.abs(finals["band"] - finals["splu"]).max() <= 1e-7


def test_run_rejects_bad_x0(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM)
    with pytest.raises(ScenarioError):
        pn.run(ring.instance, np.array([1.0, -1.0, 1.0]), spec)
    with pytest.raises(ScenarioError):
        pn.run(ring.instance, np.array([1.0, 1.0]), spec)
    for bad in (math.nan, math.inf):
        with pytest.raises(ScenarioError, match="x0 must be strictly positive and finite"):
            pn.run(ring.instance, np.array([1.0, bad, 1.0]), spec)


def test_trajectory_csv_schema(ring, tmp_path):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.05, max_steps=100,
                           stop_tol=1e-12)
    traj = pn.run(ring.instance, ring.sample_x0(seed=0), spec,
                  pn.DiagnosticsConfig(record_every=25, record_gap=True))
    path = tmp_path / "trajectory.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,lyapunov,cost,energy,residual,gap,x_a-b,x_b-c,x_c-a"
    assert len(lines) == 1 + len(traj.records)


@pytest.mark.parametrize("record_gap", [False, True])
def test_trajectory_csv_bytes_match_per_value_format(ring, tmp_path, record_gap):
    # one "%.12g" template per row writes the same bytes as formatting each
    # value on its own, also for nan, infinities, signed zeros and extremes
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e300, 1 / 3]
    records = [pn.TrajectoryRecord(t=t, x=np.array([a, b, c]), lyapunov=a, cost=b,
                                   energy=c, residual=t, gap=(b if record_gap else None))
               for t, (a, b, c) in enumerate(zip(special, special[1:] + special[:1],
                                                 special[2:] + special[:2]))]
    traj = pn.Trajectory(instance=ring.instance, spec=pn.DynamicsSpec(kind=K.TWO_NORM),
                         records=records)
    path = tmp_path / "trajectory.csv"
    traj.write_csv(path)
    lines = path.read_bytes().decode().split("\n")
    assert lines[-1] == "" and len(lines) == 2 + len(records)
    for line, r in zip(lines[1:], records):
        vals = [r.t, r.lyapunov, r.cost, r.energy, r.residual]
        vals += [r.gap] if record_gap else []
        assert line == ",".join(f"{v:.12g}" for v in [*vals, *r.x])


def test_divergence_caught_at_the_step_it_happens(ring, monkeypatch):
    # a right-hand side that grows x leaves the bounded domain within a few
    # steps; the check must not wait for the next record point, and the
    # message names the bound of the kind: the one-norm kind checks the
    # flow bound, the others twice the starting Lyapunov value
    def growing(instance, x, solution, spec, **kwargs):
        return np.asarray(x, dtype=float)

    monkeypatch.setattr(pn.dynamics, "rhs", growing)
    for kind, bound in ((K.TWO_NORM, "bounded-domain limit"),
                        (K.ONE_NORM, "flow-bound limit")):
        spec = pn.DynamicsSpec(kind=kind, h=0.5, max_steps=10_000)
        with pytest.raises(DivergenceError, match=r"^step (\d+):") as err:
            pn.run(ring.instance, np.ones(3), spec,
                   pn.DiagnosticsConfig(record_every=2000))
        assert bound in err.value.args[0]
        assert 0 < int(err.value.args[0].split()[1].rstrip(":")) < 10
        # the error carries the step and the state at which it was raised
        assert err.value.step == int(err.value.args[0].split()[1].rstrip(":"))
        assert np.array_equal(err.value.x, np.full(3, 1.5 ** err.value.step))


def test_one_norm_on_many_commodities_is_not_stopped_as_divergent(tokyo):
    # With 93 commodities the one-norm kind's Lyapunov value does not fall
    # monotonically, and its cost passes 2 L(x0) near t = 0.85 (step 17
    # here) in a run that converges; the flow bound holds throughout.
    spec = pn.DynamicsSpec(kind=K.ONE_NORM, h=0.05, max_steps=200)
    x0 = tokyo.sample_x0(seed=0)
    traj = pn.run(tokyo.instance, x0, spec, pn.DiagnosticsConfig(record_every=10))
    assert traj.status == pn.TerminalStatus.MAX_STEPS and traj.steps == 200
    assert max(r.cost for r in traj.records) > 2 * traj.records[0].lyapunov
    limit = np.maximum(x0, sum(pn.max_flow_bound(tokyo.instance)))
    assert all(np.all(r.x <= limit) for r in traj.records)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.sampled_from([0.05, 0.3, 0.9]))
def test_one_norm_capacities_stay_within_the_flow_bound(seed, h):
    # x+ = max((1 - h) x + h ||Q_e||_1, floor) and ||Q_e||_1 <= sum_i f_i
    rng = np.random.default_rng(seed)
    inst = random_graph_instance(rng, k_max=4)
    x0 = np.exp(rng.uniform(-3, 3, inst.m))
    spec = pn.DynamicsSpec(kind=K.ONE_NORM, h=h, max_steps=30)
    traj = pn.run(inst, x0, spec)
    limit = np.maximum(x0, sum(pn.max_flow_bound(inst)))
    for r in traj.records:
        assert np.all(r.x <= limit * (1 + 1e-9))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 4))
def test_blocked_reductions_equal_the_whole_array_formulas(seed, rows):
    # Blocks of two rows or more are multiplied by the same kernel as the
    # whole m x k array, so the one-norm norms are exactly the ones it
    # gives, and the flows at every record keep within the flow bound.
    rng = np.random.default_rng(seed)
    inst = random_graph_instance(rng, n_max=12, k_max=6)
    b1 = np.abs(inst.B).sum(axis=0)
    spec = pn.DynamicsSpec(kind=K.ONE_NORM, h=0.3, max_steps=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pn.electrical, "ROW_BLOCK_BYTES", 8 * inst.k * rows)
        traj = pn.run(inst, np.exp(rng.uniform(-3, 3, inst.m)), spec)
        for r in traj.records:
            sol = pn.solve_commodities(inst, r.x)
            Lambda = sol.drops @ sol.W
            sizes = [block.shape[0] for _, block in sol.lambda_blocks()]
            assert sum(sizes) == inst.m
            assert min(sizes) >= 2 and max(sizes) <= rows + 1
            assert np.array_equal(pn.lambda_norms(sol, K.ONE_NORM),
                                  np.abs(Lambda).sum(axis=1))
            assert (np.abs(Lambda) * r.x[:, None] / b1).max() <= 1.0 + 1e-9
            assert "Lambda" not in vars(sol)


def test_run_keeps_no_edges_by_commodities_array(tokyo):
    # The demands repeated double k and keep the 19 basis columns of the
    # solve; the run's traced peak must grow by less than the m x k array
    # that the added commodities' flows would take.
    inst = tokyo.instance
    doubled = pn.Instance(A=inst.A, c=inst.c, B=np.hstack([inst.B, inst.B]),
                          edge_meta=inst.edge_meta, node_ids=inst.node_ids)
    x0 = tokyo.sample_x0(seed=0)
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.05, max_steps=30)
    diag = pn.DiagnosticsConfig(record_every=10)

    def traced_peak(instance) -> int:
        first = pn.run(instance, x0, spec, diag)  # builds the per-instance solver
        assert first.final_solution.W.shape[0] == 19
        tracemalloc.start()
        try:
            pn.run(instance, x0, spec, diag)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = traced_peak(doubled) - traced_peak(inst)
    assert growth < inst.m * inst.k * np.dtype(float).itemsize


def test_run_computes_edge_norms_once_per_step(ring, monkeypatch):
    calls = []
    original = pn.dynamics.lambda_norms

    def counted(solution, kind):
        calls.append(kind)
        return original(solution, kind)

    monkeypatch.setattr(pn.dynamics, "lambda_norms", counted)
    for kind in (K.TWO_NORM, K.ONE_NORM):
        calls.clear()
        spec = pn.DynamicsSpec(kind=kind, h=0.05, max_steps=40, stop_tol=1e-12)
        traj = pn.run(ring.instance, ring.sample_x0(seed=3), spec,
                      pn.DiagnosticsConfig(record_every=100))
        assert traj.steps == 40
        assert calls == [kind] * 41
        assert "Lambda" not in vars(traj.final_solution)


def _blas_thread_counts(controls) -> list[int]:
    return [get() for get, _ in controls]


@pytest.fixture
def blas_two_threads():
    """Every OpenBLAS the solver controls at 2 threads; counts restored after."""
    controls = pn.electrical._openblas_controls()
    if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        assert controls, "numpy links OpenBLAS but no thread control was found"
    before = _blas_thread_counts(controls)
    for _, set_threads in controls:
        set_threads(2)
    yield controls
    for (_, set_threads), count in zip(controls, before):
        set_threads(count)


def _record_blas_at_factor(monkeypatch, controls) -> list[list[int]]:
    seen = []
    factor = pn.electrical._Solver.factor

    def recorded(solver, x):
        seen.append(_blas_thread_counts(controls))
        return factor(solver, x)

    monkeypatch.setattr(pn.electrical._Solver, "factor", recorded)
    return seen


def test_run_solves_with_one_blas_thread_and_restores(ring, monkeypatch,
                                                      blas_two_threads):
    seen = _record_blas_at_factor(monkeypatch, blas_two_threads)
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.5, max_steps=5, stop_tol=1e-12)
    traj = pn.run(ring.instance, np.ones(3), spec)
    assert traj.steps == 5 and len(seen) == 6
    assert seen == [[1] * len(blas_two_threads)] * 6
    assert _blas_thread_counts(blas_two_threads) == [2] * len(blas_two_threads)


def test_run_restores_blas_threads_after_divergence(ring, monkeypatch,
                                                    blas_two_threads):
    seen = _record_blas_at_factor(monkeypatch, blas_two_threads)
    monkeypatch.setattr(pn.dynamics, "rhs",
                        lambda instance, x, solution, spec, **kw: np.asarray(x))
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.5, max_steps=10_000)
    with pytest.raises(DivergenceError):
        pn.run(ring.instance, np.ones(3), spec)
    assert seen and all(counts == [1] * len(blas_two_threads) for counts in seen)
    assert _blas_thread_counts(blas_two_threads) == [2] * len(blas_two_threads)


def test_single_threaded_blas_is_noop_without_controls(ring, monkeypatch,
                                                       blas_two_threads):
    monkeypatch.setattr(pn.electrical, "_openblas_controls", lambda: ())
    seen = _record_blas_at_factor(monkeypatch, blas_two_threads)
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.5, max_steps=3, stop_tol=1e-12)
    pn.run(ring.instance, np.ones(3), spec)
    assert seen == [[2] * len(blas_two_threads)] * 4
