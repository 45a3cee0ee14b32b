from __future__ import annotations

import math

import numpy as np
import pytest

import physanet as pn
from physanet.dynamics import DynamicsKind
from physanet.errors import ScenarioError, SolverError

from conftest import random_graph_instance

K = DynamicsKind
SQRT6 = math.sqrt(6.0)
Z_STAR = math.sqrt(2.0 / 3.0)


def solved(instance, x):
    return pn.solve_commodities(instance, x)


def test_lyapunov_ring_at_optimum(ring):
    x = np.full(3, Z_STAR)
    rep = pn.lyapunov(ring.instance, x, solved(ring.instance, x))
    assert np.isclose(rep.value, SQRT6)
    assert np.abs(rep.gradient).max() <= 1e-10
    assert np.isclose(rep.value, 0.5 * (rep.cost + rep.energy))


def test_lyapunov_ring_at_unit_capacity(ring):
    # closed form along the symmetric ray: L(z) = (3z + 2/z)/2, so the
    # per-edge slope at z=1 is d/dz / 3 = (3 - 2/z^2)/6 = 1/6 > 0
    x = np.ones(3)
    rep = pn.lyapunov(ring.instance, x, solved(ring.instance, x))
    assert np.isclose(rep.value, 2.5)
    assert np.allclose(rep.gradient, 1 / 6)


def test_lyapunov_single_edge(single_edge):
    rep = pn.lyapunov(single_edge, np.ones(1), solved(single_edge, np.ones(1)))
    assert np.isclose(rep.value, 1.0)
    assert np.abs(rep.gradient).max() <= 1e-12


def test_lyapunov_gradient_is_computed_on_first_access(ring):
    x = np.array([0.4, 1.1, 0.7])
    sol = solved(ring.instance, x)
    rep = pn.lyapunov(ring.instance, x, sol, beta=0.7)
    assert np.isclose(rep.value, 0.5 * (rep.cost + rep.energy))
    assert "lambda_sq_norms" not in vars(sol)
    x[:] = 1.0  # the report keeps its own copy of x
    nrm2 = pn.dynamics.lambda_norms(sol, K.TWO_NORM) ** 2
    expected = 0.5 * ring.instance.c * (np.array([0.4, 1.1, 0.7]) ** 0.3 - nrm2)
    assert np.array_equal(rep.gradient, expected)
    assert rep.gradient is rep.gradient


def test_beta_lyapunov_reduces_to_plain_at_beta_one():
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst = random_graph_instance(rng)
        x = rng.uniform(0.3, 2.0, size=inst.m)
        sol = solved(inst, x)
        a = pn.lyapunov(inst, x, sol)
        b = pn.lyapunov(inst, x, sol, beta=1.0)
        assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(a.value))
        assert np.abs(a.gradient - b.gradient).max() <= 1e-12


def test_beta_lyapunov_single_edge_value(single_edge):
    x = np.ones(1)
    rep = pn.lyapunov(single_edge, x, solved(single_edge, x), beta=1.5)
    # 0.5 * (c x^0.5 / 0.5 + b^T p) = 0.5 * (2 + 1)
    assert np.isclose(rep.value, 1.5)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(8):
        inst = random_graph_instance(rng)
        x = rng.uniform(0.3, 2.0, size=inst.m)
        sol = solved(inst, x)
        an = pn.lyapunov(inst, x, sol).gradient
        fd = pn.finite_difference_gradient(inst, x, 1e-5)
        assert np.abs(fd - an).max() <= 1e-5 * max(np.abs(an).max(), 1e-12)
        an_b = pn.lyapunov(inst, x, sol, beta=0.7).gradient
        fd_b = pn.finite_difference_gradient(inst, x, 1e-5, beta=0.7)
        assert np.abs(fd_b - an_b).max() <= 1e-5 * max(np.abs(an_b).max(), 1e-12)


def test_finite_difference_requires_margin(ring):
    with pytest.raises(ScenarioError):
        pn.finite_difference_gradient(ring.instance, np.full(3, 1e-6), 1e-5)


def test_certificate_two_parallel_edges_any_symmetric_state():
    inst = pn.graph_instance(["u", "v"],
                             [("u", "v", 1.0), ("u", "v", 1.0)],
                             [pn.DemandSpec("u", "v", 1.0)])
    for z in (0.3, 1.0, 2.5):
        x = np.full(2, z)
        cert = pn.certificate(inst, x, solved(inst, x))
        assert np.isclose(cert.primal, 1.0)
        assert np.isclose(cert.dual, 1.0)
        assert cert.gap <= 1e-9


def test_certificate_weak_duality_at_arbitrary_states():
    rng = np.random.default_rng(23)
    for _ in range(10):
        inst = random_graph_instance(rng)
        x = rng.uniform(0.2, 2.0, size=inst.m)
        cert = pn.certificate(inst, x, solved(inst, x))
        assert cert.gap >= -1e-8
        assert cert.dual <= cert.lyapunov + 1e-9 * max(1.0, abs(cert.lyapunov))


def test_certificate_ring_converged(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02, stop_tol=1e-8)
    traj = pn.run(ring.instance, ring.sample_x0(seed=2), spec,
                  pn.DiagnosticsConfig(record_every=100))
    cert = pn.certificate(ring.instance, traj.final_x,
                          solved(ring.instance, traj.final_x))
    for value in (cert.primal, cert.dual, cert.lyapunov):
        assert abs(value - SQRT6) <= 1e-3
    assert cert.gap <= 1e-3


def test_certificate_of_zero_drops():
    # without demands every drop is zero and so is the certificate; zero
    # drops paired with demands are degenerate
    nodes, edges = ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)]
    empty = pn.graph_instance(nodes, edges, [])
    x = np.ones(2)
    sol = pn.solve_commodities(empty, x)
    assert sol.drops.shape == (2, 0)
    assert pn.certificate(empty, x, sol) == pn.Certificate(
        primal=0.0, dual=0.0, lyapunov=1.0, gap=0.0, scaling=1.0)
    loaded = pn.graph_instance(nodes, edges, [pn.DemandSpec("a", "c", 1.0)])
    with pytest.raises(SolverError, match="degenerate potentials"):
        pn.certificate(loaded, x, sol)


def test_certificate_matches_shortest_path_single_commodity():
    rng = np.random.default_rng(31)
    for _ in range(3):
        inst = random_graph_instance(rng, n_max=8, k_max=1)
        b = inst.B[:, 0]
        src = inst.node_ids[int(np.argmax(b))]
        dst = inst.node_ids[int(np.argmin(b))]
        amount = float(b.max())
        sp = pn.shortest_path_length(inst, src, dst)
        spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.05, stop_tol=1e-8)
        traj = pn.run(inst, np.full(inst.m, 1.0), spec,
                      pn.DiagnosticsConfig(record_every=500))
        cert = pn.certificate(inst, traj.final_x,
                              solved(inst, traj.final_x))
        assert abs(cert.primal - amount * sp) <= 1e-3 * max(1.0, amount * sp)


def test_gradient_vanishes_at_fixed_points(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02, stop_tol=1e-8)
    traj = pn.run(ring.instance, ring.sample_x0(seed=3), spec,
                  pn.DiagnosticsConfig(record_every=100))
    sol = solved(ring.instance, traj.final_x)
    assert pn.fixed_point_residual(ring.instance, traj.final_x, sol, spec) <= 1e-8
    grad = pn.lyapunov(ring.instance, traj.final_x, sol).gradient
    live = traj.final_x > 1e-6
    assert np.abs(grad[live]).max() <= 1e-7


def test_brute_force_ring_symmetric(ring):
    value, xstar = pn.min_lyapunov_search(ring.instance, mode="symmetric")
    assert abs(value - SQRT6) <= 1e-9
    assert abs(xstar[0] - Z_STAR) <= 1e-6


def test_brute_force_two_edge_family_is_worse():
    # drop one ring edge: along the symmetric ray L(z) = (2z + 4/z)/2,
    # minimized at z = sqrt(2) with value 2 sqrt(2) > sqrt(6)
    inst = pn.graph_instance(["a", "b", "c"],
                             [("a", "b", 1.0), ("b", "c", 1.0)],
                             [pn.DemandSpec("a", "b", 1.0),
                              pn.DemandSpec("a", "c", 1.0),
                              pn.DemandSpec("b", "c", 1.0)])
    value, xstar = pn.min_lyapunov_search(inst, mode="symmetric")
    assert abs(value - 2 * math.sqrt(2)) <= 1e-8
    assert abs(xstar[0] - math.sqrt(2)) <= 1e-5
    assert value > SQRT6


def test_brute_force_single_edge(single_edge):
    value, xstar = pn.min_lyapunov_search(single_edge, mode="full")
    assert abs(value - 1.0) <= 1e-9
    assert abs(xstar[0] - 1.0) <= 1e-5
    # with m <= 4 the default mode is the full search
    auto_value, auto_x = pn.min_lyapunov_search(single_edge)
    assert auto_value == value and np.array_equal(auto_x, xstar)


def test_brute_force_full_matches_symmetric_on_ring(ring):
    full_val = pn.brute_force_min_lyapunov(ring.instance, mode="full")
    assert abs(full_val - SQRT6) <= 1e-6


def test_brute_force_dimension_guard():
    scen = pn.bowtie_scenario(8.0)
    with pytest.raises(ScenarioError):
        pn.brute_force_min_lyapunov(scen.instance, mode="full")
    with pytest.raises(ScenarioError, match="needs m <= 4"):
        pn.brute_force_min_lyapunov(scen.instance)
    with pytest.raises(ScenarioError, match="unknown brute-force mode"):
        pn.brute_force_min_lyapunov(scen.instance, mode="nope")


def test_relative_entropy():
    x = np.array([1.0, 2.0])
    y = np.array([2.0, 2.0])
    expect = 1 * math.log(0.5) - 1 + 2
    assert np.isclose(pn.relative_entropy(x, y), expect)
    assert pn.relative_entropy(y, y) == 0.0
    # zero coordinates of the first argument contribute only the y term
    assert np.isclose(pn.relative_entropy(np.array([0.0, 2.0]), y), 2.0)
    with pytest.raises(ScenarioError):
        pn.relative_entropy(x, np.array([1.0, 0.0]))


def test_bregman_bound_single_edge(single_edge):
    # scalar case with known divergence: D = ln(1/4) - 1 + 4 = 3 - ln 4
    spec = pn.DynamicsSpec(kind=K.MIRROR, h=0.005, stop_tol=1e-10,
                           max_steps=20_000)
    traj = pn.run(single_edge, np.array([4.0]), spec,
                  pn.DiagnosticsConfig(record_every=20))
    report = pn.bregman_bound_check(traj, np.array([1.0]))
    assert np.isclose(report.divergence, 3 - math.log(4.0))
    assert report.passed
    assert report.max_ratio <= 1.2


def test_bregman_bound_trivial_at_start_from_optimum(single_edge):
    spec = pn.DynamicsSpec(kind=K.MIRROR, h=0.005, max_steps=1000,
                           stop_tol=1e-12)
    traj = pn.run(single_edge, np.array([1.0]), spec,
                  pn.DiagnosticsConfig(record_every=20))
    report = pn.bregman_bound_check(traj, np.array([1.0]))
    assert report.divergence <= 1e-12
    assert report.passed


def test_bregman_bound_requires_mirror_kind(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02, max_steps=100,
                           stop_tol=1e-12)
    traj = pn.run(ring.instance, ring.sample_x0(seed=0), spec)
    with pytest.raises(ScenarioError):
        pn.bregman_bound_check(traj, np.full(3, Z_STAR))


def test_monotonicity_checker_flags_artificial_increase(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02, max_steps=50,
                           stop_tol=1e-12)
    traj = pn.run(ring.instance, ring.sample_x0(seed=0), spec)
    ok = pn.check_lyapunov_monotone(traj)
    assert ok.max_excess <= 0
    bad = pn.Trajectory(instance=traj.instance, spec=spec,
                        records=[traj.records[0],
                                 traj.records[0].__class__(
                                     t=1.0, x=traj.records[0].x,
                                     lyapunov=traj.records[0].lyapunov + 1.0,
                                     cost=0.0, energy=0.0, residual=1.0)],
                        status=traj.status, steps=2)
    assert pn.check_lyapunov_monotone(bad).violations == 1
