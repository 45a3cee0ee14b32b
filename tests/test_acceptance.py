"""End-to-end acceptance checks against known equilibria and invariants.

Each test prints one PASS line with the measured quantities; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The bow-tie and grid
runs take a few minutes in total.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import physanet as pn
from physanet.dynamics import DynamicsKind, GFunction

K = DynamicsKind
SQRT6 = math.sqrt(6.0)
Z_TWO = math.sqrt(2.0 / 3.0)   # ring two-norm equilibrium capacity
Z_ONE = 4.0 / 3.0              # ring one-norm equilibrium capacity
# Two-norm equilibrium of the bow-tie without its middle edge (derived in
# criterion 07); criterion 06 reuses its cost once the middle edge is unused.
BOWTIE_A = 0.5 + SQRT6 / 24.0                  # share on the direct edge
BOWTIE_X_TOP = 5.0 / (4.0 * math.sqrt(3.0))    # edges 0-1 and 4-5
BOWTIE_X_UNIT = math.sqrt(2.0) / 2.0 - math.sqrt(3.0) / 12.0  # cost-1 edges
BOWTIE_COST = 8.0 * math.sqrt(3.0) + 2.0 * math.sqrt(2.0)

# Every incidence-instance trajectory produced here is collected so the flow
# bound |Q_ei| <= ||b_i||_1 can be asserted across all of them at the end.
_RUNS: list[tuple[str, pn.Trajectory]] = []


def run_and_register(name, instance, x0, spec, record_every=200) -> pn.Trajectory:
    traj = pn.run(instance, x0, spec,
                  pn.DiagnosticsConfig(record_every=record_every))
    _RUNS.append((name, traj))
    return traj


@pytest.fixture(scope="module")
def ring():
    return pn.ring_scenario()


@pytest.fixture(scope="module")
def ring_runs(ring):
    runs = {K.TWO_NORM: [], K.ONE_NORM: []}
    for kind in runs:
        for seed in range(5):
            spec = pn.DynamicsSpec(kind=kind, h=0.02)
            t0 = time.perf_counter()
            traj = run_and_register(f"ring-{kind.value}-{seed}", ring.instance,
                                    ring.sample_x0(seed=seed), spec)
            runs[kind].append((traj, time.perf_counter() - t0))
    return runs


def bowtie_run(kind, L, h=0.05, stop_tol=1e-6, max_steps=100_000, seed=0):
    scen = pn.bowtie_scenario(L)
    spec = pn.DynamicsSpec(kind=kind, h=h, stop_tol=stop_tol,
                           max_steps=max_steps)
    traj = run_and_register(f"bowtie-{kind.value}-L{L:g}", scen.instance,
                            scen.sample_x0(seed=seed), spec, record_every=1000)
    x = traj.final_x
    sol = pn.solve_commodities(scen.instance, x)
    idx = pn.bowtie_edge_indices(scen.instance)
    q = {"t": float(sol.Q[idx["top"], 0]),
         "b": float(sol.Q[idx["bottom"], 0]),
         "m": float(sol.Q[idx["middle"], 0]) if "middle" in idx else 0.0}
    cost = pn.network_cost(scen.instance, x)
    energy = pn.lyapunov(scen.instance, x, sol).energy
    return traj, q, cost, energy


def test_criterion_01_ring_equilibria(ring_runs):
    for kind, target in ((K.TWO_NORM, Z_TWO), (K.ONE_NORM, Z_ONE)):
        for traj, elapsed in ring_runs[kind]:
            assert traj.status == pn.TerminalStatus.CONVERGED
            assert elapsed < 5.0, f"{kind.value} run took {elapsed:.1f}s"
            err = np.abs(traj.final_x - target).max() / target
            assert err <= 0.01, f"{kind.value}: z off by {err:.2%}"
    worst2 = max(np.abs(t.final_x - Z_TWO).max() / Z_TWO
                 for t, _ in ring_runs[K.TWO_NORM])
    worst1 = max(np.abs(t.final_x - Z_ONE).max() / Z_ONE
                 for t, _ in ring_runs[K.ONE_NORM])
    print(f"\nCRITERION 1 PASS: ring two-norm within {worst2:.2e} of {Z_TWO:.5f}, "
          f"one-norm within {worst1:.2e} of {Z_ONE:.5f} (5 seeds each, < 5 s)")


def test_criterion_02_cost_equals_energy(ring, ring_runs):
    checks = []
    traj = ring_runs[K.TWO_NORM][0][0]
    checks.append(("ring", traj.final.cost, traj.final.energy))

    for L in (7.0, 9.0, 11.0):
        traj, _, cost, energy = bowtie_run(K.TWO_NORM, L)
        assert traj.status == pn.TerminalStatus.CONVERGED
        checks.append((f"bowtie-L{L:g}", cost, energy))

    sq = [(0.5, 0.5), (10.5, 0.5), (10.5, 10.5), (0.5, 10.5)]
    grid, _ = pn.grid_region_scenario(sq, 1.0, seed=3)
    rng = np.random.default_rng(11)
    ids = grid.node_ids
    pairs = set()
    while len(pairs) < 5:
        u, v = rng.choice(len(ids), size=2, replace=False)
        pairs.add((min(u, v), max(u, v)))
    demands = [pn.DemandSpec(ids[u], ids[v], 1.0) for u, v in sorted(pairs)]
    inst = pn.graph_instance(list(grid.node_ids), list(grid.edges), demands)
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.5, stop_tol=1e-6,
                           max_steps=120_000)
    traj = run_and_register("grid-10x10", inst, np.full(inst.m, 0.5), spec,
                            record_every=2000)
    assert traj.status == pn.TerminalStatus.CONVERGED
    checks.append(("grid-10x10", traj.final.cost, traj.final.energy))

    worst = 0.0
    for name, cost, energy in checks:
        rel = abs(cost - energy) / cost
        worst = max(worst, rel)
        assert rel <= 1e-4, f"{name}: |C-E|/C = {rel:.2e}"
    print(f"\nCRITERION 2 PASS: |C-E|/C <= {worst:.2e} on ring, "
          "bowtie L in {7,9,11}, 10x10 grid")


def test_criterion_03_lyapunov_monotonicity(ring):
    specs = [("two-norm", pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02))]
    for g in ("identity", "reactive:0.5", "reactive-squared:0.5", "power:2",
              "saturating:1,2"):
        specs.append((f"generalized-{g}",
                      pn.DynamicsSpec(kind=K.GENERALIZED,
                                      g=GFunction.parse(g), h=0.02)))
    for beta in (0.5, 1.5):
        specs.append((f"beta-{beta}",
                      pn.DynamicsSpec(kind=K.BETA, beta=beta, h=0.02)))
    specs.append(("mirror", pn.DynamicsSpec(kind=K.MIRROR, h=0.02)))

    worst = -math.inf
    for name, spec in specs:
        traj = run_and_register(f"mono-{name}", ring.instance,
                                ring.sample_x0(seed=1), spec, record_every=1)
        assert traj.status == pn.TerminalStatus.CONVERGED, name
        rep = pn.check_lyapunov_monotone(traj)
        worst = max(worst, rep.max_excess)
        assert rep.violations == 0, f"{name}: {rep.violations} increases"
    # runs registered by earlier criteria (coarser records, accumulated slack)
    for name, traj in _RUNS:
        if traj.spec.kind == K.ONE_NORM and traj.instance.k > 1:
            continue  # no decrease guarantee for the one-norm with k > 1
        rep = pn.check_lyapunov_monotone(traj)
        assert rep.violations == 0, f"{name}: {rep.violations} increases"
    print(f"\nCRITERION 3 PASS: no Lyapunov increase beyond per-step slack "
          f"(max excess {worst:.2e}) for two-norm, 5 generalized variants, "
          "beta 0.5/1.5, mirror")


def test_criterion_04_gradient_oracle():
    from conftest import random_graph_instance
    rng = np.random.default_rng(77)
    worst_plain = worst_beta = 0.0
    for i in range(20):
        inst = random_graph_instance(rng, n_max=8, k_max=3)
        x = rng.uniform(0.3, 2.0, size=inst.m)
        sol = pn.solve_commodities(inst, x)
        an = pn.lyapunov(inst, x, sol).gradient
        fd = pn.finite_difference_gradient(inst, x, 1e-5)
        err = np.abs(fd - an).max() / max(np.abs(an).max(), 1e-12)
        worst_plain = max(worst_plain, err)
        beta = float(rng.uniform(0.3, 1.7))
        an_b = pn.lyapunov(inst, x, sol, beta=beta).gradient
        fd_b = pn.finite_difference_gradient(inst, x, 1e-5, beta=beta)
        err_b = np.abs(fd_b - an_b).max() / max(np.abs(an_b).max(), 1e-12)
        worst_beta = max(worst_beta, err_b)
        assert err <= 1e-5 and err_b <= 1e-5, f"instance {i}: {err:.1e}/{err_b:.1e}"
    print(f"\nCRITERION 4 PASS: gradient vs central differences, max rel err "
          f"{worst_plain:.2e} (plain), {worst_beta:.2e} (beta), 20 instances")


def test_criterion_05_duality(ring):
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02, stop_tol=1e-8)
    traj = run_and_register("ring-certify", ring.instance,
                            ring.sample_x0(seed=2), spec)
    sol = pn.solve_commodities(ring.instance, traj.final_x)
    cert = pn.certificate(ring.instance, traj.final_x, sol)
    vals = {"primal": cert.primal, "dual": cert.dual, "lyapunov": cert.lyapunov}
    for name, v in vals.items():
        assert abs(v - SQRT6) <= 1e-3, f"{name} = {v}"
    assert max(vals.values()) - min(vals.values()) <= 1e-3

    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(10):
        n = int(rng.integers(5, 13))
        nodes = [f"v{j}" for j in range(n)]
        edges = []
        for j in range(1, n):
            edges.append((nodes[int(rng.integers(0, j))], nodes[j],
                          float(rng.uniform(0.5, 2.0))))
        for _ in range(n):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((nodes[int(u)], nodes[int(v)],
                              float(rng.uniform(0.5, 2.0))))
        u, v = rng.choice(n, size=2, replace=False)
        inst = pn.graph_instance(nodes, edges,
                                 [pn.DemandSpec(nodes[int(u)], nodes[int(v)], 1.0)])
        sp = pn.shortest_path_length(inst, nodes[int(u)], nodes[int(v)])
        spec1 = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.05, stop_tol=1e-8)
        traj1 = run_and_register(f"sp-{i}", inst, np.full(inst.m, 1.0), spec1,
                                 record_every=500)
        assert traj1.status == pn.TerminalStatus.CONVERGED
        c1 = pn.certificate(inst, traj1.final_x,
                            pn.solve_commodities(inst, traj1.final_x))
        err = max(abs(c1.primal - sp), abs(c1.dual - sp))
        worst = max(worst, err)
        assert err <= 1e-3, f"graph {i}: certificate off by {err:.2e}"
    print(f"\nCRITERION 5 PASS: ring certificate within 1e-3 of sqrt(6); "
          f"k=1 certificates within {worst:.2e} of shortest-path lengths "
          "(10 random graphs)")


def test_criterion_06_bowtie_cost_table_and_regimes():
    # converged-regime costs (middle-only analytic value is 4 + L sqrt(2))
    _, _, cost8, _ = bowtie_run(K.TWO_NORM, 8.0)
    assert abs(cost8 - 15.3) <= 0.02 * 15.3, f"L=8.0 cost {cost8:.3f}"
    traj98, _, cost98, _ = bowtie_run(K.TWO_NORM, 9.8, max_steps=60_000)
    assert abs(cost98 - BOWTIE_COST) <= 0.02 * BOWTIE_COST, \
        f"L=9.8 cost {cost98:.3f}"

    shares = {}
    for kind, L, want_middle in ((K.TWO_NORM, 7.0, True),
                                 (K.TWO_NORM, 8.0, True),
                                 (K.TWO_NORM, 10.0, False),
                                 (K.ONE_NORM, 7.0, True),
                                 (K.ONE_NORM, 8.0, True),
                                 (K.ONE_NORM, 10.3, False)):
        _, q, _, _ = bowtie_run(kind, L)
        total = abs(q["t"]) + abs(q["m"]) + abs(q["b"])
        share = abs(q["m"]) / total
        shares[(kind.value, L)] = share
        if want_middle:
            assert share > 0.99, f"{kind.value} L={L}: middle share {share:.4f}"
        else:
            assert share < 0.01, f"{kind.value} L={L}: middle share {share:.4f}"
    print(f"\nCRITERION 6 PASS: costs {cost8:.2f}@L=8 / {cost98:.2f}@L=9.8; "
          f"middle shares {{(kind, L): share}} = "
          + ", ".join(f"{k}={v:.4f}" for k, v in shares.items()))


def test_criterion_07_bowtie_no_middle_analytics():
    """Closed-form two-norm equilibrium of the bow-tie without its middle edge.

    The instance is the 6-cycle 0-1-3-5-4-2-0: two cost-10 edges (0-1, 4-5)
    and four cost-1 edges.  Each demand has two paths, its direct edge (cost
    10) and the long route through the other pair's edge (cost 14).  If each
    commodity sends ``a`` on its direct edge, a cost-10 edge carries the flow
    vector (a, 1-a) and a cost-1 edge carries (1-a, -(1-a)), so the
    group-norm cost is

        20 sqrt(a^2 + (1-a)^2) + 4 sqrt(2) (1-a).

    It is convex and symmetric in the two commodities; its stationary point is
    a = 1/2 + sqrt(6)/24, giving x_top = 5/(4 sqrt(3)) on 0-1 and 4-5,
    x_unit = sqrt(2)/2 - sqrt(3)/12 on the cost-1 edges, and
    cost = energy = 8 sqrt(3) + 2 sqrt(2) ~ 16.6848.  Equal capacities on all
    six edges are never a fixed point.
    """
    scen = pn.bowtie_scenario(math.inf)
    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.05, stop_tol=1e-7)
    traj = run_and_register("bowtie-Linf", scen.instance,
                            scen.sample_x0(seed=0), spec, record_every=500)
    assert traj.status == pn.TerminalStatus.CONVERGED
    x = traj.final_x
    cost = pn.network_cost(scen.instance, x)
    sol = pn.solve_commodities(scen.instance, x)
    energy = pn.lyapunov(scen.instance, x, sol).energy
    baseline = pn.shortest_path_union_baseline(scen.instance)

    assert cost < 20.0 and cost + energy < baseline.total  # sharing pays off

    labels = scen.instance.edge_labels()
    for e, label in enumerate(labels):
        want = BOWTIE_X_TOP if label in ("0-1", "4-5") else BOWTIE_X_UNIT
        err = abs(x[e] - want) / want
        assert err <= 1e-5, f"edge {label}: x={x[e]:.7f}, want {want:.7f}"
    top = pn.bowtie_edge_indices(scen.instance)["top"]
    for i, want in ((0, BOWTIE_A), (1, 1.0 - BOWTIE_A)):
        q = abs(float(sol.Q[top, i]))
        assert abs(q - want) / want <= 1e-5, \
            f"top-edge flow of commodity {i}: {q:.7f}, want {want:.7f}"
    assert abs(cost - BOWTIE_COST) / BOWTIE_COST <= 1e-5, \
        f"cost {cost:.7f}, want 8 sqrt(3) + 2 sqrt(2) = {BOWTIE_COST:.7f}"
    assert abs(cost - energy) / cost <= 1e-5, f"cost {cost}, energy {energy}"
    print(f"\nCRITERION 7 PASS: no-middle bow-tie at a={BOWTIE_A:.6f}, "
          f"x_top={BOWTIE_X_TOP:.6f}, x_unit={BOWTIE_X_UNIT:.6f}, "
          f"cost {cost:.6f} = 8 sqrt(3) + 2 sqrt(2) = energy {energy:.6f}")


def test_criterion_08_beta_fixed_point_identities(ring):
    beta = 1.5
    spec = pn.DynamicsSpec(kind=K.BETA, beta=beta, h=0.02, stop_tol=1e-8)
    traj = run_and_register("ring-beta-1.5", ring.instance,
                            ring.sample_x0(seed=1), spec)
    assert traj.status == pn.TerminalStatus.CONVERGED
    x = traj.final_x
    assert np.all(x > 1e-6), "expected the all-edges-active equilibrium"
    sol = pn.solve_commodities(ring.instance, x)
    qsq = (sol.Q ** 2).sum(axis=1)
    per_edge = np.abs(x ** (3.0 - beta) - qsq) / qsq
    assert per_edge.max() <= 1e-3, f"per-edge identity off by {per_edge.max():.2e}"
    tilted = float(ring.instance.c @ x ** (2.0 - beta))
    energy = float(sol.energy_per_commodity.sum())
    agg = abs(tilted - energy) / energy
    assert agg <= 1e-3, f"aggregate identity off by {agg:.2e}"
    print(f"\nCRITERION 8 PASS: beta=1.5 identities, per-edge {per_edge.max():.2e}, "
          f"aggregate {agg:.2e}")


def test_criterion_09_mirror_descent_bound(ring):
    spec = pn.DynamicsSpec(kind=K.MIRROR, h=0.005, stop_tol=1e-9,
                           max_steps=100_000)
    traj = run_and_register("ring-mirror", ring.instance,
                            ring.sample_x0(seed=0), spec, record_every=10)
    _, x_star = pn.min_lyapunov_search(ring.instance, mode="symmetric")
    report = pn.bregman_bound_check(traj, x_star, slack=0.2)
    assert report.passed, f"max ratio {report.max_ratio:.3f} > 1.2"
    print(f"\nCRITERION 9 PASS: t (L(x(t)) - L*) <= {report.max_ratio:.3f} "
          f"x D_h for all recorded t >= 1 (D_h = {report.divergence:.4f})")


def test_criterion_10_flow_bound_on_all_runs(ring):
    if not _RUNS:  # safety when this test is selected alone
        spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.02)
        run_and_register("ring-solo", ring.instance, ring.sample_x0(seed=0),
                         spec, record_every=10)
    # max |Q_ei| / ||b_i||_1 at each record, from a solve at its x
    worst = 0.0
    count = 0
    for name, traj in _RUNS:
        inst = traj.instance
        if not inst.is_incidence or inst.k == 0:
            continue
        b1 = np.abs(inst.B).sum(axis=0)
        for rec in traj.records:
            sol = pn.solve_commodities(inst, rec.x)
            ratio = max(float((np.abs(block) * rec.x[rows, None] / b1).max())
                        for rows, block in sol.lambda_blocks())
            assert ratio <= 1.0 + 1e-6, name
            worst = max(worst, ratio)
            count += 1
    print(f"\nCRITERION 10 PASS: |Q_ei| <= ||b_i||_1 at {count} recorded "
          f"steps across {len(_RUNS)} runs (max ratio {worst:.6f})")


def test_criterion_11_synthetic_grid_study():
    poly = pn.synthetic_region_polygon()
    grid, _ = pn.grid_region_scenario(poly, 1.0, seed=7)
    terminals = pn.pick_terminals(grid, 20)
    demands = pn.demands_by_threshold(grid, terminals)
    inst = pn.graph_instance(list(grid.node_ids), list(grid.edges), demands)
    assert 330 <= inst.n <= 470 and len(terminals.terminals) == 20
    assert any(d.amount == 7.0 for d in demands)

    spec = pn.DynamicsSpec(kind=K.TWO_NORM, h=0.5, stop_tol=1e-6,
                           max_steps=50_000)
    t0 = time.perf_counter()
    traj = run_and_register("grid-synthetic", inst, np.full(inst.m, 0.5),
                            spec, record_every=2000)
    elapsed = time.perf_counter() - t0
    assert traj.status == pn.TerminalStatus.CONVERGED, (
        f"residual {traj.final.residual:.2e} after {traj.steps} steps")
    assert traj.steps <= 50_000
    assert elapsed < 600.0, f"took {elapsed:.0f}s"

    pruned = pn.prune_degree_one(inst, traj.final_x,
                                 [t for t, _ in terminals.terminals],
                                 capacity_threshold=1e-3)
    cost, energy = traj.final.cost, traj.final.energy
    baseline = pn.shortest_path_union_baseline(inst)
    assert cost + energy <= baseline.total
    print(f"\nCRITERION 11 PASS: {inst.n} nodes / {inst.k} demands converged "
          f"in {traj.steps} steps ({elapsed:.0f}s), pruned to "
          f"{pruned.instance.n} nodes / {pruned.instance.m} edges, "
          f"C+E = {cost + energy:.1f} <= baseline {baseline.total:.1f}")
