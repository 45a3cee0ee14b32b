from __future__ import annotations

import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import physanet as pn
from physanet.errors import SolverError

from conftest import random_graph_instance


def test_single_edge_laplacian(single_edge):
    L = pn.assemble_laplacian(single_edge, np.array([1.0]))
    assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])


def test_triangle_laplacian_symmetric(ring):
    z = 0.7
    L = pn.assemble_laplacian(ring.instance, np.full(3, z))
    assert np.allclose(np.diag(L), 2 * z)
    assert np.allclose(L - np.diag(np.diag(L)),
                       -z * (np.ones((3, 3)) - np.eye(3)))
    assert np.allclose(L, L.T)


def test_sparse_and_dense_assembly_agree(factorization):
    x = np.array([0.3, 1.1, 0.8])
    Ld = pn.assemble_laplacian(pn.ring_scenario().instance, x)
    factorization("splu")
    Ls = pn.assemble_laplacian(pn.ring_scenario().instance, x)
    assert isinstance(Ld, np.ndarray) and Ls.format == "csc"
    assert np.allclose(Ld, Ls.toarray())


def test_grounded_assembly_is_principal_submatrix(factorization):
    # parallel edges share pattern slots; both groundings, both formats
    rng = np.random.default_rng(11)

    def graph():
        return pn.graph_instance(["a", "b", "c", "d"],
                                 [("a", "b", 1.0), ("a", "b", 2.0), ("b", "c", 0.5),
                                  ("c", "d", 1.5), ("d", "a", 1.0)],
                                 [pn.DemandSpec("a", "c", 1.0)])

    inst = graph()
    raw = pn.Instance(A=inst.A.toarray(), c=inst.c.copy(), B=inst.B.copy())
    x = rng.uniform(0.2, 2.0, size=inst.m)
    full = pn.assemble_laplacian(inst, x)
    grounded = {}
    for case in (inst, raw):
        for variant in (0, 1):
            plan = pn.default_grounding(case, variant)
            keep = np.setdiff1d(np.arange(case.n), plan.nodes)
            grounded[case, variant] = pn.assemble_laplacian(case, x, grounding=plan)
            assert np.allclose(grounded[case, variant], full[np.ix_(keep, keep)],
                               rtol=1e-15, atol=0)
    factorization("splu")
    sparse_inst = graph()
    for variant in (0, 1):
        plan = pn.default_grounding(sparse_inst, variant)
        sparse = pn.assemble_laplacian(sparse_inst, x, grounding=plan)
        assert sparse.format == "csc"
        assert np.array_equal(sparse.toarray(), grounded[inst, variant])


def test_single_edge_solve(single_edge):
    sol = pn.solve_commodities(single_edge, np.array([1.0]))
    assert np.isclose(sol.Q[0, 0], 1.0)
    assert np.isclose(sol.Lambda[0, 0], 1.0)
    assert np.isclose(sol.energy_per_commodity[0], 1.0)


def test_triangle_split_two_thirds(ring):
    # unit demand between adjacent nodes on an equal-capacity triangle:
    # direct edge carries twice the flow of the two-edge detour
    inst = pn.graph_instance(["a", "b", "c"],
                             [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)],
                             [pn.DemandSpec("a", "b", 1.0)])
    sol = pn.solve_commodities(inst, np.full(3, 0.9))
    q = np.abs(sol.Q[:, 0])
    assert np.isclose(q[0], 2 / 3)
    assert np.allclose(np.sort(q), [1 / 3, 1 / 3, 2 / 3])


def test_parallel_edges_split_evenly():
    inst = pn.graph_instance(["u", "v"],
                             [("u", "v", 1.0), ("u", "v", 1.0)],
                             [pn.DemandSpec("u", "v", 1.0)])
    sol = pn.solve_commodities(inst, np.array([0.4, 0.4]))
    assert np.allclose(sol.Q[:, 0], [0.5, 0.5])


def test_flow_conservation_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_graph_instance(rng)
        x = rng.uniform(0.2, 2.0, size=inst.m)
        sol = pn.solve_commodities(inst, x)
        assert np.abs(inst.A @ sol.Q - inst.B).max() <= 1e-9 * max(
            1.0, np.abs(inst.B).max())


def test_grounding_independence():
    rng = np.random.default_rng(19)
    for _ in range(10):
        inst = random_graph_instance(rng)
        x = rng.uniform(0.2, 2.0, size=inst.m)
        s0 = pn.solve_commodities(inst, x, grounding=pn.default_grounding(inst, 0))
        s1 = pn.solve_commodities(inst, x, grounding=pn.default_grounding(inst, 1))
        scale = max(1.0, np.abs(s0.Q).max())
        assert np.abs(s0.Q - s1.Q).max() <= 1e-8 * scale
        assert np.abs(s0.energy_per_commodity - s1.energy_per_commodity).max() \
            <= 1e-8 * max(1.0, np.abs(s0.energy_per_commodity).max())


def test_grounded_solution_unique(factorization):
    # same grounding through both factorizations gives the same potentials
    x = np.array([0.5, 1.0, 1.5])
    P = {}
    for kind in ("splu", "dense"):
        factorization(kind)
        inst = pn.ring_scenario().instance
        P[kind] = pn.solve_commodities(inst, x, grounding=pn.default_grounding(inst)).P
    assert np.abs(P["splu"] - P["dense"]).max() <= 1e-8


def test_energy_identity():
    rng = np.random.default_rng(3)
    for _ in range(8):
        inst = random_graph_instance(rng)
        x = rng.uniform(0.2, 2.0, size=inst.m)
        sol = pn.solve_commodities(inst, x)
        # sum_i b^T p = sum_e c_e x_e ||Lambda_e||^2  (no division by x)
        direct = float(sol.energy_per_commodity.sum())
        via_drops = float((inst.c * x * (sol.Lambda ** 2).sum(axis=1)).sum())
        assert abs(direct - via_drops) <= 1e-8 * max(1.0, abs(direct))
        assert direct >= -1e-12


def test_energy_minimality_gradient_orthogonal_to_circulations():
    rng = np.random.default_rng(31)
    for _ in range(8):
        inst = random_graph_instance(rng, k_max=1)
        x = rng.uniform(0.3, 2.0, size=inst.m)
        sol = pn.solve_commodities(inst, x)
        kernel = scipy.linalg.null_space(inst.A.toarray())
        if kernel.size == 0:
            continue
        grad = (inst.c / x) * sol.Q[:, 0]
        assert np.abs(kernel.T @ grad).max() <= 1e-8 * max(1.0, np.abs(grad).max())


def test_energy_dissipation_ring_values(ring):
    z = math.sqrt(2 / 3)
    sol = pn.solve_commodities(ring.instance, np.full(3, z))
    assert np.isclose(sol.energy_per_commodity.sum(), math.sqrt(6))
    # two-edge configuration z=2 (third edge effectively absent)
    x2 = np.array([2.0, 2.0, 1e-12])
    sol2 = pn.solve_commodities(ring.instance, x2)
    assert np.isclose(sol2.energy_per_commodity.sum(), 2.0, atol=1e-6)


def test_network_cost_values(ring):
    inst = ring.instance
    assert np.isclose(pn.network_cost(inst, np.full(3, math.sqrt(2 / 3))),
                      math.sqrt(6))
    assert np.isclose(pn.network_cost(inst, np.full(3, 4 / 3)), 4.0)
    assert pn.network_cost(inst, np.zeros(3)) == 0.0


def test_laplacian_roundtrip_after_convergence():
    scen = pn.bowtie_scenario(8.0)
    spec = pn.DynamicsSpec(kind=pn.DynamicsKind.TWO_NORM, h=0.05,
                           stop_tol=1e-6, max_steps=60_000)
    traj = pn.run(scen.instance, scen.sample_x0(seed=1), spec,
                  pn.DiagnosticsConfig(record_every=1000))
    assert traj.status == pn.TerminalStatus.CONVERGED
    sol = pn.solve_commodities(scen.instance, traj.final_x)
    L = pn.assemble_laplacian(scen.instance, traj.final_x)
    resid = np.abs(L @ sol.P - scen.instance.B).max()
    assert resid <= 1e-8 * max(1.0, np.abs(scen.instance.B).max())


def test_solvers_cross_check_on_grid(factorization):
    sq = [(0.5, 0.5), (12.5, 0.5), (12.5, 12.5), (0.5, 12.5)]
    grid, _ = pn.grid_region_scenario(sq, 1.0, seed=2)
    demands = [pn.DemandSpec(grid.node_ids[0], grid.node_ids[-1], 1.0),
               pn.DemandSpec(grid.node_ids[5], grid.node_ids[70], 2.0)]
    sols = {}
    for kind in ("dense", "splu"):
        factorization(kind)
        inst = pn.instance_of_grid(grid, demands)
        x = np.random.default_rng(0).uniform(0.2, 1.5, size=inst.m)
        sols[kind] = pn.solve_commodities(inst, x)
    assert np.abs(sols["splu"].Q - sols["dense"].Q).max() <= 1e-7
    assert np.abs(sols["splu"].energy_per_commodity
                  - sols["dense"].energy_per_commodity).max() <= 1e-7


def test_solver_failure_reports_residual(ring):
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 1.5, size=3)
    with pytest.raises(SolverError) as err:
        pn.solve_commodities(ring.instance, x, solve_tol=1e-30)
    assert err.value.residual is not None and err.value.residual > 0


def test_isolated_node_grounded():
    # a node with no edges forms its own component and must be grounded
    inst = pn.graph_instance(["a", "b", "c"], [("a", "b", 1.0)],
                             [pn.DemandSpec("a", "b", 1.0)])
    plan = pn.default_grounding(inst)
    assert len(plan.nodes) == 2
    sol = pn.solve_commodities(inst, np.array([1.0]))
    assert np.isclose(sol.Q[0, 0], 1.0)


def test_general_matrix_matches_incidence_solution(ring):
    # same data passed as a raw matrix: kernel-basis grounding must produce
    # identical flows and energies
    inst = ring.instance
    raw = pn.Instance(A=inst.A.toarray(), c=inst.c.copy(), B=inst.B.copy())
    x = np.array([0.9, 0.4, 1.3])
    a = pn.solve_commodities(inst, x)
    for variant in (0, 1):
        plan = pn.default_grounding(raw, variant)
        assert len(plan.nodes) == 1
        b = pn.solve_commodities(raw, x, grounding=plan)
        assert np.abs(a.Q - b.Q).max() <= 1e-9
        assert np.abs(a.energy_per_commodity - b.energy_per_commodity).max() <= 1e-9


def test_general_matrix_dynamics_run():
    inst = pn.Instance(A=np.array([[1.0], [-1.0]]), c=np.ones(1),
                       B=np.array([[1.0], [-1.0]]))
    spec = pn.DynamicsSpec(kind=pn.DynamicsKind.TWO_NORM, h=0.05)
    traj = pn.run(inst, np.array([4.0]), spec)
    assert traj.status == pn.TerminalStatus.CONVERGED
    assert np.isclose(traj.final_x[0], 1.0, rtol=1e-5)


def test_general_matrix_default_grounding_is_computed_once(monkeypatch, ring):
    # solves without a plan (the analysis oracles make many) reuse the
    # instance's default grounding instead of finding a kernel basis per call
    raw = pn.Instance(A=ring.instance.A.toarray(), c=np.ones(3), B=ring.instance.B)
    calls = []
    original = scipy.linalg.null_space

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "null_space", counted)
    rng = np.random.default_rng(0)
    for _ in range(5):
        pn.solve_commodities(raw, rng.uniform(0.5, 2.0, size=3))
    pn.finite_difference_gradient(raw, np.ones(3), 1e-5)
    pn.run(raw, np.ones(3), pn.DynamicsSpec(kind=pn.DynamicsKind.TWO_NORM,
                                            h=0.1, max_steps=20))
    assert len(calls) == 1
    # an explicit plan still takes its own kernel basis
    pn.default_grounding(raw, 1)
    assert len(calls) == 2


TOKYO =Path(__file__).resolve().parents[1] / "scenarios" / "tokyo_like_synthetic.json"


def _path_graph(n):
    nodes = [f"v{i}" for i in range(n)]
    return pn.graph_instance(nodes, [(u, v, 1.0) for u, v in zip(nodes, nodes[1:])],
                             [pn.DemandSpec(nodes[0], nodes[-1], 1.0)])


def test_factor_entry_points(monkeypatch, ring):
    # incidence instances above DENSE_SOLVER_MAX_N nodes factor through
    # scipy.sparse.linalg.splu, all others through scipy.linalg.cho_factor;
    # both are looked up on their modules per call
    calls = {"splu": 0, "cho_factor": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scipy.sparse.linalg, "splu")
    count(scipy.linalg, "cho_factor")
    grid = pn.load_scenario(TOKYO).instance
    # a sparse grounded system is ordered by one splu call when it is built
    pn.solve_commodities(grid, np.ones(grid.m))
    assert calls == {"splu": 2, "cho_factor": 0}
    pn.solve_commodities(grid, np.ones(grid.m))
    assert calls == {"splu": 3, "cho_factor": 0}
    pn.solve_commodities(ring.instance, np.ones(3))
    assert calls == {"splu": 3, "cho_factor": 1}
    limit = pn.electrical.DENSE_SOLVER_MAX_N
    for n, fmt, expected in ((limit, np.ndarray, {"splu": 3, "cho_factor": 2}),
                             (limit + 1, sp.csc_matrix, {"splu": 5, "cho_factor": 2})):
        path = _path_graph(n)
        pn.solve_commodities(path, np.ones(path.m))
        assert calls == expected
        assert type(pn.assemble_laplacian(path, np.ones(path.m))) is fmt
    # the ungrounded matrix above is a system of its own, ordered once
    assert calls == {"splu": 6, "cho_factor": 2}
    raw = pn.Instance(A=ring.instance.A.toarray(), c=np.ones(3), B=ring.instance.B)
    pn.solve_commodities(raw, np.ones(3))
    assert calls == {"splu": 6, "cho_factor": 3}


def test_grid_is_ordered_once_and_factored_on_the_diagonal(monkeypatch):
    # a symmetric minimum-degree order, computed once per grounded system,
    # and diagonal pivots: no fill beyond that order's, no row exchanges
    factors = []
    original = scipy.sparse.linalg.splu

    def recorded(A, **kwargs):
        lu = original(A, **kwargs)
        factors.append((kwargs.get("permc_spec"), lu))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    grid = pn.load_scenario(TOKYO).instance
    rng = np.random.default_rng(3)
    for _ in range(2):
        pn.solve_commodities(grid, 10.0 ** rng.uniform(-9, 1, size=grid.m))
    assert [spec for spec, _ in factors] == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
    for _, lu in factors[1:]:
        assert lu.L.nnz + lu.U.nnz <= 10_832
        assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))


def test_solved_instance_is_freed():
    scen = pn.ring_scenario()
    pn.solve_commodities(scen.instance, np.ones(3))
    ref = weakref.ref(scen.instance)
    del scen
    gc.collect()
    assert ref() is None


def test_shared_terminals_solve_in_basis_and_match_explicit_residual():
    # 93 demands over 20 terminals: 19 basis columns; the Gram-matrix
    # residual equals the one of the expanded n x k potentials
    inst = pn.load_scenario(TOKYO).instance
    x = np.random.default_rng(5).uniform(0.01, 1.0, size=inst.m)
    sol = pn.solve_commodities(inst, x)
    assert sol.G.shape == (inst.n, 19) and inst.k == 93
    L = pn.assemble_laplacian(inst, x)
    explicit = np.linalg.norm(L @ sol.P - inst.B, axis=0) / np.linalg.norm(inst.B, axis=0)
    assert np.abs(sol.residuals - explicit).max() <= 1e-14
    assert np.allclose(sol.lambda_sq_norms, (sol.Lambda ** 2).sum(axis=1),
                       rtol=1e-12, atol=0)


def test_dense_runs_the_grid_window_like_splu(factorization):
    # both factorizations pass the full-system residual check on every step
    spec = pn.DynamicsSpec(kind=pn.DynamicsKind.TWO_NORM, h=0.5, max_steps=30,
                           stop_tol=1e-6)
    finals = {}
    for kind in ("splu", "dense"):
        factorization(kind)
        scen = pn.load_scenario(TOKYO)
        traj = pn.run(scen.instance, scen.sample_x0(seed=0), spec,
                      pn.DiagnosticsConfig(record_every=100))
        assert traj.status == pn.TerminalStatus.MAX_STEPS, traj.message
        assert traj.steps == 30
        finals[kind] = traj.final.lyapunov
    assert abs(finals["dense"] - finals["splu"]) <= 1e-10 * finals["splu"]


def _pseudo_inverse_oracle(inst, x):
    """Flows, energies and potentials from the Moore-Penrose pseudo-inverse
    of L(x), in 40-digit arithmetic.

    The graphs are connected, so Ker L = span(1) and L^+ = (L + J/n)^-1 - J/n.
    Double precision is not enough for an oracle here: with capacities over
    ten decades a float64 pseudo-inverse misses the flows by up to 1e-6.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n, m, k = inst.n, inst.m, inst.k
        A = mpmath.matrix((inst.A.toarray() if inst.is_incidence else inst.A).tolist())
        w = mpmath.diag([mpmath.mpf(float(v)) for v in x / inst.c])
        J = mpmath.ones(n, n) / n
        P = (mpmath.inverse(A * w * A.T + J) - J) * mpmath.matrix(inst.B.tolist())
        drops = A.T * P
        Q = np.array([[float(w[e, e] * drops[e, i]) for i in range(k)] for e in range(m)])
        energy = np.array([float(sum(inst.B[j, i] * P[j, i] for j in range(n)))
                           for i in range(k)])
        spread = max(float(max(P[j, i] for j in range(n)) - min(P[j, i] for j in range(n)))
                     / float(np.abs(inst.B[:, i]).max()) for i in range(k))
    return Q, energy, spread


def _solve_or_ill_conditioned(inst, x, spread, variant=0):
    """Solve, or return None when the state is beyond double precision.

    With a cut of floor-level capacities the potentials span ~1e8 times the
    demand and no double-precision solve reaches a 1e-10 residual; every
    SolverError must come from such a state.
    """
    try:
        return pn.solve_commodities(inst, x, grounding=pn.default_grounding(inst, variant))
    except SolverError:
        assert spread >= 1e3
        return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["shared-terminals", "general-matrix", "rank-k"]))
def test_basis_solve_matches_pseudo_inverse_oracle(seed, shape):
    rng = np.random.default_rng(seed)
    if shape == "rank-k":
        inst = random_graph_instance(rng, k_max=1)
    else:  # more demands than nodes, so terminals repeat
        inst = random_graph_instance(rng, n_max=6, k_min=7, k_max=10)
    if shape == "general-matrix":
        inst = pn.Instance(A=inst.A.toarray(), c=inst.c.copy(), B=inst.B.copy())
    x = 10.0 ** rng.uniform(-9, 1, size=inst.m)
    Q, energy, spread = _pseudo_inverse_oracle(inst, x)
    sol = _solve_or_ill_conditioned(inst, x, spread)
    if sol is None:
        return
    assert (sol.G.shape[1] < inst.k) == (shape == "shared-terminals")

    def close(a, b, rtol=1e-9):
        assert np.abs(a - b).max() <= rtol * np.abs(b).max()

    close(sol.energy_per_commodity, energy)
    close(sol.Q, Q)
    # Squared norms in the per-edge energy scale c_e x_e ||Lambda_e||^2:
    # drops on floor-capacity edges carry the rounding of potentials ~1e8.
    close(inst.c * x * sol.lambda_sq_norms, inst.c * (Q ** 2).sum(axis=1) / x)
    close(sol.lambda_sq_norms, (sol.Lambda ** 2).sum(axis=1), rtol=1e-12)

    w = x / inst.c
    drops = inst.A.T @ sol.P
    explicit = (np.linalg.norm(inst.A @ (w[:, None] * drops) - inst.B, axis=0)
                / np.linalg.norm(inst.B, axis=0))
    assert sol.residuals.max() <= pn.electrical.DEFAULT_SOLVE_TOL
    # forming P = G W rounds; at ~1e8 potentials that alone moves the
    # explicit residual by a few 1e-10
    assert np.abs(sol.residuals - explicit).max() <= 1e-9
    close(np.einsum("nk,nk->k", inst.B, sol.P),
          np.einsum("ek,ek->k", drops, w[:, None] * drops))

    other = _solve_or_ill_conditioned(inst, x, spread, variant=1)
    if other is not None:
        close(other.Q, sol.Q)
        close(other.energy_per_commodity, sol.energy_per_commodity)


# SolverErrors on these states when refinement used the residual of the
# assembled grounded matrix, whose diagonal sums round away floor-level
# conductances.
ASSEMBLED_REFINEMENT_FAILURES = {"dense": 10, "splu": 12}


@pytest.mark.parametrize("kind", ["dense", "splu"])
def test_refinement_on_extreme_states(factorization, kind):
    # capacities log-uniform over ten decades; refinement works on the
    # incidence-form residual A (w * A^T G) - U
    factorization(kind)
    failures, worst = 0, 0.0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        inst = random_graph_instance(rng)
        x = 10.0 ** rng.uniform(-9, 1, size=inst.m)
        Q, energy, spread = _pseudo_inverse_oracle(inst, x)
        sol = _solve_or_ill_conditioned(inst, x, spread)
        if sol is None:
            failures += 1
            continue
        for got, ref in ((sol.Q, Q), (sol.energy_per_commodity, energy)):
            worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
    assert failures <= ASSEMBLED_REFINEMENT_FAILURES[kind]
    assert worst <= 1e-10
