from __future__ import annotations

import copy
import gc
import math
import pickle
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import physanet as pn
from physanet.errors import SolverError

from conftest import graph_parts, random_graph_instance


def test_single_edge_laplacian(single_edge):
    L = pn.assemble_laplacian(single_edge, np.array([1.0]))
    assert np.allclose(L.toarray(), [[1.0, -1.0], [-1.0, 1.0]])


def test_triangle_laplacian_symmetric(ring):
    z = 0.7
    L = pn.assemble_laplacian(ring.instance, np.full(3, z)).toarray()
    assert np.allclose(np.diag(L), 2 * z)
    assert np.allclose(L - np.diag(np.diag(L)),
                       -z * (np.ones((3, 3)) - np.eye(3)))
    assert np.allclose(L, L.T)


def test_grounded_assembly_is_principal_submatrix():
    # parallel edges share entries; both groundings, graph (CSC) and
    # general-matrix (dense) forms of the same instance
    rng = np.random.default_rng(11)
    inst = pn.graph_instance(["a", "b", "c", "d"],
                             [("a", "b", 1.0), ("a", "b", 2.0), ("b", "c", 0.5),
                              ("c", "d", 1.5), ("d", "a", 1.0)],
                             [pn.DemandSpec("a", "c", 1.0)])
    raw = pn.Instance(A=inst.A.toarray(), c=inst.c.copy(), B=inst.B.copy())
    x = rng.uniform(0.2, 2.0, size=inst.m)
    full = pn.assemble_laplacian(inst, x)
    assert full.format == "csc"
    full = full.toarray()
    assert np.allclose(pn.assemble_laplacian(raw, x), full, rtol=1e-15, atol=0)
    for variant in (0, 1):
        plan = pn.default_grounding(inst, variant)
        keep = np.setdiff1d(np.arange(inst.n), plan.nodes)
        sparse = pn.assemble_laplacian(inst, x, grounding=plan)
        dense = pn.assemble_laplacian(raw, x, grounding=plan)
        assert sparse.format == "csc" and type(dense) is np.ndarray
        assert np.array_equal(sparse.toarray(), full[np.ix_(keep, keep)])
        assert np.allclose(dense, full[np.ix_(keep, keep)], rtol=1e-15, atol=0)


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
    for kind in ("splu", "band"):
        factorization(kind)
        inst = pn.ring_scenario().instance
        P[kind] = pn.solve_commodities(inst, x, grounding=pn.default_grounding(inst)).P
    assert np.abs(P["splu"] - P["band"]).max() <= 1e-8


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
    for kind in ("band", "splu"):
        factorization(kind)
        inst = pn.graph_instance(list(grid.node_ids), list(grid.edges), demands)
        x = np.random.default_rng(0).uniform(0.2, 1.5, size=inst.m)
        sols[kind] = pn.solve_commodities(inst, x)
    assert np.abs(sols["splu"].Q - sols["band"].Q).max() <= 1e-7
    assert np.abs(sols["splu"].energy_per_commodity
                  - sols["band"].energy_per_commodity).max() <= 1e-7


def test_solver_failure_reports_residual(ring):
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 1.5, size=3)
    with pytest.raises(SolverError) as err:
        pn.solve_commodities(ring.instance, x, solve_tol=1e-30)
    assert err.value.residual is not None and err.value.residual > 0


@pytest.mark.parametrize("kind", ["band", "splu"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_capacity_fails_the_solve_check(factorization, kind, bad):
    # the factorization or the residual check fails; a NaN residual passes
    # no tolerance
    factorization(kind)
    inst = pn.bowtie_scenario(8.0).instance
    x = np.ones(inst.m)
    x[3] = bad
    with pytest.raises(SolverError) as err:
        pn.solve_commodities(inst, x)
    assert err.value.residual is None or math.isnan(err.value.residual)


@pytest.mark.parametrize("kind", ["band", "splu"])
def test_singular_factorization_raises_solver_error(factorization, kind):
    # zero capacity on both edges at c cuts it off from the grounded node:
    # the grounded Laplacian is singular, and either factorization says so
    # with a SolverError
    factorization(kind)
    inst = pn.ring_scenario().instance
    with pytest.raises(SolverError, match="positive definite|factorization failed"):
        pn.solve_commodities(inst, np.array([1.0, 0.0, 0.0]))


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


def _grid_with_hub():
    """The Tokyo grid plus a hub joined to every 10th node: a wide band
    (b = 215) with a sparse minimum-degree factor, for the sparse-LU path,
    which the ``factorization`` fixture selects."""
    grid = pn.load_scenario(TOKYO).instance
    nodes = list(grid.node_ids)
    edges = [(e.tail, e.head, float(c)) for e, c in zip(grid.edge_meta, grid.c)]
    edges += [("hub", nodes[i], 1.0) for i in range(0, len(nodes), 10)]
    return pn.graph_instance(nodes + ["hub"], edges,
                             [pn.DemandSpec(nodes[0], nodes[-1], 1.0),
                              pn.DemandSpec(nodes[5], nodes[70], 2.0)])


def _count_factor_calls(monkeypatch):
    """Calls of the two factorization entry points, looked up on their
    modules at each call."""
    calls = {"dpbtrf": 0, "splu": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scipy.linalg.lapack, "dpbtrf")
    count(scipy.sparse.linalg, "splu")
    return calls


def test_factor_entry_points(monkeypatch, ring):
    # grids, rings, paths of any length and general matrices all factor
    # through LAPACK's band Cholesky scipy.linalg.lapack.dpbtrf, once per solve
    calls = _count_factor_calls(monkeypatch)
    grid = pn.load_scenario(TOKYO).instance
    pn.solve_commodities(grid, np.ones(grid.m))
    assert calls == {"dpbtrf": 1, "splu": 0}
    pn.solve_commodities(grid, np.ones(grid.m))
    assert calls == {"dpbtrf": 2, "splu": 0}
    pn.solve_commodities(ring.instance, np.ones(3))
    assert calls == {"dpbtrf": 3, "splu": 0}
    for n in (150, 151, 2_000):
        path = _path_graph(n)
        pn.solve_commodities(path, np.ones(path.m))
    assert calls == {"dpbtrf": 6, "splu": 0}
    raw = pn.Instance(A=ring.instance.A.toarray(), c=np.ones(3), B=ring.instance.B)
    pn.solve_commodities(raw, np.ones(3))
    assert calls == {"dpbtrf": 7, "splu": 0}


def test_grid_is_ordered_once_from_a_peripheral_level_set(monkeypatch):
    # one order per grounded system (scipy's reverse Cuthill-McKee is its
    # fallback, computed once), a half-bandwidth of at most 26 where scipy's
    # order gives 34, and one band factor per solve
    calls = _count_factor_calls(monkeypatch)
    ordered = []
    original = scipy.sparse.csgraph.reverse_cuthill_mckee

    def recorded(*args, **kwargs):
        ordered.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", recorded)
    grid = pn.load_scenario(TOKYO).instance
    rng = np.random.default_rng(3)
    for solves in (1, 2, 3):
        pn.solve_commodities(grid, 10.0 ** rng.uniform(-9, 1, size=grid.m))
        assert calls == {"dpbtrf": solves, "splu": 0}
    assert len(ordered) == 1
    solver = pn.electrical._solver(grid)
    assert not solver.splu and solver.width - 1 <= 26


def test_grid_is_ordered_once_and_factored_on_the_diagonal(monkeypatch, factorization):
    # a grid with a hub on the sparse-LU path: a symmetric minimum-degree
    # order, computed once per grounded system, and diagonal pivots: no fill
    # beyond that order's, no row exchanges; the band path agrees
    factors = []
    original = scipy.sparse.linalg.splu

    def recorded(A, **kwargs):
        lu = original(A, **kwargs)
        factors.append((kwargs.get("permc_spec"), lu))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    factorization("splu")
    hub = _grid_with_hub()
    rng = np.random.default_rng(3)
    states = [10.0 ** rng.uniform(-9, 1, size=hub.m) for _ in range(2)]
    sols = [pn.solve_commodities(hub, x) for x in states]
    assert [spec for spec, _ in factors] == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
    order_fill = factors[0][1].L.nnz + factors[0][1].U.nnz
    for _, lu in factors[1:]:
        assert lu.L.nnz + lu.U.nnz <= order_fill
        assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))
    factorization("band")
    banded = _grid_with_hub()
    for x, sol in zip(states, sols):
        other = pn.solve_commodities(banded, x)
        assert np.abs(other.Q - sol.Q).max() <= 1e-9 * np.abs(sol.Q).max()
        assert np.abs(other.energy_per_commodity - sol.energy_per_commodity).max() \
            <= 1e-9 * sol.energy_per_commodity.max()
    assert len(factors) == 3


def _lattice(width, height, pairs):
    """A ``width`` x ``height`` four-neighbour lattice (``width < height``),
    with demands between ``pairs`` mirrored pairs of its nodes."""
    nodes = [f"{i},{j}" for j in range(height) for i in range(width)]
    edges = [(f"{i},{j}", f"{i + 1},{j}", 1.0) for j in range(height) for i in range(width - 1)]
    edges += [(f"{i},{j}", f"{i},{j + 1}", 1.0) for j in range(height - 1) for i in range(width)]
    demands = [pn.DemandSpec(nodes[3 * d + 1], nodes[-3 * d - 2], 1.0) for d in range(pairs)]
    return pn.graph_instance(nodes, edges, demands)


def _disjoint_union(parts):
    """One instance with each of ``parts`` as a component."""
    nodes, edges, demands = [], [], []
    for p, part in enumerate(parts):
        names, part_edges, part_demands = graph_parts(part)
        nodes += [f"{p}:{v}" for v in names]
        edges += [(f"{p}:{u}", f"{p}:{v}", c) for u, v, c in part_edges]
        demands += [pn.DemandSpec(f"{p}:{d.source}", f"{p}:{d.sink}", d.amount)
                    for d in part_demands]
    return pn.graph_instance(nodes, edges, demands)


def _grounded_pattern(inst):
    """Pattern of the grounded Laplacian of the default plan, in node order."""
    L = pn.assemble_laplacian(inst, np.ones(inst.m), grounding=pn.default_grounding(inst))
    pattern = sp.csr_matrix(L)
    pattern.data[:] = 1.0
    return pattern


def _half_bandwidth(pattern, order):
    rank = np.argsort(order)
    coo = pattern.tocoo()
    return int(np.abs(rank[coo.row] - rank[coo.col]).max(initial=0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), components=st.integers(1, 3))
def test_band_order_is_never_wider_than_scipy_reverse_cuthill_mckee(seed, components):
    rng = np.random.default_rng(seed)
    parts = [random_graph_instance(rng, n_max=40) for _ in range(components)]
    pattern = _grounded_pattern(parts[0] if components == 1 else _disjoint_union(parts))
    order = pn.electrical._band_order(pattern)
    assert np.array_equal(np.sort(order), np.arange(pattern.shape[0]))
    scipy_order = scipy.sparse.csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True)
    assert _half_bandwidth(pattern, order) <= _half_bandwidth(pattern, scipy_order)


def _band_storage(M, b, padded):
    """Lower band storage of the symmetric ``M`` of half-bandwidth ``b``,
    padded to ``padded`` columns with a unit diagonal."""
    ab = np.zeros((b + 1, padded))
    for d in range(b + 1):
        ab[d, :M.shape[0] - d] = np.diagonal(M, -d)
    ab[0, M.shape[0]:] = 1.0
    return ab


@pytest.mark.parametrize("size, b", [
    (1, 0),    # a single node: one 1 x 1 block
    (6, 0),    # a diagonal system
    (4, 4),    # a single block
    (12, 3),   # a multiple of b
    (10, 3),   # not a multiple of b
    (9, 8),    # the full width: the second block is padding but one row
    (61, pn.electrical.BLOCKED_SOLVE_MIN_BANDWIDTH),
])
def test_blocked_band_solve_matches_lapack_and_dense(size, b):
    rng = np.random.default_rng(100 * size + b)
    rows, cols = np.indices((size, size))
    M = np.where(np.abs(rows - cols) <= b, rng.uniform(-1, 1, (size, size)), 0.0)
    M = M + M.T
    M += np.diag(np.abs(M).sum(axis=1) + 0.1)
    blocks = pn.electrical._BandBlocks(size, b, 5)
    padded_size = blocks.ab.shape[1]
    cb = scipy.linalg.cholesky_banded(_band_storage(M, b, padded_size), lower=True)
    blocks.ab[...] = cb
    blocks.load()
    R = rng.standard_normal((size, 5))
    got = blocks.solve(R).copy()
    padded = np.zeros((padded_size, 5))
    padded[:size] = R
    lapack = scipy.linalg.cho_solve_banded((cb, True), padded)[:size]
    dense = np.linalg.solve(M, R)
    assert np.abs(got - lapack).max() <= 1e-14 * np.abs(lapack).max()
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


def _star(leaves):
    """A star listed centre first, so the default plan grounds the centre
    and the grounded Laplacian is diagonal (b = 0)."""
    nodes = ["centre"] + [f"leaf{i}" for i in range(leaves)]
    edges = [("centre", v, 1.0 + i) for i, v in enumerate(nodes[1:])]
    demands = [pn.DemandSpec(nodes[i], nodes[-i], 1.0) for i in range(1, leaves // 2 + 1)]
    return pn.graph_instance(nodes, edges, demands)


@pytest.mark.parametrize("shape", ["star", "components", "tokyo"])
def test_blocked_solve_on_grounded_graphs(monkeypatch, shape):
    # the blocked solve against LAPACK pbtrs on the same band and a
    # dense solve: on a diagonal system (a star grounded at its centre),
    # several grounded components and the Tokyo grid (392 = 15 * 26 + 2
    # rows), at moderate capacities and at capacities spread over ten
    # decades, where only backward errors are comparable (the full solve
    # at such states is checked by test_refinement_on_extreme_states[blocked])
    def build():
        if shape == "star":
            return _star(9)
        if shape == "components":
            rng = np.random.default_rng(8)
            return _disjoint_union([random_graph_instance(rng, n_max=30, k_max=4)
                                    for _ in range(3)])
        return pn.load_scenario(TOKYO).instance

    monkeypatch.setattr(pn.electrical, "BLOCKED_SOLVE_MIN_COLUMNS", 0)
    paths = {}
    for kind, limit in (("lapack", math.inf), ("blocked", 0)):
        monkeypatch.setattr(pn.electrical, "BLOCKED_SOLVE_MIN_BANDWIDTH", limit)
        inst = build()
        system = pn.electrical._solver(inst)
        assert system.blocked == (kind == "blocked")
        paths[kind] = inst, system
    inst, system = paths["blocked"]
    assert np.array_equal(system.keep, paths["lapack"][1].keep)
    b = system.width - 1
    assert {"star": b == 0, "components": len(pn.default_grounding(inst).nodes) == 3,
            "tokyo": (b, system.size) == (26, 392)}[shape]

    rng = np.random.default_rng(4)
    for x in (rng.uniform(0.5, 2.0, size=inst.m), 10.0 ** rng.uniform(-9, 1, size=inst.m)):
        L = pn.assemble_laplacian(inst, x).toarray()[np.ix_(system.keep, system.keep)]
        G = {kind: s.factor(x).solve(s.rhs).copy() for kind, (_, s) in paths.items()}
        for got in G.values():
            backward = np.abs(L @ got - system.rhs).max() / (np.abs(L).max() * np.abs(got).max())
            assert backward <= 1e-14
        if x.min() < 0.5:
            continue
        dense = np.linalg.solve(L, system.rhs)
        assert np.abs(G["blocked"] - G["lapack"]).max() <= 1e-13 * np.abs(dense).max()
        assert np.abs(G["blocked"] - dense).max() <= 1e-12 * np.abs(dense).max()
        sols = {kind: pn.solve_commodities(inst_, x) for kind, (inst_, _) in paths.items()}
        for field in ("Q", "energy_per_commodity"):
            got, ref = getattr(sols["blocked"], field), getattr(sols["lapack"], field)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("width", [pn.electrical.BLOCKED_SOLVE_MIN_BANDWIDTH - 1,
                                   pn.electrical.BLOCKED_SOLVE_MIN_BANDWIDTH])
def test_blocked_solve_starts_at_the_crossover(width):
    # a lattice is ordered row by row, so b is its width; with enough
    # columns, the band at the crossover is solved by blocks, below it by LAPACK
    inst = _lattice(width, 30, pairs=pn.electrical.BLOCKED_SOLVE_MIN_COLUMNS)
    sol = pn.solve_commodities(inst, np.ones(inst.m))
    system = pn.electrical._solver(inst)
    assert system.width - 1 == width and sol.G.shape[1] >= pn.electrical.BLOCKED_SOLVE_MIN_COLUMNS
    assert system.blocked == (width >= pn.electrical.BLOCKED_SOLVE_MIN_BANDWIDTH)
    L = pn.assemble_laplacian(inst, np.ones(inst.m))
    residual = np.linalg.norm(L @ sol.P - inst.B, axis=0) / np.linalg.norm(inst.B, axis=0)
    assert residual.max() <= 1e-12


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


def _pinv_oracle(inst, x):
    """Flows and energies from the float64 pseudo-inverse of L(x), for
    capacities of moderate spread."""
    P = np.linalg.pinv(pn.assemble_laplacian(inst, x).toarray()) @ inst.B
    Q = (x / inst.c)[:, None] * (inst.A.T @ P)
    return Q, np.einsum("nk,nk->k", inst.B, P)


def _assert_matches_pinv_oracle(inst, x, sol):
    # commodity by commodity, so that a small demand is held to its own scale
    Q, energy = _pinv_oracle(inst, x)
    assert np.all(np.abs(sol.Q - Q).max(axis=0) <= 1e-10 * np.abs(Q).max(axis=0))
    assert np.all(np.abs(sol.energy_per_commodity - energy) <= 1e-10 * np.abs(energy))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_demand_basis_is_orthonormal(seed):
    # more demands than nodes, so terminals repeat and the terminal basis
    # is taken; its coefficients are rotated to orthonormal rows, which
    # makes the drop norms the row norms of the basis drops
    rng = np.random.default_rng(seed)
    inst = random_graph_instance(rng, n_max=6, k_min=7, k_max=10)
    U, W, _ = pn.electrical._demand_basis(inst)
    assert U.shape[1] == W.shape[0] == np.linalg.matrix_rank(inst.B) < inst.k
    assert np.abs(W @ W.T - np.eye(W.shape[0])).max() <= 1e-14
    assert np.abs(U @ W - inst.B).max() <= 1e-14 * np.linalg.norm(inst.B)
    x = rng.uniform(0.5, 2.0, size=inst.m)
    sol = pn.solve_commodities(inst, x)
    expanded = (sol.Lambda ** 2).sum(axis=1)
    assert np.abs(sol.lambda_sq_norms - expanded).max() <= 1e-12 * expanded.max()
    _assert_matches_pinv_oracle(inst, x, sol)


_FIVE_NODES = ["r", "a", "b", "c", "d"]
_FIVE_EDGES = [("r", "a", 1.0), ("a", "b", 1.5), ("b", "c", 0.7), ("c", "d", 1.2),
               ("d", "r", 0.9), ("a", "c", 2.0)]


def _solve_with_last_demand(last: pn.DemandSpec):
    # three demands between the terminals a and b, then ``last``
    demands = [pn.DemandSpec("a", "b", v) for v in (1.0, 2.0, 0.5)] + [last]
    inst = pn.graph_instance(_FIVE_NODES, _FIVE_EDGES, demands)
    x = np.random.default_rng(2).uniform(0.5, 2.0, size=inst.m)
    return inst, x, pn.solve_commodities(inst, x)


def test_rank_deficient_demands_solve_fewer_columns():
    # with c -> r last: three balanced columns e_s - e_r, whose
    # coefficients have rank 2
    inst, x, sol = _solve_with_last_demand(pn.DemandSpec("c", "r", 1.0))
    assert sol.G.shape == (inst.n, 2) and sol.W.shape == (2, 4)
    _assert_matches_pinv_oracle(inst, x, sol)


@pytest.mark.parametrize("tail", ["c", "a"])
@pytest.mark.parametrize("amount", [1e-7, 1e-13, 1e-17, 1e-150])
def test_tiny_demand_keeps_its_accuracy(tail, amount):
    # a demand far smaller than the others: from c its direction is
    # orthogonal to theirs, from a it shares a terminal with them.  The
    # rotated basis must neither drop it nor round it away, and the
    # residual check must see what the basis leaves of it
    inst, x, sol = _solve_with_last_demand(pn.DemandSpec(tail, "r", amount))
    solver = pn.electrical._solver(inst)
    assert np.all(solver.basis_error <= pn.electrical.BASIS_TOL)
    assert np.all(solver.basis_error <= sol.residuals)
    _assert_matches_pinv_oracle(inst, x, sol)
    if amount == 1e-17:
        # below rounding level of the others: the exact basis U = B
        assert sol.W.shape == (4, 4)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans())
def test_capacity_scaled_residual_is_exact_on_graphs(seed, shared):
    # the residual A X drops - U, with the capacities folded into A's +-1
    # entries, is bitwise the residual A (x * drops) - U; so are the
    # per-commodity residuals read from its Gram matrix
    rng = np.random.default_rng(seed)
    inst = (random_graph_instance(rng, n_max=6, k_min=7, k_max=10) if shared
            else random_graph_instance(rng, n_max=30, k_max=4))
    x = 10.0 ** rng.uniform(-3, 1, size=inst.m)
    sol = pn.solve_commodities(inst, x)
    solver = pn.electrical._solver(inst)
    R = inst.A @ (x[:, None] * sol.drops)
    R[solver.terminals] -= solver.U_terminals  # U is zero off the terminals
    expected = np.sqrt(np.maximum(pn.electrical._quadratic_forms(sol.W, R.T @ R), 0.0))
    assert np.array_equal(sol.residuals, expected / solver.b_scale + solver.basis_error)


def test_solves_at_once_do_not_share_the_scaled_incidence(factorization):
    # each workspace, band or sparse LU, carries its own A X buffer: one
    # still in use (say, by a solve in another thread) is left alone, and a
    # released one is reused
    for kind in ("band", "splu"):
        factorization(kind)
        rng = np.random.default_rng(5)
        inst = random_graph_instance(rng, n_max=12, k_max=4)
        solver = pn.electrical._solver(inst)
        assert solver.splu == (kind == "splu")
        in_use = solver.factor(rng.uniform(0.5, 2.0, size=inst.m))
        entries = in_use.AX.data.copy()
        pn.solve_commodities(inst, rng.uniform(0.5, 2.0, size=inst.m))
        assert np.array_equal(in_use.AX.data, entries)
        solver.release(in_use)
        pn.solve_commodities(inst, np.ones(inst.m))
        assert np.array_equal(in_use.AX.data, inst.A.data)


@pytest.mark.parametrize("kind", ["band", "blocked"])
def test_solves_at_once_do_not_share_a_band_workspace(factorization, kind):
    # a solve takes its band workspace from the solver's idle ones; one that
    # is still in use (say, by a solve in another thread) is left alone,
    # its factor and its last solve both
    factorization(kind)
    rng = np.random.default_rng(5)
    inst = random_graph_instance(rng, n_max=12, k_max=4)
    system = pn.electrical._solver(inst)
    assert system.blocked == (kind == "blocked")
    in_use = system.factor(rng.uniform(0.5, 2.0, size=inst.m))
    solved = in_use.solve(system.rhs)
    entries, values = in_use.flat.copy(), solved.copy()
    pn.solve_commodities(inst, rng.uniform(0.5, 2.0, size=inst.m))
    assert np.array_equal(in_use.flat, entries)
    assert np.array_equal(solved, values)
    system.release(in_use)
    pn.solve_commodities(inst, np.ones(inst.m))
    assert not np.array_equal(in_use.flat, entries)


def test_solves_in_threads_match_serial_solves(factorization):
    # more threads than cores solving one instance at once, switching every
    # microsecond: a workspace or A X buffer shared by two solves would
    # change some solution's bits
    factorization("blocked")
    rng = np.random.default_rng(9)
    inst = random_graph_instance(rng, n_max=30, k_max=4)
    states = [rng.uniform(0.5, 2.0, size=inst.m) for _ in range(6)]
    serial = [pn.solve_commodities(inst, x).G for x in states]
    results = [[] for _ in states]

    def work(i):
        for _ in range(40):
            results[i].append(pn.solve_commodities(inst, states[i]).G)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(states))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for G, got in zip(serial, results):
        assert len(got) == 40 and all(np.array_equal(g, G) for g in got)


@pytest.mark.parametrize("kind", ["band", "blocked", "splu"])
def test_a_second_solve_leaves_the_first_solution_alone(factorization, kind):
    # the arrays a FlowSolution keeps are its own, not views of a workspace
    factorization(kind)
    rng = np.random.default_rng(6)
    inst = random_graph_instance(rng, n_max=30, k_max=4)
    first = pn.solve_commodities(inst, rng.uniform(0.5, 2.0, size=inst.m))
    kept = {name: getattr(first, name).copy() for name in ("G", "drops", "residuals")}
    pn.solve_commodities(inst, rng.uniform(0.5, 2.0, size=inst.m))
    for name, value in kept.items():
        assert np.array_equal(getattr(first, name), value), name


@pytest.mark.parametrize("copy_instance", [copy.deepcopy,
                                           lambda inst: pickle.loads(pickle.dumps(inst))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("kind", ["band", "blocked", "splu"])
def test_a_copied_solved_instance_solves_like_the_original(factorization, kind,
                                                            copy_instance):
    # a copy carries the solvers but builds its own workspaces, whose band
    # arrays share one buffer
    factorization(kind)
    rng = np.random.default_rng(7)
    inst = random_graph_instance(rng, n_max=30, k_max=4)
    x = rng.uniform(0.5, 2.0, size=inst.m)
    expected = pn.solve_commodities(inst, x)
    twin = copy_instance(inst)
    for _ in range(2):
        got = pn.solve_commodities(twin, x)
        assert np.array_equal(got.G, expected.G)
        assert np.array_equal(got.residuals, expected.residuals)


@pytest.mark.parametrize("amount", [1e-150, 1e-170])
def test_tiny_demand_has_a_meaningful_residual(amount):
    # the squares of such a demand's residual underflow; the check scales
    # them first, so it reads the residual a direct evaluation gives
    demands = [pn.DemandSpec("a", "b", 1.0), pn.DemandSpec("c", "r", amount)]
    inst = pn.graph_instance(_FIVE_NODES, _FIVE_EDGES, demands)
    x = np.random.default_rng(2).uniform(0.5, 2.0, size=inst.m)
    sol = pn.solve_commodities(inst, x)
    top = np.abs(inst.B).max(axis=0)
    R = (inst.A @ (x[:, None] * sol.Lambda) - inst.B) / top
    explicit = np.linalg.norm(R, axis=0) / np.linalg.norm(inst.B / top, axis=0)
    assert sol.residuals[1] > 0
    assert np.allclose(sol.residuals, explicit, rtol=1e-12, atol=0)


def test_band_runs_the_grid_window_like_splu(factorization):
    # both factorizations pass the full-system residual check on every step
    spec = pn.DynamicsSpec(kind=pn.DynamicsKind.TWO_NORM, h=0.5, max_steps=30,
                           stop_tol=1e-6)
    finals = {}
    for kind in ("splu", "band"):
        factorization(kind)
        scen = pn.load_scenario(TOKYO)
        traj = pn.run(scen.instance, scen.sample_x0(seed=0), spec,
                      pn.DiagnosticsConfig(record_every=100))
        assert traj.status == pn.TerminalStatus.MAX_STEPS, traj.message
        assert traj.steps == 30
        finals[kind] = traj.final.lyapunov
    assert abs(finals["band"] - finals["splu"]) <= 1e-10 * finals["splu"]


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


def _exact_residuals(inst, sol, x):
    """Relative residuals ``||A (w * A^T P) - B|| / ||B||`` of ``P = G W``,
    from the solve's own ``G`` and ``W``, in 50-digit arithmetic.

    With potentials ~1e8 the float64 evaluation of the same expression
    misses the exact value by up to ~2e-8.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        A = mpmath.matrix((inst.A.toarray() if inst.is_incidence else inst.A).tolist())
        w = mpmath.diag([mpmath.mpf(float(v)) for v in x / inst.c])
        P = mpmath.matrix(sol.G.tolist()) * mpmath.matrix(sol.W.tolist())
        R = A * w * A.T * P - mpmath.matrix(inst.B.tolist())
        return np.array([float(mpmath.norm(R[:, i])) / np.linalg.norm(inst.B[:, i])
                         for i in range(inst.k)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["shared-terminals", "general-matrix", "rank-k"]))
# seeds whose float64 reference residual missed the exact one by 1.2e-9..1.8e-8
@example(seed=134217727, shape="shared-terminals")
@example(seed=2733801963, shape="shared-terminals")
@example(seed=1501564775, shape="shared-terminals")
@example(seed=2738104581, shape="shared-terminals")
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
    assert sol.residuals.max() <= pn.electrical.DEFAULT_SOLVE_TOL
    assert np.abs(sol.residuals - _exact_residuals(inst, sol, x)).max() <= 1e-9
    close(np.einsum("nk,nk->k", inst.B, sol.P),
          np.einsum("ek,ek->k", drops, w[:, None] * drops))

    other = _solve_or_ill_conditioned(inst, x, spread, variant=1)
    if other is not None:
        close(other.Q, sol.Q)
        close(other.energy_per_commodity, sol.energy_per_commodity)


# SolverErrors on these states when refinement used the residual of the
# assembled grounded matrix, whose diagonal sums round away floor-level
# conductances.
# The band path inherits the bound of the dense Cholesky it replaces, and
# its blocked solve the band's.
ASSEMBLED_REFINEMENT_FAILURES = {"band": 10, "splu": 12, "blocked": 10}


@pytest.mark.parametrize("kind", ["band", "splu", "blocked"])
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
