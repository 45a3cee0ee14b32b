from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

import physanet as pn
from physanet.errors import PruningError, ScenarioError

from conftest import graph_parts, random_graph_instance


def test_ring_all_pairs_unit_demands(ring):
    inst = ring.instance
    assert (inst.n, inst.m, inst.k) == (3, 3, 3)
    assert np.all(inst.c == 1.0)
    pairs = set()
    for i in range(inst.k):
        b = inst.B[:, i]
        assert np.isclose(np.abs(b).sum(), 2.0)
        pairs.add((int(np.argmax(b)), int(np.argmin(b))))
    assert len(pairs) == 3


def test_ring_sampler_reproducible(ring):
    assert np.array_equal(ring.sample_x0(seed=4), ring.sample_x0(seed=4))
    x = ring.sample_x0(seed=4)
    assert np.all((x >= 0.001) & (x <= 1.0))


def test_bowtie_path_lengths():
    scen = pn.bowtie_scenario(8.0)
    inst = scen.instance
    # direct 10, via middle L+2 = 10, via the other pair 14
    assert pn.shortest_path_length(inst, "0", "1") == pytest.approx(10.0)
    labels = inst.edge_labels()
    no_middle = [i for i, lab in enumerate(labels) if lab != "2-3"]
    sub = pn.graph_instance(
        list(inst.node_ids),
        [(inst.edge_meta[i].tail, inst.edge_meta[i].head, float(inst.c[i]))
         for i in no_middle],
        [pn.DemandSpec("0", "1", 1.0)])
    assert pn.shortest_path_length(sub, "0", "1") == pytest.approx(10.0)
    # forcing the middle edge: 1 + L + 1
    middle_only = pn.graph_instance(["0", "2", "3", "1"],
                                    [("0", "2", 1.0), ("2", "3", 8.0),
                                     ("3", "1", 1.0)],
                                    [pn.DemandSpec("0", "1", 1.0)])
    assert pn.shortest_path_length(middle_only, "0", "1") == pytest.approx(10.0)


def test_bowtie_infinite_middle():
    scen = pn.bowtie_scenario(math.inf)
    inst = scen.instance
    assert inst.m == 6
    assert np.isclose(inst.c.sum(), 24.0)
    # both demands stay routable without the middle edge
    assert pn.shortest_path_length(inst, "0", "1") == pytest.approx(10.0)
    assert pn.shortest_path_length(inst, "4", "5") == pytest.approx(10.0)


def test_bowtie_rejects_nonpositive_cost():
    with pytest.raises(ScenarioError):
        pn.bowtie_scenario(0.0)
    with pytest.raises(ScenarioError):
        pn.bowtie_scenario(-3.0)


def test_bowtie_edge_indices():
    scen = pn.bowtie_scenario(9.0)
    idx = pn.bowtie_edge_indices(scen.instance)
    labels = scen.instance.edge_labels()
    assert labels[idx["top"]] == "0-1"
    assert labels[idx["middle"]] == "2-3"
    assert labels[idx["bottom"]] == "4-5"
    idx_inf = pn.bowtie_edge_indices(pn.bowtie_scenario(math.inf).instance)
    assert "middle" not in idx_inf


def test_grid_interior_nodes_have_eight_neighbors():
    sq = [(0.5, 0.5), (6.5, 0.5), (6.5, 6.5), (0.5, 6.5)]
    grid, inst = pn.grid_region_scenario(sq, 1.0, seed=0)
    assert len(grid.node_ids) == 36
    degree = {v: 0 for v in grid.node_ids}
    for u, v, _ in grid.edges:
        degree[u] += 1
        degree[v] += 1
    interior = [v for v in grid.node_ids
                if 1.5 < grid.coords[v][0] < 5.5 and 1.5 < grid.coords[v][1] < 5.5]
    assert interior and all(degree[v] == 8 for v in interior)


def test_grid_perturbed_cost_ranges():
    sq = [(0.5, 0.5), (10.5, 0.5), (10.5, 10.5), (0.5, 10.5)]
    grid, _ = pn.grid_region_scenario(sq, 1.0, seed=5)
    costs = np.array([c for _, _, c in grid.edges])
    axis = costs[costs < 1.2]
    diag = costs[costs >= 1.2]
    assert axis.min() >= 0.85 - 1e-12 and axis.max() <= 1.15 + 1e-12
    assert diag.min() >= 1.26 - 1e-12 and diag.max() <= 1.56 + 1e-12
    # perturbations scale with the spacing so costs stay positive
    sq_small = [(0.05, 0.05), (1.05, 0.05), (1.05, 1.05), (0.05, 1.05)]
    g2, _ = pn.grid_region_scenario(sq_small, 0.1, seed=5)
    costs2 = np.array([c for _, _, c in g2.edges])
    assert np.allclose(costs2, 0.1 * costs)
    assert costs2.min() > 0


def test_grid_deterministic_for_fixed_seed():
    sq = [(0.5, 0.5), (8.5, 0.5), (8.5, 5.5), (0.5, 5.5)]

    def digest(seed):
        grid, _ = pn.grid_region_scenario(sq, 1.0, seed=seed)
        blob = json.dumps([grid.node_ids, sorted(grid.coords.items()),
                           grid.edges], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_grid_rejects_empty_polygon():
    with pytest.raises(ScenarioError):
        pn.grid_region_scenario([(0.2, 0.2), (0.4, 0.2), (0.4, 0.4)], 1.0, 0)


def test_point_in_polygon_boundary_excluded():
    square = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    assert pn.scenarios.point_strictly_inside(1.0, 1.0, square)
    assert not pn.scenarios.point_strictly_inside(0.0, 1.0, square)
    assert not pn.scenarios.point_strictly_inside(3.0, 1.0, square)


def test_demands_by_threshold_hub_and_cutoff():
    sq = [(0.5, 0.5), (10.5, 0.5), (10.5, 10.5), (0.5, 10.5)]
    grid, _ = pn.grid_region_scenario(sq, 1.0, seed=1)
    near_a, near_b, far = "n0", "n1", "n99"
    terms = pn.TerminalSet(terminals=((near_a, 7.0), (near_b, 1.0), (far, 1.0)),
                           threshold=2.0, hub=near_a)
    demands = pn.demands_by_threshold(grid, terms)
    assert len(demands) == 1
    assert demands[0].amount == 7.0
    assert {demands[0].source, demands[0].sink} == {near_a, near_b}


def test_grid_scenario_parts_refuse_nan_and_nonpositive_values():
    # what the CLI cannot catch later: a NaN threshold makes no demands, and
    # a bad initial capacity makes a file that loading refuses
    grid, _ = pn.grid_region_scenario([(0.5, 0.5), (3.5, 0.5), (3.5, 3.5)], 1.0, seed=1)
    for threshold, weight in ((math.nan, 1.0), (0.0, 1.0), (1.0, math.nan), (1.0, 0.0)):
        with pytest.raises(ScenarioError, match="must be positive"):
            pn.TerminalSet(terminals=(("n0", weight),), threshold=threshold)
    for value in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ScenarioError, match="initial capacity must be positive and finite"):
            pn.grid_scenario(grid, [], initial_capacity=value)


def test_pick_terminals_spread_and_hub():
    poly = pn.synthetic_region_polygon()
    grid, _ = pn.grid_region_scenario(poly, 1.0, seed=7)
    terms = pn.pick_terminals(grid, 20)
    assert len(terms.terminals) == 20
    weights = dict(terms.terminals)
    assert weights[terms.hub] == 7.0
    assert sum(1 for _, w in terms.terminals if w == 7.0) == 1
    assert terms.threshold == pytest.approx(0.5 * grid.diameter())


def test_synthetic_region_size():
    poly = pn.synthetic_region_polygon()
    grid, _ = pn.grid_region_scenario(poly, 1.0, seed=7)
    assert 330 <= len(grid.node_ids) <= 470


def test_prune_star_removes_nonterminal_leaves():
    inst = pn.graph_instance(
        ["hub", "t", "l1", "l2"],
        [("hub", "t", 1.0), ("hub", "l1", 1.0), ("hub", "l2", 1.0)],
        [pn.DemandSpec("hub", "t", 1.0)])
    x = np.array([1.0, 1.0, 1.0])
    res = pn.prune_degree_one(inst, x, ["hub", "t"], capacity_threshold=1e-3)
    assert set(res.kept_nodes) == {"hub", "t"}
    assert res.instance.m == 1


def test_prune_converged_ring_keeps_everything(ring):
    spec = pn.DynamicsSpec(kind=pn.DynamicsKind.TWO_NORM, h=0.02)
    traj = pn.run(ring.instance, ring.sample_x0(seed=0), spec,
                  pn.DiagnosticsConfig(record_every=100))
    res = pn.prune_degree_one(ring.instance, traj.final_x, ["a", "b", "c"])
    assert res.instance.m == 3
    assert set(res.kept_nodes) == {"a", "b", "c"}


def test_prune_raises_when_demand_disconnected(single_edge):
    with pytest.raises(PruningError) as err:
        pn.prune_degree_one(single_edge, np.array([1e-6]), ["u", "v"],
                            capacity_threshold=1e-3)
    assert err.value.pair == ("u", "v")


def test_baseline_bowtie_without_middle():
    scen = pn.bowtie_scenario(math.inf)
    rep = pn.shortest_path_union_baseline(scen.instance)
    assert rep.cost == pytest.approx(20.0)
    assert rep.energy == pytest.approx(20.0)
    assert rep.total == pytest.approx(40.0)


def test_baseline_single_edge(single_edge):
    rep = pn.shortest_path_union_baseline(single_edge)
    assert rep.total == pytest.approx(2.0)


def test_baseline_ring(ring):
    rep = pn.shortest_path_union_baseline(ring.instance)
    assert rep.cost == pytest.approx(3.0)


def _floyd_warshall(inst: pn.Instance) -> np.ndarray:
    D = np.full((inst.n, inst.n), np.inf)
    np.fill_diagonal(D, 0.0)
    for (u, v), cost in zip(zip(*inst.edge_endpoints()), inst.c):
        D[u, v] = D[v, u] = min(D[u, v], cost)
    for w in range(inst.n):
        D = np.minimum(D, D[:, [w]] + D[[w], :])
    return D


def test_shortest_paths_match_floyd_warshall_with_parallel_edges():
    # parallel edges of different costs, listed in both orientations: only
    # the cheapest counts, so a path length that sums them is caught
    rng = np.random.default_rng(41)
    for _ in range(60):
        names, edges, demands = graph_parts(random_graph_instance(rng, n_max=9, k_max=5))
        for _ in range(int(rng.integers(1, 6))):
            u, v, cost = edges[int(rng.integers(len(edges)))]
            pair = (u, v) if rng.random() < 0.5 else (v, u)
            edges.append((*pair, cost * float(rng.uniform(0.3, 3.0))))
        inst = pn.graph_instance(names, edges, demands)
        D = _floyd_warshall(inst)
        for i, u in enumerate(names):
            for j, v in enumerate(names):
                assert pn.shortest_path_length(inst, u, v) == pytest.approx(D[i, j],
                                                                            rel=1e-12)
        expected = sum(d.amount * D[names.index(d.source), names.index(d.sink)]
                       for d in demands)
        rep = pn.shortest_path_union_baseline(inst)
        assert rep.cost == rep.energy == pytest.approx(expected, rel=1e-12)


def test_shortest_path_on_disconnected_graph():
    inst = pn.graph_instance(["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 2.0)],
                             [pn.DemandSpec("a", "b"), pn.DemandSpec("c", "d")])
    assert pn.shortest_path_length(inst, "a", "d") == math.inf
    assert pn.shortest_path_union_baseline(inst).cost == 3.0
    with pytest.raises(ScenarioError):
        pn.shortest_path_length(inst, "a", "z")


def test_grid_scenario_document_roundtrip(tmp_path):
    sq = [(0.5, 0.5), (5.5, 0.5), (5.5, 5.5), (0.5, 5.5)]
    grid, _ = pn.grid_region_scenario(sq, 1.0, seed=2)
    terms = pn.pick_terminals(grid, 4)
    demands = pn.demands_by_threshold(grid, terms)
    scen = pn.grid_scenario(grid, demands, terms)
    doc = pn.scenario_document(scen)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    again = pn.load_scenario(path)
    assert again.instance.m == scen.instance.m
    assert again.instance.k == scen.instance.k
    assert again.layout == scen.layout
    assert np.allclose(again.sample_x0(), 0.5)
