from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import physanet as pn
from physanet.errors import InfeasibleDemandError, ScenarioError

TRIANGLE_DOC = {
    "nodes": ["a", "b", "c"],
    "edges": [{"u": "a", "v": "b", "cost": 1.0},
              {"u": "b", "v": "c", "cost": 1.0},
              {"u": "c", "v": "a", "cost": 1.0}],
    "demands": [{"source": "a", "sink": "b", "amount": 1.0},
                {"source": "a", "sink": "c", "amount": 1.0},
                {"source": "b", "sink": "c", "amount": 1.0}],
    "initial_capacity": 1.0,
}


def test_load_triangle():
    inst = pn.load_instance(TRIANGLE_DOC)
    assert (inst.n, inst.m, inst.k) == (3, 3, 3)
    assert inst.is_incidence
    # incidence columns sum to zero
    assert np.allclose(inst.A.sum(axis=0), 0.0)


def test_load_single_edge():
    doc = {"nodes": ["u", "v"],
           "edges": [{"u": "u", "v": "v", "cost": 1.0}],
           "demands": [{"source": "u", "sink": "v", "amount": 1.0}]}
    inst = pn.load_instance(doc)
    assert (inst.n, inst.m, inst.k) == (2, 1, 1)
    assert np.allclose(inst.B[:, 0], [1.0, -1.0])


def test_demand_across_components_rejected():
    doc = {"nodes": ["a", "b", "c", "d"],
           "edges": [{"u": "a", "v": "b", "cost": 1.0},
                     {"u": "c", "v": "d", "cost": 1.0}],
           "demands": [{"source": "a", "sink": "c", "amount": 1.0}]}
    with pytest.raises(InfeasibleDemandError):
        pn.load_instance(doc)


def test_incidence_of_graph_path():
    A = pn.incidence_of_graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    assert np.array_equal(A.toarray(), [[1, 0], [-1, 1], [0, -1]])


def test_incidence_of_graph_triangle_column_sums():
    A = pn.incidence_of_graph(["a", "b", "c"],
                              [("a", "b"), ("b", "c"), ("c", "a")])
    assert np.allclose(A.sum(axis=0), 0.0)


def test_incidence_bowtie_shape():
    inst = pn.bowtie_scenario(10.0).instance
    assert inst.A.shape == (6, 7)


def test_incidence_rejects_self_loop():
    with pytest.raises(ScenarioError):
        pn.incidence_of_graph(["u", "v"], [("u", "u")])


def test_nonpositive_cost_rejected():
    doc = dict(TRIANGLE_DOC)
    doc["edges"] = [{"u": "a", "v": "b", "cost": -1.0}] + TRIANGLE_DOC["edges"][1:]
    with pytest.raises(ScenarioError):
        pn.load_instance(doc)


def test_max_flow_bound_incidence_unit_demand(single_edge):
    assert pn.max_flow_bound(single_edge) == [2.0]


def test_max_flow_bound_amount_seven():
    inst = pn.graph_instance(["u", "v"], [("u", "v", 1.0)],
                             [pn.DemandSpec("u", "v", 7.0)])
    assert pn.max_flow_bound(inst) == [14.0]


def test_max_flow_bound_general_matrix():
    inst = pn.Instance(A=np.array([[2.0, 0.0], [0.0, 1.0]]),
                       c=np.array([1.0, 1.0]),
                       B=np.array([[1.0], [1.0]]))
    # largest |det| over square submatrices is 2; ||b||_1 = 2
    assert pn.max_flow_bound(inst) == [4.0]


def test_max_flow_bound_unavailable_for_large_general_matrix():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(7, 7))
    b = A @ rng.normal(size=(7, 1))
    inst = pn.Instance(A=A, c=np.ones(7), B=b)
    assert pn.max_flow_bound(inst) is None


def test_feasibility_matches_rank_oracle():
    # tall matrices have a proper image, so random b is usually infeasible
    rng = np.random.default_rng(123)
    accepted = rejected = 0
    for _ in range(40):
        A = rng.normal(size=(5, 3))
        in_image = rng.random() < 0.5
        b = A @ rng.normal(size=3) if in_image else rng.normal(size=5)
        rank_a = np.linalg.matrix_rank(A)
        rank_ab = np.linalg.matrix_rank(np.column_stack([A, b]))
        try:
            pn.Instance(A=A, c=np.ones(3), B=b.reshape(5, 1))
            ok = True
            accepted += 1
        except InfeasibleDemandError:
            ok = False
            rejected += 1
        assert ok == (rank_ab == rank_a)
    assert accepted and rejected


def test_matrix_scenario_variant():
    doc = {"A": [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
           "c": [1.0, 2.0],
           "B": [[1.0], [-1.0], [0.0]],
           "initial_capacity": [0.5, 0.25]}
    scen = pn.load_scenario(doc)
    assert not scen.instance.is_incidence
    assert np.allclose(scen.sample_x0(), [0.5, 0.25])


def test_initial_capacity_forms():
    scen = pn.load_scenario({**TRIANGLE_DOC, "initial_capacity": 2.0})
    assert np.allclose(scen.sample_x0(), 2.0)
    scen = pn.load_scenario({**TRIANGLE_DOC,
                             "initial_capacity": {"random_uniform": [0.1, 1.0],
                                                  "seed": 5}})
    a = scen.sample_x0()
    b = scen.sample_x0()
    assert np.array_equal(a, b)
    c = scen.sample_x0(seed=6)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0.1) & (a <= 1.0))


def test_scenario_document_roundtrip(tmp_path):
    scen = pn.bowtie_scenario(8.0)
    doc = pn.scenario_document(scen)
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(doc))
    again = pn.load_scenario(path)
    assert np.array_equal(again.instance.A.toarray(), scen.instance.A.toarray())
    assert np.array_equal(again.instance.B, scen.instance.B)
    assert np.array_equal(again.instance.c, scen.instance.c)
    assert again.terminals == scen.terminals


def test_mixed_variant_rejected():
    with pytest.raises(ScenarioError):
        pn.load_scenario({**TRIANGLE_DOC, "A": [[1.0]]})


def test_duplicate_demands_are_distinct_commodities():
    doc = dict(TRIANGLE_DOC)
    doc["demands"] = TRIANGLE_DOC["demands"] + [TRIANGLE_DOC["demands"][0]]
    inst = pn.load_instance(doc)
    assert inst.k == 4
    assert np.array_equal(inst.B[:, 0], inst.B[:, 3])


def test_instance_arrays_read_only(ring):
    with pytest.raises(ValueError):
        ring.instance.c[0] = 5.0


TOKYO = Path(__file__).resolve().parents[1] / "scenarios" / "tokyo_like_synthetic.json"


def test_graph_instance_stores_read_only_csr(ring):
    inst = pn.load_instance(TOKYO)
    assert isinstance(inst.A, sp.csr_matrix)
    assert inst.A.nnz == 2 * inst.m
    with pytest.raises(ValueError):
        inst.A.data[0] = 5.0
    raw = pn.Instance(A=ring.instance.A.toarray(), c=ring.instance.c, B=ring.instance.B)
    assert type(raw.A) is np.ndarray


def _triangle_parts():
    inst = pn.load_instance(TRIANGLE_DOC)
    return inst.A.toarray(), inst.c, inst.B, list(inst.edge_meta), inst.node_ids


def test_incidence_matrix_given_with_edge_meta_is_stored_as_csr():
    A, c, B, meta, nodes = _triangle_parts()
    for given in (A, sp.csc_matrix(A)):
        inst = pn.Instance(A=given, c=c, B=B, edge_meta=tuple(meta), node_ids=nodes)
        assert isinstance(inst.A, sp.csr_matrix)
        assert np.array_equal(inst.A.toarray(), A)


@pytest.mark.parametrize("defect", ["sign-flipped", "wrong-node", "not-incidence",
                                    "unknown-node", "self-loop"])
def test_incidence_validation_rejects(defect):
    # the triangle's first edge runs a -> b: +1 at a, -1 at b
    A, c, B, meta, nodes = _triangle_parts()
    if defect == "sign-flipped":
        A[:, 0] *= -1.0
    elif defect == "wrong-node":
        A[:, 0] = [1.0, 0.0, -1.0]
    elif defect == "not-incidence":
        A[:, 0] = [2.0, -2.0, 0.0]
    elif defect == "unknown-node":
        meta[0] = pn.EdgeMeta("a", "z", "a-z")
    else:
        meta[0] = pn.EdgeMeta("a", "a", "a-a")
    with pytest.raises(ScenarioError):
        pn.Instance(A=A, c=c, B=B, edge_meta=tuple(meta), node_ids=nodes)


def test_capacity_state_validation():
    pn.CapacityState(x=np.array([1.0, 2.0]), t=0.0)
    with pytest.raises(ScenarioError):
        pn.CapacityState(x=np.array([1.0, 0.0]))
    with pytest.raises(ScenarioError):
        pn.CapacityState(x=np.array([1.0]), t=-1.0)


def test_demand_spec_validation():
    with pytest.raises(ScenarioError):
        pn.DemandSpec("a", "a", 1.0)
    with pytest.raises(ScenarioError):
        pn.DemandSpec("a", "b", 0.0)
