from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import physanet as pn
from physanet import cli
from physanet.errors import InfeasibleDemandError, ScenarioError

from conftest import graph_parts, random_graph_instance

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
    inst = pn.load_scenario(TRIANGLE_DOC).instance
    assert (inst.n, inst.m, inst.k) == (3, 3, 3)
    assert inst.is_incidence
    # incidence columns sum to zero
    assert np.allclose(inst.A.sum(axis=0), 0.0)


def test_load_single_edge():
    doc = {"nodes": ["u", "v"],
           "edges": [{"u": "u", "v": "v", "cost": 1.0}],
           "demands": [{"source": "u", "sink": "v", "amount": 1.0}]}
    inst = pn.load_scenario(doc).instance
    assert (inst.n, inst.m, inst.k) == (2, 1, 1)
    assert np.allclose(inst.B[:, 0], [1.0, -1.0])


def test_demand_across_components_rejected():
    doc = {"nodes": ["a", "b", "c", "d"],
           "edges": [{"u": "a", "v": "b", "cost": 1.0},
                     {"u": "c", "v": "d", "cost": 1.0}],
           "demands": [{"source": "a", "sink": "c", "amount": 1.0}]}
    with pytest.raises(InfeasibleDemandError):
        pn.load_scenario(doc).instance


def test_incidence_of_graph_path():
    A = pn.graph_instance(["u", "v", "w"], [("u", "v", 1.0), ("v", "w", 1.0)], []).A
    assert np.array_equal(A.toarray(), [[1, 0], [-1, 1], [0, -1]])


def test_incidence_of_graph_triangle_column_sums():
    A = pn.graph_instance(["a", "b", "c"],
                          [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)], []).A
    assert np.allclose(A.sum(axis=0), 0.0)


def test_incidence_bowtie_shape():
    inst = pn.bowtie_scenario(10.0).instance
    assert inst.A.shape == (6, 7)


def test_incidence_rejects_self_loop():
    with pytest.raises(ScenarioError):
        pn.graph_instance(["u", "v"], [("u", "u", 1.0)], [])


def test_nonpositive_cost_rejected():
    doc = dict(TRIANGLE_DOC)
    doc["edges"] = [{"u": "a", "v": "b", "cost": -1.0}] + TRIANGLE_DOC["edges"][1:]
    with pytest.raises(ScenarioError):
        pn.load_scenario(doc).instance


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


def test_scenario_document_names_the_first_demand_that_is_not_a_pair():
    A, c, B, meta, nodes = _triangle_parts()
    for split in ([1.0, -0.5, -0.5], [1.0, -2.0, 1.0]):
        B3 = np.column_stack([B[:, 0], split, B[:, 2]])
        inst = pn.Instance(A=A, c=c, B=B3, edge_meta=tuple(meta), node_ids=nodes)
        scen = pn.Scenario(instance=inst, initial_capacity=pn.InitialCapacity("constant", 1.0))
        with pytest.raises(ScenarioError, match=r"^demand 1 is not a source/sink pair"):
            pn.scenario_document(scen)
    doc = pn.scenario_document(pn.load_scenario(TRIANGLE_DOC))
    assert doc["demands"] == TRIANGLE_DOC["demands"]


def test_mixed_variant_rejected():
    with pytest.raises(ScenarioError):
        pn.load_scenario({**TRIANGLE_DOC, "A": [[1.0]]})


def test_duplicate_demands_are_distinct_commodities():
    doc = dict(TRIANGLE_DOC)
    doc["demands"] = TRIANGLE_DOC["demands"] + [TRIANGLE_DOC["demands"][0]]
    inst = pn.load_scenario(doc).instance
    assert inst.k == 4
    assert np.array_equal(inst.B[:, 0], inst.B[:, 3])


def test_instance_arrays_read_only(ring):
    with pytest.raises(ValueError):
        ring.instance.c[0] = 5.0


TOKYO = Path(__file__).resolve().parents[1] / "scenarios" / "tokyo_like_synthetic.json"


def test_graph_instance_stores_read_only_csr(ring):
    inst = pn.load_scenario(TOKYO).instance
    assert isinstance(inst.A, sp.csr_matrix)
    assert inst.A.nnz == 2 * inst.m
    with pytest.raises(ValueError):
        inst.A.data[0] = 5.0
    raw = pn.Instance(A=ring.instance.A.toarray(), c=ring.instance.c, B=ring.instance.B)
    assert type(raw.A) is np.ndarray


def _assert_is_reference(inst, names, edges, demands):
    """``inst`` is the instance of ``(names, edges, demands)``, built here
    column by column."""
    n, m, k = len(names), len(edges), len(demands)
    A, B = np.zeros((n, m)), np.zeros((n, k))
    tails, heads = np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.intp)
    for j, (u, v, _) in enumerate(edges):
        tails[j], heads[j] = names.index(u), names.index(v)
        A[tails[j], j], A[heads[j], j] = 1.0, -1.0
    for i, d in enumerate(demands):
        B[names.index(d.source), i] = d.amount
        B[names.index(d.sink), i] = -d.amount
    ref = sp.csr_matrix(A)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(inst.A, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert inst.B.shape == B.shape and inst.B.tobytes() == B.tobytes()
    c = np.array([cost for _, _, cost in edges], dtype=float)
    assert inst.c.tobytes() == c.tobytes()
    assert inst.edge_meta == tuple((u, v, f"{u}-{v}") for u, v, _ in edges)
    assert all(type(e) is pn.EdgeMeta for e in inst.edge_meta)
    assert inst.node_ids == tuple(names)
    got_tails, got_heads = inst.edge_endpoints()
    assert np.array_equal(got_tails, tails) and np.array_equal(got_heads, heads)
    assert got_tails.dtype == np.intp and not got_tails.flags.writeable


def test_graph_instance_matches_column_by_column_reference():
    rng = np.random.default_rng(17)
    cases = [graph_parts(pn.load_scenario(TOKYO).instance)]
    cases += [graph_parts(random_graph_instance(rng, k_max=4)) for _ in range(20)]
    cases.append((["u", "v", "w"], [("u", "v", 1.0), ("w", "v", 2.0)], []))
    for names, edges, demands in cases:
        _assert_is_reference(pn.graph_instance(names, edges, demands), names, edges, demands)


def _grid_document(tmp_path, seed: int) -> Path:
    path = tmp_path / f"grid{seed}.json"
    assert cli.main(["gen-scenario", "--kind", "grid", "--spacing", "1.0",
                     "--seed", str(seed), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("source", ["ring.json", "bowtie_L8.json", "tokyo_like_synthetic.json",
                                    "grid-3", "grid-11"])
def test_loader_builds_the_instance_of_its_edge_tuples(tmp_path, source):
    if source.startswith("grid-"):
        path = _grid_document(tmp_path, int(source.split("-")[1]))
    else:
        path = TOKYO.parent / source
    doc = json.loads(path.read_text())
    scen = pn.load_scenario(path)
    edges = [(e["u"], e["v"], float(e["cost"])) for e in doc["edges"]]
    demands = [pn.DemandSpec(d["source"], d["sink"], float(d["amount"]))
               for d in doc.get("demands", [])]
    _assert_is_reference(scen.instance, doc["nodes"], edges, demands)
    assert scen.terminals == (tuple(doc["terminals"]) if "terminals" in doc else None)
    layout = doc.get("layout")
    assert scen.layout == (None if layout is None
                           else {v: (float(x), float(y)) for v, (x, y) in layout.items()})
    assert scen.initial_capacity.document() == doc.get("initial_capacity", 1.0)


def _graph_doc(edit) -> dict:
    doc = {"nodes": ["a", "b", "c"],
           "edges": [{"u": "a", "v": "b", "cost": 1.0}, {"u": "b", "v": "c", "cost": 2.0}],
           "demands": [{"source": "a", "sink": "c", "amount": 1.0}]}
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["edges"].__setitem__(1, ["b", "c", 2.0]),
     "edge 1 must be an object with u, v, cost"),
    (lambda d: d["edges"][1].pop("cost"), "edge 1 must be an object with u, v, cost"),
    (lambda d: d["edges"][1].update(cost="abc"),
     "graph scenario is malformed: could not convert string to float: 'abc'"),
    (lambda d: d["edges"][1].update(cost=None),
     "graph scenario is malformed: float() argument must be a string or a real number, "
     "not 'NoneType'"),
    (lambda d: d["edges"][1].update(cost=0), "edge 1 has nonpositive cost"),
    (lambda d: d["edges"][1].update(cost=float("nan")), "edge 1 has nonpositive cost"),
    (lambda d: d["edges"][1].update(cost=float("inf")), "edge 1 has nonpositive cost"),
    (lambda d: d["edges"][1].update(v="z"), "edge references unknown node 'z'"),
    (lambda d: d["edges"][1].update(v="b"), "self-loop on node 'b' not allowed"),
    (lambda d: d["nodes"].append("a"), "duplicate node ids"),
    (lambda d: d["edges"][1].update(u=["a"]),
     "edge 1 names a node that is not a string: ['a']"),
    (lambda d: d["demands"][0].update(source={"a": 1}),
     "demand 0 names a node that is not a string: {'a': 1}"),
    (lambda d: d.update(terminals=["a", ["b"]]), "'terminals' must list known node ids"),
], ids=["edge-not-object", "edge-missing-cost", "cost-text", "cost-null", "cost-zero",
        "cost-nan", "cost-inf", "unknown-node", "self-loop", "duplicate-node",
        "edge-endpoint-list", "demand-endpoint-object", "terminal-list"])
def test_graph_loader_messages(edit, message):
    doc = _graph_doc(edit)
    for document in (doc, json.dumps(doc)):
        with pytest.raises(ScenarioError) as info:
            pn.load_scenario(document)
        assert str(info.value) == message


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scenario_documents_round_trip(seed):
    inst = random_graph_instance(np.random.default_rng(seed), k_max=4)
    scen = pn.Scenario(instance=inst, initial_capacity=pn.InitialCapacity("constant", 1.0))
    again = pn.load_scenario(json.dumps(pn.scenario_document(scen))).instance
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(again.A, name), getattr(inst.A, name))
    assert again.c.tobytes() == inst.c.tobytes() and again.B.tobytes() == inst.B.tobytes()
    assert again.edge_meta == inst.edge_meta and again.node_ids == inst.node_ids


@pytest.mark.parametrize("nodes, edges, demands", [
    (["a", "b"], [("a", "b", 1.0)], [pn.DemandSpec("a", "z")]),
    (["a", "b"], [("a", "b", 1.0)], [pn.DemandSpec("z", "b")]),
    (["a", "b"], [("a", "z", 1.0)], []),
    (["a", "b", "a"], [("a", "b", 1.0)], []),
], ids=["demand-sink", "demand-source", "edge", "duplicate-node"])
def test_graph_instance_rejects_unknown_or_duplicate_nodes(nodes, edges, demands):
    with pytest.raises(ScenarioError):
        pn.graph_instance(nodes, edges, demands)


def test_first_unbalanced_demand_is_named_on_many_components():
    # components {a, b}, {c, d}, {e, f}; demands 2 and 4 cross them
    nodes = list("abcdef")
    edges = [("a", "b", 1.0), ("c", "d", 1.0), ("e", "f", 1.0)]
    demands = [pn.DemandSpec("a", "b"), pn.DemandSpec("d", "c", 2.0),
               pn.DemandSpec("a", "e", 3.0), pn.DemandSpec("f", "e"),
               pn.DemandSpec("b", "c")]
    with pytest.raises(InfeasibleDemandError, match=r"^demand 2 is not balanced"):
        pn.graph_instance(nodes, edges, demands)
    with pytest.raises(InfeasibleDemandError, match=r"^demand 3 is not balanced"):
        pn.graph_instance(nodes, edges, demands[:2] + demands[3:])
    assert pn.graph_instance(nodes, edges, demands[:2] + demands[3:4]).k == 3


def test_one_line_json_text_loads_like_the_file():
    from_file = pn.load_scenario(TOKYO)
    text = json.dumps(json.loads(TOKYO.read_text()))
    assert "\n" not in text and len(text) > 4096
    for document in (text, "  \n" + text):
        scen = pn.load_scenario(document)
        assert scen.instance.node_ids == from_file.instance.node_ids
        assert scen.instance.edge_meta == from_file.instance.edge_meta
        assert (scen.instance.A != from_file.instance.A).nnz == 0
        assert np.array_equal(scen.instance.B, from_file.instance.B)
        assert np.array_equal(scen.instance.c, from_file.instance.c)
        assert (scen.layout, scen.terminals) == (from_file.layout, from_file.terminals)
        assert scen.initial_capacity == from_file.initial_capacity


def _triangle_parts():
    inst = pn.load_scenario(TRIANGLE_DOC).instance
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


def test_demand_spec_validation():
    with pytest.raises(ScenarioError):
        pn.DemandSpec("a", "a", 1.0)
    with pytest.raises(ScenarioError):
        pn.DemandSpec("a", "b", 0.0)
