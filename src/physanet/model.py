"""Problem instances, demands, and the JSON scenario format.

An instance couples a real constraint matrix ``A`` (n x m), positive edge
costs ``c`` (length m) and a matrix ``B`` (n x k) of demand right-hand
sides.  In the graph setting ``A`` is the node-arc incidence matrix of an
undirected graph, stored as a read-only CSR matrix built from the edge
endpoints (two nonzeros per column), and each column of ``B`` is
``amount * (+1 at source, -1 at sink)``.  A general matrix ``A`` is kept
dense.  Everything downstream (electrical solves, dynamics, analysis) works
on this container.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InfeasibleDemandError, ScenarioError

# Relative tolerance for deciding b in Im(A) on general matrices.
FEASIBILITY_RTOL = 1e-9


class EdgeMeta(NamedTuple):
    tail: str
    head: str
    label: str


@dataclass(frozen=True, eq=False)
class Instance:
    """Validated, immutable problem instance.

    ``edge_meta`` is present exactly when ``A`` is a node-arc incidence
    matrix; it fixes the (arbitrary) edge orientation used throughout.  Such
    an ``A`` (dense or sparse) must equal the incidence matrix of
    ``edge_meta`` and is stored as CSR; a general ``A`` is stored dense.
    """

    A: np.ndarray | sp.csr_matrix
    c: np.ndarray
    B: np.ndarray
    edge_meta: tuple[EdgeMeta, ...] | None = None
    node_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        incidence = self.edge_meta is not None
        A = (sp.csr_matrix(self.A, dtype=float) if incidence
             else np.asarray(self.A, dtype=float))
        c = np.asarray(self.c, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2:
            raise ScenarioError("A must be a 2-d matrix")
        n, m = A.shape
        if c.shape != (m,):
            raise ScenarioError(f"cost vector must have length {m}, got {c.shape}")
        if np.any(~np.isfinite(c)) or np.any(c <= 0):
            raise ScenarioError("all edge costs must be positive and finite")
        if B.ndim == 1:
            B = B.reshape(n, 1)
        if B.shape[0] != n:
            raise ScenarioError(f"B must have {n} rows, got {B.shape[0]}")
        if incidence:
            if len(self.edge_meta) != m:
                raise ScenarioError("edge_meta length must match number of edges")
            endpoints = _edge_endpoints(self.node_ids, self.edge_meta)
            A = _check_incidence(A, _incidence_csr(len(self.node_ids), *endpoints))
            object.__setattr__(self, "_endpoints", endpoints)
        elif np.any(~np.isfinite(A)):
            raise ScenarioError("A contains non-finite entries")
        if np.any(~np.isfinite(B)):
            raise ScenarioError("B contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "B", B)
        _check_feasible(self)
        arrays = (A.data, A.indices, A.indptr) if incidence else (A,)
        for arr in (*arrays, self.c, self.B):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def k(self) -> int:
        return self.B.shape[1]

    @property
    def is_incidence(self) -> bool:
        return self.edge_meta is not None

    def node_index(self, node: str) -> int:
        if self.node_ids is None:
            raise ScenarioError("instance has no node ids")
        try:
            return self.node_ids.index(node)
        except ValueError:
            raise ScenarioError(f"unknown node {node!r}") from None

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Tail/head node indices per edge (incidence instances only)."""
        if self.edge_meta is None:
            raise ScenarioError("not an incidence instance")
        return self._endpoints

    def edge_labels(self) -> list[str]:
        if self.edge_meta is not None:
            return [e.label for e in self.edge_meta]
        return [str(i) for i in range(self.m)]

    def components(self) -> np.ndarray:
        """Connected-component id per node (incidence instances only)."""
        cached = getattr(self, "_components_cache", None)
        if cached is None:
            tails, heads = self.edge_endpoints()
            cached = _components(self.n, tails, heads)
            cached.setflags(write=False)
            object.__setattr__(self, "_components_cache", cached)
        return cached


@dataclass(frozen=True)
class CapacityState:
    """A strictly positive capacity vector at simulation time ``t``."""

    x: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or np.any(~np.isfinite(x)) or np.any(x <= 0):
            raise ScenarioError("capacities must be a strictly positive vector")
        if self.t < 0:
            raise ScenarioError("time must be nonnegative")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class DemandSpec:
    """Graph-layer demand: ``amount`` units between ``source`` and ``sink``."""

    source: str
    sink: str
    amount: float = 1.0

    def __post_init__(self):
        if self.source == self.sink:
            raise ScenarioError("demand source and sink must differ")
        if not (self.amount > 0 and math.isfinite(self.amount)):
            raise ScenarioError("demand amount must be positive and finite")

    def column(self, node_ids: Sequence[str]) -> np.ndarray:
        b = np.zeros(len(node_ids))
        index = {v: i for i, v in enumerate(node_ids)}
        for node, sign in ((self.source, 1.0), (self.sink, -1.0)):
            if node not in index:
                raise ScenarioError(f"demand references unknown node {node!r}")
            b[index[node]] = sign * self.amount
        return b


def _components(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adj = coo_matrix((np.ones(len(tails)), (tails, heads)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    return labels


def _edge_endpoints(node_ids, edges) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tail/head node indices of ``(tail, head, ...)`` edges."""
    if node_ids is None:
        raise ScenarioError("incidence instances need node ids")
    index = {v: i for i, v in enumerate(node_ids)}
    if len(index) != len(node_ids):
        raise ScenarioError("duplicate node ids")
    for u, v, *_ in edges:
        if u == v:
            raise ScenarioError(f"self-loop on node {u!r} not allowed")
        if u not in index or v not in index:
            raise ScenarioError(f"edge ({u!r}, {v!r}) references unknown nodes")
    tails = np.array([index[e[0]] for e in edges], dtype=np.intp)
    heads = np.array([index[e[1]] for e in edges], dtype=np.intp)
    tails.setflags(write=False)
    heads.setflags(write=False)
    return tails, heads


def _incidence_csr(n: int, tails: np.ndarray, heads: np.ndarray) -> sp.csr_matrix:
    m = tails.size
    rows = np.concatenate([tails, heads])
    cols = np.concatenate([np.arange(m), np.arange(m)])
    data = np.concatenate([np.ones(m), -np.ones(m)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, m))


def _check_incidence(A: sp.csr_matrix, expected: sp.csr_matrix) -> sp.csr_matrix:
    """``expected`` if ``A`` equals it entry for entry, else ScenarioError."""
    if A.shape != expected.shape or (A != expected).nnz:
        raise ScenarioError(f"A ({A.shape[0]} x {A.shape[1]}) is not the incidence "
                            "matrix of edge_meta over node_ids")
    return expected


def _check_feasible(instance: Instance) -> None:
    B = instance.B
    if B.shape[1] == 0:
        return
    if instance.is_incidence:
        labels = instance.components()
        for i in range(B.shape[1]):
            b = B[:, i]
            for comp in range(labels.max() + 1):
                s = b[labels == comp].sum()
                if abs(s) > 1e-9 * max(1.0, np.abs(b).sum()):
                    raise InfeasibleDemandError(
                        f"demand {i} is not balanced within connected components "
                        "(endpoints in different components?)")
    else:
        # Rank test via least squares: b in Im(A) iff the residual vanishes.
        sol, _, _, _ = np.linalg.lstsq(instance.A, B, rcond=None)
        resid = instance.A @ sol - B
        for i in range(B.shape[1]):
            scale = max(1.0, float(np.linalg.norm(B[:, i])))
            if float(np.linalg.norm(resid[:, i])) > FEASIBILITY_RTOL * scale:
                raise InfeasibleDemandError(f"demand {i} is not in the image of A")


def incidence_of_graph(nodes: Sequence[str],
                       edges: Sequence[tuple[str, str]]) -> sp.csr_matrix:
    """Node-arc incidence matrix (CSR): column +1 at the tail, -1 at the head.

    The orientation is taken from the listed (tail, head) order; self-loops
    are rejected since their column would be identically zero.
    """
    return _incidence_csr(len(nodes), *_edge_endpoints(nodes, edges))


def graph_instance(nodes: Sequence[str],
                   edges: Sequence[tuple[str, str, float]],
                   demands: Sequence[DemandSpec]) -> Instance:
    """Build an incidence instance from labelled, costed edges."""
    A = incidence_of_graph(nodes, [(u, v) for u, v, _ in edges])
    c = np.array([cost for _, _, cost in edges], dtype=float)
    meta = tuple(EdgeMeta(u, v, f"{u}-{v}") for u, v, _ in edges)
    node_ids = tuple(nodes)
    if demands:
        B = np.column_stack([d.column(node_ids) for d in demands])
    else:
        B = np.zeros((len(nodes), 0))
    return Instance(A=A, c=c, B=B, edge_meta=meta, node_ids=node_ids)


def max_flow_bound(instance: Instance) -> list[float] | None:
    """Per-commodity bound ``D * ||b||_1`` on any minimum-energy flow entry.

    ``D`` is the largest absolute determinant over square submatrices of
    ``A``; it is 1 for incidence matrices and is enumerated by brute force
    for general matrices up to 6x6.  Returns ``None`` when the bound is
    unavailable (general matrix too large to enumerate).
    """
    b1 = np.abs(instance.B).sum(axis=0)
    if instance.is_incidence:
        return [float(v) for v in b1]
    n, m = instance.A.shape
    if n > 6 or m > 6:
        return None
    D = 0.0
    for size in range(1, min(n, m) + 1):
        for rows in itertools.combinations(range(n), size):
            sub = instance.A[np.ix_(rows, range(m))]
            for cols in itertools.combinations(range(m), size):
                D = max(D, abs(float(np.linalg.det(sub[:, cols]))))
    return [float(D * v) for v in b1]


# ---------------------------------------------------------------------------
# Scenario documents


@dataclass(frozen=True)
class InitialCapacity:
    """Initial capacities: a constant, a per-edge list, or seeded uniforms."""

    kind: str  # "constant" | "per_edge" | "random_uniform"
    value: float | None = None
    values: tuple[float, ...] | None = None
    low: float | None = None
    high: float | None = None
    seed: int | None = None

    def sample(self, m: int, seed: int | None = None) -> np.ndarray:
        if self.kind == "constant":
            return np.full(m, float(self.value))
        if self.kind == "per_edge":
            if len(self.values) != m:
                raise ScenarioError(
                    f"initial_capacity lists {len(self.values)} values for {m} edges")
            return np.array(self.values, dtype=float)
        use = self.seed if seed is None else seed
        rng = np.random.default_rng(use)
        return rng.uniform(self.low, self.high, size=m)

    def document(self) -> Any:
        if self.kind == "constant":
            return self.value
        if self.kind == "per_edge":
            return list(self.values)
        doc: dict[str, Any] = {"random_uniform": [self.low, self.high]}
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


def _parse_initial_capacity(raw: Any) -> InitialCapacity:
    if raw is None:
        return InitialCapacity(kind="constant", value=1.0)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if raw <= 0:
            raise ScenarioError("initial capacity must be positive")
        return InitialCapacity(kind="constant", value=float(raw))
    if isinstance(raw, list):
        vals = [float(v) for v in raw]
        if any(v <= 0 for v in vals):
            raise ScenarioError("initial capacities must be positive")
        return InitialCapacity(kind="per_edge", values=tuple(vals))
    if isinstance(raw, Mapping) and "random_uniform" in raw:
        lo, hi = (float(v) for v in raw["random_uniform"])
        if not (0 < lo <= hi):
            raise ScenarioError("random_uniform bounds must satisfy 0 < lo <= hi")
        seed = raw.get("seed")
        return InitialCapacity(kind="random_uniform", low=lo, high=hi,
                               seed=None if seed is None else int(seed))
    raise ScenarioError("unrecognized initial_capacity specification")


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: instance plus initial-capacity rule and metadata."""

    instance: Instance
    initial_capacity: InitialCapacity
    name: str | None = None
    layout: dict[str, tuple[float, float]] | None = None
    terminals: tuple[str, ...] | None = None

    def sample_x0(self, seed: int | None = None) -> np.ndarray:
        return self.initial_capacity.sample(self.instance.m, seed=seed)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def load_scenario(document: Mapping[str, Any] | str | Path) -> Scenario:
    """Parse and validate a scenario document (mapping, JSON text, or path)."""
    doc = _coerce_document(document)
    if "nodes" in doc and "A" in doc:
        raise ScenarioError("scenario mixes graph and matrix variants")
    if "nodes" in doc:
        return _load_graph_scenario(doc)
    if "A" in doc:
        return _load_matrix_scenario(doc)
    raise ScenarioError("scenario must contain either 'nodes' or 'A'")


def load_instance(document: Mapping[str, Any] | str | Path) -> Instance:
    """Load just the validated instance from a scenario document."""
    return load_scenario(document).instance


def _coerce_document(document: Mapping[str, Any] | str | Path) -> Mapping[str, Any]:
    if isinstance(document, Mapping):
        return document
    if isinstance(document, Path) or (isinstance(document, str) and "\n" not in document
                                      and (document.endswith(".json") or Path(document).exists())):
        path = Path(document)
        if not path.exists():
            raise ScenarioError(f"scenario file not found: {path}")
        text = path.read_text()
    else:
        text = str(document)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    return doc


def _load_graph_scenario(doc: Mapping[str, Any]) -> Scenario:
    nodes = doc["nodes"]
    _require(isinstance(nodes, list) and nodes, "'nodes' must be a non-empty list")
    _require(all(isinstance(v, str) for v in nodes), "node ids must be strings")
    raw_edges = doc.get("edges")
    _require(isinstance(raw_edges, list) and raw_edges, "'edges' must be a non-empty list")
    edges = []
    for j, e in enumerate(raw_edges):
        _require(isinstance(e, Mapping) and {"u", "v", "cost"} <= set(e),
                 f"edge {j} must be an object with u, v, cost")
        cost = float(e["cost"])
        _require(cost > 0 and math.isfinite(cost), f"edge {j} has nonpositive cost")
        edges.append((e["u"], e["v"], cost))
    raw_demands = doc.get("demands", [])
    _require(isinstance(raw_demands, list), "'demands' must be a list")
    demands = []
    for i, d in enumerate(raw_demands):
        _require(isinstance(d, Mapping) and {"source", "sink", "amount"} <= set(d),
                 f"demand {i} must be an object with source, sink, amount")
        demands.append(DemandSpec(d["source"], d["sink"], float(d["amount"])))
    instance = graph_instance(nodes, edges, demands)
    layout = None
    if "layout" in doc:
        layout = {v: (float(xy[0]), float(xy[1])) for v, xy in doc["layout"].items()}
    terminals = None
    if "terminals" in doc:
        terms = doc["terminals"]
        _require(isinstance(terms, list) and all(t in nodes for t in terms),
                 "'terminals' must list known node ids")
        terminals = tuple(terms)
    return Scenario(instance=instance,
                    initial_capacity=_parse_initial_capacity(doc.get("initial_capacity")),
                    name=doc.get("name"), layout=layout, terminals=terminals)


def _load_matrix_scenario(doc: Mapping[str, Any]) -> Scenario:
    try:
        A = np.array(doc["A"], dtype=float)
        c = np.array(doc["c"], dtype=float)
        B = np.array(doc["B"], dtype=float)
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"matrix scenario is malformed: {exc}") from exc
    instance = Instance(A=A, c=c, B=B)
    return Scenario(instance=instance,
                    initial_capacity=_parse_initial_capacity(doc.get("initial_capacity")),
                    name=doc.get("name"))


def scenario_document(scenario: Scenario) -> dict[str, Any]:
    """Serialize a scenario back to its JSON document form."""
    inst = scenario.instance
    doc: dict[str, Any] = {}
    if scenario.name:
        doc["name"] = scenario.name
    if inst.is_incidence:
        doc["nodes"] = list(inst.node_ids)
        doc["edges"] = [{"u": e.tail, "v": e.head, "cost": float(cost)}
                        for e, cost in zip(inst.edge_meta, inst.c)]
        doc["demands"] = _demands_of_B(inst)
    else:
        doc["A"] = inst.A.tolist()
        doc["c"] = inst.c.tolist()
        doc["B"] = inst.B.tolist()
    doc["initial_capacity"] = scenario.initial_capacity.document()
    if scenario.layout:
        doc["layout"] = {v: [xy[0], xy[1]] for v, xy in scenario.layout.items()}
    if scenario.terminals:
        doc["terminals"] = list(scenario.terminals)
    return doc


def _demands_of_B(inst: Instance) -> list[dict[str, Any]]:
    demands = []
    for i in range(inst.k):
        b = inst.B[:, i]
        pos = np.nonzero(b > 0)[0]
        neg = np.nonzero(b < 0)[0]
        if len(pos) != 1 or len(neg) != 1 or not np.isclose(b[pos[0]], -b[neg[0]]):
            raise ScenarioError(
                f"demand {i} is not a source/sink pair and cannot be serialized")
        demands.append({"source": inst.node_ids[pos[0]],
                        "sink": inst.node_ids[neg[0]],
                        "amount": float(b[pos[0]])})
    return demands
