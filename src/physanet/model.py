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
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

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
        A = (sp.csr_matrix(self.A, dtype=float, copy=True) if incidence
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
            object.__setattr__(self, "_endpoints",
                               _read_endpoints(A, self.node_ids, self.edge_meta))
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


def _components(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    adj = sp.coo_matrix((np.ones(len(tails)), (tails, heads)), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def _node_index(nodes: Sequence[str]) -> dict[str, int]:
    index = {v: i for i, v in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ScenarioError("duplicate node ids")
    return index


def _lookup(index: Mapping[str, int], names: list[str], what: str) -> np.ndarray:
    try:
        return np.fromiter(map(index.__getitem__, names), dtype=np.intp, count=len(names))
    except KeyError as exc:
        raise ScenarioError(f"{what} references unknown node {exc.args[0]!r}") from None
    except TypeError:
        j = next(j for j, v in enumerate(names) if not isinstance(v, Hashable))
        raise ScenarioError(f"{what} {j} names a node that is not a string: {names[j]!r}")


def _incidence_csr(index: Mapping[str, int], us: list, vs: list) -> sp.csr_matrix:
    """Incidence CSR of the edges ``us[j] -> vs[j]`` over the node ``index``."""
    tails, heads = _lookup(index, us, "edge"), _lookup(index, vs, "edge")
    loops = np.flatnonzero(tails == heads)
    if loops.size:
        raise ScenarioError(f"self-loop on node {us[loops[0]]!r} not allowed")
    # Column j holds +1 at its tail and -1 at its head.
    m = tails.size
    rows = np.stack([tails, heads], axis=1).ravel()
    return sp.csc_matrix((np.tile([1.0, -1.0], m), rows, np.arange(0, 2 * m + 1, 2)),
                         shape=(len(index), m)).tocsr()


def _read_endpoints(A: sp.csr_matrix, node_ids, edge_meta) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tail (+1) and head (-1) row of each column of ``A``.

    Raises ScenarioError unless every column holds exactly one +1 and one
    -1, at the nodes that ``edge_meta`` names.
    """
    n, m = A.shape
    if node_ids is None or len(node_ids) != n or len(set(node_ids)) != n:
        raise ScenarioError(f"incidence instances need {n} distinct node ids, one per row")
    A.sum_duplicates()
    A.eliminate_zeros()
    coo = A.tocoo()
    plus, minus = coo.data == 1.0, coo.data == -1.0
    tails, heads = np.full(m, -1, dtype=np.intp), np.full(m, -1, dtype=np.intp)
    tails[coo.col[plus]], heads[coo.col[minus]] = coo.row[plus], coo.row[minus]
    names = np.fromiter(node_ids, dtype=object, count=n)
    # 2m entries with a +1 and a -1 in every column leave room for no other.
    if (coo.nnz != 2 * m or np.any(tails < 0) or np.any(heads < 0)
            or names[tails].tolist() != [e.tail for e in edge_meta]
            or names[heads].tolist() != [e.head for e in edge_meta]):
        raise ScenarioError("A is not the incidence matrix of edge_meta over node_ids")
    tails.setflags(write=False)
    heads.setflags(write=False)
    return tails, heads


def _check_feasible(instance: Instance) -> None:
    """Raise InfeasibleDemandError for the first demand not in Im(A)."""
    B = instance.B
    if B.shape[1] == 0:
        return
    if instance.is_incidence:
        labels = instance.components()
        # One row per component: the sum of every demand over its nodes.
        sums = sp.csr_matrix((np.ones(labels.size), (labels, np.arange(labels.size)))) @ B
        excess = np.abs(sums).max(axis=0) - 1e-9 * np.maximum(1.0, np.abs(B).sum(axis=0))
        why = "is not balanced within connected components (endpoints in different components?)"
    else:
        # Rank test via least squares: b in Im(A) iff the residual vanishes.
        sol, _, _, _ = np.linalg.lstsq(instance.A, B, rcond=None)
        excess = (np.linalg.norm(instance.A @ sol - B, axis=0)
                  - FEASIBILITY_RTOL * np.maximum(1.0, np.linalg.norm(B, axis=0)))
        why = "is not in the image of A"
    bad = np.flatnonzero(excess > 0)
    if bad.size:
        raise InfeasibleDemandError(f"demand {bad[0]} {why}")


def graph_instance(nodes: Sequence[str],
                   edges: Sequence[tuple[str, str, float]],
                   demands: Sequence[DemandSpec]) -> Instance:
    """Build an incidence instance from labelled, costed edges."""
    us, vs, costs = ([e[i] for e in edges] for i in range(3))
    return _graph_instance(_node_index(nodes), us, vs, np.array(costs, dtype=float), demands)


def _graph_instance(index: dict[str, int], us: list, vs: list, c: np.ndarray,
                    demands: Sequence[DemandSpec]) -> Instance:
    """``graph_instance`` of the edges ``us[j] -> vs[j]`` at cost ``c[j]``."""
    A = _incidence_csr(index, us, vs)
    # tuple.__new__ builds each EdgeMeta without a Python-level call.
    meta = tuple(map(partial(tuple.__new__, EdgeMeta),
                     zip(us, vs, [f"{u}-{v}" for u, v in zip(us, vs)])))
    # Column i is +amount at the source and -amount at the sink.
    B = np.zeros((len(index), len(demands)))
    cols = np.arange(len(demands))
    amount = np.array([d.amount for d in demands], dtype=float)
    B[_lookup(index, [d.source for d in demands], "demand"), cols] = amount
    B[_lookup(index, [d.sink for d in demands], "demand"), cols] = -amount
    return Instance(A=A, c=c, B=B, edge_meta=meta, node_ids=tuple(index))


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
    try:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            if not 0 < float(raw) < math.inf:
                raise ScenarioError("initial capacity must be positive and finite")
            return InitialCapacity(kind="constant", value=float(raw))
        if isinstance(raw, list):
            vals = [float(v) for v in raw]
            if not all(0 < v < math.inf for v in vals):
                raise ScenarioError("initial capacities must be positive and finite")
            return InitialCapacity(kind="per_edge", values=tuple(vals))
        if isinstance(raw, Mapping) and "random_uniform" in raw:
            lo, hi = (float(v) for v in raw["random_uniform"])
            if not 0 < lo <= hi < math.inf:
                raise ScenarioError("random_uniform bounds must satisfy 0 < lo <= hi < inf")
            seed = raw.get("seed")
            return InitialCapacity(kind="random_uniform", low=lo, high=hi,
                                   seed=None if seed is None else int(seed))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"initial_capacity is malformed: {exc}") from exc
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


def load_scenario(document: Mapping[str, Any] | bytes | str | Path) -> Scenario:
    """Parse and validate a scenario document (mapping, JSON text or bytes,
    or path)."""
    doc = _coerce_document(document)
    if "nodes" in doc and "A" in doc:
        raise ScenarioError("scenario mixes graph and matrix variants")
    if "nodes" in doc:
        return _load_graph_scenario(doc)
    if "A" in doc:
        return _load_matrix_scenario(doc)
    raise ScenarioError("scenario must contain either 'nodes' or 'A'")


def read_scenario_file(path: str | Path) -> bytes:
    """The bytes of a scenario file, for ``load_scenario``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc


def _coerce_document(document: Mapping[str, Any] | bytes | str | Path) -> Mapping[str, Any]:
    if isinstance(document, Mapping):
        return document
    if isinstance(document, bytes) or (isinstance(document, str)
                                       and document.lstrip().startswith("{")):
        text = document
    else:
        text = read_scenario_file(document)
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    raw_demands = doc.get("demands", [])
    _require(isinstance(raw_demands, list), "'demands' must be a list")
    try:
        us, vs = [e["u"] for e in raw_edges], [e["v"] for e in raw_edges]
        c = np.array([e["cost"] for e in raw_edges], dtype=float)
    except (LookupError, TypeError, ValueError, OverflowError):
        c = None
    demands, layout = [], None
    try:
        if c is None or c.shape != (len(raw_edges),) or not np.all((c > 0) & (c < np.inf)):
            for j, e in enumerate(raw_edges):  # name the first bad edge
                _require(isinstance(e, Mapping) and {"u", "v", "cost"} <= set(e),
                         f"edge {j} must be an object with u, v, cost")
                cost = float(e["cost"])
                _require(cost > 0 and math.isfinite(cost), f"edge {j} has nonpositive cost")
            raise ScenarioError("edge costs must be numbers")
        for i, d in enumerate(raw_demands):
            _require(isinstance(d, Mapping) and {"source", "sink", "amount"} <= set(d),
                     f"demand {i} must be an object with source, sink, amount")
            demands.append(DemandSpec(d["source"], d["sink"], float(d["amount"])))
        if "layout" in doc:
            _require(isinstance(doc["layout"], Mapping), "'layout' must be an object")
            layout = {v: (float(x), float(y)) for v, (x, y) in doc["layout"].items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"graph scenario is malformed: {exc}") from exc
    index = _node_index(nodes)
    instance = _graph_instance(index, us, vs, c, demands)
    terminals = None
    if "terminals" in doc:
        terms = doc["terminals"]
        _require(isinstance(terms, list)
                 and all(isinstance(t, str) and t in index for t in terms),
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
        doc["edges"] = [{"u": e.tail, "v": e.head, "cost": cost}
                        for e, cost in zip(inst.edge_meta, inst.c.tolist())]
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
    B, cols = inst.B, np.arange(inst.k)
    src, dst = np.argmax(B, axis=0), np.argmin(B, axis=0)
    amount = B[src, cols]
    bad = (((B > 0).sum(axis=0) != 1) | ((B < 0).sum(axis=0) != 1)
           | ~np.isclose(amount, -B[dst, cols]))
    if bad.any():
        raise ScenarioError(f"demand {np.argmax(bad)} is not a source/sink pair "
                            "and cannot be serialized")
    names = inst.node_ids
    return [{"source": names[u], "sink": names[v], "amount": a}
            for u, v, a in zip(src.tolist(), dst.tolist(), amount.tolist())]
