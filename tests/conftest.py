from __future__ import annotations

import math

import numpy as np
import pytest

import physanet as pn


@pytest.fixture(scope="session")
def ring():
    return pn.ring_scenario()


@pytest.fixture(scope="session")
def single_edge():
    return pn.graph_instance(["u", "v"], [("u", "v", 1.0)],
                             [pn.DemandSpec("u", "v", 1.0)])


def random_graph_instance(rng: np.random.Generator, n_max: int = 8,
                          k_max: int = 3, k_min: int = 1) -> pn.Instance:
    """Random connected graph with float costs (ties have measure zero)."""
    n = int(rng.integers(3, n_max + 1))
    nodes = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((nodes[j], nodes[i], float(rng.uniform(0.5, 2.0))))
    for _ in range(int(rng.integers(1, n))):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((nodes[int(u)], nodes[int(v)], float(rng.uniform(0.5, 2.0))))
    k = int(rng.integers(k_min, k_max + 1))
    demands = []
    while len(demands) < k:
        u, v = rng.choice(n, size=2, replace=False)
        demands.append(pn.DemandSpec(nodes[int(u)], nodes[int(v)],
                                     float(rng.uniform(0.5, 2.0))))
    return pn.graph_instance(nodes, edges, demands)


def graph_parts(inst: pn.Instance):
    """``(nodes, edges, demands)`` that ``graph_instance`` rebuilds ``inst`` from."""
    names = list(inst.node_ids)
    edges = [(e.tail, e.head, float(c)) for e, c in zip(inst.edge_meta, inst.c)]
    demands = [pn.DemandSpec(names[int(np.argmax(b))], names[int(np.argmin(b))],
                             float(b.max())) for b in inst.B.T]
    return names, edges, demands


@pytest.fixture
def factorization(monkeypatch):
    """``factorization("band" | "splu" | "blocked")`` makes incidence
    instances built afterwards factor that way, by moving the half-bandwidth
    limit of the selection rule; ``"blocked"`` is the band with every solve
    made by blocks, whatever its width and number of columns.  The layout is
    fixed when an instance's grounded system is first built, so each path
    needs a fresh instance."""
    def use(kind: str) -> None:
        monkeypatch.setattr(pn.electrical, "MAX_BANDWIDTH",
                            -1 if kind == "splu" else math.inf)
        if kind == "blocked":
            monkeypatch.setattr(pn.electrical, "BLOCKED_SOLVE_MIN_BANDWIDTH", 0)
            monkeypatch.setattr(pn.electrical, "BLOCKED_SOLVE_MIN_COLUMNS", 0)
    return use
