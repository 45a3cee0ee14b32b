"""Built-in case studies and generators: ring, bow-tie, polygon grids.

The ring (three nodes, all-pairs unit demands) and the bow-tie (two demand
pairs that may share a middle edge of cost ``L``) have known equilibria and
serve as quantitative benchmarks.  The polygon-grid generator overlays a
lattice on a region, connects each node to its up-to-eight neighbors with
slightly perturbed lengths, and derives demands from a terminal set with a
distance threshold; a synthetic bay-shaped region stands in for real
geography.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import PruningError, ScenarioError
from .model import (DemandSpec, InitialCapacity, Instance, Scenario,
                    _components, graph_instance)


def ring_scenario() -> Scenario:
    """Three-cycle with unit costs and a unit demand between every pair.

    Initial capacities are drawn uniformly from [0.001, 1].
    """
    nodes = ["a", "b", "c"]
    edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]
    demands = [DemandSpec("a", "b", 1.0), DemandSpec("a", "c", 1.0),
               DemandSpec("b", "c", 1.0)]
    layout = {"a": (0.0, 1.0), "b": (-0.87, -0.5), "c": (0.87, -0.5)}
    return Scenario(instance=graph_instance(nodes, edges, demands),
                    initial_capacity=InitialCapacity(
                        kind="random_uniform", low=0.001, high=1.0),
                    name="ring", layout=layout, terminals=("a", "b", "c"))


def bowtie_scenario(L: float) -> Scenario:
    """Two demand pairs (0,1) and (4,5) joined through hub nodes 2 and 3.

    The direct route for each pair costs 10, the route through the middle
    edge costs ``L + 2``, and the route through the other pair's edge costs
    14.  ``L = inf`` drops the middle edge entirely (6 edges, total cost 24).
    Initial capacities are drawn uniformly from [1, 10].
    """
    if not (L > 0):
        raise ScenarioError("middle-edge cost L must be positive (or inf)")
    nodes = ["0", "1", "2", "3", "4", "5"]
    edges = [("0", "1", 10.0), ("4", "5", 10.0)]
    if math.isfinite(L):
        edges.append(("2", "3", float(L)))
    edges += [("0", "2", 1.0), ("1", "3", 1.0), ("2", "4", 1.0), ("3", "5", 1.0)]
    demands = [DemandSpec("0", "1", 1.0), DemandSpec("4", "5", 1.0)]
    layout = {"0": (0.0, 2.0), "1": (4.0, 2.0), "2": (1.3, 1.0),
              "3": (2.7, 1.0), "4": (0.0, 0.0), "5": (4.0, 0.0)}
    name = "bowtie-Linf" if math.isinf(L) else f"bowtie-L{L:g}"
    return Scenario(instance=graph_instance(nodes, edges, demands),
                    initial_capacity=InitialCapacity(
                        kind="random_uniform", low=1.0, high=10.0),
                    name=name, layout=layout,
                    terminals=("0", "1", "4", "5"))


def bowtie_edge_indices(instance: Instance) -> dict[str, int]:
    """Indices of the three horizontal edges (they cut the two demand pairs)."""
    labels = instance.edge_labels()
    out = {"top": labels.index("0-1"), "bottom": labels.index("4-5")}
    if "2-3" in labels:
        out["middle"] = labels.index("2-3")
    return out


# ---------------------------------------------------------------------------
# Polygon grids


@dataclass(frozen=True)
class RegionGrid:
    """Lattice nodes strictly inside a polygon, 8-connected with perturbed
    edge lengths (axis 1, diagonal 1.41, both +/- up to 0.15, times spacing)."""

    polygon: tuple[tuple[float, float], ...]
    spacing: float
    node_ids: tuple[str, ...]
    coords: dict[str, tuple[float, float]]
    edges: tuple[tuple[str, str, float], ...]
    seed: int

    def diameter(self) -> float:
        pts = np.array([self.coords[v] for v in self.node_ids])
        best = 0.0
        for i in range(len(pts)):
            d = np.hypot(*(pts[i + 1:] - pts[i]).T) if i + 1 < len(pts) else []
            if len(d):
                best = max(best, float(np.max(d)))
        return best


@dataclass(frozen=True)
class TerminalSet:
    """Weighted terminals plus the distance threshold for demand creation."""

    terminals: tuple[tuple[str, float], ...]
    threshold: float
    hub: str | None = None

    def __post_init__(self):
        if not self.threshold > 0:  # also refuses NaN
            raise ScenarioError("threshold must be positive")
        if not all(w > 0 for _, w in self.terminals):
            raise ScenarioError("terminal weights must be positive")


HUB_DEMAND_WEIGHT = 7.0


def _point_on_segment(px, py, x1, y1, x2, y2, tol=1e-12) -> bool:
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if abs(cross) > tol * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
        return False
    return min(x1, x2) - tol <= px <= max(x1, x2) + tol and \
        min(y1, y2) - tol <= py <= max(y1, y2) + tol


def point_strictly_inside(px: float, py: float,
                          polygon) -> bool:
    """Ray-casting test; points on the boundary count as outside."""
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if _point_on_segment(px, py, x1, y1, x2, y2):
            return False
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xint:
                inside = not inside
    return inside


_NEIGHBOR_OFFSETS = ((1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.41), (1, -1, 1.41))


def grid_region_scenario(polygon, spacing: float,
                         seed: int) -> tuple[RegionGrid, Instance]:
    """Overlay a lattice on the polygon and 8-connect interior nodes.

    Edge lengths are ``spacing * (base + 0.05 r)`` with base 1 (axis) or
    1.41 (diagonal) and an integer ``r`` drawn uniformly from [-3, 3], so
    no two parallel routes have exactly equal length.  Deterministic for a
    fixed (polygon, spacing, seed).  The returned instance carries no
    demands yet; see :func:`grid_scenario`.
    """
    if not 0 < spacing < math.inf:
        raise ScenarioError("spacing must be positive and finite")
    try:
        poly = tuple((float(x), float(y)) for x, y in polygon)
    except (TypeError, ValueError):
        raise ScenarioError("polygon vertices must be [x, y] pairs of numbers") from None
    if not all(math.isfinite(v) for vertex in poly for v in vertex):
        raise ScenarioError("polygon vertices must be finite")
    if len(poly) < 3:
        raise ScenarioError("polygon needs at least 3 vertices")
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    i_lo, i_hi = math.ceil(min(xs) / spacing), math.floor(max(xs) / spacing)
    j_lo, j_hi = math.ceil(min(ys) / spacing), math.floor(max(ys) / spacing)
    lattice: dict[tuple[int, int], str] = {}
    coords: dict[str, tuple[float, float]] = {}
    ids: list[str] = []
    for j in range(j_lo, j_hi + 1):
        for i in range(i_lo, i_hi + 1):
            px, py = i * spacing, j * spacing
            if point_strictly_inside(px, py, poly):
                vid = f"n{len(ids)}"
                lattice[(i, j)] = vid
                coords[vid] = (px, py)
                ids.append(vid)
    if not ids:
        raise ScenarioError("polygon contains no grid points")

    rng = np.random.default_rng(seed)
    edges: list[tuple[str, str, float]] = []
    for j in range(j_lo, j_hi + 1):
        for i in range(i_lo, i_hi + 1):
            u = lattice.get((i, j))
            if u is None:
                continue
            for di, dj, base in _NEIGHBOR_OFFSETS:
                v = lattice.get((i + di, j + dj))
                if v is None:
                    continue
                r = int(rng.integers(-3, 4))
                edges.append((u, v, spacing * (base + 0.05 * r)))

    grid = RegionGrid(polygon=poly, spacing=float(spacing), node_ids=tuple(ids),
                      coords=coords, edges=tuple(edges), seed=int(seed))
    return grid, graph_instance(ids, edges, [])


def grid_scenario(grid: RegionGrid, demands: list[DemandSpec],
                  terminals: TerminalSet | None = None,
                  initial_capacity: float = 0.5,
                  name: str = "grid") -> Scenario:
    """Bundle a grid and its demands as a scenario (capacities 0.5 by default)."""
    if not 0 < initial_capacity < math.inf:
        raise ScenarioError("initial capacity must be positive and finite")
    term_ids = tuple(t for t, _ in terminals.terminals) if terminals else None
    return Scenario(instance=graph_instance(list(grid.node_ids), list(grid.edges), demands),
                    initial_capacity=InitialCapacity(kind="constant",
                                                     value=initial_capacity),
                    name=name, layout=dict(grid.coords), terminals=term_ids)


def pick_terminals(grid: RegionGrid, count: int,
                   threshold_fraction: float = 0.5,
                   hub_weight: float = HUB_DEMAND_WEIGHT) -> TerminalSet:
    """Deterministic spread of ``count`` terminals by farthest-point
    sampling, seeded at the node nearest the region centroid (the hub)."""
    if count < 2:
        raise ScenarioError("need at least two terminals")
    pts = np.array([grid.coords[v] for v in grid.node_ids])
    centroid = pts.mean(axis=0)
    start = int(np.argmin(((pts - centroid) ** 2).sum(axis=1)))
    chosen = [start]
    dist = np.hypot(*(pts - pts[start]).T)
    while len(chosen) < min(count, len(pts)):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.hypot(*(pts - pts[nxt]).T))
    hub = grid.node_ids[start]
    terminals = tuple((grid.node_ids[i], hub_weight if i == start else 1.0)
                      for i in sorted(chosen))
    threshold = threshold_fraction * grid.diameter()
    return TerminalSet(terminals=terminals, threshold=threshold, hub=hub)


def demands_by_threshold(grid: RegionGrid,
                         terminals: TerminalSet) -> list[DemandSpec]:
    """One demand per unordered terminal pair within the threshold distance.

    The amount is the larger endpoint weight, so pairs involving the hub
    (weight 7) get amount 7 and ordinary pairs get amount 1.
    """
    for node, _ in terminals.terminals:
        if node not in grid.coords:
            raise ScenarioError(f"terminal {node!r} is not a grid node")
    out: list[DemandSpec] = []
    terms = terminals.terminals
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            (u, wu), (v, wv) = terms[i], terms[j]
            ux, uy = grid.coords[u]
            vx, vy = grid.coords[v]
            if math.hypot(ux - vx, uy - vy) <= terminals.threshold:
                out.append(DemandSpec(u, v, max(wu, wv)))
    return out


def synthetic_region_polygon() -> tuple[tuple[float, float], ...]:
    """A synthetic bay-shaped region (roughly 25 x 21 with a southern notch).

    Purely artificial coordinates chosen so a unit-spacing grid holds about
    four hundred nodes; vertex coordinates avoid lattice points.
    """
    return (
        (0.6, 9.5), (2.6, 3.5), (7.5, 0.6), (12.4, 0.6),
        (12.4, 4.4), (14.6, 6.4), (16.6, 4.4), (16.6, 0.6),
        (21.4, 1.6), (24.4, 5.5), (25.4, 11.5), (23.4, 16.5),
        (18.5, 20.4), (11.5, 21.4), (5.5, 19.5), (1.6, 15.5),
    )


# ---------------------------------------------------------------------------
# Shortest paths, baselines, pruning


def _weighted_adjacency(instance: Instance) -> sp.csr_matrix:
    """Upper-triangular adjacency of the undirected graph, weighted by cost.

    Of parallel edges only the cheapest is kept: a CSR matrix built from
    duplicate pairs would sum their costs.
    """
    if not instance.is_incidence:
        raise ScenarioError("shortest paths need a graph instance")
    n = instance.n
    tails, heads = instance.edge_endpoints()
    pairs, pair = np.unique(np.minimum(tails, heads) * n + np.maximum(tails, heads),
                            return_inverse=True)
    cost = np.full(pairs.size, np.inf)
    np.minimum.at(cost, pair, instance.c)
    return sp.csr_matrix((cost, np.divmod(pairs, n)), shape=(n, n))


def shortest_path_length(instance: Instance, source: str, sink: str) -> float:
    """Undirected Dijkstra distance by edge cost (inf when disconnected)."""
    dist = dijkstra(_weighted_adjacency(instance), directed=False,
                    indices=instance.node_index(source))
    return float(dist[instance.node_index(sink)])


@dataclass(frozen=True)
class BaselineReport:
    """Cost/energy of routing every demand alone on its own shortest path."""

    cost: float
    energy: float

    @property
    def total(self) -> float:
        return self.cost + self.energy


def shortest_path_union_baseline(instance: Instance) -> BaselineReport:
    """Route each demand separately on its shortest path with capacity equal
    to its amount; then per demand both cost and energy equal
    ``amount * path length``.  The combined cost+energy is the yardstick the
    shared design must beat."""
    B, names = instance.B, instance.node_ids
    src, dst = np.argmax(B, axis=0), np.argmin(B, axis=0)
    sources, row = np.unique(src, return_inverse=True)
    dist = dijkstra(_weighted_adjacency(instance), directed=False, indices=sources)
    length = dist[row, dst]
    if np.isinf(length).any():
        i = int(np.argmax(np.isinf(length)))
        raise ScenarioError(f"demand {names[src[i]]}->{names[dst[i]]} is disconnected")
    # Summed in demand order: np.sum adds pairwise and can move the last bit.
    cost = 0.0
    for term in (B.max(axis=0) * length).tolist():
        cost += term
    return BaselineReport(cost=cost, energy=cost)


@dataclass(frozen=True)
class PruneResult:
    instance: Instance
    x: np.ndarray
    kept_nodes: tuple[str, ...]
    kept_edges: tuple[int, ...]   # indices into the original edge order


def prune_degree_one(instance: Instance, x: np.ndarray, terminals,
                     capacity_threshold: float = 1e-3) -> PruneResult:
    """Drop edges below the capacity threshold, then iteratively remove
    non-terminal nodes of degree at most one.

    Demand endpoints are treated as terminals.  Raises
    :class:`PruningError` if the surviving network disconnects any demand
    pair (a sign the threshold was too aggressive).
    """
    if not instance.is_incidence:
        raise ScenarioError("pruning needs a graph instance")
    x = np.asarray(x, dtype=float)
    names = instance.node_ids
    # (source, sink, amount) of each demand, by node index
    pairs = [(int(np.argmax(b)), int(np.argmin(b)), float(b.max()))
             for b in instance.B.T]
    protected = set(terminals)
    protected.update(names[v] for src, dst, _ in pairs for v in (src, dst))

    keep_edge = [i for i in range(instance.m) if x[i] >= capacity_threshold]
    alive = set(keep_edge)
    degree: dict[str, int] = {v: 0 for v in instance.node_ids}
    incident: dict[str, list[int]] = {v: [] for v in instance.node_ids}
    for i in keep_edge:
        meta = instance.edge_meta[i]
        degree[meta.tail] += 1
        degree[meta.head] += 1
        incident[meta.tail].append(i)
        incident[meta.head].append(i)

    removed_nodes: set[str] = set()
    changed = True
    while changed:
        changed = False
        for v in instance.node_ids:
            if v in removed_nodes or v in protected or degree[v] > 1:
                continue
            removed_nodes.add(v)
            changed = True
            for i in incident[v]:
                if i in alive:
                    alive.discard(i)
                    meta = instance.edge_meta[i]
                    degree[meta.tail] -= 1
                    degree[meta.head] -= 1

    kept_edges = tuple(i for i in keep_edge if i in alive)
    kept_nodes = tuple(v for v in instance.node_ids
                       if (v not in removed_nodes and degree[v] > 0) or v in protected)

    # Every demand pair must stay connected in the pruned network.
    tails, heads = instance.edge_endpoints()
    kept = np.array(kept_edges, dtype=np.intp)
    labels = _components(instance.n, tails[kept], heads[kept])
    for src, dst, _ in pairs:
        if labels[src] != labels[dst]:
            raise PruningError(
                f"pruning at threshold {capacity_threshold:g} disconnected "
                f"demand {names[src]}->{names[dst]}", pair=(names[src], names[dst]))

    demands = [DemandSpec(names[src], names[dst], amount) for src, dst, amount in pairs]
    edges = [(instance.edge_meta[i].tail, instance.edge_meta[i].head,
              float(instance.c[i])) for i in kept_edges]
    sub = graph_instance(list(kept_nodes), edges, demands)
    return PruneResult(instance=sub, x=x[list(kept_edges)],
                       kept_nodes=kept_nodes, kept_edges=kept_edges)
