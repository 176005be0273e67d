"""Modularity and Louvain community detection.

Modularity is the undirected weighted Newman form with a resolution
multiplier on the null-model term:

    Q = sum over communities c of  intra_c / W  -  resolution * (deg_c / 2W)^2

where ``W`` is the total undirected edge weight (each unordered pair once),
``intra_c`` the weight inside ``c`` and ``deg_c`` the summed weighted degree
of its nodes. Directed interaction graphs are symmetrized first.

The detector runs the classic two-phase scheme: greedy local moves to the
neighboring community with the largest positive gain, then aggregation of
communities into super-nodes whose self-loops carry the intra-community
weight, repeated until a pass stops paying. Node visit order is a seeded
shuffle, so a fixed seed reproduces the partition bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import UndefinedModularityError
from .model import (
    GraphView, Handle, InteractionGraph, Partition, check_finite, undirected_view,
)


@dataclass(frozen=True)
class LouvainConfig:
    resolution: float = 1.0
    seed: int = 0
    min_gain: float = 1e-9
    max_passes: int = 100
    restarts: int = 1  # independent seeded runs; the best-Q partition wins

    def __post_init__(self):
        check_finite(self)
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.min_gain <= 0:
            raise ValueError("min_gain must be positive")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def modularity(
    graph: InteractionGraph | GraphView,
    assignment: Mapping[Handle, int],
    resolution: float = 1.0,
) -> float:
    """Recompute Q from scratch for the given assignment, adding community
    terms in order of first appearance over the graph's node order."""
    view = undirected_view(graph)
    total = view.total_weight
    if total <= 0:
        raise UndefinedModularityError("modularity undefined on a graph without edges")
    labels: dict[int, int] = {}
    comm = np.empty(view.node_count, dtype=np.int64)
    for i in view.graph.insertion:
        node = view.handles[i]
        if node not in assignment:
            raise ValueError(f"node {node.display()} has no community assignment")
        comm[i] = labels.setdefault(assignment[node], len(labels))

    inside = (comm[view.src] == comm[view.dst]) & (view.src < view.dst)
    intra = np.bincount(
        comm[view.src[inside]], weights=view.weights[inside], minlength=len(labels)
    )
    deg = np.bincount(comm, weights=view.degrees(), minlength=len(labels))

    q = 0.0
    for c_intra, c_deg in zip(intra.tolist(), deg.tolist()):
        q += c_intra / total - resolution * (c_deg / (2.0 * total)) ** 2
    return q


def _delta_q(
    total: float,
    resolution: float,
    k_i: float,
    k_to_target: float,
    k_to_current: float,
    deg_current: float,
    deg_target: float,
) -> float:
    """Exact Q change for moving a node between two distinct communities.

    ``deg_current`` includes the node's own degree; ``k_to_current``
    excludes any self-weight. Aggregate self-loop weight cancels out of
    the difference, so the formula holds on collapsed graphs too.
    """
    return (k_to_target - k_to_current) / total - (
        resolution * k_i * (deg_target - deg_current + k_i) / (2.0 * total * total)
    )


class MoveContext:
    """Cached quantities for evaluating single-node move gains.

    Holds the total weight, per-node communities and weighted degrees (in
    node index order) and per-community degree sums for one (view,
    assignment) pair; link weights are gathered per query from a node's row.
    """

    def __init__(
        self,
        graph: InteractionGraph | GraphView,
        assignment: Mapping[Handle, int],
        resolution: float = 1.0,
    ):
        self.view = undirected_view(graph)
        self.resolution = resolution
        self.total = self.view.total_weight
        if self.total <= 0:
            raise UndefinedModularityError("move gains undefined on a graph without edges")
        self.community = [assignment[h] for h in self.view.handles]
        self.degree = self.view.degrees().tolist()
        self.community_degree: dict[int, float] = {}
        for c, d in zip(self.community, self.degree):
            self.community_degree[c] = self.community_degree.get(c, 0.0) + d

    def links_to(self, i: int) -> dict[int, float]:
        """Weight from node ``i`` to each community among its neighbors."""
        view = self.view
        lo, hi = view.indptr[i], view.indptr[i + 1]
        out: dict[int, float] = {}
        for j, w in zip(view.dst[lo:hi].tolist(), view.weights[lo:hi].tolist()):
            c = self.community[j]
            out[c] = out.get(c, 0.0) + w
        return out


def local_move_gain(node: Handle, target_community: int, context: MoveContext) -> float:
    """Q change of moving ``node`` into ``target_community``.

    Matches a from-scratch modularity recomputation of the moved
    assignment; moving a node into its own community is a no-op.
    """
    i = context.view.graph.index[node.value]
    current = context.community[i]
    if target_community == current:
        return 0.0
    links = context.links_to(i)
    return _delta_q(
        context.total,
        context.resolution,
        context.degree[i],
        links.get(target_community, 0.0),
        links.get(current, 0.0),
        context.community_degree[current],
        context.community_degree.get(target_community, 0.0),
    )


class _WorkGraph:
    """Undirected weighted graph on integer nodes, with self-loop weights.

    Self-loops appear only on aggregated graphs, where they carry the
    intra-community weight of the collapsed nodes (counted once).
    """

    __slots__ = ("adj", "self_w", "degree", "total")

    def __init__(self, adj: list[dict[int, float]], self_w: list[float]):
        self.adj = adj
        self.self_w = self_w
        self.degree = [sum(nbrs.values()) + 2.0 * self_w[i] for i, nbrs in enumerate(adj)]
        self.total = sum(self.degree) / 2.0

    @classmethod
    def from_view(cls, view: GraphView) -> "_WorkGraph":
        """The symmetric view's rows as adjacency dicts, without self-loops."""
        indptr, dst, weights = view.indptr.tolist(), view.dst.tolist(), view.weights.tolist()
        adj = [dict(zip(dst[a:b], weights[a:b])) for a, b in zip(indptr, indptr[1:])]
        return cls(adj, [0.0] * len(adj))

    @property
    def n(self) -> int:
        return len(self.adj)


def _one_level(wg: _WorkGraph, config: LouvainConfig, rng: random.Random) -> tuple[list[int], float]:
    """Phase 1: greedy local moves until a sweep gains no more than min_gain.

    Returns the (non-dense) community labels and the accumulated gain.
    """
    comm = list(range(wg.n))
    comm_deg = list(wg.degree)
    total = wg.total
    gamma = config.resolution
    level_gain = 0.0

    order = list(range(wg.n))
    while True:
        rng.shuffle(order)
        sweep_gain = 0.0
        for node in order:
            current = comm[node]
            k_i = wg.degree[node]
            links: dict[int, float] = {}
            for nbr, w in wg.adj[node].items():
                c = links.get(comm[nbr], 0.0)
                links[comm[nbr]] = c + w
            k_to_current = links.get(current, 0.0)
            deg_current = comm_deg[current]

            best_gain = 0.0
            best_comm = current
            for cand in sorted(links):
                if cand == current:
                    continue
                gain = _delta_q(
                    total, gamma, k_i, links[cand], k_to_current, deg_current, comm_deg[cand]
                )
                if gain > best_gain:
                    best_gain = gain
                    best_comm = cand
            if best_comm != current:
                comm[node] = best_comm
                comm_deg[current] -= k_i
                comm_deg[best_comm] += k_i
                sweep_gain += best_gain
        level_gain += sweep_gain
        if sweep_gain <= config.min_gain:
            break
    return comm, level_gain


def _aggregate(wg: _WorkGraph, comm: list[int]) -> tuple[_WorkGraph, list[int]]:
    """Phase 2: collapse communities into super-nodes.

    Labels are renumbered densely in order of first appearance over the
    node index order, which keeps the whole run deterministic.
    """
    relabel: dict[int, int] = {}
    for c in comm:
        if c not in relabel:
            relabel[c] = len(relabel)
    dense = [relabel[c] for c in comm]

    k = len(relabel)
    adj: list[dict[int, float]] = [{} for _ in range(k)]
    self_w = [0.0] * k
    for u, nbrs in enumerate(wg.adj):
        cu = dense[u]
        self_w[cu] += wg.self_w[u]
        for v, w in nbrs.items():
            if u < v:
                cv = dense[v]
                if cu == cv:
                    self_w[cu] += w
                else:
                    adj[cu][cv] = adj[cu].get(cv, 0.0) + w
                    adj[cv][cu] = adj[cv].get(cu, 0.0) + w
    return _WorkGraph(adj, self_w), dense


def louvain_trace(
    graph: InteractionGraph | GraphView, config: LouvainConfig | None = None
) -> tuple[Partition, list[float]]:
    """Run Louvain and also report modularity after each pass.

    With ``restarts > 1`` the whole procedure repeats under derived seeds
    (greedy local moves are visit-order sensitive) and the best-Q result
    is returned, deterministically.
    """
    config = config or LouvainConfig()
    view = undirected_view(graph)
    if view.total_weight <= 0:
        raise UndefinedModularityError("Louvain undefined on a graph without edges")

    if config.restarts > 1:
        single = replace(config, restarts=1)
        best = None
        for attempt in range(config.restarts):
            result = louvain_trace(view, replace(single, seed=config.seed + attempt))
            if best is None or result[0].modularity_q > best[0].modularity_q:
                best = result
        return best

    wg = _WorkGraph.from_view(view)
    rng = random.Random(config.seed)
    membership = list(range(wg.n))  # original node -> current super-node
    trace: list[float] = []

    for _ in range(config.max_passes):
        comm, level_gain = _one_level(wg, config, rng)
        wg, dense = _aggregate(wg, comm)
        membership = [dense[m] for m in membership]
        q = 0.0  # each super-node is its own community
        for self_w, degree in zip(wg.self_w, wg.degree):
            q += self_w / wg.total - config.resolution * (degree / (2.0 * wg.total)) ** 2
        trace.append(q)
        if level_gain <= config.min_gain:
            break

    # Dense final ids in order of first appearance over sorted handles.
    relabel: dict[int, int] = {}
    assignment: dict[Handle, int] = {}
    for i, handle in enumerate(view.handles):
        c = membership[i]
        if c not in relabel:
            relabel[c] = len(relabel)
        assignment[handle] = relabel[c]

    q = modularity(view, assignment, config.resolution)
    partition = Partition(
        assignment=assignment, community_count=len(relabel), modularity_q=q
    )
    return partition, trace


def louvain(
    graph: InteractionGraph | GraphView, config: LouvainConfig | None = None
) -> Partition:
    """Detect communities by greedy modularity maximization."""
    partition, _ = louvain_trace(graph, config)
    return partition
