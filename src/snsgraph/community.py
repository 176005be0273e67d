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
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import UndefinedModularityError
from .model import (
    GraphView, Handle, InteractionGraph, Partition, check_finite, undirected_view,
)

# A phase ends once a sweep, and the run once a pass, gains no more than this.
_MIN_GAIN = 1e-9
_MAX_PASSES = 100


@dataclass(frozen=True)
class LouvainConfig:
    resolution: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")


def _first_appearance(labels: Iterable[int]) -> tuple[list[int], int]:
    """``labels`` renumbered 0, 1, ... in order of first appearance, and how many."""
    ids: dict[int, int] = {}
    return [ids.setdefault(c, len(ids)) for c in labels], len(ids)


def _q(intra: Iterable[float], degree: Iterable[float], total: float, resolution: float) -> float:
    """Q from per-community intra weights and degree sums, added in their order."""
    q = 0.0
    for c_intra, c_deg in zip(intra, degree):
        q += c_intra / total - resolution * (c_deg / (2.0 * total)) ** 2
    return q


def _labels(assignment: Mapping[Handle, int], handles: Iterable[Handle]) -> list[int]:
    """Each handle's community, in order; a handle without one is a ValueError."""
    try:
        return [assignment[h] for h in handles]
    except KeyError as exc:
        raise ValueError(f"node {exc.args[0].display()} has no community assignment") from None


def modularity(
    graph: InteractionGraph | GraphView,
    assignment: Mapping[Handle, int],
    resolution: float = 1.0,
) -> float:
    """Recompute Q from scratch for the given assignment, adding community
    terms in order of first appearance over the node index."""
    view = undirected_view(graph)
    total = view.total_weight
    if total <= 0:
        raise UndefinedModularityError("modularity undefined on a graph without edges")
    labels, k = _first_appearance(_labels(assignment, view.handles))
    comm = np.array(labels, dtype=np.int64)

    inside = (comm[view.src] == comm[view.dst]) & (view.src < view.dst)
    intra = np.bincount(comm[view.src[inside]], weights=view.weights[inside], minlength=k)
    deg = np.bincount(comm, weights=view.degrees(), minlength=k)
    return _q(intra.tolist(), deg.tolist(), total, resolution)


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


class _WorkGraph:
    """Undirected weighted graph on integer nodes as CSR rows: node ``i``'s arcs
    are entries ``indptr[i]:indptr[i + 1]`` of ``dst`` and ``weights``, held as
    memoryviews, which index to Python ints and floats. Level 0 reads the
    symmetric view's arrays in place, and every aggregated level has rows of
    its own. Self-loop weights appear only on aggregated graphs, where they
    carry the intra-community weight of the collapsed nodes (counted once).
    """

    __slots__ = ("indptr", "dst", "weights", "self_w", "degree", "total")

    def __init__(self, indptr, dst, weights, self_w: list[float]):
        self.indptr, self.dst, self.weights = map(memoryview, (indptr, dst, weights))
        self.self_w = self_w
        ptr, w = self.indptr, self.weights
        self.degree = [sum(w[a:b]) + 2.0 * s for a, b, s in zip(ptr, ptr[1:], self_w)]
        self.total = sum(self.degree) / 2.0

    @classmethod
    def from_view(cls, view: GraphView) -> "_WorkGraph":
        """The symmetric view's rows, without self-loops."""
        return cls(view.indptr, view.dst, view.weights, [0.0] * view.node_count)

    def links(self, node: int, comm: list[int]) -> dict[int, float]:
        """Weight from ``node`` to each community among its neighbours: the
        one input of every move gain, in Louvain and in :func:`local_move_gain`."""
        out: dict[int, float] = {}
        a, b = self.indptr[node], self.indptr[node + 1]
        for nbr, w in zip(self.dst[a:b], self.weights[a:b]):
            if (c := comm[nbr]) in out:
                out[c] += w
            else:
                out[c] = w  # 0.0 + w, as every weight is positive
        return out


class MoveContext:
    """A community assignment on the level-0 Louvain work graph (the view's
    own rows, not a copy), for evaluating single-node move gains as
    :func:`_one_level` does.

    ``community`` holds each node's community in node index order and
    ``community_degree`` the summed weighted degree of each community.
    """

    def __init__(
        self,
        graph: InteractionGraph | GraphView,
        assignment: Mapping[Handle, int],
        resolution: float = 1.0,
    ):
        view = undirected_view(graph)
        self.wg = _WorkGraph.from_view(view)
        if self.wg.total <= 0:
            raise UndefinedModularityError("move gains undefined on a graph without edges")
        self.index = view.graph.index
        self.resolution = resolution
        self.community = _labels(assignment, view.handles)
        self.community_degree: dict[int, float] = {}
        for c, d in zip(self.community, self.wg.degree):
            self.community_degree[c] = self.community_degree.get(c, 0.0) + d


def local_move_gain(node: Handle, target_community: int, context: MoveContext) -> float:
    """Q change of moving ``node`` into ``target_community``.

    Matches a from-scratch modularity recomputation of the moved
    assignment; moving a node into its own community is a no-op.
    """
    if (i := context.index.get(node.value)) is None:
        raise ValueError(f"node {node.display()} is not in the graph")
    current = context.community[i]
    if target_community == current:
        return 0.0
    wg, comm_deg = context.wg, context.community_degree
    links = wg.links(i, context.community)
    return _delta_q(wg.total, context.resolution, wg.degree[i],
                    links.get(target_community, 0.0), links.get(current, 0.0),
                    comm_deg[current], comm_deg.get(target_community, 0.0))


def _one_level(wg: _WorkGraph, config: LouvainConfig, rng: random.Random) -> tuple[list[int], float]:
    """Phase 1: greedy local moves until a sweep gains no more than ``_MIN_GAIN``.

    Returns the (non-dense) community labels and the accumulated gain.
    """
    n, total, gamma = len(wg.degree), wg.total, config.resolution
    comm, comm_deg, order = list(range(n)), list(wg.degree), list(range(n))
    level_gain = 0.0
    while True:
        rng.shuffle(order)
        sweep_gain = 0.0
        for node in order:
            current = comm[node]
            k_i = wg.degree[node]
            links = wg.links(node, comm)
            k_to_current = links.pop(current, 0.0)
            deg_current = comm_deg[current]

            best_gain, best_comm = 0.0, current
            for cand in sorted(links):
                gain = _delta_q(total, gamma, k_i, links[cand], k_to_current, deg_current,
                                comm_deg[cand])
                if gain > best_gain:
                    best_gain, best_comm = gain, cand
            if best_comm != current:
                comm[node] = best_comm
                comm_deg[current] -= k_i
                comm_deg[best_comm] += k_i
                sweep_gain += best_gain
        level_gain += sweep_gain
        if sweep_gain <= _MIN_GAIN:
            break
    return comm, level_gain


def _aggregate(wg: _WorkGraph, comm: list[int]) -> tuple[_WorkGraph, list[int]]:
    """Phase 2: collapse communities into super-nodes.

    Labels are renumbered densely in order of first appearance over the node
    index order, which keeps the whole run deterministic. Each pair of super-nodes
    adds its weights in row order, and each new row lists its pairs as first met.
    """
    dense, k = _first_appearance(comm)
    self_w = [0.0] * k
    pair_w: dict[int, float] = {}  # lower * k + upper super-node -> weight
    ptr, dst, weights = wg.indptr, wg.dst, wg.weights
    for u in range(len(wg.degree)):
        cu, a, b = dense[u], ptr[u], ptr[u + 1]
        self_w[cu] += wg.self_w[u]
        for v, w in zip(dst[a:b], weights[a:b]):
            if u < v:
                if (cv := dense[v]) == cu:
                    self_w[cu] += w
                else:
                    key = cu * k + cv if cu < cv else cv * k + cu
                    pair_w[key] = pair_w.get(key, 0.0) + w
    # Both arcs of each pair, in pair order; a stable sort by row keeps that order.
    lo, hi = np.divmod(np.fromiter(pair_w, np.int64, len(pair_w)), k)
    src, to = np.column_stack([lo, hi]).ravel(), np.column_stack([hi, lo]).ravel()
    order = src.argsort(kind="stable")
    w = np.fromiter(pair_w.values(), np.float64, len(pair_w)).repeat(2)
    indptr = np.concatenate([[0], np.bincount(src, minlength=k).cumsum()])
    return _WorkGraph(indptr, to[order], w[order], self_w), dense


def louvain_trace(
    graph: InteractionGraph | GraphView, config: LouvainConfig | None = None
) -> tuple[Partition, list[float]]:
    """Run Louvain and also report modularity after each pass: at most
    ``_MAX_PASSES``, ending after one that gains no more than ``_MIN_GAIN``."""
    config = config or LouvainConfig()
    view = undirected_view(graph)
    if view.total_weight <= 0:
        raise UndefinedModularityError("Louvain undefined on a graph without edges")

    wg = _WorkGraph.from_view(view)
    rng = random.Random(config.seed)
    membership = list(range(view.node_count))  # original node -> current super-node
    trace: list[float] = []

    for _ in range(_MAX_PASSES):
        comm, level_gain = _one_level(wg, config, rng)
        wg, dense = _aggregate(wg, comm)
        membership = [dense[m] for m in membership]
        # Each super-node is its own community; its self-loop is its intra weight.
        trace.append(_q(wg.self_w, wg.degree, wg.total, config.resolution))
        if level_gain <= _MIN_GAIN:
            break

    # Dense final ids in order of first appearance over sorted handles.
    final, count = _first_appearance(membership)
    assignment = dict(zip(view.handles, final))
    q = modularity(view, assignment, config.resolution)
    return Partition(assignment, count, q, config.resolution), trace


def louvain(
    graph: InteractionGraph | GraphView, config: LouvainConfig | None = None
) -> Partition:
    """Detect communities by greedy modularity maximization."""
    return louvain_trace(graph, config)[0]
