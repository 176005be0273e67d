"""Eigenvector centrality by power iteration.

Influence accrues on edge targets by default: a node is central when
heavily replied to, mentioned, or followed by other central nodes. The
iteration runs on the weighted adjacency with a unit diagonal shift
(``x <- normalize((M + I) x)``): the shift leaves every eigenvector
unchanged but keeps bipartite/periodic structures from oscillating, so
the iteration settles on the dominant eigenvector wherever one exists.

Reducible graphs (disconnected components, pure sources) can still starve
parts of the vector; an optional uniform teleport term spreads an epsilon
of mass everywhere per step for those cases. By default it is off and
non-convergence is reported through the ``converged`` flag instead of
being papered over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, EmptyGraphError
from .model import (
    CentralityVector,
    Handle,
    InteractionGraph,
    check_finite,
    merge_kinds,
    undirected_view,
)


class CentralityMode(enum.Enum):
    INCOMING = "incoming"
    UNDIRECTED = "undirected"


# Converged once the L-infinity change between normalized iterates is this or less.
_TOLERANCE = 1e-10
_MAX_ITERS = 1000


@dataclass(frozen=True)
class PowerIterationConfig:
    mode: CentralityMode = CentralityMode.INCOMING
    teleport: float = 0.0

    def __post_init__(self):
        check_finite(self)
        if self.teleport < 0:
            raise ValueError("teleport must be non-negative")


@dataclass(frozen=True)
class CentralityResult:
    vector: CentralityVector
    converged: bool
    iterations: int


def _edge_arrays(
    graph: InteractionGraph, mode: CentralityMode
) -> tuple[list[Handle], np.ndarray, np.ndarray, np.ndarray]:
    """Sorted node list plus (source, target, weight) arcs for the mode, in
    index order, so scores never depend on the order the graph was built in."""
    view = merge_kinds(graph) if mode is CentralityMode.INCOMING else undirected_view(graph)
    return view.handles, view.src, view.dst, view.weights


def eigenvector_centrality(
    graph: InteractionGraph, config: PowerIterationConfig | None = None
) -> CentralityResult:
    """Power-iterate to the dominant eigenvector of the weighted adjacency.

    Stops when the L-infinity change between successive normalized
    iterates drops to ``_TOLERANCE``, or after ``_MAX_ITERS`` steps with
    ``converged=False``. Raises :class:`DegenerateSpectrumError` when the
    adjacency annihilates the iterate (no edges in the selected mode).
    """
    config = config or PowerIterationConfig()
    if graph.node_count == 0:
        raise EmptyGraphError("eigenvector centrality needs a non-empty graph")
    nodes, src, dst, w = _edge_arrays(graph, config.mode)
    n = len(nodes)

    x = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for _ in range(_MAX_ITERS):
        iterations += 1
        mv = np.bincount(dst, weights=w * x[src], minlength=n)
        if mv.max() <= 0.0:
            raise DegenerateSpectrumError(
                f"adjacency maps the iterate to zero in {config.mode.value} mode "
                "(no edges feed any node); no dominant eigenvector"
            )
        y = mv + x
        if config.teleport > 0.0:
            y = y + (config.teleport / n) * x.sum()
        y = y / y.sum()
        if np.max(np.abs(y - x)) <= _TOLERANCE:
            x = y
            converged = True
            break
        x = y

    scores = {node: float(x[i]) for i, node in enumerate(nodes)}
    return CentralityResult(CentralityVector(scores), converged, iterations)


def top_k(vector: CentralityVector, k: int) -> list[tuple[Handle, float]]:
    """Top-k handles by score, descending, ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(vector.scores.items(), key=lambda item: (-item[1], item[0].value))
    return ranked[:k]
