"""Core graph and account domain types.

The interaction graph is a weighted directed multigraph over account
handles: one weighted edge per ordered ``(source, target, kind)`` triple,
where the weight counts discrete interactions. Each graph builds one
integer core (:class:`GraphCore`) on first use: handles numbered in sorted
order, edge arrays, and the two :class:`GraphView` s every analytics stage
reads, :func:`merge_kinds` (kinds collapsed into a weighted digraph) and
:func:`undirected_view` (its symmetrization).

Graphs are immutable after construction and safe to share across threads.
numpy is imported only where a core is built or read, so handles and
graphs load without it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    import numpy as np

# Code points XML 1.0 forbids: C0 controls but tab/LF/CR, surrogates, U+FFFE/F.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True, order=True)
class Handle:
    """A normalized account handle.

    Handles compare case-insensitively by construction: the value is
    lowercased and a leading ``@`` is stripped. ``display()`` re-adds it.
    A handle must be writable to GEXF, so code points XML 1.0 forbids are
    rejected.
    """

    value: str

    def __post_init__(self):
        normalized = self.value.strip().lstrip("@").lower()
        if not normalized:
            raise ValueError("handle must be non-empty")
        if bad := _NOT_XML.search(normalized):
            raise ValueError(f"handle holds U+{ord(bad.group()):04X}, which XML 1.0 forbids")
        object.__setattr__(self, "value", normalized)

    def display(self) -> str:
        return "@" + self.value

    def __str__(self) -> str:
        return self.display()


class InteractionKind(enum.Enum):
    """The three interaction types carried by edges."""

    REPLY = "reply"
    MENTION = "mention"
    FOLLOW = "follow"


Edge = tuple[Handle, Handle, InteractionKind]
ValueEdge = tuple[str, str, InteractionKind]  # an edge keyed on handle values


class InteractionGraph:
    """Weighted directed multigraph of account interactions.

    ``edges`` maps ``(source, target, kind)`` to a positive integer count.
    Self-loops are rejected: reply/mention/follow acts target someone else,
    and ingest drops (and counts) records that violate this. Internally
    edges are keyed on handle values, so building a graph runs no
    per-edge ``Handle`` hashing or comparison.
    """

    __slots__ = ("_handles", "_counts", "_total_weight", "_core")

    def __init__(self, edges: Mapping[Edge, int], extra_nodes: Iterable[Handle] = ()):
        handles: dict[str, Handle] = {}
        counts: dict[ValueEdge, int] = {}
        for (src, dst, kind), weight in edges.items():
            handles.setdefault(src.value, src)
            handles.setdefault(dst.value, dst)
            counts[(src.value, dst.value, kind)] = weight
        for h in extra_nodes:
            handles.setdefault(h.value, h)
        self._init(handles, counts)

    @classmethod
    def interned(
        cls, handles: dict[str, Handle], counts: dict[ValueEdge, int]
    ) -> "InteractionGraph":
        """Build from counts keyed on handle values, taking ownership of both;
        ``handles`` maps each value to its handle, in node order."""
        graph = cls.__new__(cls)
        graph._init(handles, counts)
        return graph

    def _init(self, handles: dict[str, Handle], counts: dict[ValueEdge, int]) -> None:
        total = 0
        for key, weight in counts.items():
            if key[0] == key[1]:
                raise ValueError(f"self-loop not allowed: @{key[0]}")
            if weight < 1 or weight != int(weight):
                raise ValueError(f"edge weight must be a positive count, got {weight!r}")
            if type(weight) is not int:
                counts[key] = weight = int(weight)
            total += weight
        self._handles = handles
        self._counts = counts
        self._total_weight = total
        self._core = None

    @property
    def nodes(self) -> list[Handle]:
        return list(self._handles.values())

    @property
    def core(self) -> "GraphCore":
        """The integer index, built on first use and assigned only once
        complete: threads racing on first use build identical cores."""
        if self._core is None:
            self._core = GraphCore(self._handles, self._counts)
        return self._core

    @property
    def edges(self) -> dict[Edge, int]:
        h = self._handles
        return {(h[s], h[d], kind): w for (s, d, kind), w in self._counts.items()}

    @property
    def node_count(self) -> int:
        return len(self._handles)

    @property
    def edge_count(self) -> int:
        """Number of distinct weighted edges (the ``m`` of n-nodes/m-edges)."""
        return len(self._counts)

    @property
    def total_weight(self) -> int:
        return self._total_weight

    def __contains__(self, handle: Handle) -> bool:
        return isinstance(handle, Handle) and handle.value in self._handles

    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionGraph):
            return NotImplemented
        return self._counts == other._counts and self._handles.keys() == other._handles.keys()

    def __repr__(self) -> str:
        return f"InteractionGraph(n={self.node_count}, m={self.edge_count}, W={self.total_weight})"


class GraphView:
    """Handle-facing view of a graph's integer core: the kind-merged digraph
    (one weight per ordered pair) or its symmetrization (``weight(u, v) ==
    weight(v, u)``, summed over both directions and all kinds).

    Arcs are kept in ``(src, dst)`` index order with ``indptr`` marking
    each node's range; node ``i`` is ``handles[i]`` (sorted by value).
    ``total_weight`` is the graph's in both views.
    """

    __slots__ = ("core", "handles", "src", "dst", "weights", "indptr", "total_weight")

    def __init__(self, core: "GraphCore", src, dst, weights, total: float):
        import numpy as np

        self.core, self.handles = core, core.handles
        self.src, self.dst, self.weights = src, dst, weights
        counts = np.bincount(src, minlength=len(core.handles))
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.total_weight = total
        for array in (src, dst, weights, self.indptr):  # shared by every reader
            array.flags.writeable = False

    @property
    def nodes(self) -> list[Handle]:
        """Nodes in the graph's own order."""
        return [self.handles[i] for i in self.core.insertion]

    @property
    def node_count(self) -> int:
        return len(self.handles)

    def degrees(self) -> np.ndarray:
        """Weighted (out-)degree of every node, in index order."""
        import numpy as np

        return np.bincount(self.src, weights=self.weights, minlength=self.node_count)

    def iter_edges(self) -> Iterator[tuple[Handle, Handle, float]]:
        """Every stored arc; the symmetric view yields each pair both ways."""
        for i, j, w in zip(self.src.tolist(), self.dst.tolist(), self.weights.tolist()):
            yield self.handles[i], self.handles[j], w


def _sum_by_pair(src: np.ndarray, dst: np.ndarray, weights: np.ndarray, n: int):
    """Merge arcs with equal ``(src, dst)``; the result is in ``(src, dst)`` order."""
    import numpy as np

    if not len(src):
        return src, dst, weights
    pairs, slot = np.unique(src * n + dst, return_inverse=True)
    return pairs // n, pairs % n, np.bincount(slot, weights=weights, minlength=len(pairs))


class GraphCore:
    """Integer index of an :class:`InteractionGraph`, built once per graph.

    Handles are numbered in sorted ``value`` order (``handles[i]``, with
    ``index`` mapping the value back); ``insertion`` lists the indices in
    the graph's own node order. ``src``, ``dst``, ``kind`` and ``weight``
    hold one entry per edge in ``(src, dst, kind value)`` order, kinds
    coded so that their codes sort like their values. ``directed`` and
    ``undirected`` are the kind-merged and symmetric views over it.
    """

    kinds = tuple(sorted(InteractionKind, key=lambda k: k.value))

    __slots__ = (
        "handles", "index", "insertion", "src", "dst", "kind", "weight",
        "directed", "undirected",
    )

    def __init__(self, handles: Mapping[str, Handle], counts: Mapping[ValueEdge, int]):
        import numpy as np

        values = sorted(handles)
        self.handles = [handles[v] for v in values]
        self.index = index = {v: i for i, v in enumerate(values)}
        self.insertion = [index[v] for v in handles]
        m = len(counts)
        code = {k: i for i, k in enumerate(self.kinds)}
        src = np.fromiter((index[e[0]] for e in counts), np.int64, m)
        dst = np.fromiter((index[e[1]] for e in counts), np.int64, m)
        kind = np.fromiter((code[e[2]] for e in counts), np.int8, m)
        weight = np.fromiter(counts.values(), np.int64, m)
        order = np.lexsort((kind, dst, src))
        self.src, self.dst, self.kind, self.weight = (
            src[order], dst[order], kind[order], weight[order]
        )
        for array in (self.src, self.dst, self.kind, self.weight):
            array.flags.writeable = False

        n = len(self.handles)
        total = float(self.weight.sum())
        msrc, mdst, mw = _sum_by_pair(self.src, self.dst, self.weight.astype(np.float64), n)
        self.directed = GraphView(self, msrc, mdst, mw, total)
        self.undirected = GraphView(
            self,
            *_sum_by_pair(np.concatenate([msrc, mdst]), np.concatenate([mdst, msrc]),
                          np.concatenate([mw, mw]), n),
            total,
        )


def merge_kinds(graph: InteractionGraph) -> GraphView:
    """Collapse reply/mention/follow multi-edges into one weight per ordered pair."""
    return graph.core.directed


def undirected_view(graph: InteractionGraph | GraphView) -> GraphView:
    """Symmetrize: weight(u, v) = sum over kinds of w(u->v) + w(v->u).

    Applying it to an already-symmetric view is the identity.
    """
    return graph.core.undirected


class Normalization(enum.Enum):
    """How a centrality vector is scaled: unit L1 mass or unit maximum."""

    L1 = "l1"
    MAX = "max"


_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CentralityVector:
    """Per-node centrality scores under a declared normalization."""

    scores: dict[Handle, float]
    normalization: Normalization = Normalization.L1

    def __post_init__(self):
        if any(s < 0 for s in self.scores.values()):
            raise ValueError("centrality scores must be non-negative")
        if self.scores:
            if self.normalization is Normalization.L1:
                total = sum(self.scores.values())
                if abs(total - 1.0) > _NORM_TOL:
                    raise ValueError(f"L1-normalized scores must sum to 1, got {total!r}")
            else:
                top = max(self.scores.values())
                if abs(top - 1.0) > _NORM_TOL:
                    raise ValueError(f"max-normalized scores must peak at 1, got {top!r}")

    def score(self, handle: Handle) -> float:
        return self.scores.get(handle, 0.0)


@dataclass(frozen=True)
class Partition:
    """Node-to-community assignment with its recomputed modularity score."""

    assignment: dict[Handle, int]
    community_count: int
    modularity_q: float

    def __post_init__(self):
        used = set(self.assignment.values())
        if used != set(range(self.community_count)):
            raise ValueError(
                f"community ids must be dense 0..{self.community_count - 1}, got {sorted(used)}"
            )
        if not -1.0 - _NORM_TOL <= self.modularity_q <= 1.0 + _NORM_TOL:
            raise ValueError(f"modularity out of range: {self.modularity_q!r}")

    def community_of(self, handle: Handle) -> int:
        return self.assignment[handle]

    def communities(self) -> list[list[Handle]]:
        """Members per community id, each list in the assignment's node order."""
        groups: list[list[Handle]] = [[] for _ in range(self.community_count)]
        for handle, cid in self.assignment.items():
            groups[cid].append(handle)
        return groups
