"""Core graph and account domain types.

The interaction graph is a weighted directed multigraph over account
handles: one weighted edge per ordered ``(source, target, kind)`` triple,
where the weight counts discrete interactions. A graph is its integer
index, built once at construction: handles numbered in sorted order, edge
arrays, and the two :class:`GraphView` s every analytics stage reads,
:func:`merge_kinds` (kinds collapsed into a weighted digraph) and
:func:`undirected_view` (its symmetrization). It keeps no other copy of
its edges.

Graphs are immutable after construction and safe to share across threads.
numpy is imported only where a graph is built or read, so handles load
without it.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

# The graph stores counts and their total as int64.
_INT64_MAX = 2**63 - 1
# Code points XML 1.0 forbids: C0 controls but tab/LF/CR, surrogates, U+FFFE/F.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_MARKED = {mark: re.compile(rf"[{mark}\s]*") for mark in "#@"}


def check_finite(config) -> None:
    """Reject a config dataclass holding a NaN or infinite float field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def _unmark(value: str, mark: str) -> str:
    """``value`` lowercased, less leading ``mark``/whitespace and trailing whitespace."""
    value = value.strip()
    return value[_MARKED[mark].match(value).end():].lower()


@dataclass(frozen=True, order=True)
class Handle:
    """A normalized account handle.

    Handles compare case-insensitively by construction: the value is
    lowercased and its leading run of ``@`` and whitespace is stripped.
    ``display()`` re-adds one ``@``. A handle must be writable to GEXF, so
    code points XML 1.0 forbids are rejected.
    """

    value: str

    def __post_init__(self):
        normalized = _unmark(self.value, "@")
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


class InteractionGraph:
    """Weighted directed multigraph of account interactions, stored as its
    integer index.

    ``edges`` maps ``(source, target, kind)`` to a positive integer count.
    Self-loops are rejected: reply/mention/follow acts target someone else,
    and ingest drops (and counts) records that violate this.

    Handles are numbered in sorted ``value`` order (``handles[i]``, with
    ``index`` mapping the value back); that is the graph's one node order,
    so graphs that compare equal read the same however they were built.
    ``src``, ``dst``, ``kind`` and ``weight`` hold one entry per edge in
    ``(src, dst, kind value)`` order, kinds coded so that their codes sort
    like their values. ``directed`` and ``undirected`` are the kind-merged
    and symmetric views over them.
    """

    kinds = tuple(sorted(InteractionKind, key=lambda k: k.value))
    _kind_code = {k: i for i, k in enumerate(kinds)}

    __slots__ = ("handles", "index", "src", "dst", "kind", "weight",
                 "total_weight", "directed", "undirected")

    def __init__(self, edges: Mapping[Edge, int], extra_nodes: Iterable[Handle] = ()):
        handles: dict[str, Handle] = {}
        for (src, dst, _), weight in edges.items():  # before int64 truncates 2.5 to 2
            if src.value == dst.value:
                raise ValueError(f"self-loop not allowed: {src.display()}")
            if not 1 <= weight < math.inf or weight != int(weight):  # NaN, inf fail
                raise ValueError(f"edge weight must be a positive count, got {weight!r}")
            handles.setdefault(src.value, src)
            handles.setdefault(dst.value, dst)
        if (total := sum(edges.values())) > _INT64_MAX:
            raise ValueError(f"total edge weight {total} exceeds 2**63 - 1")
        for h in extra_nodes:
            handles.setdefault(h.value, h)
        ids = {v: i for i, v in enumerate(handles)}
        keys = [self.key(ids[s.value], ids[d.value], k) for s, d, k in edges]
        self._index(list(handles.values()), keys, list(edges.values()))

    @staticmethod
    def key(src: int, dst: int, kind: InteractionKind) -> int:
        """The :meth:`packed` key of a ``kind`` interaction from node ``src`` to ``dst``."""
        return (src << 32 | dst) << 2 | InteractionGraph._kind_code[kind]

    @classmethod
    def packed(cls, handles: Sequence[Handle], keys, weights=None) -> "InteractionGraph":
        """Build from one :meth:`key` per interaction over ``handles``' positions,
        weighing its entry of ``weights`` or 1; equal keys add up. ``handles``
        hold distinct values."""
        graph = cls.__new__(cls)
        graph._index(handles, keys, weights)
        return graph

    def _index(self, handles: Sequence[Handle], keys, weights) -> None:
        import numpy as np

        def runs(keys, weights):  # each distinct sorted key, with its weights added in order
            if not len(keys):
                return keys, weights
            new = np.diff(keys, prepend=-1) != 0
            return keys[new], np.bincount(np.cumsum(new) - 1, weights)

        n = len(handles)
        order = sorted(range(n), key=[h.value for h in handles].__getitem__)
        self.handles = [handles[i] for i in order]
        self.index = {h.value: i for i, h in enumerate(self.handles)}
        rank = np.argsort(np.asarray(order, np.int64))  # position -> sorted index
        keys = np.asarray(keys, np.int64)  # re-keyed (src * n + dst) * 3 + kind over ranks
        key = (rank[keys >> 34] * n + rank[keys >> 2 & 0xFFFFFFFF]) * 3 + (keys & 3)
        perm = key.argsort()
        key = key[perm]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        pair, kind = np.divmod(key[first], 3)
        self.src, self.dst = np.divmod(pair, n)
        self.kind = kind.astype(np.int8)
        self.weight = (np.diff(np.append(first, len(key))) if weights is None
                       else np.add.reduceat(np.asarray(weights, np.int64)[perm], first))
        for array in (self.src, self.dst, self.kind, self.weight):
            array.flags.writeable = False
        self.total_weight = int(self.weight.sum())

        # Each directed pair adds its at most three kinds in kind order, and each
        # undirected pair its at most two arcs, in either order: float sums that
        # keep their bits.
        total = float(self.total_weight)
        pair, mw = runs(pair, self.weight.astype(np.float64))
        msrc, mdst = np.divmod(pair, n)
        self.directed = GraphView(self, msrc, mdst, mw, total)
        both = np.concatenate([pair, mdst * n + msrc])
        perm = both.argsort()
        both, uw = runs(both[perm], np.concatenate([mw, mw])[perm])
        self.undirected = GraphView(self, *np.divmod(both, n), uw, total)

    @property
    def nodes(self) -> list[Handle]:
        """Nodes in index order, as a fresh list."""
        return list(self.handles)

    @property
    def edges(self) -> dict[Edge, int]:
        h, kinds = self.handles, self.kinds
        return {(h[s], h[d], kinds[k]): w for s, d, k, w in zip(
            self.src.tolist(), self.dst.tolist(), self.kind.tolist(), self.weight.tolist())}

    @property
    def node_count(self) -> int:
        return len(self.handles)

    @property
    def edge_count(self) -> int:
        """Number of distinct weighted edges (the ``m`` of n-nodes/m-edges)."""
        return len(self.src)

    def __contains__(self, handle: Handle) -> bool:
        return isinstance(handle, Handle) and handle.value in self.index

    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionGraph):
            return NotImplemented
        return self.index.keys() == other.index.keys() and self.edges == other.edges

    def __repr__(self) -> str:
        return f"InteractionGraph(n={self.node_count}, m={self.edge_count}, W={self.total_weight})"


class GraphView:
    """Handle-facing view of a graph's integer index: the kind-merged digraph
    (one weight per ordered pair) or its symmetrization (``weight(u, v) ==
    weight(v, u)``, summed over both directions and all kinds).

    Arcs are kept in ``(src, dst)`` index order with ``indptr`` marking
    each node's range; node ``i`` is ``handles[i]`` (sorted by value).
    ``total_weight`` is the graph's in both views.
    """

    __slots__ = ("graph", "handles", "src", "dst", "weights", "indptr", "total_weight")

    def __init__(self, graph: InteractionGraph, src, dst, weights, total: float):
        import numpy as np

        self.graph, self.handles = graph, graph.handles
        self.src, self.dst, self.weights = src, dst, weights
        counts = np.bincount(src, minlength=len(graph.handles))
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.total_weight = total
        for array in (src, dst, weights, self.indptr):  # shared by every reader
            array.flags.writeable = False

    @property
    def nodes(self) -> list[Handle]:
        """Nodes in index order, as a fresh list."""
        return list(self.handles)

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


def merge_kinds(graph: InteractionGraph) -> GraphView:
    """Collapse reply/mention/follow multi-edges into one weight per ordered pair."""
    return graph.directed


def undirected_view(graph: InteractionGraph | GraphView) -> GraphView:
    """Symmetrize: weight(u, v) = sum over kinds of w(u->v) + w(v->u).

    Applying it to an already-symmetric view is the identity.
    """
    return (graph.graph if isinstance(graph, GraphView) else graph).undirected


_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CentralityVector:
    """Per-node centrality scores, L1-normalized: non-negative, summing to 1."""

    scores: dict[Handle, float]

    def __post_init__(self):
        if any(s < 0 for s in self.scores.values()):
            raise ValueError("centrality scores must be non-negative")
        total = sum(self.scores.values())
        if self.scores and abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"L1-normalized scores must sum to 1, got {total!r}")


@dataclass(frozen=True)
class Partition:
    """Node-to-community assignment with its recomputed modularity score and
    the resolution γ it was scored at, which bounds it to [−γ, 1]."""

    assignment: dict[Handle, int]
    community_count: int
    modularity_q: float
    resolution: float = 1.0

    def __post_init__(self):
        used = set(self.assignment.values())
        if used != set(range(self.community_count)):
            raise ValueError(
                f"community ids must be dense 0..{self.community_count - 1}, got {sorted(used)}"
            )
        if not -self.resolution - _NORM_TOL <= self.modularity_q <= 1.0 + _NORM_TOL:
            raise ValueError(f"modularity out of range: {self.modularity_q!r}")

    def community_of(self, handle: Handle) -> int:
        return self.assignment[handle]

    def communities(self) -> list[list[Handle]]:
        """Members per community id, each list in the assignment's node order."""
        groups: list[list[Handle]] = [[] for _ in range(self.community_count)]
        for handle, cid in self.assignment.items():
            groups[cid].append(handle)
        return groups
