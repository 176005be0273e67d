"""Shared graph builders and brute-force oracles for the test suite."""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from snsgraph.community import modularity
from snsgraph.ingest import InteractionRecord, record_reader
from snsgraph.model import Handle, InteractionGraph, InteractionKind

MENTION = InteractionKind.MENTION

# Zachary karate club, 34 nodes / 78 edges (the standard benchmark instance).
KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10), (0, 11),
    (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31), (1, 2), (1, 3), (1, 7), (1, 13),
    (1, 17), (1, 19), (1, 21), (1, 30), (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27),
    (2, 28), (2, 32), (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33), (15, 32),
    (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33), (22, 32), (22, 33),
    (23, 25), (23, 27), (23, 29), (23, 32), (23, 33), (24, 25), (24, 27), (24, 31),
    (25, 31), (26, 29), (26, 33), (27, 33), (28, 31), (28, 33), (29, 32), (29, 33),
    (30, 32), (30, 33), (31, 32), (31, 33), (32, 33),
]


def pairs_graph(pairs, kind=MENTION) -> InteractionGraph:
    """Graph from (src, dst) or (src, dst, weight) name pairs, one kind."""
    edges = {}
    for pair in pairs:
        src, dst, *rest = pair
        weight = rest[0] if rest else 1
        edges[(Handle(src), Handle(dst), kind)] = weight
    return InteractionGraph(edges)


# Graph and view helpers only tests use: graphs from raw acts, node
# insertion/removal, and per-node reads of a GraphView's CSR arrays.

def from_interactions(interactions) -> InteractionGraph:
    """Accumulate ``(source, target, kind)`` acts into weighted edges,
    dropping self-loops."""
    acc = {}
    for src, dst, kind in interactions:
        if src != dst:
            acc[(src, dst, kind)] = acc.get((src, dst, kind), 0) + 1
    return InteractionGraph(acc)


def with_node(graph: InteractionGraph, handle: Handle) -> InteractionGraph:
    """A copy that also contains ``handle`` (possibly isolated)."""
    return InteractionGraph(graph.edges, extra_nodes=[*graph.nodes, handle])


def without_node(graph: InteractionGraph, handle: Handle) -> InteractionGraph:
    """A copy with ``handle`` and its incident edges removed."""
    kept = {e: w for e, w in graph.edges.items() if handle not in (e[0], e[1])}
    return InteractionGraph(kept, extra_nodes=[h for h in graph.nodes if h != handle])


def neighbors(view, u: Handle) -> dict:
    """Arc weights out of ``u`` in a GraphView (successors when directed)."""
    i = view.graph.index.get(u.value)
    if i is None:
        return {}
    lo, hi = view.indptr[i], view.indptr[i + 1]
    return {view.handles[j]: w
            for j, w in zip(view.dst[lo:hi].tolist(), view.weights[lo:hi].tolist())}


def weight(view, u: Handle, v: Handle) -> float:
    return neighbors(view, u).get(v, 0.0)


def two_triangle_graph() -> InteractionGraph:
    """Two unit-weight triangles joined by one bridge edge (7 edges)."""
    return pairs_graph(
        [("a1", "a2"), ("a2", "a3"), ("a3", "a1"),
         ("b1", "b2"), ("b2", "b3"), ("b3", "b1"),
         ("a1", "b1")]
    )


def karate_graph() -> InteractionGraph:
    return pairs_graph([(f"v{u:02d}", f"v{v:02d}") for u, v in KARATE_EDGES])


def random_weighted_graph(rng: random.Random, max_nodes: int, edge_prob: float = 0.5,
                          max_weight: int = 5) -> InteractionGraph:
    """Random undirected-style weighted graph with at least one edge."""
    while True:
        n = rng.randint(2, max_nodes)
        names = [f"n{i}" for i in range(n)]
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_prob:
                    edges[(Handle(names[i]), Handle(names[j]), MENTION)] = rng.randint(
                        1, max_weight
                    )
        if edges:
            return InteractionGraph(edges)


def all_partitions(items):
    """Every set partition of ``items`` (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(index, blocks):
        if index == len(items):
            yield [list(b) for b in blocks]
            return
        item = items[index]
        for block in blocks:
            block.append(item)
            yield from rec(index + 1, blocks)
            block.pop()
        blocks.append([item])
        yield from rec(index + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def brute_force_best_q(graph: InteractionGraph, resolution: float = 1.0):
    """Exhaustive-optimal modularity and one achieving assignment."""
    nodes = sorted(graph.nodes)
    best_q, best_assignment = None, None
    for blocks in all_partitions(nodes):
        assignment = {}
        for cid, block in enumerate(blocks):
            for node in block:
                assignment[node] = cid
        q = modularity(graph, assignment, resolution)
        if best_q is None or q > best_q:
            best_q, best_assignment = q, dict(assignment)
    return best_q, best_assignment


def dyads_layout_instance(n_pairs=25, sep=50.0, gap=0.1, seed=0):
    """50 nodes as 25 tight pairs spread on a jittered ring.

    Every node's repulsion is dominated by its near partner while all
    other pairs sit far away, so Barnes-Hut genuinely aggregates the far
    field and per-node relative error is meaningful (no net-force
    cancellation).
    """
    import math

    from snsgraph.layout import LayoutFrame

    rng = random.Random(seed)
    edges = {}
    positions = {}
    for c in range(n_pairs):
        angle = 2 * math.pi * c / n_pairs
        radius = sep * (1 + 0.3 * rng.random())
        cx, cy = radius * math.cos(angle), radius * math.sin(angle)
        a, b = f"p{c:02d}a", f"p{c:02d}b"
        edges[(Handle(a), Handle(b), MENTION)] = rng.randint(1, 3)
        nxt = f"p{(c + 1) % n_pairs:02d}a"
        edges[(Handle(b), Handle(nxt), MENTION)] = 1
        pair_angle = rng.uniform(0, 2 * math.pi)
        ox, oy = gap / 2 * math.cos(pair_angle), gap / 2 * math.sin(pair_angle)
        positions[Handle(a)] = (cx - ox, cy - oy)
        positions[Handle(b)] = (cx + ox, cy + oy)
    return InteractionGraph(edges), LayoutFrame(positions=positions)


def random_connected_graph(n, extra_edges, seed, max_weight=3):
    """Path backbone plus random extras; always connected."""
    rng = random.Random(seed)
    names = [f"v{i:03d}" for i in range(n)]
    edges = {}
    for i in range(n - 1):
        edges[(Handle(names[i]), Handle(names[i + 1]), MENTION)] = rng.randint(1, max_weight)
    for _ in range(extra_edges):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges[(Handle(names[i]), Handle(names[j]), MENTION)] = rng.randint(1, max_weight)
    return InteractionGraph(edges)


BASE_TS = datetime(2017, 4, 21, 10, 0, 0, tzinfo=timezone.utc)


def make_record(rid, author, text="", hashtags=("ge2017",), in_reply_to=None,
                mentions=(), follows=(), minute=0) -> InteractionRecord:
    return InteractionRecord(
        id=str(rid),
        author=Handle(author),
        text=text,
        timestamp=BASE_TS + timedelta(minutes=minute),
        hashtags=tuple(hashtags),
        in_reply_to=Handle(in_reply_to) if in_reply_to else None,
        mentions=tuple(Handle(m) for m in mentions),
        follows=tuple(Handle(f) for f in follows),
    )


def record_from_dict(obj: dict) -> InteractionRecord:
    """One decoded corpus object, built by the corpus reader."""
    return record_reader()(obj)


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


@pytest.fixture
def tiny_corpus_path(tmp_path) -> Path:
    rows = [
        {"id": "1", "author": "Alice", "text": "RT @UKLabour: Vote! #GE2017",
         "hashtags": ["GE2017"], "in_reply_to": None, "mentions": ["UKLabour"],
         "timestamp": "2017-04-21T10:00:00Z"},
        {"id": "2", "author": "bob", "text": "great vote plan #ge2017",
         "hashtags": ["ge2017"], "in_reply_to": "alice", "mentions": [],
         "timestamp": "2017-04-21T10:01:00Z"},
        {"id": "3", "author": "carol", "text": "bad tory brexit #ge2017",
         "hashtags": ["ge2017"], "in_reply_to": None, "mentions": ["alice", "bob"],
         "follows": ["alice"], "timestamp": "2017-04-21T10:02:00Z"},
        {"id": "4", "author": "dave", "text": "off topic", "hashtags": ["other"],
         "in_reply_to": None, "mentions": ["eve"],
         "timestamp": "2017-04-21T10:03:00Z"},
    ]
    return write_jsonl(tmp_path / "corpus.jsonl", rows)
