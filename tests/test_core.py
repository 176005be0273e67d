"""The integer graph core against brute force and the derivations it replaced.

The reference classes and functions below are the dict-based views and
per-stage index builders that every stage used to derive on its own, kept
verbatim apart from their ``ref_`` names. The core must reproduce their
arrays element for element (compared via ``tobytes``, so dtype and the
sign of zero count too), and modularity must match bit for bit.
``ref_workgraph_q`` is the per-pass modularity Louvain's trace used to take
from its work graph; the trace must match it bit for bit.
"""

import io
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from snsgraph.centrality import CentralityMode, _edge_arrays
from snsgraph.community import (
    LouvainConfig,
    _aggregate,
    _one_level,
    _WorkGraph,
    louvain_trace,
    modularity,
)
from snsgraph.layout import _Arrays
from snsgraph.model import (
    Handle,
    InteractionGraph,
    InteractionKind,
    merge_kinds,
    undirected_view,
)
from snsgraph.report import export_gexf, import_gexf

from conftest import karate_graph, neighbors, random_connected_graph


# --- reference derivations ----------------------------------------------------

class RefDirectedView:
    """Simple weighted digraph: one weight per ordered node pair."""

    __slots__ = ("_nodes", "_succ", "_total_weight")

    def __init__(self, nodes, weights):
        self._nodes = {h: None for h in nodes}
        succ = {}
        total = 0.0
        for (src, dst), w in weights.items():
            succ.setdefault(src, {})[dst] = w
            total += w
        self._succ = succ
        self._total_weight = total

    @property
    def nodes(self):
        return list(self._nodes)

    @property
    def node_count(self):
        return len(self._nodes)

    @property
    def total_weight(self):
        return self._total_weight

    def weight(self, src, dst):
        return self._succ.get(src, {}).get(dst, 0.0)

    def successors(self, src):
        return dict(self._succ.get(src, {}))

    def iter_edges(self):
        for src, targets in self._succ.items():
            for dst, w in targets.items():
                yield src, dst, w


class RefUndirectedView:
    """Symmetric weighted adjacency over the graph's node set."""

    __slots__ = ("_nodes", "_adj", "_total_weight")

    def __init__(self, nodes, adj):
        self._nodes = {h: None for h in nodes}
        self._adj = {u: dict(nbrs) for u, nbrs in adj.items()}
        total = 0.0
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    total += w
        self._total_weight = total

    @property
    def nodes(self):
        return list(self._nodes)

    @property
    def node_count(self):
        return len(self._nodes)

    @property
    def total_weight(self):
        return self._total_weight

    def weight(self, u, v):
        return self._adj.get(u, {}).get(v, 0.0)

    def neighbors(self, u):
        return dict(self._adj.get(u, {}))

    def degree(self, u):
        return sum(self._adj.get(u, {}).values())

    def iter_pairs(self):
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w


def ref_merge_kinds(graph):
    weights = {}
    for (src, dst, _kind), w in graph.edges.items():
        key = (src, dst)
        weights[key] = weights.get(key, 0.0) + w
    return RefDirectedView(graph.nodes, weights)


def ref_undirected_view(graph):
    if isinstance(graph, RefUndirectedView):
        return RefUndirectedView(graph.nodes, graph._adj)
    if isinstance(graph, InteractionGraph):
        directed = ref_merge_kinds(graph)
    else:
        directed = graph
    adj = {h: {} for h in directed.nodes}
    for src, dst, w in directed.iter_edges():
        adj[src][dst] = adj[src].get(dst, 0.0) + w
        adj[dst][src] = adj[dst].get(src, 0.0) + w
    return RefUndirectedView(directed.nodes, adj)


def ref_modularity(graph, assignment, resolution=1.0):
    view = ref_undirected_view(graph)
    total = view.total_weight
    intra = {}
    deg = {}
    for u, v, w in view.iter_pairs():
        if assignment[u] == assignment[v]:
            c = assignment[u]
            intra[c] = intra.get(c, 0.0) + w
    for node in view.nodes:
        c = assignment[node]
        deg[c] = deg.get(c, 0.0) + view.degree(node)

    q = 0.0
    for c, d in deg.items():
        q += intra.get(c, 0.0) / total - resolution * (d / (2.0 * total)) ** 2
    return q


def ref_workgraph_q(wg, comm, resolution):
    intra: dict[int, float] = {}
    deg: dict[int, float] = {}
    for u, nbrs in enumerate(wg.adj):
        for v, w in nbrs.items():
            if u < v and comm[u] == comm[v]:
                intra[comm[u]] = intra.get(comm[u], 0.0) + w
        intra[comm[u]] = intra.get(comm[u], 0.0) + wg.self_w[u]
        deg[comm[u]] = deg.get(comm[u], 0.0) + wg.degree[u]
    q = 0.0
    for c, d in deg.items():
        q += intra.get(c, 0.0) / wg.total - resolution * (d / (2.0 * wg.total)) ** 2
    return q


def ref_louvain_trace(graph, config):
    """The per-pass loop of ``louvain_trace`` (one restart) with ``ref_workgraph_q``."""
    wg = _WorkGraph.from_view(undirected_view(graph))
    rng = random.Random(config.seed)
    trace = []
    for _ in range(config.max_passes):
        comm, level_gain = _one_level(wg, config, rng)
        wg, _ = _aggregate(wg, comm)
        trace.append(ref_workgraph_q(wg, list(range(wg.n)), config.resolution))
        if level_gain <= config.min_gain:
            break
    return trace


def ref_view_to_workgraph(view):
    nodes = sorted(view.nodes)
    index = {h: i for i, h in enumerate(nodes)}
    adj = [{} for _ in nodes]
    for u, v, w in view.iter_pairs():
        adj[index[u]][index[v]] = w
        adj[index[v]][index[u]] = w
    return _WorkGraph(adj, [0.0] * len(nodes)), nodes


def ref_edge_arrays(graph, mode):
    nodes = sorted(graph.nodes, key=lambda h: h.value)
    index = {h: i for i, h in enumerate(nodes)}
    if mode is CentralityMode.INCOMING:
        triples = sorted(
            (index[s], index[d], float(w)) for s, d, w in ref_merge_kinds(graph).iter_edges()
        )
    else:
        view = ref_undirected_view(graph)
        triples = []
        for u, v, w in view.iter_pairs():
            triples.append((index[u], index[v], float(w)))
            triples.append((index[v], index[u], float(w)))
        triples.sort()
    if triples:
        src = np.array([t[0] for t in triples], dtype=np.int64)
        dst = np.array([t[1] for t in triples], dtype=np.int64)
        w = np.array([t[2] for t in triples], dtype=np.float64)
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
        w = np.zeros(0, dtype=np.float64)
    return nodes, src, dst, w


class RefArrays:
    """Graph constants: sorted nodes, masses, and edge index arrays."""

    __slots__ = ("nodes", "index", "mass", "edge_u", "edge_v", "edge_f")

    def __init__(self, view, edge_weight_influence):
        self.nodes = sorted(view.nodes, key=lambda h: h.value)
        self.index = {h: i for i, h in enumerate(self.nodes)}
        self.mass = np.array(
            [1.0 + len(view.neighbors(h)) for h in self.nodes], dtype=np.float64
        )
        pairs = sorted(
            (self.index[u], self.index[v], w) for u, v, w in view.iter_pairs()
        )
        self.edge_u = np.array([p[0] for p in pairs], dtype=np.int64)
        self.edge_v = np.array([p[1] for p in pairs], dtype=np.int64)
        delta = edge_weight_influence
        weights = np.array([p[2] for p in pairs], dtype=np.float64)
        if delta == 1.0:
            self.edge_f = weights
        elif delta == 0.0:
            self.edge_f = np.ones_like(weights)
        else:
            self.edge_f = weights**delta


# --- helpers --------------------------------------------------------------------

def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def adjacency_arrays(adj):
    """A list of adjacency dicts as (row, col, weight) arrays in (row, col) order."""
    rows = [(u, v, w) for u, nbrs in enumerate(adj) for v, w in sorted(nbrs.items())]
    return (
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.float64),
    )


def assert_matches_references(graph):
    ref_view = ref_undirected_view(graph)
    view = undirected_view(graph)
    assert view.handles == sorted(graph.nodes)
    assert view.nodes == graph.nodes
    assert view.total_weight == ref_view.total_weight

    for mode in CentralityMode:
        got, want = _edge_arrays(graph, mode), ref_edge_arrays(graph, mode)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert same(a, b), mode

    for delta in (0.0, 0.5, 1.0):
        got, want = _Arrays(view, delta), RefArrays(ref_view, delta)
        assert got.nodes == want.nodes
        for name in ("mass", "edge_u", "edge_v", "edge_f"):
            assert same(getattr(got, name), getattr(want, name)), (name, delta)

    if graph.node_count:
        wg = _WorkGraph.from_view(view)
        ref_wg, ref_nodes = ref_view_to_workgraph(ref_view)
        assert view.handles == ref_nodes
        for a, b in zip(adjacency_arrays(wg.adj), adjacency_arrays(ref_wg.adj)):
            assert same(a, b)
        assert wg.degree == ref_wg.degree and wg.total == ref_wg.total


def brute_force(graph):
    """Kind-merged arcs, symmetric arcs, degrees and masses from ``graph.edges``."""
    merged, sym = {}, {}
    for (s, d, _kind), w in graph.edges.items():
        merged[(s, d)] = merged.get((s, d), 0) + w
        sym[(s, d)] = sym.get((s, d), 0) + w
        sym[(d, s)] = sym.get((d, s), 0) + w
    degree = {h: 0 for h in graph.nodes}
    mass = {h: 1 for h in graph.nodes}
    for (u, _v), w in sym.items():
        degree[u] += w
        mass[u] += 1
    return merged, sym, degree, mass


def arcs(view):
    return {(u, v): w for u, v, w in view.iter_edges()}


def assert_matches_brute_force(graph):
    merged, sym, degree, mass = brute_force(graph)
    directed, view = merge_kinds(graph), undirected_view(graph)
    assert arcs(directed) == merged
    assert arcs(view) == sym
    assert dict(zip(view.handles, view.degrees().tolist())) == degree
    assert dict(zip(view.handles, _Arrays(view, 1.0).mass.tolist())) == mass
    assert directed.total_weight == view.total_weight == graph.total_weight
    assert sum(w for (u, v), w in sym.items() if u < v) == graph.total_weight
    for u in graph.nodes:
        assert neighbors(view, u) == {v: w for (a, v), w in sym.items() if a == u}

    edges = [
        (graph.handles[s], graph.handles[d], graph.kinds[k], w)
        for s, d, k, w in zip(graph.src.tolist(), graph.dst.tolist(),
                              graph.kind.tolist(), graph.weight.tolist())
    ]
    assert edges == sorted(
        ((s, d, k, w) for (s, d, k), w in graph.edges.items()),
        key=lambda e: (e[0].value, e[1].value, e[2].value),
    )


names = st.sampled_from(["a", "B", "c", "dd", "e", "@f", "zz"])
edge_maps = st.dictionaries(
    st.tuples(names, names, st.sampled_from(list(InteractionKind))).filter(
        lambda t: Handle(t[0]) != Handle(t[1])
    ),
    st.integers(min_value=1, max_value=9),
    max_size=25,
)


def make_graph(raw, extra):
    edges = {(Handle(s), Handle(d), k): w for (s, d, k), w in raw.items()}
    return InteractionGraph(edges, extra_nodes=[Handle(h) for h in extra])


# --- tests ------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(edge_maps, st.lists(names, max_size=3))
def test_core_matches_brute_force(raw, extra):
    assert_matches_brute_force(make_graph(raw, extra))


@settings(max_examples=100, deadline=None)
@given(edge_maps, st.lists(names, max_size=3))
def test_core_matches_reference_derivations(raw, extra):
    assert_matches_references(make_graph(raw, extra))


@settings(max_examples=100, deadline=None)
@given(edge_maps, st.lists(st.integers(0, 3), min_size=7, max_size=7), st.randoms())
def test_modularity_bit_identical_to_reference(raw, labels, rnd):
    graph = make_graph(raw, [])
    if not graph.total_weight:
        return
    nodes = graph.nodes
    rnd.shuffle(nodes)
    assignment = {h: labels[i % len(labels)] * 7 for i, h in enumerate(nodes)}
    for resolution in (0.5, 1.0):
        assert modularity(graph, assignment, resolution) == ref_modularity(
            graph, assignment, resolution
        )


def assert_trace_matches_reference(graph, config):
    _, trace = louvain_trace(graph, config)
    want = ref_louvain_trace(graph, config)
    assert [q.hex() for q in trace] == [q.hex() for q in want]


def test_louvain_trace_bit_identical_on_karate_and_a_larger_graph():
    for graph in (karate_graph(), random_connected_graph(300, 900, seed=5)):
        for seed in range(3):
            for resolution in (0.5, 1.0, 2.0):
                assert_trace_matches_reference(
                    graph, LouvainConfig(resolution=resolution, seed=seed))


@settings(max_examples=100, deadline=None)
@given(edge_maps, st.integers(0, 2**16), st.sampled_from([0.5, 1.0, 1.7]))
def test_louvain_trace_bit_identical_to_reference(raw, seed, resolution):
    graph = make_graph(raw, [])
    if graph.total_weight:
        assert_trace_matches_reference(graph, LouvainConfig(resolution=resolution, seed=seed))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(names, names, st.sampled_from(["directed", "undirected", ""]),
                  st.integers(1, 5)),
        max_size=12,
    ),
    st.lists(names, max_size=3),
)
def test_core_of_imported_gexf_with_undirected_edges(edge_list, isolated):
    ids = sorted({n for s, d, _, _ in edge_list for n in (s, d)} | set(isolated))
    nodes = "".join(f'<node id="{i}"/>' for i in ids)
    edges = "".join(
        f'<edge id="{k}" source="{s}" target="{d}" weight="{w}.0"'
        + (f' type="{t}"' if t else "") + "/>"
        for k, (s, d, t, w) in enumerate(edge_list)
    )
    doc = (
        '<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">'
        f'<graph defaultedgetype="undirected"><nodes>{nodes}</nodes>'
        f"<edges>{edges}</edges></graph></gexf>"
    )
    graph = import_gexf(io.StringIO(doc))

    expected = {}
    for s, d, t, w in edge_list:
        if Handle(s) == Handle(d):
            continue
        pairs = [(s, d)] if t == "directed" else [(s, d), (d, s)]
        for a, b in pairs:
            key = (Handle(a), Handle(b), InteractionKind.MENTION)
            expected[key] = expected.get(key, 0) + w
    assert graph.edges == expected
    assert set(graph.nodes) == {Handle(i) for i in ids}
    assert_matches_brute_force(graph)
    assert_matches_references(graph)


def test_empty_graph():
    graph = InteractionGraph({})
    assert_matches_brute_force(graph)
    assert_matches_references(graph)
    assert undirected_view(graph).node_count == 0


def test_isolated_nodes_only():
    graph = InteractionGraph({}, extra_nodes=[Handle("b"), Handle("a")])
    assert_matches_brute_force(graph)
    assert_matches_references(graph)
    assert undirected_view(graph).nodes == [Handle("b"), Handle("a")]


def test_larger_graph_matches_references():
    graph = random_connected_graph(400, 1200, seed=3)
    assert_matches_references(graph)
    rng = random.Random(4)
    assignment = {h: rng.randrange(9) for h in graph.nodes}
    assert modularity(graph, assignment) == ref_modularity(graph, assignment)


def test_views_are_built_once():
    graph = random_connected_graph(30, 40, seed=1)
    assert undirected_view(graph) is undirected_view(undirected_view(graph))
    assert merge_kinds(graph) is merge_kinds(graph)
    assert undirected_view(merge_kinds(graph)) is undirected_view(graph)


def test_export_order_follows_the_core():
    a, b, c = Handle("a"), Handle("b"), Handle("c")
    graph = InteractionGraph({
        (c, a, InteractionKind.REPLY): 1,
        (a, b, InteractionKind.REPLY): 2,
        (a, b, InteractionKind.FOLLOW): 3,
        (a, b, InteractionKind.MENTION): 4,
    })
    sink = io.StringIO()
    export_gexf(graph, sink)
    doc = sink.getvalue()
    order = [doc.index(f'weight="{w}.0"') for w in (3, 4, 2, 1)]
    assert order == sorted(order)
    assert import_gexf(io.StringIO(doc)) == graph
