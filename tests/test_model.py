import dataclasses
import math
from types import SimpleNamespace
from typing import Iterable, Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snsgraph.centrality import PowerIterationConfig
from snsgraph.collector import DeviationConfig, SourceSpec
from snsgraph.community import LouvainConfig
from snsgraph.ingest import IngestStats, InteractionRecord, build_graph
from snsgraph.layout import LayoutConfig
from snsgraph.model import (
    _INT64_MAX,
    GraphView,
    Handle,
    InteractionGraph,
    InteractionKind,
    merge_kinds,
    undirected_view,
)

from conftest import (
    MENTION,
    from_interactions,
    make_record,
    neighbors,
    pairs_graph,
    weight,
    with_node,
    without_node,
)
from test_layout import same_bits


class TestHandle:
    def test_normalizes_case_and_at_prefix(self):
        assert Handle("@BarrYGardiner") == Handle("barrygardiner")
        assert Handle("Alice").value == "alice"
        assert Handle("alice").display() == "@alice"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Handle("@")
        with pytest.raises(ValueError):
            Handle("  ")

    def test_orderable(self):
        assert sorted([Handle("b"), Handle("A")]) == [Handle("a"), Handle("b")]


class TestInteractionGraph:
    def test_counts_are_consistent(self):
        g = pairs_graph([("a", "b"), ("b", "c", 3)])
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.total_weight == 4

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            InteractionGraph({(Handle("a"), Handle("a"), MENTION): 1})

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            InteractionGraph({(Handle("a"), Handle("b"), MENTION): 0})
        with pytest.raises(ValueError):  # checked before int64 would truncate it to 2
            InteractionGraph({(Handle("a"), Handle("b"), MENTION): 2.5})
        for weight in (float("inf"), float("nan")):  # neither is a count int() can check
            with pytest.raises(ValueError, match="positive count"):
                InteractionGraph({(Handle("a"), Handle("b"), MENTION): weight})

    def test_rejects_total_weight_past_int64(self):
        a, b = Handle("a"), Handle("b")
        with pytest.raises(ValueError, match="2\\*\\*63"):  # numpy's sum would wrap
            InteractionGraph({(a, b, MENTION): 2**62, (b, a, MENTION): 2**62})
        with pytest.raises(ValueError, match="2\\*\\*63"):  # numpy's fromiter would overflow
            InteractionGraph({(a, b, MENTION): 2**63})

    def test_equality_reads_weights_kinds_and_isolated_nodes(self):
        a, b = Handle("a"), Handle("b")
        g = pairs_graph([("a", "b"), ("b", "c", 3)])
        assert InteractionGraph(g.edges, g.nodes) == g
        assert pairs_graph([("b", "c", 3), ("a", "b")]) == g
        one_weight = {**g.edges, (a, b, MENTION): 2}
        one_kind = {(s, d, InteractionKind.REPLY if s == a else k): w
                    for (s, d, k), w in g.edges.items()}
        assert InteractionGraph(one_weight) != g
        assert InteractionGraph(one_kind) != g
        assert InteractionGraph(one_kind).edge_count == g.edge_count
        assert with_node(g, Handle("zed")) != g

    def test_from_interactions_accumulates_and_drops_self(self):
        a, b = Handle("a"), Handle("b")
        g = from_interactions([(a, b, MENTION), (a, b, MENTION), (a, a, MENTION)])
        assert g.edges == {(a, b, MENTION): 2}

    def test_node_insert_then_remove_restores_counts(self):
        g = pairs_graph([("a", "b"), ("b", "c")])
        n, m = g.node_count, g.edge_count
        g2 = without_node(with_node(g, Handle("zed")), Handle("zed"))
        assert (g2.node_count, g2.edge_count) == (n, m)
        assert g2 == g

    def test_remove_node_drops_incident_edges(self):
        g = pairs_graph([("a", "b"), ("b", "c"), ("a", "c")])
        g2 = without_node(g, Handle("b"))
        assert g2.node_count == 2
        assert g2.edge_count == 1


@pytest.mark.parametrize("config_type, required", [
    (LouvainConfig, {}), (LayoutConfig, {}), (PowerIterationConfig, {}), (DeviationConfig, {}),
    (SourceSpec, {"id": "s", "kind": "file", "location": "c.jsonl"}),
])
def test_config_floats_must_be_finite(config_type, required):
    floats = [f.name for f in dataclasses.fields(config_type) if isinstance(f.default, float)]
    assert floats
    for field in floats:
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                config_type(**required, **{field: value})


class TestPartitionAndCentralityVector:
    def test_partition_requires_dense_ids(self):
        from snsgraph.model import Partition

        with pytest.raises(ValueError):
            Partition({Handle("a"): 0, Handle("b"): 2}, community_count=3,
                      modularity_q=0.0)
        ok = Partition({Handle("a"): 0, Handle("b"): 1}, community_count=2,
                       modularity_q=0.1)
        assert ok.community_of(Handle("b")) == 1
        assert [sorted(h.value for h in c) for c in ok.communities()] == [["a"], ["b"]]

    def test_centrality_vector_checks_normalization(self):
        from snsgraph.model import CentralityVector

        with pytest.raises(ValueError):
            CentralityVector({Handle("a"): 0.4, Handle("b"): 0.4})
        with pytest.raises(ValueError):
            CentralityVector({Handle("a"): -0.1, Handle("b"): 1.1})
        CentralityVector({Handle("a"): 0.6, Handle("b"): 0.4})  # valid L1


class TestMergeKinds:
    def test_sums_over_kinds(self):
        a, b = Handle("a"), Handle("b")
        g = InteractionGraph(
            {(a, b, InteractionKind.REPLY): 1, (a, b, InteractionKind.MENTION): 2}
        )
        assert weight(merge_kinds(g), a, b) == 3

    def test_single_edge_unchanged(self):
        g = pairs_graph([("a", "b")], kind=InteractionKind.FOLLOW)
        assert weight(merge_kinds(g), Handle("a"), Handle("b")) == 1

    def test_empty_graph(self):
        d = merge_kinds(InteractionGraph({}))
        assert d.node_count == 0
        assert list(d.iter_edges()) == []

    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from("abcde"),
                st.sampled_from("abcde"),
                st.sampled_from(list(InteractionKind)),
            ).filter(lambda t: t[0] != t[1]),
            st.integers(min_value=1, max_value=9),
            max_size=30,
        )
    )
    def test_total_weight_preserved(self, raw):
        g = InteractionGraph({(Handle(s), Handle(d), k): w for (s, d, k), w in raw.items()})
        merged = merge_kinds(g)
        assert sum(w for _, _, w in merged.iter_edges()) == g.total_weight


class TestUndirectedView:
    def test_symmetrizes_single_direction(self):
        g = pairs_graph([("a", "b", 2)], kind=InteractionKind.REPLY)
        view = undirected_view(g)
        assert weight(view, Handle("a"), Handle("b")) == 2
        assert weight(view, Handle("b"), Handle("a")) == 2

    def test_sums_both_directions(self):
        g = pairs_graph([("a", "b", 1), ("b", "a", 3)])
        view = undirected_view(g)
        assert weight(view, Handle("a"), Handle("b")) == 4

    def test_empty_graph(self):
        view = undirected_view(InteractionGraph({}))
        assert view.node_count == 0
        assert view.total_weight == 0

    def test_idempotent_on_symmetric_view(self):
        g = pairs_graph([("a", "b", 1), ("b", "c", 2), ("c", "a", 5)])
        once = undirected_view(g)
        twice = undirected_view(once)
        for u in once.nodes:
            assert neighbors(once, u) == neighbors(twice, u)
        assert once.total_weight == twice.total_weight

    def test_total_weight_matches_graph(self):
        g = pairs_graph([("a", "b", 1), ("b", "a", 3), ("b", "c", 2)])
        assert undirected_view(g).total_weight == g.total_weight


# --- the index before it was packed: a dict of edge tuples and np.unique ------

ValueEdge = tuple[str, str, InteractionKind]  # an edge keyed on handle values

def ref_sum_by_pair(src: np.ndarray, dst: np.ndarray, weights: np.ndarray, n: int):
    """Merge arcs with equal ``(src, dst)``; the result is in ``(src, dst)`` order."""
    if not len(src):
        return src, dst, weights
    pairs, slot = np.unique(src * n + dst, return_inverse=True)
    return pairs // n, pairs % n, np.bincount(slot, weights=weights, minlength=len(pairs))


def ref_index(handles: Mapping[str, Handle], counts: Mapping[ValueEdge, int]):
    """``InteractionGraph._index`` as it was, its fields set on a namespace."""
    self = SimpleNamespace(kinds=InteractionGraph.kinds)
    for (s, d, _), weight in counts.items():  # before int64 truncates 2.5 to 2
        if s == d:
            raise ValueError(f"self-loop not allowed: @{s}")
        if not 1 <= weight < math.inf or weight != int(weight):  # NaN, inf fail
            raise ValueError(f"edge weight must be a positive count, got {weight!r}")
    if (total := sum(counts.values())) > _INT64_MAX:
        raise ValueError(f"total edge weight {total} exceeds 2**63 - 1")
    values = sorted(handles)
    self.handles = [handles[v] for v in values]
    self.index = index = {v: i for i, v in enumerate(values)}
    m = len(counts)
    code = {k: i for i, k in enumerate(self.kinds)}
    src = np.fromiter((index[e[0]] for e in counts), np.int64, m)
    dst = np.fromiter((index[e[1]] for e in counts), np.int64, m)
    kind = np.fromiter((code[e[2]] for e in counts), np.int8, m)
    weight = np.fromiter(counts.values(), np.int64, m)
    order = np.lexsort((kind, dst, src))
    self.src, self.dst, self.kind, self.weight = (a[order] for a in (src, dst, kind, weight))
    for array in (self.src, self.dst, self.kind, self.weight):
        array.flags.writeable = False
    self.total_weight = int(self.weight.sum())

    n, total = len(values), float(self.total_weight)
    msrc, mdst, mw = ref_sum_by_pair(self.src, self.dst, self.weight.astype(np.float64), n)
    self.directed = GraphView(self, msrc, mdst, mw, total)
    self.undirected = GraphView(
        self,
        *ref_sum_by_pair(np.concatenate([msrc, mdst]), np.concatenate([mdst, msrc]),
                         np.concatenate([mw, mw]), n),
        total,
    )
    return self


def ref_build_graph(records: Iterable[InteractionRecord]):
    """``build_graph`` as it was: counts in a dict keyed on edge tuples."""
    stats = IngestStats()
    handles: dict[str, Handle] = {}
    counts: dict[ValueEdge, int] = {}
    for record in records:
        stats.records += 1
        for src, dst, kind in record.interactions():
            if src.value == dst.value:
                stats.self_loops_dropped += 1
                continue
            stats.interactions += 1
            handles.setdefault(src.value, src)
            handles.setdefault(dst.value, dst)
            key = (src.value, dst.value, kind)
            counts[key] = counts.get(key, 0) + 1
    graph = ref_index(handles, counts)
    stats.node_count = len(graph.handles)
    stats.edge_count = len(graph.src)
    return graph, stats


def assert_same_index(graph, ref):
    assert graph.handles == ref.handles and graph.index == ref.index
    for name in ("src", "dst", "kind", "weight"):
        assert same_bits(getattr(graph, name), getattr(ref, name)), name
    assert type(graph.total_weight) is int and graph.total_weight == ref.total_weight
    for view in ("directed", "undirected"):
        for name in ("src", "dst", "weights", "indptr"):
            got, want = getattr(getattr(graph, view), name), getattr(getattr(ref, view), name)
            assert same_bits(got, want), (view, name)
        assert getattr(graph, view).total_weight == getattr(ref, view).total_weight


NAMES = ["a", "B", "c", "d\u00e9", "\u00c9e", "f_g", "zz"]
KINDS = list(InteractionKind)


class TestPackedIndexMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.dictionaries(
            st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES))
            .filter(lambda p: Handle(p[0]) != Handle(p[1])),
            st.dictionaries(st.sampled_from(KINDS), st.one_of(
                st.integers(1, 9), st.integers(2**53, 2**58), st.integers(1, 2**62)),
                min_size=1),
            max_size=12,
        ),
        isolated=st.lists(st.sampled_from(NAMES + ["iso", "Other"]), max_size=3),
    )
    def test_constructors_index_as_before(self, pairs, isolated):
        # a small handle pool repeats pairs in both directions and in every
        # kind; large weights make the order of each float sum show
        graph_edges = {(Handle(s), Handle(d), k): w
                       for (s, d), kinds in pairs.items() for k, w in kinds.items()}
        handles: dict[str, Handle] = {}
        counts: dict[ValueEdge, int] = {}
        for (src, dst, kind), w in graph_edges.items():
            handles.setdefault(src.value, src)
            handles.setdefault(dst.value, dst)
            counts[(src.value, dst.value, kind)] = w
        for h in map(Handle, isolated):
            handles.setdefault(h.value, h)
        if sum(counts.values()) > _INT64_MAX:
            for build in (lambda: InteractionGraph(graph_edges, map(Handle, isolated)),
                          lambda: ref_index(handles, counts)):
                with pytest.raises(ValueError, match="2\\*\\*63"):
                    build()
            return
        ref = ref_index(handles, counts)
        assert_same_index(InteractionGraph(graph_edges, map(Handle, isolated)), ref)

    def test_empty_graph_and_isolated_nodes(self):
        assert_same_index(InteractionGraph({}), ref_index({}, {}))
        a, b = Handle("b"), Handle("a")
        assert_same_index(InteractionGraph({}, [a, b]), ref_index({"b": a, "a": b}, {}))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(NAMES + ["A", "@b", "C", "ZZ"]),
        st.none() | st.sampled_from(NAMES + ["@@a", "Zz"]),
        st.lists(st.sampled_from(NAMES + ["A", "F_G"]), max_size=4),
        st.lists(st.sampled_from(NAMES + ["b", "\u00c9E"]), max_size=3),
    ), max_size=25))
    def test_build_graph_indexes_as_before(self, rows):
        # case variants and @ runs name one handle; authors reply to, mention
        # and follow themselves, and those self-loops are dropped and counted
        records = [make_record(i, author, in_reply_to=reply, mentions=mentions, follows=follows)
                   for i, (author, reply, mentions, follows) in enumerate(rows)]
        graph, stats = build_graph(records)
        ref, ref_stats = ref_build_graph(records)
        assert_same_index(graph, ref)
        assert stats == ref_stats
