import dataclasses

import pytest
from hypothesis import given, strategies as st

from snsgraph.centrality import PowerIterationConfig
from snsgraph.collector import DeviationConfig, SourceSpec
from snsgraph.community import LouvainConfig
from snsgraph.layout import LayoutConfig
from snsgraph.model import (
    Handle,
    InteractionGraph,
    InteractionKind,
    merge_kinds,
    undirected_view,
)

from conftest import (
    MENTION,
    from_interactions,
    neighbors,
    pairs_graph,
    weight,
    with_node,
    without_node,
)


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
            InteractionGraph.interned({"a": a, "b": b}, {("a", "b", MENTION): 2**62,
                                                         ("b", "a", MENTION): 2**62})
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
        from snsgraph.model import CentralityVector, Normalization

        with pytest.raises(ValueError):
            CentralityVector({Handle("a"): 0.4, Handle("b"): 0.4})
        with pytest.raises(ValueError):
            CentralityVector({Handle("a"): 0.5}, Normalization.MAX)
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
