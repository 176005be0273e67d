import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from snsgraph.community import (
    LouvainConfig,
    MoveContext,
    local_move_gain,
    louvain,
    louvain_trace,
    modularity,
)
from snsgraph.errors import UndefinedModularityError
from snsgraph.model import Handle, InteractionGraph, InteractionKind, undirected_view
from snsgraph.report import export_gexf, import_gexf

from conftest import (
    brute_force_best_q,
    karate_graph,
    pairs_graph,
    random_weighted_graph,
    two_triangle_graph,
)


def triangle_partition():
    return {Handle(h): 0 for h in ("a1", "a2", "a3")} | {
        Handle(h): 1 for h in ("b1", "b2", "b3")
    }


class TestModularity:
    def test_single_community_is_zero(self):
        g = pairs_graph([("a", "b", 2), ("b", "c"), ("c", "a", 4)])
        assignment = {h: 0 for h in g.nodes}
        assert modularity(g, assignment) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangle_bridge_value(self):
        q = modularity(two_triangle_graph(), triangle_partition())
        assert q == pytest.approx(5 / 14, abs=1e-9)

    def test_two_triangle_partition_is_brute_force_optimum(self):
        g = two_triangle_graph()
        best_q, _ = brute_force_best_q(g)
        assert best_q == pytest.approx(5 / 14, abs=1e-9)

    def test_edgeless_graph_undefined(self):
        g = InteractionGraph({}, extra_nodes=[Handle("a")])
        with pytest.raises(UndefinedModularityError):
            modularity(g, {Handle("a"): 0})

    def test_unassigned_node_rejected(self):
        g = pairs_graph([("a", "b")])
        with pytest.raises(ValueError):
            modularity(g, {Handle("a"): 0})

    def test_resolution_scales_null_model(self):
        g = two_triangle_graph()
        assignment = triangle_partition()
        q1 = modularity(g, assignment, resolution=1.0)
        q2 = modularity(g, assignment, resolution=2.0)
        # null term is (7/14)^2 = 1/4 per community, so one extra
        # resolution unit subtracts 2 * 1/4
        assert q2 == pytest.approx(q1 - 0.5, abs=1e-12)


NODES = [Handle(f"n{i}") for i in range(12)]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES),
                  st.sampled_from(list(InteractionKind))).filter(lambda e: e[0] != e[1]),
        st.integers(min_value=1, max_value=9),
        min_size=1, max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_q_is_bit_equal_however_the_graph_was_built(edges, rng):
    """Equal graphs built from one edge map in two orders, or read back
    from their own GEXF, score any partition to the same bits."""
    graph = InteractionGraph(edges)
    items = list(edges.items())
    rng.shuffle(items)
    sink = io.StringIO()
    export_gexf(graph, sink)
    copies = [graph, InteractionGraph(dict(items)), import_gexf(io.StringIO(sink.getvalue()))]
    assert copies[1] == graph and copies[2] == graph
    assignment = {h: rng.randrange(4) for h in graph.nodes}
    config = LouvainConfig(seed=rng.randrange(100))
    for copy in copies[1:]:
        assert modularity(copy, assignment).hex() == modularity(graph, assignment).hex()
        assert (louvain(copy, config).modularity_q.hex()
                == louvain(graph, config).modularity_q.hex())


class TestLocalMoveGain:
    def test_noop_move_is_zero(self):
        g = two_triangle_graph()
        ctx = MoveContext(g, triangle_partition())
        assert local_move_gain(Handle("a1"), 0, ctx) == 0.0

    def test_specific_move_matches_global(self):
        g = two_triangle_graph()
        nodes = sorted(g.nodes)
        assignment = {h: i for i, h in enumerate(nodes)}  # singletons
        view = undirected_view(g)
        ctx = MoveContext(view, assignment)
        a1, a2 = Handle("a1"), Handle("a2")
        dq = local_move_gain(a2, assignment[a1], ctx)
        moved = dict(assignment)
        moved[a2] = assignment[a1]
        expected = modularity(view, moved) - modularity(view, assignment)
        assert dq == pytest.approx(expected, abs=1e-9)
        assert dq > 0

    def test_thousand_random_moves_match_global(self):
        rng = random.Random(2024)
        for _ in range(1000):
            g = random_weighted_graph(rng, max_nodes=10)
            nodes = sorted(g.nodes)
            raw = {h: rng.randrange(3) for h in nodes}
            ids = {}
            assignment = {h: ids.setdefault(c, len(ids)) for h, c in raw.items()}
            view = undirected_view(g)
            ctx = MoveContext(view, assignment)
            node = rng.choice(nodes)
            target = rng.randrange(len(ids))
            dq = local_move_gain(node, target, ctx)
            moved = dict(assignment)
            moved[node] = target
            expected = modularity(view, moved) - modularity(view, assignment)
            assert abs(dq - expected) <= 1e-9

    def test_respects_resolution(self):
        g = two_triangle_graph()
        nodes = sorted(g.nodes)
        assignment = {h: i for i, h in enumerate(nodes)}
        ctx = MoveContext(g, assignment, resolution=3.0)
        a1, a2 = Handle("a1"), Handle("a2")
        dq = local_move_gain(a2, assignment[a1], ctx)
        moved = dict(assignment)
        moved[a2] = assignment[a1]
        expected = modularity(g, moved, 3.0) - modularity(g, assignment, 3.0)
        assert dq == pytest.approx(expected, abs=1e-9)

    def test_unassigned_or_unknown_node_names_it(self):
        g = pairs_graph([("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="node @c has no community assignment"):
            MoveContext(g, {Handle("a"): 0, Handle("b"): 0})
        ctx = MoveContext(g, {h: 0 for h in g.nodes})
        with pytest.raises(ValueError, match="node @zz is not in the graph"):
            local_move_gain(Handle("zz"), 0, ctx)


class TestLouvain:
    def test_two_triangles_found_exactly(self):
        partition = louvain(two_triangle_graph(), LouvainConfig(seed=42))
        assert partition.community_count == 2
        assert partition.modularity_q == pytest.approx(5 / 14, abs=1e-9)
        groups = {}
        for handle, cid in partition.assignment.items():
            groups.setdefault(cid, set()).add(handle.value)
        assert sorted(map(tuple, map(sorted, groups.values()))) == [
            ("a1", "a2", "a3"), ("b1", "b2", "b3"),
        ]

    def test_single_triangle_one_community(self):
        partition = louvain(pairs_graph([("a", "b"), ("b", "c"), ("c", "a")]))
        assert partition.community_count == 1
        assert partition.modularity_q == pytest.approx(0.0, abs=1e-12)

    def test_karate_club_quality(self):
        partition = louvain(karate_graph(), LouvainConfig(seed=0))
        assert 0.40 <= partition.modularity_q <= 0.42

    def test_karate_matches_reference_implementation(self):
        networkx = pytest.importorskip("networkx")
        nxg = networkx.Graph(
            [(f"v{u:02d}", f"v{v:02d}") for u, v in __import__("conftest").KARATE_EDGES]
        )
        comms = networkx.algorithms.community.louvain_communities(
            nxg, weight=None, seed=1
        )
        q_ref = networkx.algorithms.community.modularity(nxg, comms, weight=None)
        partition = louvain(karate_graph(), LouvainConfig(seed=0))
        assert 0.40 <= q_ref <= 0.42
        assert abs(partition.modularity_q - q_ref) <= 0.02

    def test_reported_q_matches_recomputation(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_weighted_graph(rng, max_nodes=12)
            partition = louvain(g, LouvainConfig(seed=9))
            assert partition.modularity_q == pytest.approx(
                modularity(g, partition.assignment), abs=1e-9
            )

    def test_fixed_seed_bit_identical(self):
        g = karate_graph()
        p1 = louvain(g, LouvainConfig(seed=123))
        p2 = louvain(g, LouvainConfig(seed=123))
        assert p1.assignment == p2.assignment
        assert p1.modularity_q == p2.modularity_q

    def test_q_never_decreases_across_passes(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_weighted_graph(rng, max_nodes=14)
            _, trace = louvain_trace(g, LouvainConfig(seed=3))
            for earlier, later in zip(trace, trace[1:]):
                assert later >= earlier - 1e-12

    def test_community_ids_dense(self):
        partition = louvain(karate_graph(), LouvainConfig(seed=7))
        assert set(partition.assignment.values()) == set(range(partition.community_count))

    def test_edgeless_graph_raises(self):
        g = InteractionGraph({}, extra_nodes=[Handle("a"), Handle("b")])
        with pytest.raises(UndefinedModularityError):
            louvain(g)

    def test_small_graphs_near_optimal(self):
        rng = random.Random(77)
        for _ in range(10):
            g = random_weighted_graph(rng, max_nodes=7)
            best_q, _ = brute_force_best_q(g)
            partition = louvain(g, LouvainConfig(seed=4))
            assert partition.modularity_q >= 0.95 * best_q - 1e-12


class TestLouvainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LouvainConfig(resolution=0)
