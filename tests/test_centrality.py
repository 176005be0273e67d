import math
import random

import numpy as np
import pytest

from snsgraph.centrality import (
    CentralityMode,
    PowerIterationConfig,
    eigenvector_centrality,
    top_k,
)
from snsgraph.errors import DegenerateSpectrumError, EmptyGraphError
from snsgraph.model import (
    CentralityVector,
    Handle,
    InteractionGraph,
    merge_kinds,
)

from conftest import pairs_graph

UNDIRECTED = PowerIterationConfig(mode=CentralityMode.UNDIRECTED)


def dense_incoming_oracle(graph):
    """Dominant eigenvector of the merged weighted adjacency, L1-normalized."""
    nodes = sorted(graph.nodes)
    index = {h: i for i, h in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)))
    for src, dst, w in merge_kinds(graph).iter_edges():
        matrix[index[dst], index[src]] = w
    values, vectors = np.linalg.eig(matrix)
    lead = np.argmax(values.real)
    vector = np.abs(vectors[:, lead].real)
    vector /= vector.sum()
    return {h: vector[index[h]] for h in nodes}


def random_strongly_connected(rng, max_nodes=50):
    n = rng.randint(4, max_nodes)
    names = [f"v{i:02d}" for i in range(n)]
    agg = {}
    for i in range(n):  # cycle guarantees strong connectivity
        agg[(names[i], names[(i + 1) % n])] = rng.randint(1, 5)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            agg[(names[i], names[j])] = rng.randint(1, 5)
    return pairs_graph([(s, d, w) for (s, d), w in agg.items()])


class TestAnalyticCases:
    def test_path_p3(self):
        result = eigenvector_centrality(pairs_graph([("a", "b"), ("b", "c")]), UNDIRECTED)
        assert result.converged
        scores = result.vector.scores
        end = 1 / (2 + math.sqrt(2))
        mid = math.sqrt(2) / (2 + math.sqrt(2))
        assert scores[Handle("a")] == pytest.approx(end, abs=1e-9)
        assert scores[Handle("b")] == pytest.approx(mid, abs=1e-9)
        assert scores[Handle("c")] == pytest.approx(end, abs=1e-9)

    def test_complete_k5(self):
        pairs = [(f"n{i}", f"n{j}") for i in range(5) for j in range(i + 1, 5)]
        result = eigenvector_centrality(pairs_graph(pairs), UNDIRECTED)
        for score in result.vector.scores.values():
            assert score == pytest.approx(0.2, abs=1e-9)

    def test_star_k14(self):
        pairs = [("hub", f"leaf{i}") for i in range(4)]
        result = eigenvector_centrality(pairs_graph(pairs), UNDIRECTED)
        assert result.vector.scores[Handle("hub")] == pytest.approx(1 / 3, abs=1e-9)
        for i in range(4):
            assert result.vector.scores[Handle(f"leaf{i}")] == pytest.approx(1 / 6, abs=1e-9)


class TestPowerIteration:
    def test_matches_dense_oracle_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(10):
            graph = random_strongly_connected(rng)
            result = eigenvector_centrality(graph)
            assert result.converged
            oracle = dense_incoming_oracle(graph)
            for handle, score in result.vector.scores.items():
                assert score == pytest.approx(oracle[handle], abs=1e-6)

    def test_l1_scores_sum_to_one(self):
        rng = random.Random(8)
        graph = random_strongly_connected(rng, max_nodes=20)
        result = eigenvector_centrality(graph)
        assert sum(result.vector.scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(s >= 0 for s in result.vector.scores.values())

    def test_weight_scaling_invariance(self):
        rng = random.Random(13)
        graph = random_strongly_connected(rng, max_nodes=25)
        scaled = InteractionGraph({e: w * 7 for e, w in graph.edges.items()})
        base = eigenvector_centrality(graph)
        times7 = eigenvector_centrality(scaled)
        for handle, score in base.vector.scores.items():
            assert times7.vector.scores[handle] == pytest.approx(score, abs=1e-7)
        assert [h for h, _ in top_k(base.vector, 10)] == [
            h for h, _ in top_k(times7.vector, 10)
        ]

    def test_insertion_order_does_not_change_scores(self):
        pairs = [("a", "b", 2), ("b", "c", 1), ("c", "a", 3), ("a", "c", 1)]
        g1 = pairs_graph(pairs)
        g2 = pairs_graph(list(reversed(pairs)))
        r1 = eigenvector_centrality(g1)
        r2 = eigenvector_centrality(g2)
        assert r1.vector.scores == r2.vector.scores

    def test_incoming_mode_rewards_targets(self):
        # everyone mentions "star"; star mentions nobody relevant
        pairs = [(f"u{i}", "star") for i in range(5)] + [("star", "u0")]
        result = eigenvector_centrality(pairs_graph(pairs))
        ranked = top_k(result.vector, 1)
        assert ranked[0][0] == Handle("star")

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            eigenvector_centrality(InteractionGraph({}))

    def test_edgeless_mode_degenerate(self):
        g = InteractionGraph({}, extra_nodes=[Handle("a"), Handle("b")])
        with pytest.raises(DegenerateSpectrumError):
            eigenvector_centrality(g)

    def test_non_convergence_reported(self):
        graph = pairs_graph([("a", "b")])  # pure source/sink pair, incoming mode
        result = eigenvector_centrality(graph)  # the source's share falls as 1/(k + 2)
        assert not result.converged
        assert result.iterations == 1000

    def test_teleport_mixes_uniform_mass(self):
        graph = pairs_graph([("a", "b")])
        config = PowerIterationConfig(teleport=0.1)
        result = eigenvector_centrality(graph, config)
        assert result.converged
        assert all(s > 0 for s in result.vector.scores.values())


class TestTopK:
    def test_descending_order(self):
        vector = CentralityVector(
            {Handle("a"): 0.5, Handle("b"): 0.3, Handle("c"): 0.2}
        )
        assert top_k(vector, 2) == [(Handle("a"), 0.5), (Handle("b"), 0.3)]

    def test_tie_broken_lexicographically(self):
        vector = CentralityVector({Handle("b"): 0.5, Handle("a"): 0.5})
        assert top_k(vector, 1) == [(Handle("a"), 0.5)]

    def test_k_larger_than_n(self):
        vector = CentralityVector({Handle("a"): 1.0})
        assert len(top_k(vector, 99)) == 1

    def test_k_must_be_positive(self):
        vector = CentralityVector({Handle("a"): 1.0})
        with pytest.raises(ValueError):
            top_k(vector, 0)
