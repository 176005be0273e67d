import io
import json
import random

import pytest
from hypothesis import given, strategies as st

from snsgraph.errors import EmptyCorpusError
from snsgraph.ingest import (
    TopicFilter,
    build_graph,
    filter_topic,
    parse_corpus,
    parse_rfc3339,
    record_from_dict,
    record_to_dict,
)
from snsgraph.model import Handle, InteractionKind

from conftest import make_record, write_jsonl


GOOD_LINE = {
    "id": "1", "author": "alice", "text": "hi #GE2017", "hashtags": ["GE2017"],
    "in_reply_to": None, "mentions": ["bob"], "timestamp": "2017-04-21T10:00:00Z",
}


def as_stream(rows):
    return io.StringIO("\n".join(json.dumps(r) if isinstance(r, dict) else r for r in rows) + "\n")


class TestParseCorpus:
    def test_single_record(self):
        records, diags = parse_corpus(as_stream([GOOD_LINE]))
        assert diags == []
        (rec,) = records
        assert rec.id == "1"
        assert rec.author == Handle("alice")
        assert rec.hashtags == ("ge2017",)
        assert rec.mentions == (Handle("bob"),)
        assert rec.timestamp == parse_rfc3339("2017-04-21T10:00:00Z")

    def test_malformed_line_reported_not_fatal(self):
        rows = [GOOD_LINE, "{not json", dict(GOOD_LINE, id="2"), dict(GOOD_LINE, id="3")]
        records, diags = parse_corpus(as_stream(rows))
        assert len(records) == 3
        assert len(diags) == 1
        assert diags[0].line_no == 2

    def test_missing_required_field_is_diagnostic(self):
        bad = {k: v for k, v in GOOD_LINE.items() if k != "author"}
        records, diags = parse_corpus(as_stream([GOOD_LINE, bad]))
        assert len(records) == 1
        assert "author" in diags[0].reason

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            parse_corpus(io.StringIO(""))

    def test_unknown_fields_ignored(self):
        records, _ = parse_corpus(as_stream([dict(GOOD_LINE, retweet_count=7)]))
        assert records[0].id == "1"

    def test_unreadable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_corpus(tmp_path / "missing.jsonl")

    def test_non_utf8_line_is_diagnostic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps(GOOD_LINE).encode()
        bad = json.dumps(dict(GOOD_LINE, id="2", text="caf\u00e9"), ensure_ascii=False)
        bad = bad.encode("latin-1")  # a lone 0xe9 byte
        path.write_bytes(good + b"\n" + bad + b"\n" + good.replace(b'"1"', b'"3"') + b"\n")
        records, diags = parse_corpus(path)
        assert [r.id for r in records] == ["1", "3"]
        assert [d.line_no for d in diags] == [2]
        assert "UTF-8" in diags[0].reason

    def test_file_roundtrip(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [GOOD_LINE])
        records, _ = parse_corpus(path)
        assert record_to_dict(records[0]) == record_to_dict(record_from_dict(GOOD_LINE))


class TestTopicFilter:
    def test_exact_match_retained(self):
        records = [make_record(1, "a", hashtags=("ge2017",))]
        assert filter_topic(records, TopicFilter.of("ge2017")) == records

    def test_non_matching_dropped(self):
        records = [make_record(1, "a", hashtags=("brexit",))]
        assert filter_topic(records, TopicFilter.of("ge2017")) == []

    def test_case_insensitive(self):
        records = [make_record(1, "a", hashtags=("ge2017",))]
        assert filter_topic(records, TopicFilter.of("GE2017")) == records

    def test_no_substring_matching(self):
        records = [make_record(1, "a", hashtags=("ge2017x",))]
        assert filter_topic(records, TopicFilter.of("ge2017")) == []

    def test_order_preserved(self):
        records = [make_record(i, "a") for i in range(5)]
        assert [r.id for r in filter_topic(records, TopicFilter.of("ge2017"))] == [
            "0", "1", "2", "3", "4"
        ]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TopicFilter(frozenset())


class TestBuildGraph:
    def test_direct_construction(self):
        records = [
            make_record(1, "a", in_reply_to="b"),
            make_record(2, "a", mentions=["c"]),
            make_record(3, "b", follows=["c"]),
        ]
        graph, stats = build_graph(records)
        a, b, c = Handle("a"), Handle("b"), Handle("c")
        assert set(graph.nodes) == {a, b, c}
        assert graph.edges == {
            (a, b, InteractionKind.REPLY): 1,
            (a, c, InteractionKind.MENTION): 1,
            (b, c, InteractionKind.FOLLOW): 1,
        }
        assert stats.interactions == 3

    def test_accumulates_repeated_pairs(self):
        records = [make_record(1, "a", mentions=["c"]), make_record(2, "a", mentions=["c"])]
        graph, _ = build_graph(records)
        assert graph.edges[(Handle("a"), Handle("c"), InteractionKind.MENTION)] == 2

    def test_self_loop_dropped_and_counted(self):
        graph, stats = build_graph([make_record(1, "a", mentions=["a"])])
        assert graph.edge_count == 0
        assert stats.self_loops_dropped == 1

    def test_empty_records_empty_graph(self):
        graph, stats = build_graph([])
        assert graph.node_count == 0
        assert stats.records == 0

    def test_total_weight_equals_non_self_interactions(self):
        records = [
            make_record(1, "a", in_reply_to="b", mentions=["b", "b", "c"]),
            make_record(2, "b", mentions=["b"]),  # self-loop
        ]
        graph, stats = build_graph(records)
        assert graph.total_weight == 4 == stats.interactions

    def test_node_count_bound(self):
        records = [make_record(i, f"a{i}", mentions=[f"b{i}"]) for i in range(6)]
        graph, stats = build_graph(records)
        assert graph.node_count <= 1 + 2 * stats.interactions

    def test_order_insensitive(self):
        records = [
            make_record(i, f"a{i % 3}", mentions=[f"b{i % 4}"], in_reply_to=f"a{(i + 1) % 3}")
            for i in range(20)
        ]
        base, _ = build_graph(records)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            permuted, _ = build_graph(shuffled)
            assert permuted == base

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=25),
           st.randoms(use_true_random=False))
    def test_permutation_property(self, pairs, rng):
        records = [
            make_record(i, src, mentions=[dst]) for i, (src, dst) in enumerate(pairs)
        ]
        base, _ = build_graph(records)
        shuffled = records[:]
        rng.shuffle(shuffled)
        again, _ = build_graph(shuffled)
        assert again == base
