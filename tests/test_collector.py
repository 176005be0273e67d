"""Sources, emission, deviation alerts and the collector loop.

``ref_bucketize`` below is the per-metric bucketing that the one-pass
``Buckets`` fold replaced, kept verbatim apart from its ``ref_`` name and
its sentiment scorer (the reference one of ``test_textmine``). The fold
must reproduce both of its series bit for bit. ``ref_output_record_to_xml``
is the element-by-element XML writer that walking ``output_record_to_dict``
replaced, kept the same way; the walk must write the same lines.
``ref_detect_deviation`` is the detector before it skipped silent windows,
kept the same way; the detector must raise the same alerts, bit for bit.
"""

import gc
import http.server
import io
import itertools
import json
import statistics
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

import snsgraph.collector
from snsgraph.collector import (
    MAX_BUCKETS,
    AlertEvent,
    Buckets,
    CollectorConfig,
    DeviationConfig,
    OutputRecord,
    SourceDiagnostic,
    SourceSpec,
    SourceState,
    bucketize,
    detect_deviation,
    emit,
    output_record_to_xml,
    poll_source,
    read_records,
    run_collector,
)
from snsgraph.cli import main
from snsgraph.errors import AnalyticsError, RecordParseError
from snsgraph.ingest import InteractionRecord, format_rfc3339
from snsgraph.model import _NOT_XML, Handle
from snsgraph.textmine import Lexicon, TextFold, sentiment

from conftest import BASE_TS, bursty_rows, make_record, record_from_dict, write_jsonl
from test_textmine import LEXICONS, TEXTS, ref_sentiment


def ref_bucketize(
    records: Iterable[OutputRecord | InteractionRecord],
    config: DeviationConfig,
    lexicon: Lexicon | None = None,
) -> list[tuple[datetime, float]]:
    if config.metric == "mean_sentiment" and lexicon is None:
        raise ValueError("mean_sentiment bucketing needs a lexicon")
    width = timedelta(seconds=config.bucket_seconds)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for item in records:
        payload = item.payload if isinstance(item, OutputRecord) else item
        bucket = int((payload.timestamp - epoch) // width)
        counts[bucket] = counts.get(bucket, 0) + 1
        if config.metric == "mean_sentiment":
            sums[bucket] = sums.get(bucket, 0.0) + ref_sentiment(payload.text, lexicon).score
    if not counts:
        return []
    series = []
    for b in range(min(counts), max(counts) + 1):
        ts = epoch + b * width
        if config.metric == "volume":
            series.append((ts, float(counts.get(b, 0))))
        else:
            n = counts.get(b, 0)
            series.append((ts, (sums.get(b, 0.0) / n) if n else 0.0))
    return series


def fold(records, bucket_seconds: float, scores=None):
    """The ``Buckets`` series of ``records``, each added with its score (or none)."""
    buckets = Buckets(bucket_seconds)
    for record, score in zip(records, itertools.repeat(None) if scores is None else scores):
        buckets.add(record.payload if isinstance(record, OutputRecord) else record, score)
    return buckets.series()


def _ref_escape_newlines(serialized: str) -> str:
    return serialized.replace("\r", "&#13;").replace("\n", "&#10;")


def ref_not_xml(record: OutputRecord) -> str | None:
    """Why the record has no XML form (a code point XML 1.0 forbids), or None."""
    payload = record.payload
    for name, value in (("id", payload.id), ("text", payload.text),
                        ("hashtags", "".join(payload.hashtags)), ("source_id", record.source_id)):
        if bad := _NOT_XML.search(value):
            return (f"record {payload.id!r}: {name} holds U+{ord(bad.group()):04X}, "
                    "which XML 1.0 forbids")
    return None


def ref_output_record_to_xml(record: OutputRecord) -> str:
    if reason := ref_not_xml(record):
        raise ValueError(reason)
    payload = record.payload
    root = ET.Element("record")
    ET.SubElement(root, "id").text = payload.id
    ET.SubElement(root, "author").text = payload.author.value
    ET.SubElement(root, "text").text = payload.text
    tags = ET.SubElement(root, "hashtags")
    for t in payload.hashtags:
        ET.SubElement(tags, "tag").text = t
    if payload.in_reply_to is not None:
        ET.SubElement(root, "in_reply_to").text = payload.in_reply_to.value
    mentions = ET.SubElement(root, "mentions")
    for m in payload.mentions:
        ET.SubElement(mentions, "tag").text = m.value
    follows = ET.SubElement(root, "follows")
    for f in payload.follows:
        ET.SubElement(follows, "tag").text = f.value
    ET.SubElement(root, "timestamp").text = format_rfc3339(payload.timestamp)
    ET.SubElement(root, "source_id").text = record.source_id
    ET.SubElement(root, "fetched_at").text = format_rfc3339(record.fetched_at)
    return _ref_escape_newlines(ET.tostring(root, encoding="unicode"))


NOW = datetime(2020, 5, 1, 12, 0, 0, tzinfo=timezone.utc)
now_fn = lambda: NOW

RSS_DOC = """<?xml version="1.0"?>
<rss version="2.0"><channel>
  <title>Example Watch</title>
  <item>
    <title>First post</title>
    <description>body one #GE2017</description>
    <guid>item-1</guid>
    <pubDate>Fri, 21 Apr 2017 10:00:00 GMT</pubDate>
    <category>politics</category>
    <category>#</category>
  </item>
  <item>
    <title>Second post</title>
    <description>body two</description>
    <guid>item-2</guid>
  </item>
</channel></rss>
"""

ATOM_DOC = """<?xml version="1.0"?>
<feed xmlns="http://www.w3.org/2005/Atom">
  <title>Atom Feed</title>
  <author><name>Watcher</name></author>
  <entry>
    <id>a-1</id>
    <title>Entry</title>
    <summary>summary text</summary>
    <updated>2017-04-21T10:00:00Z</updated>
  </entry>
</feed>
"""


def corpus_rows(n=3):
    return [
        {
            "id": f"r{i}", "author": f"user{i}", "text": f"post {i} #ge2017",
            "hashtags": ["ge2017"], "in_reply_to": None, "mentions": [],
            "timestamp": f"2017-04-21T10:0{i}:00Z",
        }
        for i in range(n)
    ]


class TestPollSource:
    def test_file_source(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", corpus_rows(3))
        records, diags = poll_source(
            SourceSpec(id="s", kind="file", location=str(path)), now_fn=now_fn
        )
        assert [r.payload.id for r in records] == ["r0", "r1", "r2"]
        assert all(r.source_id == "s" and r.fetched_at == NOW for r in records)
        assert diags == []

    def test_rss_items_mapped(self, tmp_path):
        path = tmp_path / "feed.xml"
        path.write_text(RSS_DOC)
        records, diags = poll_source(
            SourceSpec(id="rss", kind="rss", location=str(path)), now_fn=now_fn
        )
        assert diags == []
        assert len(records) == 2
        first = records[0].payload
        assert first.text == "First post body one #GE2017"
        assert first.author == Handle("example_watch")
        assert first.id == "item-1"
        assert "politics" in first.hashtags and "ge2017" in first.hashtags
        assert "" not in first.hashtags  # <category>#</category> is no tag
        assert first.timestamp == datetime(2017, 4, 21, 10, 0, tzinfo=timezone.utc)
        assert records[1].payload.timestamp == NOW  # no pubDate: fetch time
        for fmt in ("json", "xml"):
            sink = io.StringIO()
            for record in records:
                emit(record, fmt, sink)
            assert read_records(io.StringIO(sink.getvalue()), fmt) == records

    def test_atom_items_mapped(self, tmp_path):
        path = tmp_path / "feed.atom"
        path.write_text(ATOM_DOC)
        records, _ = poll_source(
            SourceSpec(id="atom", kind="rss", location=str(path)), now_fn=now_fn
        )
        (record,) = records
        assert record.payload.author == Handle("watcher")
        assert record.payload.text == "Entry summary text"

    @pytest.mark.parametrize("date, read", [
        ("<pubDate>Fri, 21 Apr 2017 10:00:00 -0000</pubDate>", True),  # no zone: UTC
        ("<pubDate>Sat, 22 Apr 2017 00:00:00 +1400</pubDate>", True),
        ("<updated>2017-04-21T10:00:00</updated>", True),
        ("<published>2017-04-21T05:00:00-05:00</published>", True),
        ("<pubDate>Fri, 31 Dec 9999 23:59:59 -2359</pubDate>", False),  # past 9999 in UTC
        ("<pubDate>Fri, 31 Dec 99999999999999999999 23:59:59 +0000</pubDate>", False),
        ("<pubDate>not a date</pubDate>", False),
        ("<updated>9999-12-31T23:59:59-23:59</updated>", False),
        ("<published>0001-01-01T00:00:00+23:59</published>", False),
        ("<updated>not a date</updated>", False),
    ])
    def test_feed_date_in_utc_or_else_the_fetch_time(self, tmp_path, date, read):
        path = tmp_path / "feed.xml"
        path.write_text(f"<rss><channel><item><guid>g</guid>{date}</item></channel></rss>")
        (record,), diags = poll_source(SourceSpec(id="s", kind="rss", location=str(path)),
                                       now_fn=now_fn)
        assert diags == []
        want = datetime(2017, 4, 21, 10, 0, tzinfo=timezone.utc) if read else NOW
        assert record.payload.timestamp == want
        assert record.payload.timestamp.tzinfo is timezone.utc

    def test_dedup_across_polls(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", corpus_rows(2))
        spec = SourceSpec(id="s", kind="file", location=str(path))
        state = SourceState()
        first, _ = poll_source(spec, state, now_fn=now_fn)
        second, _ = poll_source(spec, state, now_fn=now_fn)
        assert len(first) == 2
        assert second == []
        assert state.duplicates_dropped == 2

    def test_poll_that_fails_part_way_leaves_no_id_seen(self, tmp_path, monkeypatch):
        # the file source streams its records: an I/O error after two of them
        # makes the poll emit nothing, so the next poll emits them
        path = write_jsonl(tmp_path / "c.jsonl", corpus_rows(3))
        spec, state = SourceSpec(id="s", kind="file", location=str(path)), SourceState()
        poll_source(spec, state, now_fn=now_fn)  # r0, r1, r2 seen
        write_jsonl(path, corpus_rows(5))
        real = snsgraph.collector.iter_corpus

        def failing(source):
            yield from itertools.islice(real(source), 4)  # three duplicates, then r3
            raise OSError("read failed")

        monkeypatch.setattr(snsgraph.collector, "iter_corpus", failing)
        assert poll_source(spec, state, now_fn=now_fn) == (
            [], [SourceDiagnostic("s", "unreachable: read failed", retryable=True)])
        assert state.seen_ids == {"r0", "r1", "r2"} and state.duplicates_dropped == 0
        monkeypatch.undo()
        records, _ = poll_source(spec, state, now_fn=now_fn)
        assert [r.payload.id for r in records] == ["r3", "r4"]
        assert state.duplicates_dropped == 3

    def test_unreachable_is_retryable_not_fatal(self, tmp_path):
        spec = SourceSpec(id="s", kind="file", location=str(tmp_path / "gone.jsonl"))
        records, diags = poll_source(spec, now_fn=now_fn)
        assert records == []
        assert len(diags) == 1 and diags[0].retryable

    @pytest.mark.parametrize("kind", ["rss", "http-json"])
    def test_location_urllib_cannot_parse_is_one_diagnostic(self, kind):
        # urllib rejects the URL while parsing it, before any connection
        records, diags = poll_source(SourceSpec(id="s", kind=kind, location="http://[::1"),
                                     now_fn=now_fn)
        assert records == []
        assert [(d.reason, d.retryable) for d in diags] == [("Invalid IPv6 URL", False)]

    def test_malformed_feed_diagnosed(self, tmp_path):
        path = tmp_path / "broken.xml"
        path.write_text("<rss><channel><item>")
        records, diags = poll_source(
            SourceSpec(id="s", kind="rss", location=str(path)), now_fn=now_fn
        )
        assert records == []
        assert diags and not diags[0].retryable

    def test_http_json_source(self, tmp_path):
        body = ("\n".join(json.dumps(r) for r in corpus_rows(2)) + "\n").encode()

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_port}/c.jsonl"
            records, diags = poll_source(
                SourceSpec(id="web", kind="http-json", location=url), now_fn=now_fn
            )
            assert [r.payload.id for r in records] == ["r0", "r1"]
            assert diags == []
        finally:
            server.shutdown()
            server.server_close()

    def test_http_json_lone_surrogate_is_diagnostic(self, tmp_path):
        # The http-json source reads lines as parse_corpus does, so a lone
        # surrogate (which no sink could encode) is reported, not kept.
        rows = corpus_rows(2)
        rows[1]["text"] = "bad \ud800 x"
        path = write_jsonl(tmp_path / "c.jsonl", rows)
        records, diags = poll_source(
            SourceSpec(id="web", kind="http-json", location=path.as_uri()), now_fn=now_fn
        )
        assert [r.payload.id for r in records] == ["r0"]
        assert [d.reason for d in diags] == [
            "line 2: lone surrogate U+D800 in a string field"]

    def test_http_json_line_numbers_count_every_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(corpus_rows(1)[0]) + "\n\n{not json\n")
        records, diags = poll_source(
            SourceSpec(id="web", kind="http-json", location=path.as_uri()), now_fn=now_fn
        )
        assert [r.payload.id for r in records] == ["r0"]
        assert [d.reason.split(":")[0] for d in diags] == ["line 3"]

    def test_http_json_reads_its_body_as_the_file_source_reads_a_file(self, tmp_path):
        # CRLF framing, a latin-1 byte on line 2, a raw U+2028 inside line 3's text
        rows = corpus_rows(3)
        rows[1]["text"] = "caf\u00e9"
        rows[2]["text"] = "one\u2028line"
        lines = [json.dumps(r, ensure_ascii=False) for r in rows]
        path = tmp_path / "c.jsonl"
        body = "".join(ln + "\r\n" for ln in lines).encode()
        path.write_bytes(body.replace("caf\u00e9".encode(), b"caf\xe9"))
        got = [poll_source(SourceSpec(id="s", kind=kind, location=location), now_fn=now_fn)
               for kind, location in (("file", str(path)), ("http-json", path.as_uri()))]
        assert got[0] == got[1]
        records, diags = got[1]
        assert [r.payload.text for r in records] == [rows[0]["text"], "one\u2028line"]
        column = lines[1].index("\u00e9") + 1
        assert [d.reason for d in diags] == [f"line 2: not UTF-8 at column {column}"]

    def test_http_json_body_without_a_good_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{not json\n\n[1]\n")
        records, diags = poll_source(
            SourceSpec(id="web", kind="http-json", location=path.as_uri()), now_fn=now_fn
        )
        assert records == []
        assert [(d.reason, d.retryable) for d in diags] == [
            ("corpus contains no well-formed records", False)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec(id="s", kind="ftp", location="x")

    def test_undeclared_non_utf8_feed_is_one_diagnostic(self, tmp_path, monkeypatch, capsys):
        # The feed is handed to the XML parser as bytes: with no encoding
        # declared it is UTF-8, and the lone 0xe9 is where parsing stops.
        (tmp_path / "feed.xml").write_bytes(RSS_DOC.replace("First", "Caf\u00e9").encode("latin-1"))
        (tmp_path / "collector.json").write_text(json.dumps({
            "sources": [{"id": "feed", "kind": "rss", "location": "feed.xml"}]}))
        monkeypatch.chdir(tmp_path)
        assert main(["collect", "--config", "collector.json", "--once"]) == 0
        assert capsys.readouterr().err == (
            "diagnostic [feed]: not well-formed (invalid token): line 5, column 14\n")
        assert (tmp_path / "collected.jsonl").read_bytes() == b""

    LATIN_1_FEED = RSS_DOC.replace("First", "Caf\u00e9").replace(
        '<?xml version="1.0"?>', '<?xml version="1.0" encoding="ISO-8859-1"?>').encode("latin-1")

    def test_feed_is_decoded_as_it_declares(self, tmp_path):
        path = tmp_path / "feed.xml"
        path.write_bytes(self.LATIN_1_FEED)
        records, diags = poll_source(SourceSpec(id="s", kind="rss", location=str(path)),
                                     now_fn=now_fn)
        assert diags == []
        assert records[0].payload.text == "Caf\u00e9 post body one #GE2017"

    def test_fetched_feed_reads_as_the_same_bytes_by_path(self, tmp_path):
        path = tmp_path / "feed.xml"
        path.write_bytes(self.LATIN_1_FEED)
        got = [poll_source(SourceSpec(id="s", kind="rss", location=location), now_fn=now_fn)
               for location in (str(path), path.as_uri())]
        assert got[0] == got[1]
        assert [r.payload.text for r in got[1][0]] == [
            "Caf\u00e9 post body one #GE2017", "Second post body two"]

    def test_fetched_at_monotone_even_if_clock_steps_back(self, tmp_path):
        spec_path = write_jsonl(tmp_path / "c.jsonl", corpus_rows(1))
        later = write_jsonl(tmp_path / "c2.jsonl", [dict(corpus_rows(2)[1])])
        spec = SourceSpec(id="s", kind="file", location=str(spec_path))
        state = SourceState()
        clock = iter([NOW, NOW - timedelta(minutes=5)])
        poll_source(spec, state, now_fn=lambda: next(clock))
        spec2 = SourceSpec(id="s", kind="file", location=str(later))
        records, _ = poll_source(spec2, state, now_fn=lambda: next(clock))
        assert records[0].fetched_at == NOW  # clamped, not backdated


HANDLES = st.text(alphabet="@ aB\u00e9\n", max_size=4).filter(
    lambda raw: raw.strip("@ \n")).map(Handle)


def sample_output_record(text="hello world", mentions=("bob",)):
    return OutputRecord(
        source_id="src-1",
        fetched_at=NOW,
        payload=make_record(
            "id-1", "alice", text=text, mentions=mentions, in_reply_to="carol"
        ),
    )


class TestEmission:
    def test_json_roundtrip(self):
        record = sample_output_record()
        sink = io.StringIO()
        emit(record, "json", sink)
        (back,) = read_records(io.StringIO(sink.getvalue()), "json")
        assert back == record

    def test_xml_roundtrip(self):
        record = sample_output_record()
        sink = io.StringIO()
        emit(record, "xml", sink)
        (back,) = read_records(io.StringIO(sink.getvalue()), "xml")
        assert back == record

    def test_cross_format_equivalence(self):
        record = sample_output_record()
        js, xs = io.StringIO(), io.StringIO()
        emit(record, "json", js)
        emit(record, "xml", xs)
        from_json = read_records(io.StringIO(js.getvalue()), "json")[0]
        from_xml = read_records(io.StringIO(xs.getvalue()), "xml")[0]
        assert from_json == from_xml

    def test_empty_mentions_roundtrip(self):
        record = OutputRecord("s", NOW, make_record("i", "a", mentions=()))
        xml = output_record_to_xml(record)
        assert "<mentions />" in xml or "<mentions/>" in xml
        assert read_records([xml], "xml") == [record]

    def test_newlines_in_text_keep_line_framing(self):
        record = sample_output_record(text="line one\nline two\rthree")
        sink = io.StringIO()
        emit(record, "xml", sink)
        emit(record, "xml", sink)
        lines = [l for l in sink.getvalue().splitlines() if l]
        assert len(lines) == 2
        (back,) = read_records(lines[:1], "xml")
        assert back.payload.text == "line one\nline two\rthree"

    def test_none_reply_roundtrips(self):
        record = OutputRecord("s", NOW, make_record("i", "a"))
        xml = output_record_to_xml(record)
        assert read_records([xml], "xml")[0].payload.in_reply_to is None

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit(sample_output_record(), "yaml", io.StringIO())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["#GE2017", "ge2017", " Vote ", "#", " ", "a b", "Ünï"]),
                    max_size=5))
    def test_both_forms_read_back_under_the_corpus_rules(self, tags):
        record = OutputRecord("s", NOW, make_record("i", "a", hashtags=tags))
        back = []
        for fmt in ("json", "xml"):
            sink = io.StringIO()
            emit(record, fmt, sink)
            (read,) = read_records(io.StringIO(sink.getvalue()), fmt)
            back.append(read)
        assert back[0] == back[1]
        want = [t.strip().lstrip("#").lower() for t in tags]
        assert back[0].payload.hashtags == tuple(t for t in want if t)

    @pytest.mark.parametrize("fmt, bad, reason", [
        ("json", b"{not json", "Expecting property name"),
        ("json", b'{"id": "2", "author": "a", "timestamp": "2017-04-21T10:00:00Z"}',
         "output record needs source_id"),
        ("json", b'{"id": "caf\xe9"}', "not UTF-8 at column 12"),
        ("xml", b"<record><id>2</id>", "bad record XML"),
        ("xml", b"<record><id>2</id><author>a</author></record>",
         "missing required field 'timestamp'"),
        ("xml", b"<record><id>caf\xe9</id></record>", "not UTF-8 at column 16"),
        pytest.param("json", b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded",
                     id="json-nested-100k-deep"),
        ("json", b'{"id": "2", "author": "a", "timestamp": "2017-04-21T10:00:00Z", '
                 b'"source_id": "s", "fetched_at": "9999-12-31T23:59:59-23:59"}',
         "timestamp 9999-12-31T23:59:59-23:59 is out of range in UTC"),
    ])
    def test_bad_sink_line_names_its_line(self, fmt, bad, reason, tmp_path):
        sink = io.StringIO()
        emit(sample_output_record(), fmt, sink)
        path = tmp_path / "sink"
        path.write_bytes(sink.getvalue().encode() + b"\n" + bad + b"\n")
        with pytest.raises(RecordParseError, match=f"^line 3: {reason}"):
            read_records(path, fmt)

    @settings(max_examples=200, deadline=None)
    @given(st.builds(
        OutputRecord,
        source_id=st.text(max_size=4),
        fetched_at=st.datetimes(timezones=st.just(timezone.utc)),
        payload=st.builds(
            InteractionRecord,
            id=st.text(max_size=6),
            author=HANDLES,
            text=st.text(max_size=12),
            timestamp=st.datetimes(timezones=st.just(timezone.utc)),
            hashtags=st.lists(st.text(max_size=4), max_size=3).map(tuple),
            in_reply_to=st.none() | HANDLES,
            mentions=st.lists(HANDLES, max_size=2).map(tuple),
            follows=st.lists(HANDLES, max_size=2).map(tuple),
        ),
    ))
    def test_xml_form_matches_the_element_by_element_writer(self, record):
        def line_or_error(write):
            try:
                return write(record)
            except ValueError as exc:
                return str(exc)
        assert line_or_error(output_record_to_xml) == line_or_error(ref_output_record_to_xml)

    @pytest.mark.parametrize("text", ["a\u0001b", "bell \x07", "\ufffe"])
    def test_xml_refuses_a_code_point_xml_forbids(self, text):
        sink = io.StringIO()
        with pytest.raises(ValueError, match="text holds U\\+"):
            emit(sample_output_record(text=text), "xml", sink)
        assert sink.getvalue() == ""
        emit(sample_output_record(text=text), "json", sink)
        (back,) = read_records(io.StringIO(sink.getvalue()), "json")
        assert back.payload.text == text


def ref_detect_deviation(
    series: Sequence[tuple[datetime, float]], config: DeviationConfig
) -> list[AlertEvent]:
    """Rolling z-score alerts over a time-ordered bucket series.

    Each bucket after the first ``window`` is scored against the mean and
    population standard deviation of the preceding window (current bucket
    excluded); sigma is floored so constant history stays divisible. A
    series shorter than the window yields no alerts.
    """
    alerts = []
    values = [v for _, v in series]
    for i in range(config.window, len(series)):
        window = values[i - config.window : i]
        mean = statistics.fmean(window)
        std = statistics.pstdev(window)
        sigma = max(std, config.sigma_floor)
        z = (values[i] - mean) / sigma
        if abs(z) >= config.z_threshold:
            alerts.append(
                AlertEvent(
                    metric=config.metric,
                    bucket=series[i][0],
                    observed=values[i],
                    rolling_mean=mean,
                    rolling_std=std,
                    z_score=z,
                )
            )
    return alerts


def series_of(values, start=NOW, step=60):
    return [(start + timedelta(seconds=i * step), float(v)) for i, v in enumerate(values)]


class TestDetectDeviation:
    def test_constant_series_no_alerts(self):
        config = DeviationConfig(window=20, z_threshold=3.0)
        assert detect_deviation(series_of([10] * 30), config) == []

    def test_floored_sigma_spike(self):
        config = DeviationConfig(window=20, z_threshold=3.0, sigma_floor=1.0)
        alerts = detect_deviation(series_of([10] * 20 + [100]), config)
        assert len(alerts) == 1
        (alert,) = alerts
        assert alert.z_score == pytest.approx(90.0, abs=1e-12)
        assert alert.observed == 100.0
        assert alert.rolling_mean == pytest.approx(10.0)

    def test_linear_ramp_no_alerts(self):
        config = DeviationConfig(window=20, z_threshold=3.0)
        series = series_of(range(1, 31))
        # brute-force oracle: max |z| over the ramp stays under threshold
        max_z = 0.0
        values = [v for _, v in series]
        for i in range(20, len(values)):
            window = values[i - 20 : i]
            sigma = max(statistics.pstdev(window), config.sigma_floor)
            max_z = max(max_z, abs((values[i] - statistics.fmean(window)) / sigma))
        assert max_z < 3.0
        assert detect_deviation(series, config) == []

    def test_short_series_no_alerts(self):
        config = DeviationConfig(window=20)
        assert detect_deviation(series_of([1, 2, 3]), config) == []

    def test_alerts_in_timestamp_order(self):
        config = DeviationConfig(window=5, z_threshold=2.0, sigma_floor=0.5)
        values = [10.0] * 5 + [100.0] + [10.0] * 5 + [200.0]
        alerts = detect_deviation(series_of(values), config)
        assert len(alerts) >= 2
        assert [a.bucket for a in alerts] == sorted(a.bucket for a in alerts)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=0, max_size=60),
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=0.5, max_value=5.0),
    )
    def test_no_alert_below_threshold(self, values, window, threshold):
        config = DeviationConfig(window=window, z_threshold=threshold)
        alerts = detect_deviation(series_of(values), config)
        for alert in alerts:
            assert abs(alert.z_score) >= threshold

    def test_window_validated(self):
        with pytest.raises(ValueError):
            DeviationConfig(window=1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.92, 1.0]),  # the share of non-zero buckets
        st.lists(st.tuples(st.floats(min_value=0, max_value=1, exclude_max=True),
                           st.one_of(st.integers(1, 50).map(float),
                                     st.floats(min_value=-1, max_value=1).filter(bool))),
                 max_size=80),
        st.integers(min_value=2, max_value=12),
        st.sampled_from([0.5, 1.0, 3.0]),
        st.sampled_from([1e-6, 0.5, 1.0]),
    )
    # a single non-zero bucket right before a silent one: only the whole window shows it
    @example(1.0, [(0.0, 1.0)] * 9 + [(0.0, 0.0)] * 5, 10, 3.0, 1e-6)
    def test_alerts_match_the_reference(self, density, draws, window, threshold, floor):
        # sparse series are mostly silent; dense ones hold windows more than 90% non-zero
        series = series_of([value if u < density else 0.0 for u, value in draws])
        config = DeviationConfig(window=window, z_threshold=threshold, sigma_floor=floor)
        assert [repr(a) for a in detect_deviation(series, config)] == [
            repr(a) for a in ref_detect_deviation(series, config)]


class TestBucketize:
    def test_volume_with_gap_fill(self):
        records = [make_record(i, "a", minute=m) for i, m in enumerate([0, 0, 2])]
        config = DeviationConfig(metric="volume", bucket_seconds=60)
        series = bucketize(records, config)
        assert [v for _, v in series] == [2.0, 0.0, 1.0]
        assert series[0][0] == BASE_TS

    def test_mean_sentiment(self):
        lexicon = Lexicon(frozenset({"good"}), frozenset({"bad"}))
        records = [
            make_record(0, "a", text="good good", minute=0),
            make_record(1, "a", text="bad", minute=0),
        ]
        config = DeviationConfig(metric="mean_sentiment", bucket_seconds=60)
        ((_, value),) = bucketize(records, config, lexicon)
        assert value == pytest.approx(0.0)

    def test_sentiment_requires_lexicon(self):
        config = DeviationConfig(metric="mean_sentiment")
        with pytest.raises(ValueError):
            bucketize([make_record(0, "a")], config)

    def test_empty_records(self):
        assert bucketize([], DeviationConfig()) == []

    def test_span_over_the_cap_is_refused_before_filling(self):
        records = [make_record(0, "a"), make_record(1, "a", minute=MAX_BUCKETS)]
        with pytest.raises(AnalyticsError, match=f"span {MAX_BUCKETS + 1:,} buckets of 60 s"):
            fold(records, 60.0)
        assert len(fold(records, 3600.0)[0]) == MAX_BUCKETS // 60 + 1

    def test_bucket_outside_the_datetime_range_is_data_error(self):
        first = InteractionRecord("0", Handle("a"), "", datetime(1, 1, 1, tzinfo=timezone.utc))
        with pytest.raises(AnalyticsError, match="leave the datetime range"):
            fold([first], 8.6e13)


class TestBucketsAlerts:
    @pytest.mark.parametrize("metric, scored, metrics", [
        ("volume", False, ["volume"]),
        ("volume", True, ["volume", "mean_sentiment"]),
        ("mean_sentiment", True, ["mean_sentiment"]),
    ])
    def test_the_detector_over_the_series_the_config_picks(self, metric, scored, metrics):
        config = DeviationConfig(metric=metric, window=5)
        lexicon = Lexicon(frozenset({"good"}), frozenset({"bad"}))
        buckets = Buckets(config.bucket_seconds)
        for record in map(record_from_dict, bursty_rows(120)):
            buckets.add(record, sentiment(record.text, lexicon).score if scored else None)
        series = dict(zip(("volume", "mean_sentiment"), buckets.series()))
        direct = [alert for m in metrics
                  for alert in detect_deviation(series[m], replace(config, metric=m))]
        alerts = buckets.alerts(config)
        assert alerts == sorted(direct, key=lambda a: (a.bucket, a.metric))
        assert sorted({a.metric for a in alerts}) == sorted(metrics)
        # bursts every sixth minute, "bad" every seventh: the two metrics interleave
        switches = sum(a.metric != b.metric for a, b in zip(alerts, alerts[1:]))
        assert switches > 1 if len(metrics) == 2 else switches == 0

    @pytest.mark.parametrize("metric", ["volume", "mean_sentiment"])
    def test_no_records_no_alerts(self, metric):
        assert Buckets(60.0).alerts(DeviationConfig(metric=metric)) == []


def series_bits(series):
    return [(ts, ts.utcoffset(), v.hex()) for ts, v in series]


# Seconds from BASE_TS, some in one bucket, some far apart, some before the
# epoch-aligned bucket edge; a few are written in a +01:00 offset.
OFFSETS = st.sampled_from([0, 1, 59, 60, 61, 119, 3600, 7261, -1, -3601])
ZONES = st.sampled_from([timezone.utc, timezone(timedelta(hours=1))])


class TestBucketSeriesAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(OFFSETS, ZONES, TEXTS, st.booleans()), max_size=15),
           LEXICONS.filter(lambda lex: lex is not None),
           st.sampled_from([1.0, 30.0, 60.0, 90.5, 3600.0]))
    def test_both_series_bit_for_bit(self, rows, lexicon, width):
        records = []
        for i, (offset, zone, text, wrapped) in enumerate(rows):
            ts = (BASE_TS + timedelta(seconds=offset)).astimezone(zone)
            record = InteractionRecord(str(i), Handle("a"), text, ts)
            records.append(OutputRecord("s", NOW, record) if wrapped else record)
        volume_config = DeviationConfig(metric="volume", bucket_seconds=width)
        mean_config = DeviationConfig(metric="mean_sentiment", bucket_seconds=width)
        want_volume = series_bits(ref_bucketize(records, volume_config))
        want_mean = series_bits(ref_bucketize(records, mean_config, lexicon))
        for once in (list, iter):  # a list, and a one-shot iterator as run_collector passes
            assert series_bits(bucketize(once(records), volume_config)) == want_volume
            assert series_bits(bucketize(once(records), mean_config, lexicon)) == want_mean

            volume, mean = fold(once(records), width)
            assert series_bits(volume) == want_volume and mean is None
            if records:
                payloads = [r.payload if isinstance(r, OutputRecord) else r for r in records]
                scores = [s.score for s in map(TextFold(None, lexicon).add, payloads)]
                volume, mean = fold(once(records), width, once(scores))
                assert series_bits(volume) == want_volume
                assert series_bits(mean) == want_mean


class TestCollectorConfig:
    SOURCE = {"id": "s1", "kind": "file", "location": "c.jsonl"}

    @pytest.mark.parametrize("sections", [
        {},
        {"alerts": {"path": None}, "deviation": {"bucket_seconds": 60}},
    ])
    def test_keys_not_given_keep_the_dataclass_defaults(self, sections):
        config = CollectorConfig.from_dict({"sources": [self.SOURCE], **sections})
        assert config == CollectorConfig([SourceSpec(**self.SOURCE)])
        assert type(config.deviation.bucket_seconds) is float

    @pytest.mark.parametrize("config, message", [
        ({"sources": [SOURCE], "alerts": {"format": "json"}}, "unknown key 'alerts_format'"),
        ({"sources": [dict(SOURCE, intervall=5)]}, "unknown key 'intervall'"),
        ({"sources": [SOURCE], "lexicon": "words.txt"},
         "lexicon must be a JSON object, got 'words.txt'"),
        ({"sources": [SOURCE, 5]}, "each source must be a JSON object, got 5"),
        ({"sources": SOURCE}, "sources must be an array, got {'id': 's1'"),
        ([SOURCE], "the config must be a JSON object, got [{"),
        ({"sources": [SOURCE], "sink": {"path": "a\u0000b"}},
         "sink_path holds U+0000, which XML 1.0 forbids"),
        ({"sources": [dict(SOURCE, location="c\ud800")]}, "location holds U+D800"),
        ({"sources": [SOURCE], "deviation": {"sigma_floor": 10**400}},
         "sigma_floor is too large for a float"),
        ({"sources": [SOURCE, dict(SOURCE, kind="rss")]},
         "`sources` must list at least one source, each with its own id"),
    ])
    def test_strict_reader_names_what_it_rejects(self, config, message):
        with pytest.raises(ValueError) as info:
            CollectorConfig.from_dict(config)
        assert str(info.value).startswith(message)

    def test_documented_example_holds_the_default_deviation(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        section = doc.split("## Collector configuration (JSON)\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert CollectorConfig.from_dict(json.loads(example)).deviation == DeviationConfig()


class TestRunCollector:
    def test_once_collects_and_alerts(self, tmp_path):
        # one record per minute for 21 minutes, then a 30-post burst
        rows = []
        rid = 0
        for minute in range(21):
            count = 31 if minute == 20 else 1
            for _ in range(count):
                rows.append(
                    {
                        "id": f"r{rid}", "author": f"u{rid % 5}", "text": "x",
                        "hashtags": [], "in_reply_to": None, "mentions": [],
                        "timestamp": f"2017-04-21T10:{minute:02d}:00Z",
                    }
                )
                rid += 1
        corpus = write_jsonl(tmp_path / "c.jsonl", rows)
        config_path = tmp_path / "collector.json"
        config_path.write_text(
            json.dumps(
                {
                    "sources": [{"id": "s1", "kind": "file", "location": str(corpus)}],
                    "sink": {"path": str(tmp_path / "sink.jsonl"), "format": "json"},
                    "alerts": {"path": str(tmp_path / "alerts.jsonl")},
                    "deviation": {"metric": "volume", "window": 20,
                                  "z_threshold": 3.0, "sigma_floor": 1e-6,
                                  "bucket_seconds": 60},
                }
            )
        )
        stats = run_collector(CollectorConfig.load(config_path), max_cycles=1, now_fn=now_fn)
        assert stats.records_emitted == len(rows)
        assert stats.alerts_emitted >= 1
        sink_records = read_records(tmp_path / "sink.jsonl", "json")
        assert len(sink_records) == len(rows)
        alerts = [json.loads(l) for l in (tmp_path / "alerts.jsonl").read_text().splitlines()]
        assert all(abs(a["z_score"]) >= 3.0 for a in alerts)

    @pytest.mark.parametrize("sink_format", ["xml", "json"])
    def test_xml_sink_skips_what_it_cannot_hold(self, tmp_path, sink_format, capsys):
        rows = corpus_rows(3)
        rows[1]["text"] = "a\u0001b"
        rows[2]["hashtags"] = ["ok", "x\u000by"]
        corpus = write_jsonl(tmp_path / "c.jsonl", rows)
        config = CollectorConfig(
            sources=[SourceSpec(id="s1", kind="file", location=str(corpus))],
            sink_path=str(tmp_path / "sink.txt"), sink_format=sink_format,
        )
        stats = run_collector(config, max_cycles=1, now_fn=now_fn)
        back = read_records(config.sink_path, sink_format)
        if sink_format == "json":
            assert [r.payload.id for r in back] == [r["id"] for r in rows]
            assert capsys.readouterr().err == ""
            return
        assert [r.payload.id for r in back] == [rows[0]["id"]]
        assert stats.records_emitted == 1
        assert capsys.readouterr().err.splitlines() == [
            f"diagnostic [s1]: record {rows[1]['id']!r}: text holds U+0001, "
            "which XML 1.0 forbids; skipped",
            f"diagnostic [s1]: record {rows[2]['id']!r}: hashtags holds U+000B, "
            "which XML 1.0 forbids; skipped",
        ]

    def test_sink_never_repeats_an_id(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", corpus_rows(3))
        config = CollectorConfig(
            sources=[
                SourceSpec(id="a", kind="file", location=str(corpus), poll_interval=0.0)
            ],
            sink_path=str(tmp_path / "sink.jsonl"),
        )
        stats = run_collector(config, max_cycles=3, now_fn=now_fn, sleep_fn=lambda s: None)
        ids = [r.payload.id for r in read_records(config.sink_path, "json")]
        assert len(ids) == len(set(ids)) == 3
        assert stats.duplicates_dropped == 6


class FakeClock:
    """``now_fn`` and ``sleep_fn`` for run_collector: sleeping moves the clock."""

    def __init__(self):
        self.now = NOW
        self.waits = []

    def __call__(self) -> datetime:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.waits.append(seconds)
        self.now += timedelta(seconds=seconds)


class TestRunSchedule:
    @pytest.mark.parametrize("max_cycles", [0, -3])
    def test_max_cycles_below_one_is_rejected_before_the_sink_opens(self, tmp_path,
                                                                     max_cycles):
        corpus = write_jsonl(tmp_path / "c.jsonl", corpus_rows(3))
        config = CollectorConfig([SourceSpec(id="s", kind="file", location=str(corpus))],
                                 sink_path=str(tmp_path / "sink.jsonl"),
                                 alerts_path=str(tmp_path / "alerts.jsonl"))
        with pytest.raises(ValueError, match="max_cycles"):
            run_collector(config, max_cycles=max_cycles)
        assert not (tmp_path / "sink.jsonl").exists()
        assert not (tmp_path / "alerts.jsonl").exists()

    def test_run_holds_one_poll_of_records_not_every_record(self, tmp_path):
        # A file source that gains 200 new ids between cycles: between two
        # cycles the run holds the last poll's batch, not all it has emitted.
        rows = [dict(id=f"r{i}", author="alice", text="post",
                     timestamp=format_rfc3339(BASE_TS + timedelta(seconds=i)))
                for i in range(1200)]
        corpus = write_jsonl(tmp_path / "c.jsonl", rows[:200])
        clock, live = FakeClock(), []

        def sleep(seconds):
            clock.sleep(seconds)
            gc.collect()
            live.append(sum(type(o) is OutputRecord and o.source_id == "grows"
                            for o in gc.get_objects()))
            write_jsonl(corpus, rows[:200 * (len(live) + 1)])

        config = CollectorConfig([SourceSpec(id="grows", kind="file", location=str(corpus))],
                                 sink_path=str(tmp_path / "sink.jsonl"))
        stats = run_collector(config, max_cycles=6, now_fn=clock, sleep_fn=sleep)
        assert stats.records_emitted == 1200
        assert stats.duplicates_dropped == 200 * (1 + 2 + 3 + 4 + 5)
        assert len(live) == 5 and all(count <= 200 for count in live), live

    def test_poll_time_counts_toward_the_interval(self, tmp_path, monkeypatch):
        # each poll takes 3 s of the source's 10 s interval
        clock = FakeClock()

        def slow_poll(*args, **kwargs):
            polled = poll_source(*args, **kwargs)
            clock.now += timedelta(seconds=3)
            return polled

        monkeypatch.setattr("snsgraph.collector.poll_source", slow_poll)
        corpus = write_jsonl(tmp_path / "c.jsonl", corpus_rows(3))
        config = CollectorConfig(
            [SourceSpec(id="s", kind="file", location=str(corpus), poll_interval=10.0)],
            sink_path=str(tmp_path / "sink.jsonl"))
        stats = run_collector(config, max_cycles=3, now_fn=clock, sleep_fn=clock.sleep)
        assert clock.waits == [7.0, 7.0]
        assert stats.duplicates_dropped == 6  # polled every cycle

    def test_zero_interval_sleeps_the_floor_and_never_spins(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", corpus_rows(3))
        config = CollectorConfig(
            [SourceSpec(id="s", kind="file", location=str(corpus), poll_interval=0.0)],
            sink_path=str(tmp_path / "sink.jsonl"))
        clock = FakeClock()
        stats = run_collector(config, max_cycles=4, now_fn=clock, sleep_fn=clock.sleep)
        assert len(clock.waits) == 3 and all(w >= 1.0 for w in clock.waits), clock.waits
        assert stats.duplicates_dropped == 9  # still polled once per cycle

    def test_unreachable_source_is_retried_once_per_interval(self, tmp_path, capsys):
        corpus = write_jsonl(tmp_path / "c.jsonl", corpus_rows(3))
        config = CollectorConfig(
            [SourceSpec(id="gone", kind="file", location=str(tmp_path / "absent.jsonl"),
                        poll_interval=10.0),
             SourceSpec(id="here", kind="file", location=str(corpus), poll_interval=1.0)],
            sink_path=str(tmp_path / "sink.jsonl"))
        clock = FakeClock()
        run_collector(config, max_cycles=12, now_fn=clock, sleep_fn=clock.sleep)
        assert clock.waits == [1.0] * 11
        assert [line.split(": ")[0] for line in capsys.readouterr().err.splitlines()] == [
            "retryable [gone]"] * 2

    def test_continuous_run_prints_each_diagnostic_and_holds_none(self, tmp_path, capsys):
        # One bad line, re-read every poll, and one absent source: two
        # diagnostics a cycle, each printed as its poll ends and then dropped.
        # gc.freeze() parks every object made before the run where
        # gc.get_objects() does not look, so each count scans only the run's.
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(corpus_rows(1)[0]) + "\n{bad\n")
        config = CollectorConfig(
            [SourceSpec(id="bad", kind="file", location=str(corpus), poll_interval=0.0),
             SourceSpec(id="gone", kind="file", location=str(tmp_path / "absent.jsonl"),
                        poll_interval=0.0)],
            sink_path=str(tmp_path / "sink.jsonl"))
        clock, live, printed = FakeClock(), [], []

        def sleep(seconds):
            clock.sleep(seconds)
            gc.collect()
            live.append(sum(type(o) is SourceDiagnostic for o in gc.get_objects()))
            printed.extend(capsys.readouterr().err.splitlines())
            assert len(printed) == 2 * len(live)

        gc.freeze()
        try:
            stats = run_collector(config, max_cycles=1000, now_fn=clock, sleep_fn=sleep)
        finally:
            gc.unfreeze()
        printed.extend(capsys.readouterr().err.splitlines())
        assert len(live) == 999 and max(live) <= 2, live[:10]
        assert stats.records_emitted == 1 and stats.duplicates_dropped == 999
        assert printed[0].startswith("diagnostic [bad]: line 2: ")
        assert printed[1].startswith("retryable [gone]: unreachable: ")
        assert printed == printed[:2] * 1000

    @staticmethod
    def configs(tmp_path, **settings):
        """A continuous run's config over ``c.jsonl``, and a reference run's
        with its own sink and alerts file."""
        return [CollectorConfig(
            [SourceSpec(id="s", kind="file", location=str(tmp_path / "c.jsonl"),
                        poll_interval=0.0)],
            sink_path=str(tmp_path / f"{name}.jsonl"),
            alerts_path=str(tmp_path / f"{name}-alerts.jsonl"), **settings)
            for name in ("stopped", "once")]

    @staticmethod
    def run_stopped(config, **kwargs):
        """run_collector; an interrupt it lets escape fails the test, not the session."""
        try:
            return run_collector(config, **kwargs)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped run_collector")

    def test_interrupted_sleep_ends_the_run_as_max_cycles_does(self, tmp_path):
        # Ctrl-C while a continuous run waits after cycle 3, its source grown
        # by 100 ids before each later cycle: the run returns, with the alerts
        # of one cycle over the final file.
        rows = bursty_rows(300)
        stopped, once = self.configs(tmp_path, deviation=DeviationConfig(window=5,
                                                                         z_threshold=1.5))
        write_jsonl(tmp_path / "c.jsonl", rows[:100])
        clock = FakeClock()

        def sleep(seconds):
            assert len(clock.waits) <= 2, "polled on after the interrupt"
            if len(clock.waits) == 2:
                raise KeyboardInterrupt
            clock.sleep(seconds)
            write_jsonl(tmp_path / "c.jsonl", rows[:100 * (len(clock.waits) + 1)])

        stats = self.run_stopped(stopped, max_cycles=None, now_fn=clock, sleep_fn=sleep)
        assert stats.records_emitted == 300 and stats.duplicates_dropped == 100 + 200
        assert len(read_records(stopped.sink_path, "json")) == 300
        want = run_collector(once, max_cycles=1, now_fn=now_fn)
        assert stats.alerts_emitted == want.alerts_emitted > 0
        assert Path(stopped.alerts_path).read_bytes() == Path(once.alerts_path).read_bytes()

    def test_interrupt_while_scoring_keeps_every_counted_record(self, tmp_path, monkeypatch):
        # Ctrl-C while the 151st record is scored: that record is in the sink,
        # and the alerts are those of the 150 before it.
        n, rows = 151, bursty_rows(200)
        (tmp_path / "pos.txt").write_text("good\n")
        (tmp_path / "neg.txt").write_text("bad\n")
        deviation = DeviationConfig(metric="mean_sentiment", window=5, z_threshold=1.5)
        stopped, once = self.configs(tmp_path, deviation=deviation,
                                     lexicon_positive=str(tmp_path / "pos.txt"),
                                     lexicon_negative=str(tmp_path / "neg.txt"))
        write_jsonl(tmp_path / "c.jsonl", rows[:n - 1])
        want = run_collector(once, max_cycles=1, now_fn=now_fn)
        lexicon = Lexicon(frozenset({"good"}), frozenset({"bad"}))
        whole = detect_deviation(bucketize(map(record_from_dict, rows), deviation, lexicon),
                                 deviation)
        assert 0 < want.alerts_emitted < len(whole)
        write_jsonl(tmp_path / "c.jsonl", rows)
        calls = []

        def interrupted(text, lexicon):
            calls.append(text)
            if len(calls) == n:
                raise KeyboardInterrupt
            return sentiment(text, lexicon)

        monkeypatch.setattr("snsgraph.collector.sentiment", interrupted)
        stats = self.run_stopped(stopped, max_cycles=1, now_fn=now_fn)
        assert stats.records_emitted == n == len(calls)
        assert len(read_records(stopped.sink_path, "json")) == n
        assert stats.alerts_emitted == want.alerts_emitted
        assert Path(stopped.alerts_path).read_bytes() == Path(once.alerts_path).read_bytes()
