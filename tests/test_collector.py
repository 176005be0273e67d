"""Sources, emission, deviation alerts and the collector loop.

``ref_bucketize`` below is the per-metric bucketing the one-pass
``bucket_series`` replaced, kept verbatim apart from its ``ref_`` name and
its sentiment scorer (the reference one of ``test_textmine``). The one pass
must reproduce both of its series bit for bit. ``ref_output_record_to_xml``
is the element-by-element XML writer that walking ``output_record_to_dict``
replaced, kept the same way; the walk must write the same lines.
"""

import http.server
import io
import json
import statistics
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from snsgraph.collector import (
    MAX_BUCKETS,
    CollectorConfig,
    DeviationConfig,
    OutputRecord,
    SourceSpec,
    SourceState,
    bucket_series,
    bucketize,
    detect_deviation,
    emit,
    output_record_from_xml,
    output_record_to_xml,
    poll_source,
    read_records,
    run_collector,
)
from snsgraph.cli import main
from snsgraph.errors import AnalyticsError, RecordParseError
from snsgraph.ingest import InteractionRecord, format_rfc3339
from snsgraph.model import _NOT_XML, Handle
from snsgraph.textmine import Lexicon, text_pass

from conftest import BASE_TS, make_record, write_jsonl
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

    def test_dedup_across_polls(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", corpus_rows(2))
        spec = SourceSpec(id="s", kind="file", location=str(path))
        state = SourceState()
        first, _ = poll_source(spec, state, now_fn=now_fn)
        second, _ = poll_source(spec, state, now_fn=now_fn)
        assert len(first) == 2
        assert second == []
        assert state.duplicates_dropped == 2

    def test_unreachable_is_retryable_not_fatal(self, tmp_path):
        spec = SourceSpec(id="s", kind="file", location=str(tmp_path / "gone.jsonl"))
        records, diags = poll_source(spec, now_fn=now_fn)
        assert records == []
        assert len(diags) == 1 and diags[0].retryable

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
        assert output_record_from_xml(xml) == record

    def test_newlines_in_text_keep_line_framing(self):
        record = sample_output_record(text="line one\nline two\rthree")
        sink = io.StringIO()
        emit(record, "xml", sink)
        emit(record, "xml", sink)
        lines = [l for l in sink.getvalue().splitlines() if l]
        assert len(lines) == 2
        back = output_record_from_xml(lines[0])
        assert back.payload.text == "line one\nline two\rthree"

    def test_none_reply_roundtrips(self):
        record = OutputRecord("s", NOW, make_record("i", "a"))
        xml = output_record_to_xml(record)
        assert output_record_from_xml(xml).payload.in_reply_to is None

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
            bucket_series(records, 60.0)
        assert len(bucket_series(records, 3600.0)[0]) == MAX_BUCKETS // 60 + 1

    def test_bucket_outside_the_datetime_range_is_data_error(self):
        first = InteractionRecord("0", Handle("a"), "", datetime(1, 1, 1, tzinfo=timezone.utc))
        with pytest.raises(AnalyticsError, match="leave the datetime range"):
            bucket_series([first], 8.6e13)


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
        assert series_bits(bucketize(records, volume_config)) == want_volume
        assert series_bits(bucketize(records, mean_config, lexicon)) == want_mean

        volume, mean = bucket_series(records, width)
        assert series_bits(volume) == want_volume and mean is None
        if records:
            payloads = [r.payload if isinstance(r, OutputRecord) else r for r in records]
            scores = [s.score for s in text_pass(payloads, None, lexicon)[1]]
            volume, mean = bucket_series(records, width, scores)
            assert series_bits(volume) == want_volume
            assert series_bits(mean) == want_mean


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
        stats = run_collector(CollectorConfig.load(config_path), once=True, now_fn=now_fn)
        assert stats.records_emitted == len(rows)
        assert stats.alerts_emitted >= 1
        sink_records = read_records(tmp_path / "sink.jsonl", "json")
        assert len(sink_records) == len(rows)
        alerts = [json.loads(l) for l in (tmp_path / "alerts.jsonl").read_text().splitlines()]
        assert all(abs(a["z_score"]) >= 3.0 for a in alerts)

    @pytest.mark.parametrize("sink_format", ["xml", "json"])
    def test_xml_sink_skips_what_it_cannot_hold(self, tmp_path, sink_format):
        rows = corpus_rows(3)
        rows[1]["text"] = "a\u0001b"
        rows[2]["hashtags"] = ["ok", "x\u000by"]
        corpus = write_jsonl(tmp_path / "c.jsonl", rows)
        config = CollectorConfig(
            sources=[SourceSpec(id="s1", kind="file", location=str(corpus))],
            sink_path=str(tmp_path / "sink.txt"), sink_format=sink_format,
        )
        stats = run_collector(config, once=True, now_fn=now_fn)
        back = read_records(config.sink_path, sink_format)
        if sink_format == "json":
            assert [r.payload.id for r in back] == [r["id"] for r in rows]
            assert stats.diagnostics == []
            return
        assert [r.payload.id for r in back] == [rows[0]["id"]]
        assert stats.records_emitted == 1
        assert [(d.source_id, d.reason, d.retryable) for d in stats.diagnostics] == [
            ("s1", f"record {rows[1]['id']!r}: text holds U+0001, which XML 1.0 forbids; "
                   "skipped", False),
            ("s1", f"record {rows[2]['id']!r}: hashtags holds U+000B, which XML 1.0 forbids; "
                   "skipped", False),
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
