"""Pluggable data collection, normalized record emission, and deviation alerts.

Sources are polled on their own schedule and normalized into
:class:`OutputRecord` values: the ingest-schema payload plus provenance
(``source_id``, ``fetched_at``). Records are emitted as JSON lines or as
one XML ``<record>`` element per line; both forms round-trip losslessly
through the parsers in this module. Item ids are deduplicated per source
within a run (at-least-once polling, id-based dedup).

Deviation notification is a rolling z-score over fixed-width time buckets
of a stream metric (record volume or mean sentiment): each bucket is
compared against the mean and standard deviation of the preceding window,
with a floored sigma so a flat history followed by any change still
divides cleanly.
"""

from __future__ import annotations

import json
import re
import statistics
import time
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence, Union

from .errors import AnalyticsError, EmptyCorpusError, RecordParseError
from .ingest import (
    InteractionRecord,
    _normalize_tag,
    format_rfc3339,
    parse_corpus,
    parse_rfc3339,
    record_reader,
    record_to_dict,
    text_lines,
    utf8,
)
from .model import _NOT_XML, Handle, check_finite
from .textmine import Lexicon, load_lexicon, sentiment

_HASHTAG_RE = re.compile(r"#(\w+)")
_WIDEST_BUCKET = timedelta.max.days * 86400.0  # seconds
MAX_BUCKETS = 2**20  # per series: two years of 60 s buckets


@dataclass(frozen=True)
class SourceSpec:
    id: str
    kind: str  # file | rss | http-json
    location: str
    poll_interval: float = 60.0  # seconds; ignored for file sources

    def __post_init__(self):
        check_finite(self)
        if self.kind not in ("file", "rss", "http-json"):
            raise ValueError(f"unknown source kind: {self.kind!r}")
        if not self.id:
            raise ValueError("source id must be non-empty")
        if bad := _NOT_XML.search(self.id):  # no sink form could name the source
            raise ValueError(f"source id {self.id!r} holds U+{ord(bad.group()):04X}, "
                             "which XML 1.0 forbids")
        if self.kind == "http-json" and "://" not in self.location:
            raise ValueError(f"http-json source {self.id!r} needs a URL, got {self.location!r}")


@dataclass(frozen=True)
class OutputRecord:
    source_id: str
    fetched_at: datetime
    payload: InteractionRecord


@dataclass
class SourceState:
    """Per-source dedup and monotonic-fetch bookkeeping for one run."""

    seen_ids: set[str] = field(default_factory=set)
    duplicates_dropped: int = 0
    last_fetched_at: datetime | None = None


@dataclass(frozen=True)
class SourceDiagnostic:
    source_id: str
    reason: str
    retryable: bool = False


@dataclass(frozen=True)
class DeviationConfig:
    metric: str = "volume"  # volume | mean_sentiment
    window: int = 20
    z_threshold: float = 3.0
    sigma_floor: float = 1e-6
    bucket_seconds: float = 60.0

    def __post_init__(self):
        check_finite(self)
        if self.metric not in ("volume", "mean_sentiment"):
            raise ValueError(f"unknown deviation metric: {self.metric!r}")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.z_threshold <= 0 or self.sigma_floor <= 0:
            raise ValueError("z_threshold and sigma_floor must be positive")
        if not 1e-6 <= self.bucket_seconds <= _WIDEST_BUCKET:  # a timedelta, not 0
            raise ValueError(f"bucket_seconds must be from 1e-06 to {_WIDEST_BUCKET:g}, "
                             f"got {self.bucket_seconds!r}")


@dataclass(frozen=True)
class AlertEvent:
    metric: str
    bucket: datetime
    observed: float
    rolling_mean: float
    rolling_std: float
    z_score: float

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "bucket": format_rfc3339(self.bucket),
            "observed": self.observed,
            "rolling_mean": self.rolling_mean,
            "rolling_std": self.rolling_std,
            "z_score": self.z_score,
        }


def _slug_handle(raw: str) -> Handle:
    cleaned = re.sub(r"[^0-9A-Za-z_.-]+", "_", raw.strip()).strip("_")
    return Handle(cleaned or "unknown_source")


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _feed_records(document: bytes, fallback_ts: datetime) -> list[InteractionRecord]:
    """Map the items of an RSS 2.0 / Atom document, decoded as its XML
    declaration says, to interaction records.

    Item text is title + " " + description/summary; the feed author (or
    feed title) becomes the authoring handle. Hashtags come from category
    elements and inline #tags so topic filters keep working on collected
    corpora.
    """
    import email.utils  # imported here: CLI start-up would pay for it

    root = ET.fromstring(document)
    rootname = _local_name(root.tag)

    def first(elem, *names) -> str | None:
        if elem is None:
            return None
        for name in names:
            for child in elem:
                if _local_name(child.tag) == name and child.text and child.text.strip():
                    return child.text.strip()
        return None

    if rootname == "rss":
        channel = next((c for c in root if _local_name(c.tag) == "channel"), root)
        feed_author = first(channel, "managingEditor", "title") or "unknown_feed"
        items = [e for e in channel if _local_name(e.tag) == "item"]
    elif rootname == "feed":
        author_elem = next((c for c in root if _local_name(c.tag) == "author"), None)
        feed_author = first(author_elem, "name") or first(root, "title") or "unknown_feed"
        items = [e for e in root if _local_name(e.tag) == "entry"]
    else:
        raise RecordParseError(f"not an RSS or Atom document (root <{rootname}>)")

    author = _slug_handle(feed_author)
    records = []
    for item in items:
        title = first(item, "title") or ""
        body = first(item, "description", "summary", "content") or ""
        text_joined = (title + " " + body).strip()
        rid = first(item, "guid", "id", "link")
        if rid is None:
            rid = f"{author.value}:{zlib.crc32(text_joined.encode('utf-8')):08x}"
        ts = fallback_ts
        raw_ts = first(item, "pubDate")
        if raw_ts:
            try:
                parsed = email.utils.parsedate_to_datetime(raw_ts)
                if parsed.tzinfo is None:
                    parsed = parsed.replace(tzinfo=timezone.utc)
                ts = parsed.astimezone(timezone.utc)
            except (TypeError, ValueError):
                pass
        else:
            raw_ts = first(item, "updated", "published")
            if raw_ts:
                try:
                    ts = parse_rfc3339(raw_ts)
                except ValueError:
                    pass
        tags = [c.text for c in item.iter() if _local_name(c.tag) == "category" and c.text]
        tags = [t for t in map(_normalize_tag, tags + _HASHTAG_RE.findall(text_joined)) if t]
        records.append(InteractionRecord(rid, author, text_joined, ts, tuple(dict.fromkeys(tags))))
    return records


def _fetch_url(location: str, timeout: float = 30.0) -> bytes:
    import urllib.request  # imported here: CLI start-up would pay for it

    with urllib.request.urlopen(location, timeout=timeout) as response:
        return response.read()


def poll_source(
    spec: SourceSpec,
    state: SourceState | None = None,
    now_fn: Callable[[], datetime] = lambda: datetime.now(timezone.utc),
) -> tuple[list[OutputRecord], list[SourceDiagnostic]]:
    """Fetch one round from a source and wrap new items as output records.

    Unreachable locations yield a retryable diagnostic instead of raising;
    malformed items yield per-item diagnostics. Ids already seen in
    ``state`` are dropped and counted.
    """
    state = state if state is not None else SourceState()
    diagnostics: list[SourceDiagnostic] = []
    fetched_at = now_fn()
    if state.last_fetched_at is not None and fetched_at < state.last_fetched_at:
        fetched_at = state.last_fetched_at

    try:
        location = spec.location
        if spec.kind == "rss":
            body = _fetch_url(location) if "://" in location else Path(location).read_bytes()
            records = _feed_records(body, fetched_at)
        else:  # file or http-json: a JSON-lines corpus, read under the same rules
            records, diags = parse_corpus(
                _fetch_url(location) if spec.kind == "http-json" else location)
            diagnostics.extend(
                SourceDiagnostic(spec.id, f"line {d.line_no}: {d.reason}") for d in diags
            )
    except OSError as exc:  # urllib's URLError included
        diagnostics.append(
            SourceDiagnostic(spec.id, f"unreachable: {exc}", retryable=True)
        )
        return [], diagnostics
    except (ET.ParseError, RecordParseError, EmptyCorpusError) as exc:
        diagnostics.append(SourceDiagnostic(spec.id, str(exc)))
        return [], diagnostics

    out: list[OutputRecord] = []
    for record in records:
        if record.id in state.seen_ids:
            state.duplicates_dropped += 1
            continue
        state.seen_ids.add(record.id)
        out.append(OutputRecord(spec.id, fetched_at, record))
    state.last_fetched_at = fetched_at
    return out, diagnostics


# --- serialization -----------------------------------------------------------

def output_record_to_dict(record: OutputRecord) -> dict:
    payload = record_to_dict(record.payload)
    payload["source_id"] = record.source_id
    payload["fetched_at"] = format_rfc3339(record.fetched_at)
    return payload


def _escape_newlines(serialized: str) -> str:
    return serialized.replace("\r", "&#13;").replace("\n", "&#10;")


def _not_xml(obj: dict) -> str | None:
    """Why an :func:`output_record_to_dict` object has no XML 1.0 form, or None."""
    for name, value in obj.items():
        for text in value if isinstance(value, list) else (value or "",):
            if bad := _NOT_XML.search(text):
                return (f"record {obj['id']!r}: {name} holds U+{ord(bad.group()):04X}, "
                        "which XML 1.0 forbids")
    return None


def output_record_to_xml(record: OutputRecord) -> str:
    """One ``<record>`` element on a single line: the fields of
    :func:`output_record_to_dict` in order.

    List fields use ``<tag>`` child elements; ``in_reply_to`` is omitted
    when absent. Literal newlines in text content are escaped as character
    references so the line framing of sinks survives arbitrary text. A
    record holding a code point XML 1.0 forbids raises ``ValueError``.
    """
    obj = output_record_to_dict(record)
    if reason := _not_xml(obj):
        raise ValueError(reason)
    root = ET.Element("record")
    for name, value in obj.items():
        if isinstance(value, list):
            elem = ET.SubElement(root, name)
            for item in value:
                ET.SubElement(elem, "tag").text = item
        elif value is not None:
            ET.SubElement(root, name).text = value
    return _escape_newlines(ET.tostring(root, encoding="unicode"))


def _xml_object(text: str) -> dict:
    """The JSON form's object of one ``<record>`` line: the ``<tag>`` texts of
    each list field, the text (or "") of every other child element."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise RecordParseError(f"bad record XML: {exc}") from exc
    if _local_name(root.tag) != "record":
        raise RecordParseError(f"expected <record>, got <{root.tag}>")
    obj = {}
    for elem in root:
        if elem.tag in ("hashtags", "mentions", "follows"):
            obj[elem.tag] = [t.text or "" for t in elem.findall("tag")]
        else:
            obj[elem.tag] = elem.text or ""
    return obj


def output_record_from_xml(text: str) -> OutputRecord:
    """One ``<record>`` line read back as :func:`read_records` reads it."""
    (record,) = read_records([text], "xml")
    return record


def emit(record: OutputRecord, format: str, sink: IO[str]) -> None:
    """Write one record to the sink, one line per record."""
    if format == "json":
        sink.write(json.dumps(output_record_to_dict(record), ensure_ascii=False) + "\n")
    elif format == "xml":
        sink.write(output_record_to_xml(record) + "\n")
    else:
        raise ValueError(f"unknown emission format: {format!r}")


def read_records(source: Union[str, Path, Iterable[str]], format: str) -> list[OutputRecord]:
    """Parse a sink written by :func:`emit` (a path, or its lines) back into
    output records, under the corpus rules of :func:`parse_corpus`; an XML
    line is read as the JSON form's object. A bad line raises
    :class:`RecordParseError` naming its line number."""
    if format not in ("json", "xml"):
        raise ValueError(f"unknown emission format: {format!r}")
    read = record_reader()
    out = []
    for line_no, line in text_lines(source):
        try:
            obj = (json.loads if format == "json" else _xml_object)(utf8(line))
            payload = read(obj, line if format == "json" else None)
            if "source_id" not in obj or "fetched_at" not in obj:
                raise ValueError("output record needs source_id and fetched_at")
            out.append(OutputRecord(
                str(obj["source_id"]), parse_rfc3339(str(obj["fetched_at"])), payload))
        except (RecordParseError, ValueError, TypeError) as exc:
            raise RecordParseError(f"line {line_no}: {exc}") from exc
    return out


# --- deviation notification --------------------------------------------------

def bucket_series(
    records: Iterable[OutputRecord | InteractionRecord], bucket_seconds: float,
    scores: Sequence[float] | None = None,
) -> tuple[list[tuple[datetime, float]], list[tuple[datetime, float]] | None]:
    """Record volume and, given one score per record, mean score (else ``None``)
    per fixed-width time bucket, in one pass over the records. Gaps between
    the first and last bucket are zero-filled so silence is observable, up to
    :data:`MAX_BUCKETS` buckets: a longer span is an :class:`AnalyticsError`."""
    width = timedelta(seconds=bucket_seconds)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    counts: dict[int, int] = {}
    sums: dict[int, float] = {}
    for i, item in enumerate(records):
        ts = (item.payload if isinstance(item, OutputRecord) else item).timestamp
        bucket = int((ts - epoch) // width)
        counts[bucket] = counts.get(bucket, 0) + 1
        if scores is not None:
            sums[bucket] = sums.get(bucket, 0.0) + scores[i]
    buckets = range(min(counts), max(counts) + 1) if counts else range(0)
    if len(buckets) > MAX_BUCKETS:
        raise AnalyticsError(f"records span {len(buckets):,} buckets of {bucket_seconds:g} s, "
                             f"more than {MAX_BUCKETS:,}; use a wider --bucket-seconds "
                             "(deviation.bucket_seconds)")
    try:
        volume = [(epoch + b * width, float(counts.get(b, 0))) for b in buckets]
    except OverflowError:
        raise AnalyticsError(f"buckets of {bucket_seconds:g} s from the records' first to last "
                             "leave the datetime range; use a narrower --bucket-seconds") from None
    mean = None if scores is None else [
        (ts, sums[b] / counts[b] if b in counts else 0.0) for (ts, _), b in zip(volume, buckets)]
    return volume, mean


def bucketize(
    records: Iterable[OutputRecord | InteractionRecord],
    config: DeviationConfig,
    lexicon: Lexicon | None = None,
) -> list[tuple[datetime, float]]:
    """Records per fixed-width time bucket (volume) or their mean lexicon
    score (mean_sentiment, which needs a lexicon); see :func:`bucket_series`."""
    if config.metric == "volume":
        return bucket_series(records, config.bucket_seconds)[0]
    if lexicon is None:
        raise ValueError("mean_sentiment bucketing needs a lexicon")
    payloads = [item.payload if isinstance(item, OutputRecord) else item for item in records]
    scores = [sentiment(p.text, lexicon).score for p in payloads]
    return bucket_series(payloads, config.bucket_seconds, scores)[1]


def detect_deviation(
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


# --- the collector run loop --------------------------------------------------

@dataclass
class CollectorConfig:
    sources: list[SourceSpec]
    sink_path: str
    sink_format: str = "json"
    alerts_path: str | None = None
    deviation: DeviationConfig = field(default_factory=DeviationConfig)
    lexicon_pos: str | None = None
    lexicon_neg: str | None = None

    def __post_init__(self):
        if self.sink_format not in ("json", "xml"):
            raise ValueError(f"unknown emission format: {self.sink_format!r}")
        if self.deviation.metric == "mean_sentiment" and not (
                self.lexicon_pos and self.lexicon_neg):
            raise ValueError("the mean_sentiment metric needs a positive and a negative lexicon")

    @classmethod
    def from_dict(cls, obj: dict) -> "CollectorConfig":
        sources = [
            SourceSpec(
                id=s["id"],
                kind=s["kind"],
                location=s["location"],
                poll_interval=float(s.get("poll_interval", 60.0)),
            )
            for s in obj.get("sources", [])
        ]
        if not sources:
            raise ValueError("`sources` must list at least one source")
        sink = obj.get("sink", {})
        dev = obj.get("deviation", {})
        return cls(
            sources=sources,
            sink_path=sink.get("path", "collected.jsonl"),
            sink_format=sink.get("format", "json"),
            alerts_path=obj.get("alerts", {}).get("path"),
            deviation=DeviationConfig(
                metric=dev.get("metric", "volume"),
                window=int(dev.get("window", 20)),
                z_threshold=float(dev.get("z_threshold", 3.0)),
                sigma_floor=float(dev.get("sigma_floor", 1e-6)),
                bucket_seconds=float(dev.get("bucket_seconds", 60.0)),
            ),
            lexicon_pos=obj.get("lexicon", {}).get("positive"),
            lexicon_neg=obj.get("lexicon", {}).get("negative"),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CollectorConfig":
        """Read a JSON config; a malformed one is an :class:`AnalyticsError` naming it."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except KeyError as exc:
                raise AnalyticsError(f"{path}: collector config lacks key {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise AnalyticsError(f"{path}: bad collector config: {exc}") from None


@dataclass
class CollectorRunStats:
    records_emitted: int = 0
    duplicates_dropped: int = 0
    alerts_emitted: int = 0
    diagnostics: list[SourceDiagnostic] = field(default_factory=list)


def run_collector(
    config: CollectorConfig,
    once: bool = False,
    max_cycles: int | None = None,
    now_fn: Callable[[], datetime] = lambda: datetime.now(timezone.utc),
    sleep_fn: Callable[[float], None] = time.sleep,
) -> CollectorRunStats:
    """Poll sources into the sink; detect deviations over the stream.

    With ``once`` every source is polled a single time and the function
    returns; otherwise each source is re-polled on its own interval until
    ``max_cycles`` rounds have run (or forever). All sources feed one
    serialized sink writer, so records never interleave mid-line. A record
    the sink's form cannot hold is skipped, with a diagnostic.
    """
    stats = CollectorRunStats()
    states = {spec.id: SourceState() for spec in config.sources}
    lexicon = None
    if config.lexicon_pos and config.lexicon_neg:
        lexicon = load_lexicon(config.lexicon_pos, config.lexicon_neg)

    collected: list[OutputRecord] = []
    next_due = {spec.id: 0.0 for spec in config.sources}
    clock = 0.0
    cycle = 0
    with open(config.sink_path, "w", encoding="utf-8") as sink:
        while True:
            cycle += 1
            for spec in config.sources:
                if next_due[spec.id] > clock:
                    continue
                next_due[spec.id] = clock + max(spec.poll_interval, 0.0)
                records, diags = poll_source(spec, states[spec.id], now_fn=now_fn)
                stats.diagnostics.extend(diags)
                for record in records:
                    try:
                        emit(record, config.sink_format, sink)
                    except ValueError as exc:  # a record the sink's form cannot hold
                        stats.diagnostics.append(SourceDiagnostic(spec.id, f"{exc}; skipped"))
                        continue
                    collected.append(record)
                    stats.records_emitted += 1
            sink.flush()
            if once or (max_cycles is not None and cycle >= max_cycles):
                break
            wait = max(min(next_due.values()) - clock, 0.0)
            sleep_fn(wait)
            clock += wait

    stats.duplicates_dropped = sum(s.duplicates_dropped for s in states.values())
    series = bucketize(collected, config.deviation, lexicon)
    alerts = detect_deviation(series, config.deviation)
    stats.alerts_emitted = len(alerts)
    if config.alerts_path:
        with open(config.alerts_path, "w", encoding="utf-8") as fh:
            for alert in alerts:
                fh.write(json.dumps(alert.to_dict()) + "\n")
    return stats
