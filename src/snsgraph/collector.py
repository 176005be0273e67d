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

import itertools
import json
import os
import re
import statistics
import sys
import time
import zlib
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence, Union

from .errors import AnalyticsError, EmptyCorpusError, RecordParseError
from .ingest import (
    InteractionRecord,
    ParseDiagnostic,
    _normalize_tag,
    format_rfc3339,
    iter_corpus,
    parse_rfc3339,
    record_reader,
    record_to_dict,
    text_lines,
    utc,
    utf8,
)
from .model import _NOT_XML, Handle, check_finite
from .textmine import Lexicon, load_lexicon, sentiment

_HASHTAG_RE = re.compile(r"#(\w+)")
_WIDEST_BUCKET = timedelta.max.days * 86400.0  # seconds
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MAX_BUCKETS = 2**20  # per series: two years of 60 s buckets
MAX_POLL_INTERVAL = 365 * 86400.0  # seconds: one year, far inside what time.sleep can wait
MIN_CYCLE_WAIT = 1.0  # seconds a continuous run sleeps at least between cycles, so it cannot spin


@dataclass(frozen=True)
class SourceSpec:
    id: str
    kind: str  # file | rss | http-json
    location: str
    poll_interval: float = 60.0  # seconds from the start of one poll of this source to the next

    def __post_init__(self):
        check_finite(self)
        if self.kind not in ("file", "rss", "http-json"):
            raise ValueError(f"unknown source kind: {self.kind!r}")
        if self.poll_interval < 0:
            raise ValueError(f"poll_interval must be >= 0, got {self.poll_interval!r}")
        if self.poll_interval > MAX_POLL_INTERVAL:
            raise ValueError(f"poll_interval must be at most {MAX_POLL_INTERVAL:,.0f} s "
                             f"(one year), got {self.poll_interval!r}")
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
    import xml.etree.ElementTree as ET  # here: only feeds and XML sinks load the XML parsers

    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise RecordParseError(str(exc)) from None
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
        try:  # a year past C long is an OverflowError
            if raw_ts := first(item, "pubDate"):
                ts = utc(email.utils.parsedate_to_datetime(raw_ts))
            else:
                ts = parse_rfc3339(first(item, "updated", "published") or "")
        except (OverflowError, ValueError):  # no date, or none that reads in range
            ts = fallback_ts
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
    ``state``, or earlier in the round, are dropped and counted in it; a
    round that fails part way leaves ``state``'s ids and count as they were.
    """
    state = state if state is not None else SourceState()
    diagnostics: list[SourceDiagnostic] = []
    fetched_at = now_fn()
    if state.last_fetched_at is not None and fetched_at < state.last_fetched_at:
        fetched_at = state.last_fetched_at
    state.last_fetched_at = fetched_at  # the poll's start, reached or not

    fresh: dict[str, OutputRecord] = {}
    dropped = 0
    try:
        location = spec.location
        if spec.kind == "rss":
            body = _fetch_url(location) if "://" in location else Path(location).read_bytes()
            items = _feed_records(body, fetched_at)
        else:  # file or http-json: a JSON-lines corpus, read under the same rules
            items = iter_corpus(_fetch_url(location) if spec.kind == "http-json" else location)
        for item in items:
            if isinstance(item, ParseDiagnostic):
                diagnostics.append(SourceDiagnostic(spec.id, f"line {item.line_no}: {item.reason}"))
            elif item.id in state.seen_ids or item.id in fresh:
                dropped += 1
            else:
                fresh[item.id] = OutputRecord(spec.id, fetched_at, item)
    except OSError as exc:  # urllib's URLError included
        return [], [SourceDiagnostic(spec.id, f"unreachable: {exc}", retryable=True)]
    except (RecordParseError, EmptyCorpusError, ValueError) as exc:  # a bad URL
        return [], [SourceDiagnostic(spec.id, str(exc))]
    state.seen_ids.update(fresh)
    state.duplicates_dropped += dropped
    return list(fresh.values()), diagnostics


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
    import xml.etree.ElementTree as ET

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
    import xml.etree.ElementTree as ET

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
    output records, under the corpus rules of :func:`iter_corpus`; an XML
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
        except (RecordParseError, ValueError, TypeError, RecursionError) as exc:
            raise RecordParseError(f"line {line_no}: {exc}") from exc
    return out


# --- deviation notification --------------------------------------------------

class Buckets:
    """Record volume and mean score per fixed-width time bucket, one record at a time."""

    def __init__(self, bucket_seconds: float):
        self.bucket_seconds, self.width = bucket_seconds, timedelta(seconds=bucket_seconds)
        self.counts: dict[int, int] = {}
        self.sums: dict[int, float] = {}  # summed in the order the records are added

    def add(self, record: InteractionRecord, score: float | None = None) -> None:
        bucket = int((record.timestamp - _EPOCH) // self.width)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        if score is not None:
            self.sums[bucket] = self.sums.get(bucket, 0.0) + score

    def series(self) -> tuple[list[tuple[datetime, float]], list[tuple[datetime, float]] | None]:
        """Volume and, once a score was added, mean score (else ``None``) per bucket,
        zero-filled from the first to the last so silence is observable, up to
        :data:`MAX_BUCKETS` buckets: a longer span is an :class:`AnalyticsError`."""
        buckets = range(min(self.counts), max(self.counts) + 1) if self.counts else range(0)
        if len(buckets) > MAX_BUCKETS:
            raise AnalyticsError(
                f"records span {len(buckets):,} buckets of {self.bucket_seconds:g} s, more than "
                f"{MAX_BUCKETS:,}; use a wider --bucket-seconds (deviation.bucket_seconds)")
        try:
            volume = [(_EPOCH + b * self.width, float(self.counts.get(b, 0))) for b in buckets]
        except OverflowError:
            raise AnalyticsError(
                f"buckets of {self.bucket_seconds:g} s from the records' first to last leave the "
                "datetime range; use a narrower --bucket-seconds") from None
        return volume, [(ts, self.sums[b] / self.counts[b] if b in self.counts else 0.0)
                        for (ts, _), b in zip(volume, buckets)] if self.sums else None

    def alerts(self, config: DeviationConfig) -> list[AlertEvent]:
        """The deviation stage of ``report`` and ``collect``: :func:`detect_deviation`
        over the volume series under a ``volume`` config, and over the mean series as
        ``mean_sentiment`` once a score was added, ordered by bucket, then metric."""
        volume, mean = self.series()
        alerts = detect_deviation(volume, config) if config.metric == "volume" else []
        if mean is not None:
            alerts += detect_deviation(mean, replace(config, metric="mean_sentiment"))
        return sorted(alerts, key=lambda a: (a.bucket, a.metric))


def _score(record: InteractionRecord, config: DeviationConfig, lexicon: Lexicon | None):
    """A record's bucket score: ``None`` for ``volume``, its lexicon score otherwise."""
    return None if config.metric == "volume" else sentiment(record.text, lexicon).score


def bucketize(
    records: Iterable[OutputRecord | InteractionRecord],
    config: DeviationConfig,
    lexicon: Lexicon | None = None,
) -> list[tuple[datetime, float]]:
    """Records per fixed-width time bucket (volume) or their mean lexicon
    score (mean_sentiment, which needs a lexicon); see :class:`Buckets`."""
    if config.metric != "volume" and lexicon is None:
        raise ValueError("mean_sentiment bucketing needs a lexicon")
    buckets = Buckets(config.bucket_seconds)
    for record in records:
        payload = record.payload if isinstance(record, OutputRecord) else record
        buckets.add(payload, _score(payload, config, lexicon))
    volume, mean = buckets.series()
    return volume if mean is None else mean


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
        if not values[i] and not any(window):  # z = 0: silence after silence never alerts
            continue
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

_JSON_TYPES = {"str": ((str,), "a string"), "str | None": ((str, type(None)), "a string or null"),
               "int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "object": ((dict,), "a JSON object"), "array": ((list,), "an array")}


def _json(value, name: str, json_type: str, keys: Sequence[str] | None = None):
    """``value`` if a ``json_type`` of XML 1.0 text, keys all in ``keys``; else ``ValueError``."""
    types, kind = _JSON_TYPES[json_type]
    if type(value) not in types:  # so true is no number, nor 2.9 an int
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if type(value) is str and (bad := _NOT_XML.search(value)):  # open() takes no U+0000
        raise ValueError(f"{name} holds U+{ord(bad.group()):04X}, which XML 1.0 forbids")
    if keys is not None and (unknown := [key for key in value if key not in keys]):
        raise ValueError(f"unknown key {unknown[0]!r}")
    return value


def _read(config_type, obj, name: str = "", **built):
    """A ``config_type`` of ``built`` and ``obj``, the JSON object ``name``, by field name.
    A value must have its field's type (a float field takes any number, as a float);
    a field not given keeps its default, and one with none is a ``KeyError``."""
    _json(obj, name, "object", [f.name for f in fields(config_type)])
    for f in fields(config_type):
        if f.name in obj:
            _json(obj[f.name], f.name, f.type)
            try:
                built[f.name] = float(obj[f.name]) if f.type == "float" else obj[f.name]
            except OverflowError:
                raise ValueError(f"{f.name} is too large for a float") from None
        elif f.name not in built and f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return config_type(**built)


@dataclass
class CollectorConfig:
    sources: list[SourceSpec]
    sink_path: str = "collected.jsonl"
    sink_format: str = "json"
    alerts_path: str | None = None
    deviation: DeviationConfig = field(default_factory=DeviationConfig)
    lexicon_positive: str | None = None
    lexicon_negative: str | None = None

    def __post_init__(self):
        if not self.sources or len({s.id for s in self.sources}) < len(self.sources):
            raise ValueError("`sources` must list at least one source, each with its own id")
        if self.sink_format not in ("json", "xml"):
            raise ValueError(f"unknown emission format: {self.sink_format!r}")
        if self.deviation.metric == "mean_sentiment" and not (
                self.lexicon_positive and self.lexicon_negative):
            raise ValueError("the mean_sentiment metric needs a positive and a negative lexicon")
        if bool(self.lexicon_positive) != bool(self.lexicon_negative):
            raise ValueError("`lexicon` must name both a positive and a negative file")
        self._check_writes()

    def _check_writes(self, config_path: Union[str, Path, None] = None) -> None:
        """``ValueError`` if the sink or alerts path names a file the run reads (a local
        source, a lexicon or the config at ``config_path``) or the other written path."""
        read = [(f"source {s.id!r}", s.location) for s in self.sources
                if s.kind == "file" or "://" not in s.location]
        read += [("the positive lexicon", self.lexicon_positive),
                 ("the negative lexicon", self.lexicon_negative), ("this config", config_path)]
        files = {os.path.realpath(path): name for name, path in read if path}
        for name, path in (("the sink", self.sink_path), ("the alerts", self.alerts_path)):
            if path and path != os.devnull:
                if (user := files.setdefault(os.path.realpath(path), name)) != name:
                    raise ValueError(f"{name} path {path!r} is also the file of {user}")

    @classmethod
    def from_dict(cls, obj) -> "CollectorConfig":
        """The config of a JSON document: ``sources`` and ``deviation`` keyed by field
        name, and each key of ``sink``, ``alerts`` and ``lexicon`` as ``<section>_<key>``."""
        _json(obj, "the config", "object", ("sources", "sink", "alerts", "deviation", "lexicon"))
        sources = _json(obj["sources"], "sources", "array")
        sections = {f"{name}_{key}": value for name in ("sink", "alerts", "lexicon")
                    for key, value in _json(obj.get(name, {}), name, "object").items()}
        return _read(cls, sections, sources=[_read(SourceSpec, s, "each source") for s in sources],
                     deviation=_read(DeviationConfig, obj.get("deviation", {}), "deviation"))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CollectorConfig":
        """Read a JSON config; a malformed one is an :class:`AnalyticsError` naming it."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                config = cls.from_dict(json.load(fh))
                config._check_writes(path)
                return config
            except KeyError as exc:
                raise AnalyticsError(f"{path}: collector config lacks key {exc}") from None
            except (AttributeError, TypeError, ValueError, RecursionError) as exc:
                raise AnalyticsError(f"{path}: bad collector config: {exc}") from None


@dataclass
class CollectorRunStats:
    records_emitted: int = 0
    duplicates_dropped: int = 0
    alerts_emitted: int = 0


def run_collector(
    config: CollectorConfig,
    max_cycles: int | None = None,
    now_fn: Callable[[], datetime] = lambda: datetime.now(timezone.utc),
    sleep_fn: Callable[[float], None] = time.sleep,
) -> CollectorRunStats:
    """Poll sources into the sink; detect deviations over the stream.

    Sources are polled in cycles until ``max_cycles`` (1 or more; else a
    :class:`ValueError`) have run (or forever) or a ``KeyboardInterrupt`` comes;
    the run returns either way, and only the record being handled then may be in
    the sink but not in the alerts. A source is due ``poll_interval`` after its
    last poll started, on ``now_fn``; between cycles the run sleeps until one is
    due, :data:`MIN_CYCLE_WAIT` at least. All sources feed one serialized sink
    writer, so records never interleave mid-line; a record the sink's form cannot
    hold is skipped, with a diagnostic; a poll's diagnostics go to stderr as it
    ends. Written records are counted into the run's :class:`Buckets`, whose alerts
    are written as the run ends. The lexicon is read first, then the alerts file is
    opened, then the sink.
    """
    if max_cycles is not None and max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1 or None, got {max_cycles}")
    stats = CollectorRunStats()
    states = {spec.id: SourceState() for spec in config.sources}
    buckets = Buckets(config.deviation.bucket_seconds)
    lexicon = (load_lexicon(config.lexicon_positive, config.lexicon_negative)
               if config.lexicon_positive else None)

    def due_in(spec: SourceSpec) -> float:  # seconds; due at 0 or below
        last = states[spec.id].last_fetched_at
        return 0.0 if last is None else spec.poll_interval - (now_fn() - last).total_seconds()

    with open(config.alerts_path or os.devnull, "w", encoding="utf-8") as alerts_out:
        with open(config.sink_path, "w", encoding="utf-8") as sink, suppress(KeyboardInterrupt):
            for cycle in itertools.count(1):
                for spec in (s for s in config.sources if due_in(s) <= 0):
                    records, diags = poll_source(spec, states[spec.id], now_fn=now_fn)
                    for record in records:
                        try:
                            emit(record, config.sink_format, sink)
                        except ValueError as exc:  # a record the sink's form cannot hold
                            diags.append(SourceDiagnostic(spec.id, f"{exc}; skipped"))
                            continue
                        stats.records_emitted += 1
                        buckets.add(record.payload,
                                    _score(record.payload, config.deviation, lexicon))
                    for diag in diags:
                        kind = "retryable" if diag.retryable else "diagnostic"
                        print(f"{kind} [{diag.source_id}]: {diag.reason}", file=sys.stderr)
                sink.flush()
                if max_cycles is not None and cycle >= max_cycles:
                    break
                sleep_fn(max(min(map(due_in, config.sources)), MIN_CYCLE_WAIT))
        stats.duplicates_dropped = sum(s.duplicates_dropped for s in states.values())
        alerts = buckets.alerts(config.deviation)
        stats.alerts_emitted = len(alerts)
        for alert in alerts:
            alerts_out.write(json.dumps(alert.to_dict()) + "\n")
    return stats
