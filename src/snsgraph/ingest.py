"""Corpus parsing, topic sampling, and interaction-graph construction.

Corpora are JSON-lines files, one interaction record per line:

    {"id": "...", "author": "...", "text": "...", "hashtags": [...],
     "in_reply_to": null, "mentions": [...], "follows": [...],
     "timestamp": "2017-04-21T12:00:00Z"}

``follows`` is optional; unknown extra fields are ignored so richer crawls
stay readable. One parse builds each distinct raw handle and tag once.
Malformed lines (not valid UTF-8, a handle holding a code point XML 1.0
forbids, a string field holding a lone surrogate such as JSON's
``"\\ud800"``) are skipped and reported as diagnostics, not fatal.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import IO, Callable, Iterable, Union

from .errors import EmptyCorpusError
from .model import Handle, InteractionGraph, InteractionKind, ValueEdge

_SURROGATE = re.compile("[\ud800-\udfff]")  # JSON's "\\ud800" decodes to one


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime.

    Python 3.10's ``fromisoformat`` rejects the ``Z`` suffix, so it is
    rewritten to ``+00:00`` first. Naive timestamps are taken as UTC.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_rfc3339(ts: datetime) -> str:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One authored post and the interactions it encodes."""

    id: str
    author: Handle
    text: str
    timestamp: datetime
    hashtags: tuple[str, ...] = ()
    in_reply_to: Handle | None = None
    mentions: tuple[Handle, ...] = ()
    follows: tuple[Handle, ...] = ()

    def interactions(self) -> list[tuple[Handle, Handle, InteractionKind]]:
        """All (source, target, kind) acts asserted by this record."""
        acts = []
        if self.in_reply_to is not None:
            acts.append((self.author, self.in_reply_to, InteractionKind.REPLY))
        for m in self.mentions:
            acts.append((self.author, m, InteractionKind.MENTION))
        for f in self.follows:
            acts.append((self.author, f, InteractionKind.FOLLOW))
        return acts


@dataclass(frozen=True)
class TopicFilter:
    """Case-insensitive exact-tag topic filter (no substring matching)."""

    tags: frozenset[str]

    def __post_init__(self):
        normalized = frozenset(t.strip().lstrip("#").lower() for t in self.tags)
        if not normalized or "" in normalized:
            raise ValueError("topic filter needs at least one non-empty tag")
        object.__setattr__(self, "tags", normalized)

    @classmethod
    def of(cls, *tags: str) -> "TopicFilter":
        return cls(frozenset(tags))


@dataclass(frozen=True)
class ParseDiagnostic:
    line_no: int
    reason: str


@dataclass
class IngestStats:
    """Counters collected while building a graph from records."""

    records: int = 0
    interactions: int = 0
    self_loops_dropped: int = 0
    node_count: int = 0
    edge_count: int = 0


def _normalize_tag(tag) -> str:
    return str(tag).strip().lstrip("#").lower()


def _record(obj: dict, handle: Callable[[str], Handle],
            tag: Callable[[str], str]) -> InteractionRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    for key in ("id", "author", "timestamp"):
        if key not in obj or obj[key] is None:
            raise ValueError(f"missing required field {key!r}")
    rid = str(obj["id"])
    author = handle(str(obj["author"]))
    text = str(obj.get("text", "") or "")
    ts = parse_rfc3339(str(obj["timestamp"]))
    hashtags = tuple([t for t in map(tag, map(str, obj.get("hashtags") or ())) if t])
    in_reply_to = handle(str(reply)) if (reply := obj.get("in_reply_to")) else None
    mentions = tuple(map(handle, map(str, obj.get("mentions") or ())))
    follows = tuple(map(handle, map(str, obj.get("follows") or ())))
    return InteractionRecord(rid, author, text, ts, hashtags, in_reply_to, mentions, follows)


def record_from_dict(obj: dict) -> InteractionRecord:
    """Build a record from one decoded JSON object. Raises on bad shape."""
    return _record(obj, Handle, _normalize_tag)


def line_reader() -> Callable[[str], InteractionRecord]:
    """A reader of JSON corpus lines that, while kept, interns raw handle ->
    :class:`Handle` and raw tag -> normalized tag. A value that fails to
    parse is not cached: it raises every time. A line whose ``id``, ``text``
    or ``hashtags`` hold a lone surrogate raises ``ValueError``; only lines
    holding a ``\\u`` escape can, so only they are searched."""
    handle, tag = lru_cache(maxsize=None)(Handle), lru_cache(maxsize=None)(_normalize_tag)

    def read(line: str) -> InteractionRecord:
        record = _record(json.loads(line), handle, tag)
        if "\\u" in line and (bad := _SURROGATE.search(
                "".join((record.id, record.text, *record.hashtags)))):
            raise ValueError(f"lone surrogate U+{ord(bad.group()):04X} in a string field")
        return record

    return read


def record_to_dict(record: InteractionRecord) -> dict:
    """Serialize a record to the corpus JSON object shape."""
    return {
        "id": record.id,
        "author": record.author.value,
        "text": record.text,
        "hashtags": list(record.hashtags),
        "in_reply_to": record.in_reply_to.value if record.in_reply_to else None,
        "mentions": [m.value for m in record.mentions],
        "follows": [f.value for f in record.follows],
        "timestamp": format_rfc3339(record.timestamp),
    }


CorpusSource = Union[str, Path, IO[str]]


def parse_corpus(
    source: CorpusSource, format: str = "json-lines"
) -> tuple[list[InteractionRecord], list[ParseDiagnostic]]:
    """Read a JSON-lines corpus.

    Every well-formed line yields one record; malformed lines produce a
    diagnostic with the line number and reason. A corpus with zero
    well-formed records raises :class:`EmptyCorpusError`. Unreadable paths
    raise the underlying ``OSError``.
    """
    if format != "json-lines":
        raise ValueError(f"unsupported corpus format: {format!r}")
    if isinstance(source, (str, Path)):
        # Undecodable bytes become lone surrogates, caught per line below.
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return parse_corpus(fh, format=format)

    read = line_reader()
    records: list[InteractionRecord] = []
    diagnostics: list[ParseDiagnostic] = []
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            if not stripped.isascii():
                stripped.encode("utf-8")
            records.append(read(stripped))
        except UnicodeEncodeError as exc:
            diagnostics.append(ParseDiagnostic(line_no, f"not UTF-8 at column {exc.start + 1}"))
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
    if not records:
        raise EmptyCorpusError("corpus contains no well-formed records")
    return records, diagnostics


def write_corpus(records: Iterable[InteractionRecord], sink: Union[str, Path, IO[str]]) -> None:
    """Write records as JSON-lines in the documented corpus schema."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_corpus(records, fh)
            return
    for record in records:
        sink.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


def filter_topic(
    records: Iterable[InteractionRecord], topic: TopicFilter
) -> list[InteractionRecord]:
    """Keep records whose hashtag set intersects the filter, preserving order."""
    return [r for r in records if not topic.tags.isdisjoint(r.hashtags)]


def build_graph(
    records: Iterable[InteractionRecord],
) -> tuple[InteractionGraph, IngestStats]:
    """Accumulate record interactions into a weighted interaction graph.

    Each record adds author->in_reply_to (reply), author->mention (mention)
    and author->follow (follow) edges; repeated ordered pairs of the same
    kind accumulate weight. Self-interactions are dropped and counted.
    Nodes are the endpoints of retained edges, so the result is independent
    of record order.
    """
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
    graph = InteractionGraph.interned(handles, counts)
    stats.node_count = graph.node_count
    stats.edge_count = graph.edge_count
    return graph, stats
