"""Corpus parsing, topic sampling, and interaction-graph construction.

Corpora are JSON-lines files, one interaction record per line:

    {"id": "...", "author": "...", "text": "...", "hashtags": [...],
     "in_reply_to": null, "mentions": [...], "follows": [...],
     "timestamp": "2017-04-21T12:00:00Z"}

``follows`` is optional; unknown extra fields are ignored so richer crawls
stay readable. Malformed lines, including lines that are not valid UTF-8,
are skipped and reported as diagnostics instead of aborting the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Union

from .errors import EmptyCorpusError
from .model import Handle, InteractionGraph, InteractionKind, ValueEdge


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


@dataclass(frozen=True)
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

    def matches(self, record: InteractionRecord) -> bool:
        return any(tag in self.tags for tag in record.hashtags)


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


def record_from_dict(obj: dict) -> InteractionRecord:
    """Build a record from one decoded JSON object. Raises on bad shape."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    for key in ("id", "author", "timestamp"):
        if key not in obj or obj[key] is None:
            raise ValueError(f"missing required field {key!r}")
    rid = str(obj["id"])
    author = Handle(str(obj["author"]))
    text = str(obj.get("text", "") or "")
    ts = parse_rfc3339(str(obj["timestamp"]))
    hashtags = tuple(_normalize_tag(t) for t in obj.get("hashtags") or [] if _normalize_tag(t))
    reply_raw = obj.get("in_reply_to")
    in_reply_to = Handle(str(reply_raw)) if reply_raw else None
    mentions = tuple(Handle(str(m)) for m in obj.get("mentions") or [])
    follows = tuple(Handle(str(f)) for f in obj.get("follows") or [])
    return InteractionRecord(
        id=rid,
        author=author,
        text=text,
        timestamp=ts,
        hashtags=hashtags,
        in_reply_to=in_reply_to,
        mentions=mentions,
        follows=follows,
    )


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

    records: list[InteractionRecord] = []
    diagnostics: list[ParseDiagnostic] = []
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            if not stripped.isascii():
                stripped.encode("utf-8")
            obj = json.loads(stripped)
            records.append(record_from_dict(obj))
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
    return [r for r in records if topic.matches(r)]


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
