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

import io
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Union

from .errors import EmptyCorpusError
from .model import Handle, InteractionGraph, InteractionKind, ValueEdge, _unmark

_SURROGATE = re.compile("[\ud800-\udfff]")  # JSON's "\\ud800" decodes to one


def text_lines(source: str | Path | bytes | Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` for each non-blank line of a path, a byte string or
    text lines, stripped; ``line_no`` counts every line. The one line rule of
    every text input: paths and bytes are read as UTF-8 split at LF, CR or
    CRLF, an undecodable byte kept as a lone surrogate for :func:`utf8`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            yield from text_lines(fh)
        return
    if isinstance(source, bytes):
        source = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", errors="surrogateescape")
    for line_no, line in enumerate(source, start=1):
        if line := line.strip():
            yield line_no, line


def utf8(line: str) -> str:
    """``line``, unless it holds a lone surrogate (an undecodable byte read by
    :func:`text_lines`): then ``ValueError`` naming its column."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"not UTF-8 at column {exc.start + 1}") from None
    return line


def parse_rfc3339(value: str) -> datetime:
    """An RFC 3339 timestamp in UTC by :func:`utc`; a ``Z`` suffix, which Python
    3.10's ``fromisoformat`` rejects, is read as ``+00:00``."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return utc(datetime.fromisoformat(text))


def utc(ts: datetime) -> datetime:
    """The one UTC rule: ``ts`` in UTC, a naive one taken as UTC; out of range, ``ValueError``."""
    aware = ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)
    try:
        return aware.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {ts.isoformat()} is out of range in UTC") from None


def format_rfc3339(ts: datetime) -> str:
    return utc(ts).isoformat().replace("+00:00", "Z")


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


def _normalize_tag(tag) -> str:
    return _unmark(str(tag), "#")


@dataclass(frozen=True)
class TopicFilter:
    """Case-insensitive exact-tag topic filter (no substring matching)."""

    tags: frozenset[str]

    def __post_init__(self):
        normalized = frozenset(map(_normalize_tag, self.tags))
        if not normalized or "" in normalized:
            raise ValueError("topic filter needs at least one non-empty tag")
        object.__setattr__(self, "tags", normalized)

    @classmethod
    def of(cls, *tags: str) -> "TopicFilter":
        return cls(frozenset(tags))

    def keeps(self, record: InteractionRecord) -> bool:
        """Whether the record's hashtag set intersects the filter's."""
        return not self.tags.isdisjoint(record.hashtags)


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


def _array(obj: dict, key: str) -> list:
    """The list field ``key`` of a record object: absent and ``null`` read as empty."""
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be an array or null, got {type(value).__name__}")
    return value


def record_reader() -> Callable[..., InteractionRecord]:
    """The one builder of :class:`InteractionRecord` from a decoded record
    object: a corpus or sink JSON line's, or an XML sink line's. While kept,
    it interns raw handle -> :class:`Handle` and raw tag -> normalized tag; a
    value that fails to parse is not cached: it raises every time. A record
    whose ``id``, ``text`` or ``hashtags`` hold a lone surrogate raises
    ``ValueError``. Given ``line``, the JSON text the object was decoded
    from, only a line holding a ``\\u`` escape can, so only then is it searched."""
    handle, tag = lru_cache(maxsize=None)(Handle), lru_cache(maxsize=None)(_normalize_tag)

    def read(obj, line: str | None = None) -> InteractionRecord:
        if not isinstance(obj, dict):
            raise ValueError("record must be a JSON object")
        for key in ("id", "author", "timestamp"):
            if key not in obj or obj[key] is None:
                raise ValueError(f"missing required field {key!r}")
        rid = str(obj["id"])
        author = handle(str(obj["author"]))
        text = str(obj.get("text", "") or "")
        ts = parse_rfc3339(str(obj["timestamp"]))
        hashtags = tuple([t for t in map(tag, map(str, _array(obj, "hashtags"))) if t])
        in_reply_to = handle(str(reply)) if (reply := obj.get("in_reply_to")) else None
        mentions = tuple(map(handle, map(str, _array(obj, "mentions"))))
        follows = tuple(map(handle, map(str, _array(obj, "follows"))))
        if (line is None or "\\u" in line) and (
                bad := _SURROGATE.search("".join((rid, text, *hashtags)))):
            raise ValueError(f"lone surrogate U+{ord(bad.group()):04X} in a string field")
        return InteractionRecord(rid, author, text, ts, hashtags, in_reply_to, mentions, follows)

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


def iter_corpus(
    source: str | Path | bytes | Iterable[str],
) -> Iterator[InteractionRecord | ParseDiagnostic]:
    """The records and diagnostics of a JSON-lines corpus (a path, a body's bytes
    or text lines, as :func:`text_lines` reads them) in line order: a record per
    well-formed line, a diagnostic (line number, reason) per malformed one.
    Diagnostics before the first record wait for it, so a corpus with zero
    well-formed records yields nothing and, once read, raises
    :class:`EmptyCorpusError`. Unreadable paths raise the underlying ``OSError``."""
    read, held = record_reader(), []  # held: the diagnostics before the first record
    for line_no, line in text_lines(source):
        try:
            item = read(json.loads(utf8(line)), line)
        except (ValueError, TypeError, RecursionError) as exc:  # JSON decode errors included
            item = ParseDiagnostic(line_no, str(exc))
            if held is not None:
                held.append(item)
                continue
        if held:
            yield from held
        held = None
        yield item
    if held is not None:
        raise EmptyCorpusError("corpus contains no well-formed records")


def parse_corpus(
    source: str | Path | bytes | Iterable[str],
) -> tuple[list[InteractionRecord], list[ParseDiagnostic]]:
    """The records and the diagnostics of :func:`iter_corpus`, each in line order."""
    records, diagnostics = [], []
    for item in iter_corpus(source):
        (diagnostics if type(item) is ParseDiagnostic else records).append(item)
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
    """The records :meth:`TopicFilter.keeps`, in order."""
    return [r for r in records if topic.keeps(r)]


def build_graph(
    records: Iterable[InteractionRecord],
) -> tuple[InteractionGraph, IngestStats]:
    """Accumulate record interactions into a weighted interaction graph.

    Each record adds author->in_reply_to (reply), author->mention (mention)
    and author->follow (follow) edges; repeated ordered pairs of the same
    kind accumulate weight. Self-interactions are dropped and counted.
    Nodes are the endpoints of retained edges, numbered in sorted order as
    in every graph, so the result, node order included, is independent of
    record order.
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
