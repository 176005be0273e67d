"""Lexicon sentiment scoring and term count/salience statistics.

Sentiment is plain dictionary matching against positive/negative word
lists in the published opinion-lexicon file format (one word per line,
``;`` comment lines). The score is the symmetric ratio
``(pos - neg) / (pos + neg)``, zero (and flagged neutral) when nothing
matched.

Term salience is the normalized entropy contribution of a term's document
frequency: with ``p = doc_frequency / D``, the raw weight is
``p * ln(1/p)``, rescaled so the vocabulary sums to one. Tokens that
appear in every record get zero weight, which is what pushes ubiquitous
boilerplate (retweet markers and the sampled hashtag itself) below
mid-frequency content words even when their raw counts dominate.

Tokenization is deliberately shallow: lowercase, split on runs of
non-alphanumeric characters, no stemming, so surface forms like "vote"
and "voting" stay distinct.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyCorpusError, LexiconError
from .ingest import InteractionRecord, text_lines

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens in order; '#'/'@' prefixes drop away."""
    return _TOKEN_RE.findall(text.lower())


def handle_tokens(values: Iterable[str]) -> set[str]:
    """The :func:`tokenize` tokens of each of ``values``, casefolded, as a
    handle's ``ß`` reads ``ss`` when written in capitals."""
    return {t.casefold() for value in values for t in _TOKEN_RE.findall(value.lower())}


@dataclass(frozen=True)
class Lexicon:
    positive: frozenset[str]
    negative: frozenset[str]
    dropped_conflicts: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class SentimentSummary:
    positive_hits: int
    negative_hits: int
    score: float
    neutral: bool


@dataclass(frozen=True)
class TermStats:
    term: str
    mention_count: int
    doc_frequency: int
    salience: float


def _read_words(source: str | Path | Iterable[str]) -> set[str]:
    # The published lexicon files are latin-1 encoded: a word holding an
    # undecodable byte is kept, and as no token holds one, never matches.
    return {line.lower() for _, line in text_lines(source) if not line.startswith(";")}


def load_lexicon(pos_source, neg_source) -> Lexicon:
    """Load positive/negative word lists, each a path or text lines.

    Words present in both lists are dropped from both, reported via
    ``dropped_conflicts`` and warned of on stderr, one line each in sorted
    order. An empty resulting lexicon raises :class:`LexiconError`, with no
    warning.
    """
    positive = _read_words(pos_source)
    negative = _read_words(neg_source)
    conflicts = positive & negative
    positive -= conflicts
    negative -= conflicts
    if not positive and not negative:
        raise LexiconError("lexicon is empty after loading")
    dropped = tuple(sorted(conflicts))
    for word in dropped:
        print(f"warning: {word!r} is in both lexicons; dropped from both", file=sys.stderr)
    return Lexicon(
        positive=frozenset(positive),
        negative=frozenset(negative),
        dropped_conflicts=dropped,
    )


def _sentiment(tokens: list[str], lexicon: Lexicon) -> SentimentSummary:
    pos = neg = 0
    for token in tokens:
        if token in lexicon.positive:
            pos += 1
        elif token in lexicon.negative:
            neg += 1
    return _summary(pos, neg)


@lru_cache(maxsize=4096)  # summaries are immutable: one object per (pos, neg) pair
def _summary(pos: int, neg: int) -> SentimentSummary:
    if pos + neg == 0:
        return SentimentSummary(0, 0, 0.0, neutral=True)
    return SentimentSummary(pos, neg, (pos - neg) / (pos + neg), neutral=False)


def sentiment(text: str, lexicon: Lexicon) -> SentimentSummary:
    """Count lexicon matches in the text and score their balance."""
    return _sentiment(tokenize(text), lexicon)


class TextFold:
    """Term mention counts and document frequencies, stopwords left out, and each
    record's :func:`sentiment` given a lexicon, one record (one tokenization) at a time.
    It counts the records, the scored (non-neutral) ones and their lexicon hits."""

    def __init__(self, stopwords: Iterable[str] | None = None, lexicon: Lexicon | None = None):
        self.stop = {w.lower() for w in stopwords} if stopwords else set()
        self.lexicon = lexicon
        self.records = self.scored_records = self.positive_hits = self.negative_hits = 0
        self.counts: dict[str, int] = {}
        # dict, not set: float normalization later sums in this insertion
        # order, which must not depend on hash randomization
        self.doc_freq: dict[str, int] = {}

    def add(self, record: InteractionRecord) -> SentimentSummary | None:
        """Count the record's terms; its sentiment, or ``None`` with no lexicon."""
        tokens = tokenize(record.text)
        summary = None if self.lexicon is None else _sentiment(tokens, self.lexicon)
        if summary is not None and not summary.neutral:
            self.scored_records += 1
            self.positive_hits += summary.positive_hits
            self.negative_hits += summary.negative_hits
        if self.stop:
            tokens = [t for t in tokens if t not in self.stop]
        counts, doc_freq = self.counts, self.doc_freq
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for token in dict.fromkeys(tokens):
            doc_freq[token] = doc_freq.get(token, 0) + 1
        self.records += 1
        return summary

    def result(self) -> list[TermStats]:
        """Term statistics with normalized salience, sorted by count descending,
        ties by term; with no record added, :class:`EmptyCorpusError`."""
        if not self.records:
            raise EmptyCorpusError("term statistics need a non-empty corpus")
        raw: dict[str, float] = {}
        for term, df in self.doc_freq.items():
            p = df / self.records
            raw[term] = 0.0 if p >= 1.0 else p * math.log(1.0 / p)
        norm = sum(raw.values())
        stats = [TermStats(term, count, self.doc_freq[term], raw[term] / norm if norm > 0 else 0.0)
                 for term, count in self.counts.items()]
        stats.sort(key=lambda s: (-s.mention_count, s.term))
        return stats


def term_stats(
    corpus: Iterable[InteractionRecord], stopwords: Iterable[str] | None = None
) -> list[TermStats]:
    """The :class:`TextFold` term statistics of the corpus."""
    fold = TextFold(stopwords)
    for record in corpus:
        fold.add(record)
    return fold.result()


def top_terms(stats: Sequence[TermStats], k: int, order: str = "count") -> list[TermStats]:
    """Top-k terms by 'count' or 'salience', ties broken by term."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if order == "count":
        key = lambda s: (-s.mention_count, s.term)
    elif order == "salience":
        key = lambda s: (-s.salience, s.term)
    else:
        raise ValueError(f"unknown order: {order!r}")
    return sorted(stats, key=key)[:k]
