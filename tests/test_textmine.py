"""Tokenizing, sentiment, term statistics and the one-pass text stage.

``ref_sentiment``, ``ref_term_stats`` and ``ref_text_aggregates`` below are
the per-function code the one-pass :class:`TextFold` replaced, kept verbatim
apart from their ``ref_`` names (``ref_text_aggregates`` is the sentiment
part of the old ``text`` subcommand, which summed a list of scores). The
fold, and the ``text`` subcommand that runs it record by record, must
reproduce them bit for bit. ``ref_text_pass`` is that one pass as a loop
over a whole corpus, before :class:`TextFold` took one record at a time;
the fold must reproduce it bit for bit too.
"""

import io
import json
import math
import random
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from snsgraph.cli import main
from snsgraph.errors import EmptyCorpusError, LexiconError
from snsgraph.ingest import InteractionRecord, record_to_dict, write_corpus
from snsgraph.textmine import (
    Lexicon,
    SentimentSummary,
    TermStats,
    TextFold,
    _sentiment,
    handle_tokens,
    load_lexicon,
    sentiment,
    term_stats,
    tokenize,
    top_terms,
)

from conftest import make_record


# --- reference per-function code -------------------------------------------------

def ref_sentiment(text: str, lexicon: Lexicon) -> SentimentSummary:
    """Count lexicon matches in the text and score their balance."""
    pos = 0
    neg = 0
    for token in tokenize(text):
        if token in lexicon.positive:
            pos += 1
        elif token in lexicon.negative:
            neg += 1
    if pos + neg == 0:
        return SentimentSummary(0, 0, 0.0, neutral=True)
    return SentimentSummary(pos, neg, (pos - neg) / (pos + neg), neutral=False)


def ref_term_stats(
    corpus: Sequence[InteractionRecord], stopwords: Iterable[str] | None = None
) -> list[TermStats]:
    if not corpus:
        raise EmptyCorpusError("term statistics need a non-empty corpus")
    stop = {w.lower() for w in stopwords} if stopwords else set()

    counts: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    for record in corpus:
        tokens = [t for t in tokenize(record.text) if t not in stop]
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        # dict.fromkeys, not set: float normalization later sums in this
        # insertion order, which must not depend on hash randomization
        for token in dict.fromkeys(tokens):
            doc_freq[token] = doc_freq.get(token, 0) + 1

    total_docs = len(corpus)
    raw: dict[str, float] = {}
    for term, df in doc_freq.items():
        p = df / total_docs
        raw[term] = 0.0 if p >= 1.0 else p * math.log(1.0 / p)
    norm = sum(raw.values())

    stats = [
        TermStats(
            term=term,
            mention_count=counts[term],
            doc_frequency=doc_freq[term],
            salience=(raw[term] / norm) if norm > 0 else 0.0,
        )
        for term in counts
    ]
    stats.sort(key=lambda s: (-s.mention_count, s.term))
    return stats


def ref_text_aggregates(records, lexicon) -> dict:
    summaries = [ref_sentiment(r.text, lexicon) for r in records]
    scored = [s for s in summaries if not s.neutral]
    overall = {
        "records": len(records),
        "scored_records": len(scored),
        "positive_hits": sum(s.positive_hits for s in summaries),
        "negative_hits": sum(s.negative_hits for s in summaries),
        "mean_score": (
            sum(s.score for s in scored) / len(scored) if scored else 0.0
        ),
    }
    return overall


def ref_text_pass(
    corpus: Sequence[InteractionRecord], stopwords: Iterable[str] | None = None,
    lexicon: Lexicon | None = None,
) -> tuple[list[TermStats], list[SentimentSummary] | None]:
    if not corpus:
        raise EmptyCorpusError("term statistics need a non-empty corpus")
    stop = {w.lower() for w in stopwords} if stopwords else set()

    counts: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    sentiments = None if lexicon is None else []
    for record in corpus:
        tokens = tokenize(record.text)
        if lexicon is not None:
            sentiments.append(_sentiment(tokens, lexicon))
        if stop:
            tokens = [t for t in tokens if t not in stop]
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        # dict.fromkeys, not set: float normalization later sums in this
        # insertion order, which must not depend on hash randomization
        for token in dict.fromkeys(tokens):
            doc_freq[token] = doc_freq.get(token, 0) + 1

    total_docs = len(corpus)
    raw: dict[str, float] = {}
    for term, df in doc_freq.items():
        p = df / total_docs
        raw[term] = 0.0 if p >= 1.0 else p * math.log(1.0 / p)
    norm = sum(raw.values())

    stats = [
        TermStats(
            term=term,
            mention_count=counts[term],
            doc_frequency=doc_freq[term],
            salience=(raw[term] / norm) if norm > 0 else 0.0,
        )
        for term in counts
    ]
    stats.sort(key=lambda s: (-s.mention_count, s.term))
    return stats, sentiments


def fold_corpus(corpus, stopwords=None, lexicon=None):
    """The term statistics of a :class:`TextFold` over the corpus, and what its
    ``add`` returned for each record: a sentiment, or ``None`` with no lexicon."""
    fold = TextFold(stopwords, lexicon)
    summaries = [fold.add(record) for record in corpus]
    return fold.result(), summaries


def term_bits(stats):
    return [(s.term, s.mention_count, s.doc_frequency, s.salience.hex()) for s in stats]


WORDS = ["good", "great", "bad", "awful", "the", "a", "vote", "Vote", "VOTE", "rt",
         "#GE2017", "@alice", "x_y", "caf\u00e9", "", "!!", "meh", "3"]
TEXTS = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from([" ", ", ", "\n", "-", ""])),
    max_size=10,
).map(lambda parts: "".join(w + sep for w, sep in parts))
LEXICONS = st.sampled_from([
    None,
    Lexicon(frozenset({"good", "great"}), frozenset({"bad", "awful"})),
    Lexicon(frozenset({"good", "bad"}), frozenset({"bad", "awful"})),  # "bad" in both
    Lexicon(frozenset({"vote"}), frozenset()),
])
STOPWORDS = st.sampled_from([None, set(), {"the", "a"}, {"THE", "Vote"}, ["rt", "3"]])
# corpus lines the reader warns of and skips
MALFORMED = ["{not json", "[1]", '{"id": "3"}', '{"id": "4", "author": "a", "text": 5}']
# a wide vocabulary, so that the salience sum adds many terms in an order that shows
WIDE_TEXTS = st.lists(st.one_of(st.sampled_from(WORDS), st.text("abcdefgh", min_size=1,
                                                                  max_size=3)),
                      max_size=12).map(" ".join)


class TestTokenize:
    def test_retweet_line(self):
        assert tokenize("RT @UKLabour: Vote!") == ["rt", "uklabour", "vote"]

    def test_hashtag_stripped(self):
        assert tokenize("#GE2017") == ["ge2017"]

    def test_empty(self):
        assert tokenize("") == []

    def test_order_preserved_and_lowercased(self):
        assert tokenize("Labour beats Tory, again") == ["labour", "beats", "tory", "again"]

    def test_underscore_splits(self):
        assert tokenize("snap_election") == ["snap", "election"]

    def test_handle_tokens_example(self):
        assert handle_tokens(["jane_doe", "Stra\u00dfe"]) == {"jane", "doe", "strasse"}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text("aBz09_@ \u00e9\u00c9\u03a3\u03c3\u03c2\u00df\u0130"), max_size=5))
    def test_handle_tokens_are_casefolded_tokenize_tokens(self, values):
        assert handle_tokens(values) == {t.casefold() for v in values for t in tokenize(v)}


class TestLoadLexicon:
    def test_basic_sizes(self):
        lex = load_lexicon(io.StringIO("good\ngreat\n"), io.StringIO("bad\n"))
        assert lex.positive == {"good", "great"}
        assert lex.negative == {"bad"}

    def test_comment_lines_ignored(self):
        pos = io.StringIO("; a header comment\n;;\n\ngood\n")
        lex = load_lexicon(pos, io.StringIO("bad\n"))
        assert lex.positive == {"good"}

    def test_conflict_dropped_from_both(self):
        lex = load_lexicon(io.StringIO("fine\ngood\n"), io.StringIO("fine\nbad\n"))
        assert "fine" not in lex.positive
        assert "fine" not in lex.negative
        assert lex.dropped_conflicts == ("fine",)

    def test_empty_lexicon_raises(self):
        with pytest.raises(LexiconError):
            load_lexicon(io.StringIO("; nothing\n"), io.StringIO(""))

    def test_words_lowercased(self):
        lex = load_lexicon(io.StringIO("GOOD\n"), io.StringIO("Bad\n"))
        assert lex.positive == {"good"}
        assert lex.negative == {"bad"}


LEX = Lexicon(frozenset({"good", "great"}), frozenset({"bad", "awful"}))


class TestSentiment:
    def test_all_positive(self):
        summary = sentiment("good great day", LEX)
        assert (summary.positive_hits, summary.negative_hits) == (2, 0)
        assert summary.score == 1.0
        assert not summary.neutral

    def test_balanced(self):
        summary = sentiment("good bad", LEX)
        assert summary.score == 0.0
        assert not summary.neutral

    def test_no_hits_neutral(self):
        summary = sentiment("the quick fox", LEX)
        assert summary.score == 0.0
        assert summary.neutral

    def test_score_bounded(self):
        summary = sentiment("bad awful bad", LEX)
        assert summary.score == -1.0

    @given(st.lists(st.sampled_from(["good", "great", "bad", "awful", "meh"]), max_size=20))
    def test_flipping_lexicon_negates_score(self, words):
        text = " ".join(words)
        flipped = Lexicon(LEX.negative, LEX.positive)
        assert sentiment(text, flipped).score == pytest.approx(-sentiment(text, LEX).score)


class TestTermStats:
    def test_zero_salience_iff_term_in_every_record(self):
        corpus = [make_record(i, "a", text=f"everywhere filler{i}") for i in range(4)]
        stats = {s.term: s for s in term_stats(corpus)}
        assert stats["everywhere"].doc_frequency == 4
        assert stats["everywhere"].salience == 0.0
        for term, s in stats.items():
            if term != "everywhere":
                assert s.salience > 0.0

    def test_entropy_symmetry_quarter_vs_half(self):
        # x in 1 of 4 records, y in 2 of 4: p ln(1/p) is equal at 1/4 and 1/2
        corpus = [
            make_record(0, "a", text="x y"),
            make_record(1, "a", text="y"),
            make_record(2, "a", text="z"),
            make_record(3, "a", text="z"),
        ]
        stats = {s.term: s for s in term_stats(corpus)}
        raw = 0.25 * math.log(4)
        assert raw == pytest.approx(0.346574, abs=1e-6)
        assert stats["x"].salience == pytest.approx(stats["y"].salience, abs=1e-12)

    def test_salience_sums_to_one(self):
        rng = random.Random(4)
        vocab = [f"w{i}" for i in range(30)]
        corpus = [
            make_record(i, "a", text=" ".join(rng.sample(vocab, rng.randint(1, 8))))
            for i in range(50)
        ]
        stats = term_stats(corpus)
        assert sum(s.salience for s in stats) == pytest.approx(1.0, abs=1e-9)
        assert all(s.salience >= 0 for s in stats)

    def test_count_salience_inversion(self):
        # one term in >90% of records (many times), one in ~30%
        corpus = []
        for i in range(100):
            text = "rt rt rt" if i < 95 else "filler"
            if i % 10 < 3:
                text += " vote"
            corpus.append(make_record(i, "a", text=text))
        stats = {s.term: s for s in term_stats(corpus)}
        assert stats["rt"].mention_count > stats["vote"].mention_count
        assert stats["vote"].salience > stats["rt"].salience

    def test_sorted_by_count_descending(self):
        corpus = [make_record(0, "a", text="b b b a a c")]
        assert [s.term for s in term_stats(corpus)] == ["b", "a", "c"]

    def test_doc_frequency_le_mention_count(self):
        corpus = [make_record(i, "a", text="dup dup other") for i in range(3)]
        for s in term_stats(corpus):
            assert 1 <= s.doc_frequency <= s.mention_count

    def test_reorder_invariant(self):
        corpus = [make_record(i, "a", text=t) for i, t in
                  enumerate(["x y", "y z", "z x", "x"])]
        base = term_stats(corpus)
        again = term_stats(list(reversed(corpus)))
        assert base == again

    def test_stopwords_excluded(self):
        corpus = [make_record(0, "a", text="the vote"), make_record(1, "a", text="the")]
        stats = {s.term for s in term_stats(corpus, stopwords={"the"})}
        assert stats == {"vote"}

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            term_stats([])


class TestTopTerms:
    def _stats(self):
        corpus = [
            make_record(0, "a", text="alpha alpha beta"),
            make_record(1, "a", text="alpha gamma"),
            make_record(2, "a", text="delta"),
        ]
        return term_stats(corpus)

    def test_top_by_count(self):
        ranked = top_terms(self._stats(), 2, order="count")
        assert [t.term for t in ranked] == ["alpha", "beta"]

    def test_count_tie_lexicographic(self):
        ranked = top_terms(self._stats(), 4, order="count")
        assert [t.term for t in ranked] == ["alpha", "beta", "delta", "gamma"]

    def test_top_by_salience(self):
        ranked = top_terms(self._stats(), 99, order="salience")
        saliences = [t.salience for t in ranked]
        assert saliences == sorted(saliences, reverse=True)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            top_terms(self._stats(), 0)
        with pytest.raises(ValueError):
            top_terms(self._stats(), 1, order="weird")


class TestTextPassAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TEXTS, max_size=12), STOPWORDS, LEXICONS)
    def test_terms_and_sentiments_bit_for_bit(self, texts, stopwords, lexicon):
        corpus = [make_record(i, "a", text=t) for i, t in enumerate(texts)]
        if not corpus:
            with pytest.raises(EmptyCorpusError):
                fold_corpus(corpus, stopwords, lexicon)
            return
        stats, sentiments = fold_corpus(corpus, stopwords, lexicon)
        want = term_bits(ref_term_stats(corpus, stopwords))
        assert term_bits(stats) == want
        assert term_bits(term_stats(corpus, stopwords)) == want
        if lexicon is None:
            assert sentiments == [None] * len(corpus)
            return
        ref = [ref_sentiment(r.text, lexicon) for r in corpus]
        assert sentiments == ref
        assert [s.score.hex() for s in sentiments] == [s.score.hex() for s in ref]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TEXTS, max_size=12), STOPWORDS, LEXICONS.filter(lambda lex: lex is not None))
    def test_fold_counts_match_the_reference_aggregates(self, texts, stopwords, lexicon):
        corpus = [make_record(i, "a", text=t) for i, t in enumerate(texts)]
        fold = TextFold(stopwords, lexicon)
        for record in corpus:
            fold.add(record)
        want = ref_text_aggregates(corpus, lexicon)
        assert (fold.records, fold.scored_records, fold.positive_hits, fold.negative_hits) == (
            want["records"], want["scored_records"], want["positive_hits"], want["negative_hits"])

    def test_text_command_aggregates(self, tmp_path):
        texts = ["good vote", "bad bad good", "", "meh", "great awful", "GOOD!", "the"]
        corpus = [make_record(i, "a", text=t) for i, t in enumerate(texts)]
        write_corpus(corpus, tmp_path / "c.jsonl")
        (tmp_path / "pos.txt").write_text("good\ngreat\n")
        (tmp_path / "neg.txt").write_text("bad\nawful\n")
        lexicon = load_lexicon(tmp_path / "pos.txt", tmp_path / "neg.txt")
        assert main(["text", "--input", str(tmp_path / "c.jsonl"), "--stopwords",
                     str(tmp_path / "pos.txt"), "--lexicon-pos", str(tmp_path / "pos.txt"),
                     "--lexicon-neg", str(tmp_path / "neg.txt"), "--out", str(tmp_path)]) == 0
        got = (tmp_path / "sentiment.json").read_text(encoding="utf-8")
        assert got == json.dumps(ref_text_aggregates(corpus, lexicon), indent=2) + "\n"
        terms = (tmp_path / "terms.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert terms == [f"{s.term},{s.mention_count},{s.salience!r}" for s in
                         ref_term_stats(corpus, {"good", "great"})]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.tuples(TEXTS, st.booleans()), st.sampled_from(MALFORMED)),
                    max_size=12), STOPWORDS, LEXICONS)
    # scores 1/3, 1, 1: a plain left-to-right total gives ...777, a compensated one (math.fsum,
    # or sum() from Python 3.12) ...778, so the CLI must add its scores as sum() does
    @example([("good good bad", True), "{not json", ("bad", False), ("good", True),
              ("good", True)], None, LEX)
    def test_text_command_matches_the_reference(self, items, stopwords, lexicon):
        # malformed lines and off-topic records among the kept ones, read as the CLI streams them
        lines, kept = [], []
        for i, item in enumerate(items):
            if isinstance(item, str):
                lines.append(item)
                continue
            text, on_topic = item
            record = make_record(i, "a", text=text, hashtags=["ge2017" if on_topic else "other"])
            lines.append(json.dumps(record_to_dict(record), ensure_ascii=False))
            if on_topic:
                kept.append(record)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "c.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            args = ["text", "--input", str(tmp / "c.jsonl"), "--topic", "ge2017",
                    "--top", "1000", "--out", str(tmp / "out")]
            if stopwords is not None:
                (tmp / "stop.txt").write_text("".join(w + "\n" for w in stopwords))
                args += ["--stopwords", str(tmp / "stop.txt")]
            if lexicon is not None:
                for name, words in (("pos", lexicon.positive), ("neg", lexicon.negative)):
                    (tmp / f"{name}.txt").write_text("".join(w + "\n" for w in sorted(words)))
                args += ["--lexicon-pos", str(tmp / "pos.txt"),
                         "--lexicon-neg", str(tmp / "neg.txt")]
            code = main(args)
            if not kept:
                assert code == 2
                return
            assert code == 0
            terms = (tmp / "out" / "terms.csv").read_text(encoding="utf-8").splitlines()
            assert terms == ["term,mention_count,salience"] + [
                f"{s.term},{s.mention_count},{s.salience!r}"
                for s in ref_term_stats(kept, stopwords)]
            sentiment_json = tmp / "out" / "sentiment.json"
            if lexicon is None:
                assert not sentiment_json.exists()
                return
            loaded = load_lexicon(tmp / "pos.txt", tmp / "neg.txt")
            assert sentiment_json.read_text(encoding="utf-8") == (
                json.dumps(ref_text_aggregates(kept, loaded), indent=2) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WIDE_TEXTS, max_size=30), STOPWORDS, LEXICONS)
    def test_fold_matches_the_whole_corpus_loop(self, texts, stopwords, lexicon):
        corpus = [make_record(i, "a", text=t) for i, t in enumerate(texts)]
        if not corpus:
            with pytest.raises(EmptyCorpusError):
                TextFold(stopwords, lexicon).result()
            with pytest.raises(EmptyCorpusError):
                term_stats(iter(corpus), stopwords)
            return
        want_stats, want_sentiments = ref_text_pass(corpus, stopwords, lexicon)
        want = [(s.term, s.mention_count, s.doc_frequency, repr(s.salience)) for s in want_stats]
        fold = TextFold(stopwords, lexicon)  # one record at a time, as the CLI feeds it
        summaries = [fold.add(record) for record in corpus]
        for got in (fold.result(), term_stats(iter(corpus), stopwords)):  # a one-shot iterator too
            assert [(s.term, s.mention_count, s.doc_frequency, repr(s.salience))
                    for s in got] == want
        if lexicon is None:
            assert summaries == [None] * len(corpus)
        else:
            assert summaries == want_sentiments
            assert [repr(s.score) for s in summaries] == [repr(s.score) for s in want_sentiments]

    @given(TEXTS, LEXICONS.filter(lambda lex: lex is not None))
    def test_sentiment_matches_reference(self, text, lexicon):
        assert sentiment(text, lexicon) == ref_sentiment(text, lexicon)

    def test_stopwords_leave_sentiment_alone(self):
        corpus = [make_record(0, "a", text="the good the bad good")]
        stats, (summary,) = fold_corpus(corpus, {"good"}, LEX)
        assert [t.term for t in stats] == ["the", "bad"]
        assert (summary.positive_hits, summary.negative_hits) == (2, 1)

    def test_one_tokenization_per_record(self, monkeypatch):
        import snsgraph.textmine as textmine

        seen = []
        monkeypatch.setattr(textmine, "tokenize", lambda text: seen.append(text) or tokenize(text))
        corpus = [make_record(i, "a", text=f"good vote {i}") for i in range(5)]
        fold_corpus(corpus, {"vote"}, LEX)
        assert seen == [r.text for r in corpus]
