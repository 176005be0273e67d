"""Corpus parsing, topic filtering and graph building.

``ref_record_from_dict`` and ``ref_parse_corpus`` below are the parser the
interning one replaced, kept verbatim apart from their ``ref_`` names and
``ref_array``, the later rule that a list field is an array or null. The
interning parser must give equal records and equal diagnostics.
"""

import ast
import io
import json
import random
import re
import sys
import tracemalloc
from datetime import datetime
from pathlib import Path
from typing import IO, Union

import pytest
from hypothesis import given, settings, strategies as st

import snsgraph.ingest
from snsgraph.errors import EmptyCorpusError
from snsgraph.ingest import (
    HELD_DIAGNOSTICS,
    InteractionRecord,
    ParseDiagnostic,
    TopicFilter,
    _normalize_tag,
    build_graph,
    filter_topic,
    iter_corpus,
    parse_corpus,
    parse_rfc3339,
    record_to_dict,
    text_lines,
    utc,
    utf8,
    write_corpus,
)
from snsgraph.model import Handle, InteractionKind

from conftest import make_record, record_from_dict, write_jsonl


# --- reference parser -----------------------------------------------------------

def _ref_normalize_tag(tag) -> str:
    return str(tag).strip().lstrip("#").lower()


def ref_array(obj: dict, key: str) -> list:
    value = obj.get(key)
    if value is not None and not isinstance(value, list):
        raise ValueError(f"field {key!r} must be an array or null, got {type(value).__name__}")
    return value or []


def ref_record_from_dict(obj: dict) -> InteractionRecord:
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
    hashtags = tuple(_ref_normalize_tag(t) for t in ref_array(obj, "hashtags")
                     if _ref_normalize_tag(t))
    reply_raw = obj.get("in_reply_to")
    in_reply_to = Handle(str(reply_raw)) if reply_raw else None
    mentions = tuple(Handle(str(m)) for m in ref_array(obj, "mentions"))
    follows = tuple(Handle(str(f)) for f in ref_array(obj, "follows"))
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


def ref_parse_corpus(
    source: Union[str, Path, IO[str]], format: str = "json-lines"
) -> tuple[list[InteractionRecord], list[ParseDiagnostic]]:
    if format != "json-lines":
        raise ValueError(f"unsupported corpus format: {format!r}")
    if isinstance(source, (str, Path)):
        # Undecodable bytes become lone surrogates, caught per line below.
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return ref_parse_corpus(fh, format=format)

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
            records.append(ref_record_from_dict(obj))
        except UnicodeEncodeError as exc:
            diagnostics.append(ParseDiagnostic(line_no, f"not UTF-8 at column {exc.start + 1}"))
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
    if not records:
        raise EmptyCorpusError("corpus contains no well-formed records")
    return records, diagnostics


# Raw values chosen to collide after normalization, to fail, or both; the
# reference accepts code points the new Handle rejects, so none appear here.
HANDLES = ["alice", "@Alice", "ALICE", " alice ", "bob", "@bob", "@", "", "  ", 7, 7.0,
           True, ["x"], {"k": 1}, "caf\u00e9"]
STAMPS = ["2017-04-21T10:00:00Z", "2017-04-21T10:00:00z", "2017-04-21T11:00:00+01:00",
          "2017-04-21T10:00:00", " 2017-04-21T10:01:00Z ", "2017-13-01T00:00:00Z",
          "not a time", "", 12, ["2017"]]
TAGS = ["GE2017", "#ge2017", " ge2017 ", "#", " ", "", "Brexit", 7, None, ["t"]]
FIELD_VALUES = {
    "id": st.one_of(st.sampled_from(["1", "2", "r1"]), st.integers(0, 3)),
    "author": st.one_of(st.sampled_from(HANDLES), st.none()),
    "text": st.one_of(st.text(max_size=12), st.none(), st.integers(0, 2)),
    "hashtags": st.one_of(st.lists(st.sampled_from(TAGS), max_size=4), st.none(),
                          st.sampled_from(["ge2017", 5])),
    "in_reply_to": st.one_of(st.none(), st.sampled_from(HANDLES)),
    "mentions": st.one_of(st.lists(st.sampled_from(HANDLES), max_size=3), st.none(),
                          st.just(3)),
    "follows": st.lists(st.sampled_from(HANDLES), max_size=2),
    "timestamp": st.one_of(st.sampled_from(STAMPS), st.none()),
}
REQUIRED = ("id", "author", "timestamp")
WHOLE = st.fixed_dictionaries(
    {k: v for k, v in FIELD_VALUES.items() if k in REQUIRED},
    optional={k: v for k, v in FIELD_VALUES.items() if k not in REQUIRED},
).map(json.dumps)
LINES = st.one_of(
    WHOLE, WHOLE, WHOLE,
    st.fixed_dictionaries({}, optional=FIELD_VALUES).map(json.dumps),
    st.sampled_from(["{not json", "[1, 2]", '"record"', "null", "", "   ", "{}"]),
)


def parsed_or_error(parse, text):
    try:
        return parse(io.StringIO(text))
    except EmptyCorpusError as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(LINES, max_size=12), st.booleans())
    def test_equal_records_and_diagnostics(self, lines, one_good):
        # Most random lines fail; one good line makes the diagnostics count.
        text = "".join(line + "\n" for line in lines + [json.dumps(GOOD_LINE)] * one_good)
        assert parsed_or_error(parse_corpus, text) == parsed_or_error(ref_parse_corpus, text)

    def test_every_failing_line_reported(self):
        # A value that fails to parse is not interned: each line naming it
        # gets its own diagnostic, as the reference gives.
        rows = [GOOD_LINE, dict(GOOD_LINE, author="@"), dict(GOOD_LINE, timestamp="bad"),
                dict(GOOD_LINE, author="@"), dict(GOOD_LINE, timestamp="bad")]
        text = "".join(json.dumps(r) + "\n" for r in rows)
        got = parse_corpus(io.StringIO(text))
        assert got == ref_parse_corpus(io.StringIO(text))
        assert [d.line_no for d in got[1]] == [2, 3, 4, 5]

    def test_records_naming_one_handle_share_one_object(self):
        rows = [dict(GOOD_LINE, id="1", author="Alice", mentions=["bob"]),
                dict(GOOD_LINE, id="2", author="Alice", mentions=["bob"], in_reply_to="Alice"),
                dict(GOOD_LINE, id="3", author="bob", follows=["Alice", "@alice"])]
        (a, b, c), _ = parse_corpus(as_stream(rows))
        assert a.author is b.author is b.in_reply_to is c.follows[0]
        assert a.mentions[0] is b.mentions[0] is c.author
        assert c.follows[1] == c.follows[0]  # another raw string, an equal handle
        assert a.hashtags[0] is b.hashtags[0]


class TestHostileCodePoints:
    @pytest.mark.parametrize("raw", ["a\u0001b", "a\ud800b", "\udfffa", "a\ufffe", "x\uffff"])
    def test_handle_outside_xml_is_a_diagnostic(self, raw):
        line = json.dumps(dict(GOOD_LINE, id="2", mentions=[raw]))
        records, diags = parse_corpus(as_stream([GOOD_LINE, line]))
        assert [r.id for r in records] == ["1"]
        assert [d.line_no for d in diags] == [2]
        assert "XML 1.0 forbids" in diags[0].reason

    @pytest.mark.parametrize("field, value", [
        ("id", "r\ud800"), ("text", "hi \udc80 there"), ("hashtags", ["ge\ud83d"]),
    ])
    def test_lone_surrogate_in_a_string_field_is_a_diagnostic(self, field, value):
        line = json.dumps({**GOOD_LINE, "id": "2", field: value})
        assert "\\u" in line
        records, diags = parse_corpus(as_stream([GOOD_LINE, line]))
        assert [r.id for r in records] == ["1"]
        assert [d.line_no for d in diags] == [2]
        assert "lone surrogate" in diags[0].reason

    def test_surrogate_pair_and_tab_are_kept(self):
        line = json.dumps(dict(GOOD_LINE, text="\U0001f600\tok", author="a\tb"))
        (record,), diags = parse_corpus(as_stream([line]))
        assert diags == [] and record.text == "\U0001f600\tok"
        assert record.author.value == "a\tb"

    def test_lines_without_an_escape_skip_the_surrogate_check(self, monkeypatch):
        calls = []

        class Spy:
            def search(self, text):
                calls.append(text)

        monkeypatch.setattr(snsgraph.ingest, "_SURROGATE", Spy())
        parse_corpus(as_stream([GOOD_LINE, dict(GOOD_LINE, id="2", text="caf\u00e9")]))
        assert len(calls) == 1  # json.dumps escapes the \u00e9 of line 2 only


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

    @pytest.mark.parametrize("field, value", [
        ("mentions", "alice"), ("hashtags", "ge2017"), ("mentions", {"bob": 1}),
    ])
    def test_list_field_that_is_not_an_array_is_a_diagnostic(self, field, value):
        line = json.dumps({**GOOD_LINE, "id": "2", field: value})
        records, diags = parse_corpus(as_stream([GOOD_LINE, line, dict(GOOD_LINE, mentions=None)]))
        assert [r.id for r in records] == ["1", "1"]
        assert [d.line_no for d in diags] == [2]
        assert repr(field) in diags[0].reason and "array" in diags[0].reason

    def test_out_of_range_or_deeply_nested_line_is_diagnostic(self):
        rows = [GOOD_LINE, dict(GOOD_LINE, id="2", timestamp="9999-12-31T23:59:59-23:59"),
                "[" * 100_000 + "]" * 100_000,
                dict(GOOD_LINE, id="4", timestamp="0001-01-01T00:00:00+23:59"),
                dict(GOOD_LINE, id="5", timestamp="9999-12-31T23:59:59+23:59")]
        records, diags = parse_corpus(as_stream(rows))
        assert [r.id for r in records] == ["1", "5"]
        assert records[1].timestamp == parse_rfc3339("9999-12-31T00:00:59Z")
        assert [d.line_no for d in diags] == [2, 3, 4]
        assert diags[0].reason == "timestamp 9999-12-31T23:59:59-23:59 is out of range in UTC"
        assert diags[1].reason.startswith("maximum recursion depth exceeded")
        assert diags[2].reason == "timestamp 0001-01-01T00:00:00+23:59 is out of range in UTC"

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


class TestIterCorpus:
    def test_records_and_diagnostics_in_line_order(self):
        rows = [GOOD_LINE, "{not json", dict(GOOD_LINE, id="2"), "[1]", dict(GOOD_LINE, id="3")]
        items = list(iter_corpus(as_stream(rows)))
        assert [i.line_no if isinstance(i, ParseDiagnostic) else i.id for i in items] == [
            "1", 2, "2", 4, "3"]
        assert parse_corpus(as_stream(rows)) == (
            [i for i in items if isinstance(i, InteractionRecord)],
            [i for i in items if isinstance(i, ParseDiagnostic)])

    @staticmethod
    def counted(lines, read):
        """``lines`` as a corpus stream that appends each line to ``read`` as it is taken."""
        return (read.append(line) or line for line in lines)

    def test_diagnostics_before_the_first_record_wait_for_it(self):
        lines, read = ["{not json\n", "[1]\n", json.dumps(GOOD_LINE) + "\n", "null\n"], []
        items = iter_corpus(self.counted(lines, read))
        assert next(items).line_no == 1 and len(read) == 3  # line 3 read first
        assert [getattr(i, "line_no", None) for i in items] == [2, None, 4]

    def test_no_good_line_yields_nothing_and_raises_once_read(self):
        items = iter_corpus(as_stream(["{not json", "[1]"]))
        with pytest.raises(EmptyCorpusError, match="no well-formed records"):
            next(items)

    def test_at_most_1024_diagnostics_wait_for_the_first_record(self):
        assert HELD_DIAGNOSTICS == 1024
        read = []
        items = iter_corpus(self.counted(["[1]\n"] * 2000 + [json.dumps(GOOD_LINE) + "\n"], read))
        assert next(items).line_no == 1 and len(read) <= 1025
        rest = list(items)
        assert [i.line_no for i in rest[:-1]] == list(range(2, 2001))
        assert isinstance(rest[-1], InteractionRecord) and len(read) == 2001

    @pytest.mark.parametrize("bad_lines, yielded", [(1024, 0), (1025, 1025)])
    def test_no_good_line_yields_its_diagnostics_only_past_the_cap(self, bad_lines,
                                                                     yielded):
        read, got = [], []
        with pytest.raises(EmptyCorpusError, match="no well-formed records"):
            for item in iter_corpus(self.counted(["[1]\n"] * bad_lines, read)):
                got.append(item)
        assert [d.line_no for d in got] == list(range(1, yielded + 1))
        assert len(read) == bad_lines


def test_astimezone_is_called_only_in_utc():
    # One UTC rule: every outside timestamp reaches UTC through ingest.utc.
    callers = []
    for path in sorted(Path(snsgraph.ingest.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {id(node): f.name for f in ast.walk(tree)
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(f)}
        callers += [(path.name, scopes.get(id(node))) for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astimezone"]
    assert callers == [("ingest.py", "utc")]


def ref_parse_rfc3339(value: str) -> datetime:
    """The timestamp reader before fractions were padded or cut, verbatim: from
    3.11 on, ``fromisoformat`` itself reads a fraction of any length."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return utc(datetime.fromisoformat(text))


# (value as written, its isoformat() as Python 3.11 reads it); the seeds job of
# the CI workflow pins the same pairs on 3.10, 3.12 and 3.13
RFC3339_CASES = [
    ("2017-04-21T10:00:00.5Z", "2017-04-21T10:00:00.500000+00:00"),
    ("2017-04-21T10:00:00.12Z", "2017-04-21T10:00:00.120000+00:00"),
    ("2017-04-21T10:00:00.123Z", "2017-04-21T10:00:00.123000+00:00"),
    ("2017-04-21T10:00:00.1234Z", "2017-04-21T10:00:00.123400+00:00"),
    ("2017-04-21T10:00:00.12345Z", "2017-04-21T10:00:00.123450+00:00"),
    ("2017-04-21T10:00:00.123456Z", "2017-04-21T10:00:00.123456+00:00"),
    ("2017-04-21T10:00:00.1234567Z", "2017-04-21T10:00:00.123456+00:00"),
    ("2017-04-21T10:00:00.12345678Z", "2017-04-21T10:00:00.123456+00:00"),
    ("2017-04-21T10:00:00.999999999Z", "2017-04-21T10:00:00.999999+00:00"),
    ("2017-04-21T10:00:00.5z", "2017-04-21T10:00:00.500000+00:00"),
    ("2017-04-21T10:00:00.5+05:30", "2017-04-21T04:30:00.500000+00:00"),
    ("2017-04-21T10:00:00.25-00:00", "2017-04-21T10:00:00.250000+00:00"),
    ("2017-04-21T10:00:00Z", "2017-04-21T10:00:00+00:00"),
]


class FromIsoformatAs310(datetime):
    """``datetime`` whose ``fromisoformat`` refuses a fraction of a second that
    is not 3 or 6 digits long, as Python 3.10's does."""

    @classmethod
    def fromisoformat(cls, text):
        fraction = re.search(r"\.(\d*)", text)
        if fraction and len(fraction[1]) not in (3, 6):
            raise ValueError(f"Invalid isoformat string: {text!r}")
        return datetime.fromisoformat(text)


def outcome(parse, value):
    try:
        return parse(value).isoformat()
    except ValueError:
        return ValueError


@st.composite
def iso_strings(draw):
    """Date, time, fraction and offset forms, RFC 3339's and wider ISO 8601's."""
    date = draw(st.sampled_from(["2017-04-21", "20170421", "9999-12-31", "0001-01-01", "2017-13-01"]))
    time = draw(st.sampled_from(["", "T10", "T10:00", "T10:00:00", "T100000", "t23:59:59", " 1:00:00"]))
    fraction = draw(st.sampled_from(["", ".", ","])) + draw(st.text("0123456789", max_size=9))
    fraction += draw(st.sampled_from(["", "", "x", " "]))  # 3.11 takes junk after 6 digits
    offset = draw(st.sampled_from(
        ["", "Z", "z", "+05:30", "-00:00", "+0530", "-23:59", "+23:59", "+05:30:00.5", "x"]))
    return date + time + fraction + offset


class TestParseRfc3339:
    @pytest.mark.parametrize("value, want", RFC3339_CASES)
    def test_fractions_of_any_length_read_as_on_3_11(self, monkeypatch, value, want):
        assert parse_rfc3339(value).isoformat() == want
        monkeypatch.setattr(snsgraph.ingest, "datetime", FromIsoformatAs310)
        assert parse_rfc3339(value).isoformat() == want

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 reads 3 or 6 digits only")
    @pytest.mark.parametrize("value", [
        "2017-04-21", "2017-04-21T10:00Z", "9999-12-31T23:59:59-23:59", "2017-13-01T00:00:00Z",
        "20170421T100000Z", "2017-04-21T10:00:00,5Z", "2017-04-21T10:00:00+0530",
        "2017-04-21T10:00:00.+00:00", "2017-04-21T10:00:00.5x", "2017-04-21T10:00:00.5x+01:00",
        "2017-04-21T10:00:00.1234567x+01:00", " 2017-04-21T10:00:00.5Z ",
        "", "not a time",
    ])
    def test_other_inputs_read_as_before(self, value):
        assert outcome(parse_rfc3339, value) == outcome(ref_parse_rfc3339, value)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 reads 3 or 6 digits only")
    @settings(max_examples=300, deadline=None)
    @given(iso_strings())
    def test_drawn_inputs_read_as_before(self, value):
        assert outcome(parse_rfc3339, value) == outcome(ref_parse_rfc3339, value)

    @pytest.mark.parametrize("value", ["2017-04-21T10:00:00.5xZ", " 2017-04-21T10:0Z"])
    def test_error_quotes_the_value_as_written(self, value):
        with pytest.raises(ValueError, match=re.escape(f"Invalid isoformat string: {value.strip()!r}")):
            parse_rfc3339(value)

    def test_a_fraction_survives_the_corpus_reader(self):
        records, diags = parse_corpus(as_stream([dict(GOOD_LINE, timestamp="2017-04-21T10:00:00.5Z")]))
        assert diags == []
        assert records[0].timestamp.isoformat() == "2017-04-21T10:00:00.500000+00:00"


class TestTextLines:
    BODY = b"one\r\n\n  two  \rthree" + "\u2028".encode() + b"x\nf\xffour\r\n"

    def test_one_rule_for_paths_bytes_and_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(self.BODY)
        want = [(1, "one"), (3, "two"), (4, "three\u2028x"), (5, "f\udcffour")]
        assert list(text_lines(self.BODY)) == want  # LF, CR and CRLF end a line; U+2028 does not
        assert list(text_lines(path)) == list(text_lines(str(path))) == want
        text_in = ["one\n", "\n", "  two  \n", "three\u2028x\n", "f\udcffour\n"]
        assert list(text_lines(text_in)) == want

    def test_utf8_names_the_column_of_an_undecodable_byte(self):
        assert utf8("caf\u00e9") == "caf\u00e9"
        with pytest.raises(ValueError, match="^not UTF-8 at column 2$"):
            utf8(dict(text_lines(self.BODY))[5])


# Raw values made of the characters the normalizations strip, and a few others.
MARKED = st.text(alphabet="#@ \t\u3000aB\u00c9", max_size=6)


class TestNormalizationIsIdempotent:
    @given(MARKED)
    def test_tag(self, raw):
        once = _normalize_tag(raw)
        assert _normalize_tag(once) == once
        assert not once or TopicFilter.of(raw).tags == {once}

    @given(MARKED)
    def test_handle(self, raw):
        try:
            once = Handle(raw)
        except ValueError:
            return
        assert Handle(once.value).value == once.value
        assert Handle(once.display()) == once

    def test_a_space_after_the_mark_is_stripped(self):
        assert _normalize_tag(" # Brexit ") == "brexit"
        assert Handle("@ Alice").value == "alice"

    @settings(max_examples=200, deadline=None)
    @given(MARKED, st.lists(MARKED, max_size=3), st.lists(MARKED, max_size=2))
    def test_parse_write_parse_is_stable(self, author, hashtags, mentions):
        line = json.dumps(dict(GOOD_LINE, author=author, hashtags=hashtags, mentions=mentions))
        try:
            records, _ = parse_corpus([line])
        except EmptyCorpusError:
            return
        sink = io.StringIO()
        write_corpus(records, sink)
        again, diagnostics = parse_corpus(io.StringIO(sink.getvalue()))
        assert again == records and diagnostics == []


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

    def test_build_holds_under_240_bytes_per_interaction(self, tmp_path):
        # The desk corpus's on-topic records. Counting edges in a dict keyed on
        # tuples, and indexing them with np.unique, peaked at 284-295 B per
        # interaction; one packed int64 each and one sort peak near 191 B.
        from test_acceptance import synthetic_corpus

        synthetic_corpus(tmp_path / "desk.jsonl")
        topic = TopicFilter.of("ge2017")
        kept = [r for r in parse_corpus(tmp_path / "desk.jsonl")[0] if topic.keeps(r)]
        tracemalloc.start()
        try:
            _, stats = build_graph(kept)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.interactions > 10_000
        assert peak / stats.interactions < 240, peak / stats.interactions

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

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"),
                              st.sampled_from(["reply", "mention", "follow"])), max_size=25))
    def test_a_generator_builds_the_graph_a_list_does(self, acts):
        # `report` hands build_graph a generator that reads the corpus as it goes
        records = [make_record(i, src, **({"in_reply_to": dst} if kind == "reply" else
                                          {"mentions" if kind == "mention" else "follows": [dst]}))
                   for i, (src, dst, kind) in enumerate(acts)]
        graph, stats = build_graph(records)
        streamed, streamed_stats = build_graph(record for record in records)
        assert (streamed, streamed_stats) == (graph, stats)
        assert streamed.nodes == graph.nodes  # node order too

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
