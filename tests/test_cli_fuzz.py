"""The CLI's exit-code contract under hostile input.

Each drawn case writes its input files to a fresh directory and runs
``python -m snsgraph.cli`` there, in a child process whose address space
is limited to 1.5 GB. Whatever the input, the child must exit 0, 1 or 2,
with no ``Traceback`` and no ``MemoryError`` on stderr. The ``@example``
cases pin inputs that once ended in a traceback.

A continuous collector run is fuzzed the same way: a drawn config runs for
a few cycles on a fake clock whose every sleep rewrites the corpus, until a
sleep with no corpus left stops it as Ctrl-C does.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import snsgraph

LIMIT = 1536 * 2**20  # bytes of address space the child may map
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1",
           PYTHONPATH=str(Path(snsgraph.__file__).resolve().parents[1]))

GOOD = {"id": "1", "author": "alice", "text": "great #GE2017", "hashtags": ["GE2017"],
        "in_reply_to": "bob", "mentions": ["bob"], "follows": ["carol"],
        "timestamp": "2017-04-21T10:00:00Z"}
DEEP = "[" * 100_000 + "]" * 100_000
LATE, EARLY = '"9999-12-31T23:59:59-23:59"', '"0001-01-01T00:00:00+23:59"'  # no UTC value

# Hostile JSON values, as JSON text: wrong types, lone surrogates, C0
# controls, huge integers, timestamps out of range in UTC, deep nesting.
HOSTILE = st.sampled_from([
    "null", "true", "7", "-2.5", "[]", "{}", '["x", 1]', '{"a": 1}', "[[[[1]]]]",
    '"\\ud800"', '"a\\udc00b"', '"\\u0000"', '"a\\u0001b"', '"\\u001f"', '""', '" "',
    "1" + "0" * 400, "-" + "9" * 4000, "1e400",
    LATE, EARLY, '"2017-04-21T10:00:00"', '"2017-02-30T10:00:00Z"',
    '"Fri, 31 Dec 9999 23:59:59 -2359"', DEEP,
])


def json_object(fields: dict) -> str:
    """A JSON object whose values are given as JSON text."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


def corpus_line(i: int, field: str | None = None, value: str | None = None) -> str:
    row = {k: json.dumps(v) for k, v in dict(GOOD, id=str(i), author=f"u{i % 3}",
                                             mentions=[f"u{(i + 1) % 3}"]).items()}
    if field is not None:
        row[field] = value
    return json_object(row)


@st.composite
def corpora(draw) -> str:
    lines = [corpus_line(i) for i in range(draw(st.integers(0, 3)))]
    for i in range(draw(st.integers(1, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     corpus_line(10 + i, draw(st.sampled_from(list(GOOD))), draw(HOSTILE)))
    return "\n".join(lines) + "\n"


CORPUS_COMMANDS = {
    "ingest": ("ingest",),
    "text": ("text",),
    "report": ("report", "--iterations", "2"),
}


def corpus_case(command: str, corpus: str):
    return (*CORPUS_COMMANDS[command], "--input", "c.jsonl", "--out", "out"), {"c.jsonl": corpus}


GEXF = ('<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">'
        '<graph defaultedgetype="{type}"><nodes><node id="a" label="{label}"/>'
        '<node id="b" label="@b"/></nodes><edges>'
        '<edge id="e0" source="{source}" target="b" weight="{weight}"/>'
        '<edge id="e1" source="b" target="a"><attvalues><attvalue for="kind" value="{kind}"/>'
        '</attvalues></edge></edges></graph></gexf>\n')
gexf_documents = st.one_of(
    st.builds(GEXF.format,
              type=st.sampled_from(["directed", "undirected", "mutual", ""]),
              label=st.sampled_from(["@a", "", " ", "@", "@b", "A", "&#0;", "&#xD800;", "é"]),
              source=st.sampled_from(["a", "b", "zz", ""]),
              weight=st.sampled_from(["1", "0", "-1", "0.5", "nan", "inf", "1e308", "1e30",
                                      "9223372036854775807", "1" + "0" * 400, "abc", ""]),
              kind=st.sampled_from(["reply", "follow", "mention", "bogus", ""])),
    st.sampled_from([
        "", "<gexf", "<graph/>", '<gexf version="1.2"/>',
        "<gexf><graph>" + "<a>" * 100_000 + "</a>" * 100_000 + "</graph></gexf>",
        '<?xml version="1.0" encoding="latin-1"?><gexf><graph><nodes>'
        '<node id="a" label="ÿ"/></nodes></graph></gexf>',
    ]),
)


def gexf_case(document: str):
    return ("communities", "--input", "g.gexf", "--out", "out"), {"g.gexf": document}


FEED = ('<rss><channel><title>t</title><item><guid>g</guid><title>hi #ge2017</title>'
        "{date}</item></channel></rss>\n")
FEED_DATES = st.sampled_from([
    "", "<pubDate>Fri, 31 Dec 9999 23:59:59 -2359</pubDate>",
    "<pubDate>Fri, 31 Dec 99999999999999999999 23:59:59 +0000</pubDate>",
    "<pubDate>Fri, 21 Apr 2017 10:00:00 +9999</pubDate>", "<pubDate>x</pubDate>",
    "<updated>9999-12-31T23:59:59-23:59</updated>",
    "<published>0001-01-01T00:00:00+23:59</published>",
])
# No location names a host: a case never reaches the network.
LOCATIONS = st.sampled_from(['"c.jsonl"', '"f.rss"', '"absent"', '"."', '""',
                             '"nope://x"', '"http://[::1"'])


CONFIG_FIELDS = ["id", "kind", "location", "poll_interval", "sink.path", "sink.format",
                 "alerts.path", "deviation.metric", "deviation.window", "deviation.z_threshold",
                 "deviation.sigma_floor", "deviation.bucket_seconds", "lexicon.positive",
                 "lexicon.negative", "a whole section"]


@st.composite
def configs(draw) -> str:
    """A collector config with at most two hostile values; the others read."""
    hostile = draw(st.sets(st.sampled_from(CONFIG_FIELDS), max_size=2))

    def value(field, good):
        return draw(HOSTILE) if field in hostile else good

    sources = [json_object({
        "id": value("id", json.dumps(f"s{i}")),
        "kind": value("kind", json.dumps(draw(st.sampled_from(["file", "rss", "http-json"])))),
        "location": value("location", draw(LOCATIONS)),
        "poll_interval": value("poll_interval", "0"),
    }) for i in range(draw(st.integers(1, 2)))]
    sections = {
        "sources": "[" + ", ".join(sources) + "]",
        "sink": json_object({
            "path": value("sink.path", '"sink.txt"'),
            "format": value("sink.format", draw(st.sampled_from(['"json"', '"xml"'])))}),
        "alerts": json_object({"path": value("alerts.path", '"alerts.jsonl"')}),
        "deviation": json_object({
            "metric": value("deviation.metric",
                            draw(st.sampled_from(['"volume"', '"mean_sentiment"']))),
            "window": value("deviation.window", "2"),
            "z_threshold": value("deviation.z_threshold", "1.5"),
            "sigma_floor": value("deviation.sigma_floor", "1e-6"),
            "bucket_seconds": value("deviation.bucket_seconds", "60")}),
        "lexicon": json_object({"positive": value("lexicon.positive", '"pos.txt"'),
                                "negative": value("lexicon.negative", '"neg.txt"')}),
    }
    if "a whole section" in hostile:
        sections[draw(st.sampled_from(list(sections)))] = draw(HOSTILE)
    return json_object(sections)


def config_case(config: str, corpus: str = corpus_line(1) + "\n", feed_date: str = ""):
    files = {"cfg.json": config, "c.jsonl": corpus, "f.rss": FEED.format(date=feed_date),
             "pos.txt": "great\n", "neg.txt": "bad\n"}
    return ("collect", "--config", "cfg.json", "--once"), files


FLAGS = {
    ("report", "--iterations"): ["-5", "0", "abc", "2.5", ""],
    ("layout", "--iterations"): ["-5", "0", "abc"],
    ("report", "--resolution"): ["-1", "0", "nan", "inf", "1e308", "1e-308", "1" * 401, "abc"],
    ("communities", "--resolution"): ["-1", "0", "1e308", "1e-308", "nan"],
    ("centrality", "--teleport"): ["-1", "1", "0.999999", "nan", "1e308"],
    ("centrality", "--top"): ["0", "-1", "1" * 401, "abc"],
    ("centrality", "--mode"): ["incoming", "bogus", ""],
    ("layout", "--gravity"): ["-1", "0", "1e300", "nan", "-inf"],
    ("layout", "--scaling"): ["-1", "0", "1e300", "1e-300"],
    ("report", "--bucket-seconds"): ["1e-300", "1e-6", "1e20", "nan", "-1", "0", "1" * 401],
    ("report", "--deviation-window"): ["-1", "0", "2", "1" * 401, "abc"],
    ("report", "--top-terms"): ["0", "1" * 401],
    ("report", "--seed"): ["-1", "1" * 401, "abc"],
    ("text", "--top"): ["0", "-1", "1" * 401],
    ("text", "--topic"): [",", "#", "é", "nosuchtag", "GE2017,#x"],
    ("report", "--topic"): ["nosuchtag", "#", "ge2017"],
    ("ingest", "--topic"): ["nosuchtag", " "],
}


@st.composite
def flag_cases(draw):
    command, flag = draw(st.sampled_from(sorted(FLAGS)))
    args = (command, flag, draw(st.sampled_from(FLAGS[command, flag])))
    if command in ("report", "layout") and flag != "--iterations":
        args += ("--iterations", "2")
    corpus = "\n".join(corpus_line(i) for i in range(5)) + "\n"
    return (*args, "--input", "c.jsonl", "--out", "out"), {"c.jsonl": corpus}


cases = st.one_of(
    st.builds(corpus_case, st.sampled_from(sorted(CORPUS_COMMANDS)), corpora()),
    st.builds(gexf_case, gexf_documents),
    st.builds(config_case, configs(), corpora(), FEED_DATES),
    flag_cases(),
)

SOURCE = {"id": "s", "kind": "file", "location": "c.jsonl"}


@settings(max_examples=8, deadline=None)
@given(case=cases)
@example(case=corpus_case("ingest", corpus_line(1) + "\n" + corpus_line(2, "timestamp", LATE)))
@example(case=corpus_case("text", corpus_line(1) + "\n" + corpus_line(2, "timestamp", EARLY)))
@example(case=corpus_case("report", corpus_line(1) + "\n" + DEEP + "\n"))
@example(case=config_case(json.dumps({"sources": [SOURCE]}),
                          corpus=corpus_line(1) + "\n" + corpus_line(2, "timestamp", LATE)))
@example(case=config_case(json.dumps({"sources": [SOURCE]}), corpus=DEEP + "\n"))
@example(case=config_case(json.dumps({"sources": [dict(SOURCE, kind="rss", location="f.rss")]}),
                          feed_date="<pubDate>Fri, 31 Dec 9999 23:59:59 -2359</pubDate>"))
@example(case=config_case(json.dumps({"sources": [dict(SOURCE, kind="rss", location="f.rss")]}),
                          feed_date="<updated>9999-12-31T23:59:59-23:59</updated>"))
@example(case=config_case(DEEP))
def test_every_exit_is_0_1_or_2_without_a_traceback(case):
    args, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8", errors="surrogatepass")
        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", *args], cwd=tmp, env=ENV,
            capture_output=True, text=True, errors="backslashreplace", timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)),
        )
    assert proc.returncode in (0, 1, 2), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert "MemoryError" not in proc.stderr, proc.stderr[-2000:]


# The child of a continuous case: `run_collector` on a fake clock, each sleep
# replacing c.jsonl with the next corpus of corpora.json; errors end it as
# `main` ends a command.
CONTINUOUS = """
import json, sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from snsgraph.collector import CollectorConfig, run_collector
from snsgraph.errors import AnalyticsError

corpora = json.loads(Path("corpora.json").read_text())
now = [datetime(2017, 4, 21, tzinfo=timezone.utc)]

def sleep(seconds):  # Ctrl-C once every corpus is read: the run must end as max_cycles would
    if not corpora:
        raise KeyboardInterrupt
    now[0] += timedelta(seconds=seconds)
    Path("c.jsonl").write_text(corpora.pop(0), encoding="utf-8", errors="surrogatepass")

try:
    run_collector(CollectorConfig.load("cfg.json"), max_cycles=None,
                  now_fn=lambda: now[0], sleep_fn=sleep)
except (AnalyticsError, OSError) as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)
"""


@settings(max_examples=8, deadline=None)
@given(config=configs(), rounds=st.lists(corpora(), min_size=2, max_size=4),
       feed_date=FEED_DATES)
def test_continuous_run_prints_only_diagnostics(config, rounds, feed_date):
    # one cycle per corpus in `rounds`, the first read before any sleep
    _, files = config_case(config, rounds[0], feed_date)
    files["corpora.json"] = json.dumps(rounds[1:])
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8", errors="surrogatepass")
        proc = subprocess.run(
            [sys.executable, "-c", CONTINUOUS], cwd=tmp, env=ENV,
            capture_output=True, text=True, errors="backslashreplace", timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)),
        )
    lines = proc.stderr.splitlines()
    if proc.returncode == 2:  # a caught error, printed last
        assert lines and lines.pop().startswith("error: "), proc.stderr[-2000:]
    else:
        assert proc.returncode == 0, proc.stderr[-2000:]
    assert all(line.startswith(("retryable [", "diagnostic [")) for line in lines), \
        proc.stderr[-2000:]
