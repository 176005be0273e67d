import gc
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from datetime import timedelta
from pathlib import Path

import pytest

import snsgraph
import snsgraph.cli
import snsgraph.textmine
from snsgraph.cli import main
from snsgraph.ingest import InteractionRecord
from snsgraph.report import import_gexf
from snsgraph.seeds import derive_seed

from conftest import BASE_TS, bursty_rows, make_record, write_jsonl


# What `centrality` and `report` print when power iteration does not converge.
NOT_CONVERGED = "warning: power iteration did not converge in 1000 iterations\n"


def run(args):
    return main(args)


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["report", "--out", "x"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["centrality", "--frobnicate", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["transmogrify"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        assert run(["ingest", "--input", str(tmp_path / "no.jsonl"),
                    "--out", str(tmp_path)]) == 2

    def test_empty_corpus_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run(["ingest", "--input", str(empty), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("layout", "--iterations", "-5"),
        ("report", "--iterations", "-5"),
        ("report", "--resolution", "-1"),
        ("centrality", "--teleport", "-1"),
        ("centrality", "--top", "0"),
        ("text", "--top", "0"),
        ("report", "--top-accounts", "0"),
        ("report", "--top-terms", "0"),
        ("ingest", "--topic", ","),
        ("report", "--topic", "#"),
        ("layout", "--topic", " "),
        ("text", "--lexicon-pos", "positive.txt"),
        ("text", "--lexicon-neg", "negative.txt"),
        ("report", "--lexicon-pos", "positive.txt"),
        ("report", "--lexicon-neg", "negative.txt"),
        ("report", "--resolution", "nan"),
        ("report", "--resolution", "inf"),
        ("report", "--scaling", "inf"),
        ("report", "--bucket-seconds", "1e-300"),
        ("report", "--bucket-seconds", "1e20"),
        ("report", "--bucket-seconds", "nan"),
        ("centrality", "--teleport", "inf"),
        ("layout", "--gravity", "nan"),
    ])
    def test_rejected_config_flag_is_usage_error(self, tmp_path, command, flag, value):
        # The input does not exist: the flag must fail before any input is read.
        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", command, flag, value,
             "--input", str(tmp_path / "absent"), "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command, flag, value, code", [
        ("communities", "--resolution", "1e6", 0),  # Q lies in [-1e6, 1]
        ("layout", "--scaling", "1e300", 2),  # the layout diverges
        ("layout", "--gravity", "1e300", 2),
        ("report", "--gravity", "1e300", 2),
    ])
    def test_finite_extreme_flag_exits_cleanly(self, tiny_corpus_path, tmp_path, command,
                                               flag, value, code):
        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", command, flag, value,
             "--input", str(tiny_corpus_path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code:  # report's centrality stage warns first, as `centrality` does on this graph
            lines = proc.stderr.splitlines(keepends=True)
            if command == "report":
                assert lines.pop(0) == NOT_CONVERGED
            assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("node_b, weight, culprit", [
        ('label="@"', "2.0", "'b'"),
        ('label="@b"', "0.3", "'e0'"),
        ('label="@b"', "nan", "'e0'"),
        ('label="@b"', "1e30", "'e0'"),
        ('label="A"', "1.0", "nodes 'a' and 'b' both name @a"),
    ])
    def test_hostile_gexf_is_data_error(self, tmp_path, node_b, weight, culprit):
        gexf = tmp_path / "graph.gexf"
        gexf.write_text(
            '<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">'
            '<graph defaultedgetype="directed"><nodes>'
            f'<node id="a" label="@a"/><node id="b" {node_b}/></nodes><edges>'
            f'<edge id="e0" source="a" target="b" weight="{weight}"/>'
            "</edges></graph></gexf>\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", "communities",
             "--input", str(gexf), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and culprit in proc.stderr

    def test_undecodable_gexf_is_data_error(self, tmp_path):
        gexf = tmp_path / "bad.gexf"
        gexf.write_bytes(b'<gexf version="1.2"><graph><nodes><node id="a" label="\xff"/>'
                         b"</nodes></graph></gexf>\n")
        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", "communities",
             "--input", str(gexf), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(
            "error: malformed GEXF: not well-formed (invalid token): line 1, column 54"
        )

    def test_invalid_allowlist_handle_is_data_error(self, tiny_corpus_path, tmp_path, capsys):
        allow = tmp_path / "allow.txt"
        allow.write_text("# allowlisted\n@alice\n@\n")
        assert run(["report", "--input", str(tiny_corpus_path), "--iterations", "5",
                    "--redact-allowlist", str(allow), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {allow}: line 3: handle must be non-empty\n"
        assert not (tmp_path / "out").exists()

    def test_undecodable_allowlist_is_data_error(self, tiny_corpus_path, tmp_path, capsys):
        allow = tmp_path / "allow.txt"
        allow.write_bytes(b"alice\nb\xffb\n")
        assert run(["report", "--input", str(tiny_corpus_path), "--iterations", "5",
                    "--redact-allowlist", str(allow), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {allow}: line 2: not UTF-8 at column 2\n"

    @pytest.mark.parametrize("command", ["text", "report"])
    def test_undecodable_stopwords_is_data_error(self, command, tiny_corpus_path, tmp_path,
                                                 capsys):
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"the\nb\xffb\n")
        assert run([command, "--input", str(tiny_corpus_path), "--stopwords", str(stop),
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {stop}: line 2: not UTF-8 at column 2\n"

    @pytest.mark.parametrize("command", ["text", "report"])
    @pytest.mark.parametrize("flag", ["--stopwords", "--lexicon-pos", "--lexicon-neg"])
    def test_side_files_are_read_before_the_corpus(self, command, flag, tiny_corpus_path,
                                                   tmp_path, monkeypatch, capsys):
        def parse_corpus(*args):
            raise AssertionError("the corpus was read before the side files")

        monkeypatch.setattr(snsgraph.cli, "parse_corpus", parse_corpus, raising=False)
        lexicon = tmp_path / "words.txt"
        lexicon.write_text("good\n")
        files = {"--stopwords": lexicon, "--lexicon-pos": lexicon, "--lexicon-neg": lexicon,
                 flag: tmp_path / "absent.txt"}
        args = [arg for item in files.items() for arg in map(str, item)]
        assert run([command, "--input", str(tiny_corpus_path), *args,
                    "--out", str(tmp_path / "out")]) == 2
        assert "absent.txt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integer_seed_env_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "snsgraph.cli", "--version"],
                              capture_output=True, text=True,
                              env=dict(os.environ, SNSGRAPH_SEED="abc"))
        assert proc.returncode == 1
        assert proc.stderr == "error: SNSGRAPH_SEED must be an integer, got 'abc'\n"

    SOURCE = {"id": "s1", "kind": "file", "location": "c.jsonl"}

    @pytest.mark.parametrize("config, culprit", [
        ({"sources": [SOURCE], "sink": {"format": "yaml"}}, "unknown emission format"),
        ({"sources": []}, "at least one source"),
        ({"sources": [SOURCE], "deviation": {"window": 1}}, "window must be >= 2"),
        ({"sources": [dict(SOURCE, kind="ftp")]}, "unknown source kind: 'ftp'"),
        ({"sources": [{"id": "s1", "location": "c.jsonl"}]}, "lacks key 'kind'"),
        ([1], "bad collector config"),
        ("{not json", "bad collector config"),
        ({"sources": [SOURCE], "deviation": {"metric": "mean_sentiment"},
          "lexicon": {"positive": "positive.txt"}}, "mean_sentiment"),
        ({"sources": [dict(SOURCE, kind="http-json")]}, "needs a URL, got 'c.jsonl'"),
        ({"sources": [SOURCE], "deviation": {"bucket_seconds": 1e-300}}, "bucket_seconds"),
        ({"sources": [SOURCE], "deviation": {"z_threshold": float("nan")}},
         "z_threshold must be finite"),
        ({"sources": [dict(SOURCE, id="s\ud800")]}, "U+D800, which XML 1.0 forbids"),
        ({"sources": [SOURCE], "sink": {"path": True}}, "sink_path must be a string, got True"),
        ({"sources": [SOURCE], "alerts": {"path": 2}}, "alerts_path must be a string or null"),
        ({"sources": [dict(SOURCE, location=5)]}, "location must be a string, got 5"),
        ({"sources": [dict(SOURCE, kind="rss", location=5)]}, "location must be a string"),
        ({"sources": [SOURCE], "sink": {"path": ["s.jsonl"]}}, "sink_path must be a string"),
        ({"sources": [SOURCE], "alerts": {"path": ["a"]}}, "alerts_path must be a string"),
        ({"sources": [SOURCE], "deviation": {"metric": "mean_sentiment"},
          "lexicon": {"positive": 5, "negative": "negative.txt"}}, "lexicon_positive must be"),
        ({"sources": [SOURCE], "deviation": {"bucket_seconds": 10**400}}, "too large"),
        ({"sources": [SOURCE], "deviation": {"z_threshold": 10**400}}, "too large"),
        ({"sources": [dict(SOURCE, poll_interval=10**400)]}, "too large"),
        ({"sources": [dict(SOURCE, location=["c.jsonl"])]}, "location must be a string"),
        ({"sources": [SOURCE], "lexicon": {"positive": ["pos.txt"], "negative": ["neg.txt"]}},
         "lexicon_positive must be a string or null, got ['pos.txt']"),
        ({"sources": [SOURCE], "deviation": {"window": 2.9}}, "window must be an integer"),
        ({"sources": [SOURCE], "deviation": {"window": 20.0}}, "window must be an integer"),
        ({"sources": [SOURCE], "deviation": {"window": "20"}}, "window must be an integer"),
        ({"sources": [dict(SOURCE, poll_interval="300")]}, "poll_interval must be a number"),
        ({"sources": [dict(SOURCE, id=7)]}, "id must be a string, got 7"),
        pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded",
                     id="nested-100k-deep"),
        ({"sources": [SOURCE], "deviation": {"windw": 5}}, "unknown key 'windw'"),
        ({"sources": [SOURCE], "sink": {"fromat": "xml"}}, "unknown key 'sink_fromat'"),
        ({"sources": [SOURCE], "sinks": {"path": "s.jsonl"}}, "unknown key 'sinks'"),
        ({"sources": [SOURCE], "deviation": []}, "deviation must be a JSON object, got []"),
        ({"sources": [SOURCE, dict(SOURCE, location="other.jsonl")]}, "each with its own id"),
        ({"sources": [dict(SOURCE, poll_interval=-1)]}, "poll_interval must be >= 0"),
        ({"sources": [SOURCE], "deviation": {"bucket_seconds": 10**400}},
         "bucket_seconds is too large for a float"),
        ({"sources": [dict(SOURCE, poll_interval=1e300)]}, "poll_interval must be at most"),
        ({"sources": [dict(SOURCE, poll_interval=1e10)]}, "poll_interval must be at most"),
    ])
    def test_bad_collector_config_is_data_error(self, tmp_path, config, culprit):
        # run where the default sink `collected.jsonl` lives: it must stay untouched
        path = tmp_path / "collector.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        sink = tmp_path / "collected.jsonl"
        sink.write_bytes(b"kept\n")
        src = str(Path(snsgraph.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", "collect", "--config", path.name, "--once"],
            capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: collector.json: ") and culprit in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert sink.read_bytes() == b"kept\n"

    def test_unusable_alerts_path_fails_before_any_poll(self, tmp_path):
        # run where the default sink `collected.jsonl` lives: it must stay untouched
        (tmp_path / "collector.json").write_text(json.dumps(
            {"sources": [self.SOURCE], "alerts": {"path": "missing/alerts.jsonl"}}))
        write_jsonl(tmp_path / "c.jsonl", [{"id": "1", "author": "alice", "text": "hi",
                                            "timestamp": "2017-04-21T10:00:00Z"}])
        sink = tmp_path / "collected.jsonl"
        sink.write_bytes(b"kept\n")
        src = str(Path(snsgraph.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", "collect", "--config", "collector.json",
             "--once"],
            capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "missing/alerts.jsonl" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert sink.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("command, reader, suffix", [
        ("report", "parse_corpus", ".jsonl"),
        ("ingest", "parse_corpus", ".jsonl"),
        ("communities", "import_gexf", ".gexf"),
    ])
    def test_unusable_out_fails_before_the_input_is_read(self, command, reader, suffix,
                                                         tmp_path, monkeypatch, capsys):
        def read(*args):
            raise AssertionError("the input was read before --out was made")

        monkeypatch.setattr(snsgraph.cli, reader, read, raising=False)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "out"
        assert run([command, "--input", str(tmp_path / f"in{suffix}"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["communities", "centrality", "layout"])
    def test_topic_on_a_gexf_input_is_usage_error(self, tmp_path, command, capsys):
        # The input does not exist: the flag must fail before any input is read.
        assert run([command, "--topic", "ge2017", "--input", str(tmp_path / "absent.gexf"),
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: --topic filters a corpus; a .gexf input holds no tags\n")

    def test_one_bad_timestamp_is_data_error_not_memory(self, tmp_path):
        # 51 records, one dated 1970: zero-filling 60 s buckets up to 2017
        # would need far more memory than the child may map.
        import resource

        rows = [dict(id=str(i), author=f"u{i % 7}", text="hi", mentions=[f"u{(i + 1) % 7}"],
                     timestamp=f"2017-04-21T10:{i:02d}:00Z") for i in range(50)]
        rows.append(dict(rows[0], id="old", timestamp="1970-01-01T00:00:00Z"))
        corpus = write_jsonl(tmp_path / "corpus.jsonl", rows)
        limit = 1536 * 2**20

        proc = subprocess.run(
            [sys.executable, "-m", "snsgraph.cli", "report", "--input", str(corpus),
             "--iterations", "5", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: records span 24,879,530 buckets of 60 s")
        assert proc.stderr.count("\n") == 1 and "--bucket-seconds" in proc.stderr

    def test_success_is_zero(self, tiny_corpus_path, tmp_path):
        assert run(["ingest", "--input", str(tiny_corpus_path),
                    "--out", str(tmp_path / "out")]) == 0


GOOD_LINE = b'{"id": "1", "author": "alice", "text": "great", "timestamp": "2017-04-21T10:00:00Z"}'


def _sink_line(fmt: str) -> bytes:
    from snsgraph.collector import OutputRecord, emit

    sink = io.StringIO()
    emit(OutputRecord("s", BASE_TS, make_record("1", "alice")), fmt, sink)
    return sink.getvalue().encode()


class TestOneLineRule:
    """Byte 0xff on line 2 of each line-oriented input gives that input's
    documented outcome, naming line 2 and the byte's column where it fails."""

    @pytest.mark.parametrize("kind", [
        "corpus", "http-json", "json sink", "xml sink", "stopwords", "allowlist", "lexicon"])
    def test_undecodable_byte_on_line_2(self, kind, tiny_corpus_path, tmp_path, capsys):
        from snsgraph.collector import SourceSpec, poll_source, read_records
        from snsgraph.errors import RecordParseError
        from snsgraph.ingest import ParseDiagnostic, parse_corpus
        from snsgraph.textmine import load_lexicon, text_pass

        bad_id = GOOD_LINE.replace(b'"1"', b'"\xff"')
        first, bad = {
            "corpus": (GOOD_LINE, bad_id),
            "http-json": (GOOD_LINE, bad_id),
            "json sink": (_sink_line("json"), bad_id),
            "xml sink": (_sink_line("xml"), b"<record><id>\xff</id></record>"),
        }.get(kind, (b"great", b"b\xffd"))
        path = tmp_path / "input.txt"
        path.write_bytes(first.rstrip(b"\n") + b"\n" + bad + b"\n")
        reason = f"not UTF-8 at column {bad.index(0xFF) + 1}"

        if kind == "corpus":
            assert parse_corpus(path)[1] == [ParseDiagnostic(2, reason)]
        elif kind == "http-json":
            spec = SourceSpec(id="web", kind="http-json", location=path.as_uri())
            assert [d.reason for d in poll_source(spec)[1]] == [f"line 2: {reason}"]
        elif kind.endswith("sink"):
            with pytest.raises(RecordParseError, match=f"^line 2: {reason}$"):
                read_records(path, kind.split()[0])
        elif kind == "lexicon":  # the word is kept but cannot match a token
            neg = tmp_path / "neg.txt"
            neg.write_text("bad\n")
            records = parse_corpus(tiny_corpus_path)[0]
            kept, without = load_lexicon(path, neg), load_lexicon(["great"], neg)
            assert len(kept.positive) == 2
            assert text_pass(records, None, kept) == text_pass(records, None, without)
        else:
            flag = {"stopwords": "--stopwords", "allowlist": "--redact-allowlist"}[kind]
            assert run(["report", "--input", str(tiny_corpus_path), "--iterations", "5",
                        flag, str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: {path}: line 2: {reason}\n"


class TestStages:
    def test_ingest_writes_graph_and_stats(self, tiny_corpus_path, tmp_path):
        out = tmp_path / "out"
        before = signal.getsignal(signal.SIGTERM)
        assert run(["ingest", "--input", str(tiny_corpus_path), "--topic", "ge2017",
                    "--out", str(out)]) == 0
        assert signal.getsignal(signal.SIGTERM) is before  # main's handler is undone
        graph = import_gexf(out / "graph.gexf")
        assert graph.node_count == 4  # alice, uklabour, bob, carol
        stats = json.loads((out / "ingest_stats.json").read_text())
        assert stats["n"] == 4 and stats["m"] == 5

    def test_centrality_top_13_rows(self, tmp_path):
        rows = []
        for i in range(20):
            rows.append({
                "id": str(i), "author": f"u{i}", "text": "x #t", "hashtags": ["t"],
                "in_reply_to": None, "mentions": [f"u{(i + 1) % 20}"],
                "timestamp": "2017-04-21T10:00:00Z",
            })
        corpus = write_jsonl(tmp_path / "c.jsonl", rows)
        out = tmp_path / "out"
        assert run(["ingest", "--input", str(corpus), "--out", str(out)]) == 0
        assert run(["centrality", "--input", str(out / "graph.gexf"), "--top", "13",
                    "--out", str(out)]) == 0
        lines = (out / "centrality.csv").read_text().splitlines()
        assert lines[0] == "handle,eigenvector"
        assert len(lines) == 1 + 13

    def test_communities_csv_shape(self, tiny_corpus_path, tmp_path):
        out = tmp_path / "out"
        run(["ingest", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--out", str(out)])
        assert run(["communities", "--input", str(out / "graph.gexf"), "--seed", "42",
                    "--out", str(out)]) == 0
        lines = (out / "communities.csv").read_text().splitlines()
        assert lines[0] == "handle,community_id"
        assert len(lines) == 5

    def test_text_stage(self, tiny_corpus_path, tmp_path):
        out = tmp_path / "out"
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("; comment\ngreat\n")
        neg.write_text("bad\n")
        assert run(["text", "--input", str(tiny_corpus_path), "--topic", "ge2017",
                    "--lexicon-pos", str(pos), "--lexicon-neg", str(neg),
                    "--top", "5", "--out", str(out)]) == 0
        lines = (out / "terms.csv").read_text().splitlines()
        assert lines[0] == "term,mention_count,salience"
        sentiment = json.loads((out / "sentiment.json").read_text())
        assert sentiment["positive_hits"] == 1
        assert sentiment["negative_hits"] == 1

    def test_layout_stage(self, tiny_corpus_path, tmp_path):
        out = tmp_path / "out"
        run(["ingest", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--out", str(out)])
        assert run(["layout", "--input", str(out / "graph.gexf"), "--iterations", "20",
                    "--seed", "42", "--out", str(out)]) == 0
        lines = (out / "layout.csv").read_text().splitlines()
        assert lines[0] == "handle,x,y"
        assert len(lines) == 5

    def test_collect_once(self, tiny_corpus_path, tmp_path):
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({
            "sources": [{"id": "s1", "kind": "file", "location": str(tiny_corpus_path)}],
            "sink": {"path": str(tmp_path / "sink.xml"), "format": "xml"},
            "alerts": {"path": str(tmp_path / "alerts.jsonl")},
        }))
        before = signal.getsignal(signal.SIGTERM)
        assert run(["collect", "--config", str(config), "--once"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before  # the run's handler is undone
        sink_lines = (tmp_path / "sink.xml").read_text().splitlines()
        assert len(sink_lines) == 4
        assert sink_lines[0].startswith("<record>")

    def test_report_warns_like_centrality_when_power_iteration_does_not_converge(
            self, tmp_path, capsys):
        # A directed 50-cycle plus one chord: power iteration needs far more than 1,000 steps.
        rows = [{"id": str(i), "author": f"u{i:03d}", "text": "x",
                 "mentions": [f"u{(i + 1) % 50:03d}"], "timestamp": "2017-04-21T10:00:00Z"}
                for i in range(50)]
        rows.append({"id": "50", "author": "u000", "text": "x", "mentions": ["u002"],
                     "timestamp": "2017-04-21T10:00:00Z"})
        corpus = write_jsonl(tmp_path / "c.jsonl", rows)
        assert run(["centrality", "--input", str(corpus), "--out", str(tmp_path / "c")]) == 0
        captured = capsys.readouterr()
        assert captured.err == NOT_CONVERGED
        assert captured.out == "converged=False iterations=1000\n"
        assert run(["report", "--input", str(corpus), "--iterations", "5",
                    "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().err == NOT_CONVERGED
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["metadata"]["centrality_converged"] is False


class TestReportReadsTheCorpusOnce:
    def test_report_holds_no_record_list(self, tmp_path, monkeypatch, capsys):
        # 2,000 records among 50 accounts: by the time Louvain starts, every
        # record has been counted and dropped, so none of them is alive
        rows = [dict(id=f"held{i}", author=f"u{i % 50}", text=f"post {i % 13} #ge2017",
                     hashtags=["ge2017"], mentions=[f"u{(7 * i + 1) % 50}"],
                     timestamp=(BASE_TS + timedelta(seconds=30 * i)).isoformat())
                for i in range(2000)]
        corpus = write_jsonl(tmp_path / "c.jsonl", rows)
        louvain, live = snsgraph.cli.louvain, []

        def counting_louvain(*args, **kwargs):
            gc.collect()
            live.append(sum(type(o) is InteractionRecord and o.id.startswith("held")
                            for o in gc.get_objects()))
            return louvain(*args, **kwargs)

        monkeypatch.setattr(snsgraph.cli, "louvain", counting_louvain)
        assert run(["report", "--input", str(corpus), "--topic", "ge2017", "--iterations", "5",
                    "--out", str(tmp_path / "out")]) == 0
        assert len(live) == 1 and live[0] <= 1, live
        assert capsys.readouterr().out.startswith("records=2000 n=50 ")

    @pytest.mark.parametrize("command", ["ingest", "report"])
    def test_corpus_without_a_good_line_prints_only_the_error(self, command, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{not json\n[1]\n{"id": "3"}\n')
        assert run([command, "--input", str(corpus), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: corpus contains no well-formed records\n"

    @pytest.mark.parametrize("command", ["communities", "report"])
    def test_topic_matching_nothing_warns_then_fails_in_louvain(self, command, tiny_corpus_path,
                                                                tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        lines = tiny_corpus_path.read_text(encoding="utf-8").splitlines()
        corpus.write_text("\n".join([lines[0], "{not json", *lines[1:], "[1]"]) + "\n")
        assert run([command, "--input", str(corpus), "--topic", "nosuchtag",
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "warning: line 2: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
            f"warning: line {len(lines) + 2}: record must be a JSON object\n"
            "error: Louvain undefined on a graph without edges\n")


class TestStopPath:
    @pytest.mark.parametrize("command", ["collect", "ingest"])
    def test_main_off_the_main_thread_runs_the_subcommand(self, tiny_corpus_path, tmp_path,
                                                           command, capsys):
        # No signal handler can be set off the main thread: main runs without one.
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({
            "sources": [{"id": "s1", "kind": "file", "location": str(tiny_corpus_path)}],
            "sink": {"path": str(tmp_path / "sink.jsonl")}}))
        argv = {"collect": ["collect", "--config", str(config), "--once"],
                "ingest": ["ingest", "--input", str(tiny_corpus_path), "--out", str(tmp_path)]}
        before, codes = signal.getsignal(signal.SIGTERM), []
        thread = threading.Thread(target=lambda: codes.append(run(argv[command])))
        thread.start()
        thread.join(timeout=60)
        assert codes == [0], capsys.readouterr().err
        assert signal.getsignal(signal.SIGTERM) is before

    @pytest.mark.skipif(os.name != "posix", reason="sends SIGINT and SIGTERM to a child")
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_stopped_report_prints_one_line_and_exits_2(self, tiny_corpus_path, tmp_path,
                                                         signum):
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(snsgraph.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "snsgraph.cli", "report", "--input", str(tiny_corpus_path),
             "--iterations", "10000000", "--out", str(out)],
            env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        deadline = time.monotonic() + 60
        try:  # --out is made inside the subcommand, once main's handler is set
            while proc.poll() is None and time.monotonic() < deadline and not out.exists():
                time.sleep(0.01)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 2 and "Traceback" not in err, err[-2000:]
        assert err.splitlines()[-1] == "error: interrupted"
        assert not (out / "report.json").exists()


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT and SIGTERM to a child")
class TestCollectStop:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_stopped_continuous_run_writes_the_alerts_of_once(self, tmp_path, signum):
        # A continuous run, stopped once its first cycle has written every
        # record, exits 0 with its summary and the alerts `--once` writes.
        rows = bursty_rows(300)
        write_jsonl(tmp_path / "c.jsonl", rows)
        for name in ("once", "stopped"):
            (tmp_path / f"{name}.json").write_text(json.dumps({
                "sources": [{"id": "s", "kind": "file", "location": "c.jsonl",
                             "poll_interval": 0}],
                "sink": {"path": f"{name}.jsonl"}, "alerts": {"path": f"{name}-alerts.jsonl"},
                "deviation": {"window": 5, "z_threshold": 1.5}}))
        command = [sys.executable, "-m", "snsgraph.cli", "collect", "--config"]
        env = dict(os.environ, PYTHONPATH=str(Path(snsgraph.__file__).resolve().parents[1]))
        once = subprocess.run([*command, "once.json", "--once"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert once.returncode == 0 and once.stderr == "", once.stderr
        assert re.fullmatch(r"records=300 duplicates=0 alerts=[1-9]\d*\n", once.stdout)

        proc = subprocess.Popen([*command, "stopped.json"], cwd=tmp_path, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        sink, deadline = tmp_path / "stopped.jsonl", time.monotonic() + 60
        try:
            while proc.poll() is None and time.monotonic() < deadline and (
                    not sink.exists() or sink.read_bytes().count(b"\n") < len(rows)):
                time.sleep(0.01)
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0 and "Traceback" not in err, err[-2000:]
        assert re.fullmatch(r"records=300 duplicates=\d+ alerts=\d+\n", out), out
        assert out.split(" alerts=")[1] == once.stdout.split(" alerts=")[1]
        assert (tmp_path / "stopped-alerts.jsonl").read_bytes() == \
            (tmp_path / "once-alerts.jsonl").read_bytes()


class TestReportPipeline:
    def test_report_produces_all_artifacts(self, tiny_corpus_path, tmp_path):
        out = tmp_path / "out"
        assert run(["report", "--input", str(tiny_corpus_path), "--topic", "ge2017",
                    "--seed", "42", "--iterations", "25", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"report.json", "graph.gexf", "communities.csv", "centrality.csv",
                "terms.csv", "layout.csv"} <= names
        report = json.loads((out / "report.json").read_text())
        assert report["corpus"]["records"] == 3
        assert report["metadata"]["seed"] == 42

    def test_report_redaction_applied(self, tiny_corpus_path, tmp_path):
        out = tmp_path / "out"
        allow = tmp_path / "allow.txt"
        allow.write_text("@alice\n")
        run(["report", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--seed", "1", "--iterations", "10", "--redact-allowlist", str(allow),
             "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        handles = [a["handle"] for a in report["top_accounts"]]
        assert "@alice" in handles
        assert all(h in ("@alice", "retracted") for h in handles)

    def test_text_format(self, tiny_corpus_path, tmp_path):
        out = tmp_path / "out"
        run(["report", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--seed", "1", "--iterations", "10", "--format", "text", "--out", str(out)])
        text = (out / "report.txt").read_text()
        assert "Top accounts by eigenvector" in text

    def test_report_equals_stage_composition(self, tiny_corpus_path, tmp_path):
        full = tmp_path / "full"
        run(["report", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--seed", "42", "--iterations", "30", "--out", str(full)])

        stages = tmp_path / "stages"
        run(["ingest", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--out", str(stages)])
        gexf = str(stages / "graph.gexf")
        run(["communities", "--input", gexf, "--seed", "42", "--out", str(stages)])
        run(["centrality", "--input", gexf, "--top", "13", "--out", str(stages)])
        run(["text", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--top", "10", "--out", str(stages)])
        run(["layout", "--input", gexf, "--iterations", "30", "--seed", "42",
             "--out", str(stages)])

        for name in ("communities.csv", "centrality.csv", "terms.csv", "layout.csv"):
            assert (full / name).read_bytes() == (stages / name).read_bytes(), name

    def test_reproducible_across_processes(self, tiny_corpus_path, tmp_path):
        # different hash seeds must not perturb any output byte
        outs = []
        for hash_seed, name in (("1", "a"), ("4242", "b")):
            out = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            subprocess.run(
                [sys.executable, "-m", "snsgraph.cli", "report",
                 "--input", str(tiny_corpus_path), "--topic", "ge2017",
                 "--seed", "3", "--iterations", "20", "--out", str(out)],
                check=True, env=env, capture_output=True,
            )
            outs.append(out)
        for path in sorted(outs[0].iterdir()):
            assert path.read_bytes() == (outs[1] / path.name).read_bytes(), path.name

    def test_idempotent_over_identical_inputs(self, tiny_corpus_path, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        args = ["report", "--input", str(tiny_corpus_path), "--topic", "ge2017",
                "--seed", "7", "--iterations", "15"]
        run(args + ["--out", str(first)])
        run(args + ["--out", str(second)])
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes(), path.name


class TestHostileCodePoints:
    ROWS = [
        {"id": "1", "author": "alice", "text": "vote #ge2017", "hashtags": ["ge2017"],
         "mentions": ["bob"], "timestamp": "2017-04-21T10:00:00Z"},
        {"id": "2", "author": "alice", "text": "x", "hashtags": ["ge2017"],
         "mentions": ["a\u0001b"], "timestamp": "2017-04-21T10:01:00Z"},
        {"id": "3", "author": "b\ud800", "text": "x", "hashtags": ["ge2017"],
         "mentions": ["alice"], "timestamp": "2017-04-21T10:02:00Z"},
        {"id": "4", "author": "carol", "text": "lone \udc00", "hashtags": ["ge2017"],
         "mentions": ["alice"], "timestamp": "2017-04-21T10:03:00Z"},
        {"id": "5", "author": "carol", "text": "ok", "hashtags": ["ge2017"],
         "mentions": ["bob"], "timestamp": "2017-04-21T10:04:00Z"},
    ]

    def cli(self, *args):
        return subprocess.run([sys.executable, "-m", "snsgraph.cli", *args],
                              capture_output=True, text=True)

    def test_ingest_output_reads_back(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", self.ROWS)
        out = tmp_path / "out"
        proc = self.cli("ingest", "--input", str(corpus), "--out", str(out))
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        warnings = proc.stderr.splitlines()
        assert [w.split(":")[0] for w in warnings] == ["warning"] * 3
        assert ["line 2", "line 3", "line 4"] == [w.split(": ")[1] for w in warnings]
        proc = self.cli("communities", "--input", str(out / "graph.gexf"), "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == ""

    def test_report_warns_like_ingest(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", self.ROWS)
        ingest = self.cli("ingest", "--input", str(corpus), "--out", str(tmp_path / "a"))
        report = self.cli("report", "--input", str(corpus), "--iterations", "5",
                          "--out", str(tmp_path / "b"))
        assert report.returncode == 0 and "Traceback" not in report.stderr
        assert report.stderr.count("warning: line ") == 3
        assert report.stderr == ingest.stderr + NOT_CONVERGED  # the centrality stage's

    def test_collect_once_warns_and_writes_its_sink(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", self.ROWS)
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({
            "sources": [{"id": "s1", "kind": "file", "location": str(corpus)}],
            "sink": {"path": str(tmp_path / "sink.jsonl"), "format": "json"},
        }))
        proc = self.cli("collect", "--config", str(config), "--once")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert "diagnostic [s1]: line 4: lone surrogate U+DC00" in proc.stderr
        sink = (tmp_path / "sink.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["id"] for line in sink] == ["1", "5"]


class TestTextStage:
    @pytest.mark.parametrize("command", ["report", "text"])
    def test_one_tokenization_per_kept_record(self, command, tiny_corpus_path, tmp_path,
                                              monkeypatch):
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("great\n")
        neg.write_text("bad\n")
        calls = []
        tokenize = snsgraph.textmine.tokenize
        monkeypatch.setattr(snsgraph.textmine, "tokenize",
                            lambda text: calls.append(text) or tokenize(text))
        extra = ["--iterations", "5"] if command == "report" else []
        assert run([command, "--input", str(tiny_corpus_path), "--topic", "ge2017",
                    "--lexicon-pos", str(pos), "--lexicon-neg", str(neg), *extra,
                    "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 3  # the records tagged ge2017

    @pytest.mark.parametrize("command", ["report", "text", "collect"])
    def test_words_in_both_lexicons_are_reported(self, command, tmp_path, capsys):
        corpus = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "1", "author": "alice", "text": "great fine bad", "mentions": ["bob"],
             "timestamp": "2017-04-21T10:00:00Z"}, {"id": "2"}])
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("great\nfine\nok\n")
        neg.write_text("Ok\nbad\nfine\n")
        bad_line = "warning: line 2: missing required field 'author'\n"
        if command == "collect":
            config = tmp_path / "collector.json"
            config.write_text(json.dumps({
                "sources": [{"id": "s1", "kind": "file", "location": str(corpus)}],
                "sink": {"path": str(tmp_path / "sink.jsonl")},
                "deviation": {"metric": "mean_sentiment"},
                "lexicon": {"positive": str(pos), "negative": str(neg)}}))
            args = ["--config", str(config), "--once"]
            bad_line = "diagnostic [s1]: line 2: missing required field 'author'\n"
        else:
            args = ["--input", str(corpus), "--lexicon-pos", str(pos), "--lexicon-neg", str(neg),
                    *(["--iterations", "5"] if command == "report" else []),
                    "--out", str(tmp_path / "out")]
        assert run([command, *args]) == 0
        # one line per dropped word, in order, before the corpus is read; report's
        # centrality stage then warns of this one-edge graph, as `centrality` does
        assert capsys.readouterr().err == (
            "warning: 'fine' is in both lexicons; dropped from both\n"
            "warning: 'ok' is in both lexicons; dropped from both\n" + bad_line
            + (NOT_CONVERGED if command == "report" else ""))


class TestStartup:
    def test_cli_import_leaves_network_modules_unloaded(self):
        probe = ("import sys, snsgraph.cli; "
                 "print(sorted({'urllib.request', 'email.utils'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        assert proc.stdout == "[]\n"

    def test_collect_and_text_leave_numpy_unloaded(self, tiny_corpus_path, tmp_path):
        # a fresh interpreter, as pytest has already imported every stage here
        sink = tmp_path / "sink.jsonl"
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({
            "sources": [{"id": "s1", "kind": "file", "location": str(tiny_corpus_path)}],
            "sink": {"path": str(sink), "format": "json"},
        }))
        probe = (
            "import json, sys\n"
            "from snsgraph.cli import main\n"
            "config, sink, out = sys.argv[1:]\n"
            "codes = [main(['collect', '--config', config, '--once']),\n"
            "         main(['text', '--input', sink, '--out', out])]\n"
            "lean = 'numpy' not in sys.modules\n"
            "codes.append(main(['communities', '--input', sink, '--out', out]))\n"
            "print(json.dumps([codes, lean, 'numpy' in sys.modules]))\n"
        )
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", probe, str(config), str(sink), str(out)],
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], True, True]
        assert (out / "terms.csv").is_file() and (out / "communities.csv").is_file()


class TestBenchmarkHooks:
    TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"

    def test_traced_run_finds_every_name_it_wraps(self):
        path = self.TRACED
        spec = importlib.util.spec_from_file_location("perfbench_traced", path)
        traced = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced)
        original = snsgraph.cli.parse_corpus
        tracer = traced.Tracer("t")
        try:
            traced.instrument(tracer, snsgraph)
            assert snsgraph.cli.parse_corpus is not original
        finally:
            tracer.restore()
        assert snsgraph.cli.parse_corpus is original

    def test_fresh_process_resolves_every_wrapped_name(self):
        # as perfbench/traced.py runs it: only `import snsgraph, snsgraph.cli`
        # before instrumenting, so each name must resolve lazily
        probe = (
            "import importlib.util, json, sys\n"
            "import snsgraph, snsgraph.cli\n"
            "spec = importlib.util.spec_from_file_location('traced', sys.argv[1])\n"
            "traced = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(traced)\n"
            "names = []\n"
            "class Tracer(traced.Tracer):\n"
            "    def wrap(self, module, attr, *args, **kwargs):\n"
            "        names.append((module, attr))\n"
            "        super().wrap(module, attr, *args, **kwargs)\n"
            "traced.instrument(Tracer('t'), snsgraph)\n"
            "unwrapped = [f'{m.__name__}.{a}' for m, a in names\n"
            "             if getattr(m, a).__name__ != 'wrapped']\n"
            "unresolved = [n for n in ('undirected_view', 'init_layout')\n"
            "              if not hasattr(snsgraph, n)]\n"
            "print(json.dumps([len(names), unwrapped, unresolved]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, str(self.TRACED)],
                              capture_output=True, text=True, check=True)
        count, unwrapped, unresolved = json.loads(proc.stdout.splitlines()[-1])
        assert count > 20 and unwrapped == [] and unresolved == []


class TestSeedDerivation:
    def test_modules_get_distinct_seeds(self):
        assert derive_seed(42, "louvain") != derive_seed(42, "layout")

    def test_derivation_is_stable(self):
        assert derive_seed(42, "louvain") == derive_seed(42, "louvain")

    def test_env_fallback(self, tiny_corpus_path, tmp_path, monkeypatch):
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        monkeypatch.setenv("SNSGRAPH_SEED", "99")
        run(["report", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--iterations", "10", "--out", str(out_env)])
        monkeypatch.delenv("SNSGRAPH_SEED")
        run(["report", "--input", str(tiny_corpus_path), "--topic", "ge2017",
             "--seed", "99", "--iterations", "10", "--out", str(out_flag)])
        assert (out_env / "report.json").read_bytes() == (out_flag / "report.json").read_bytes()
