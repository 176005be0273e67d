import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snsgraph
import snsgraph.cli
import snsgraph.textmine
from snsgraph.cli import main
from snsgraph.report import import_gexf
from snsgraph.seeds import derive_seed

from conftest import BASE_TS, make_record, write_jsonl


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

    @pytest.mark.parametrize("node_b, weight, culprit", [
        ('label="@"', "2.0", "'b'"),
        ('label="@b"', "0.3", "'e0'"),
        ('label="@b"', "nan", "'e0'"),
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
        assert proc.stderr.count("\n") == 1
        assert sink.read_bytes() == b"kept\n"

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
        assert run(["ingest", "--input", str(tiny_corpus_path), "--topic", "ge2017",
                    "--out", str(out)]) == 0
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
        assert run(["collect", "--config", str(config), "--once"]) == 0
        sink_lines = (tmp_path / "sink.xml").read_text().splitlines()
        assert len(sink_lines) == 4
        assert sink_lines[0].startswith("<record>")


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
        assert report.stderr == ingest.stderr

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
