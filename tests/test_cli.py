import json
import os
import subprocess
import sys

import pytest

from snsgraph.cli import main
from snsgraph.report import import_gexf
from snsgraph.seeds import derive_seed

from conftest import write_jsonl


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

    def test_success_is_zero(self, tiny_corpus_path, tmp_path):
        assert run(["ingest", "--input", str(tiny_corpus_path),
                    "--out", str(tmp_path / "out")]) == 0


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
