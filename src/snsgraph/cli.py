"""Command-line interface: the pipeline as composable subcommands.

Stages hand data off through files (JSON-lines corpora, GEXF graphs, CSV
tables) so any stage can be replaced by an external tool. All randomized
stages take the single global seed (flag ``--seed`` or the
``SNSGRAPH_SEED`` environment variable) and derive their own module seed
from it, so ``report`` equals the composition of the individual
subcommands run with the same global seed.

Exit codes: 0 success, 1 usage error, 2 data/input error or Ctrl-C/SIGTERM.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

from . import __version__
from .errors import AnalyticsError
from .model import Handle
from .seeds import derive_seed, global_seed_from_env

# Stage names (``iter_corpus``, ``louvain``, ...) are not imported here: on
# first lookup the module ``__getattr__`` takes each exported name from the
# package, whose table imports only the defining module (PEP 562), so a
# subcommand loads only the stages it runs; ``collect`` and ``text`` never
# load numpy. Handlers look names up on this module (``_stage.louvain``), so
# a name that perfbench/traced.py replaces here is the one that runs.
_stage = sys.modules[__name__]


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_lines(path: str, parse) -> frozenset:
    """``parse`` of each line of a side file, blank and ``#`` lines skipped; an
    undecodable line or one ``parse`` rejects is a data error naming both."""
    from .ingest import text_lines, utf8  # here: importing the CLI loads no stage

    items = set()
    for line_no, line in text_lines(path):
        if not line.startswith("#"):
            try:
                items.add(parse(utf8(line)))
            except ValueError as exc:
                raise AnalyticsError(f"{path}: line {line_no}: {exc}") from None
    return frozenset(items)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# One writer per stage table, shared by the subcommands and ``report``; each streams its rows.

def _write_communities(out: Path, partition) -> None:
    _write_csv(out / "communities.csv", ["handle", "community_id"],
               ((h.display(), c) for h, c in partition.assignment.items()))


def _write_centrality(out: Path, ranking) -> None:
    _write_csv(out / "centrality.csv", ["handle", "eigenvector"],
               ((h.display(), repr(s)) for h, s in ranking))


def _write_terms(out: Path, ranked) -> None:
    _write_csv(out / "terms.csv", ["term", "mention_count", "salience"],
               ((t.term, t.mention_count, repr(t.salience)) for t in ranked))


def _write_layout(out: Path, frame) -> None:
    _write_csv(out / "layout.csv", ["handle", "x", "y"],
               ((h.display(), repr(x), repr(y)) for h, (x, y) in frame.positions.items()))


def _warn(diag) -> None:
    print(f"warning: line {diag.line_no}: {diag.reason}", file=sys.stderr)


class _Corpus:
    """The one corpus reader of every subcommand. Made, it checks ``--topic``;
    iterated, it makes ``--out``, then yields the records of ``--input`` the topic
    keeps, one line at a time in line order, warning of each malformed line as it
    is read and counting it."""

    def __init__(self, args):
        self.args, self.topic, self.diagnostics = args, None, 0
        if args.topic:
            tags = frozenset(t for t in args.topic.split(",") if t.strip())
            self.topic = _from_flags(_stage.TopicFilter, tags=tags)

    def __iter__(self):
        Path(self.args.out).mkdir(parents=True, exist_ok=True)
        for item in _stage.iter_corpus(self.args.input):
            if isinstance(item, _stage.ParseDiagnostic):
                self.diagnostics += 1
                _warn(item)
            elif self.topic is None or self.topic.keeps(item):
                yield item


class _FlagError(Exception):
    """A flag value that a config object rejected: a usage error."""


def _from_flags(config_type, **values):
    """A ``config_type`` of the flags given; an unset (``None``) flag keeps its default."""
    try:
        return config_type(**{k: v for k, v in values.items() if v is not None})
    except ValueError as exc:
        raise _FlagError(exc) from None


def _top_flag(flag: str, k: int) -> int:
    if k < 1:
        raise _FlagError(f"{flag} must be >= 1, got {k}")
    return k


def _louvain_config(args) -> LouvainConfig:
    return _from_flags(
        _stage.LouvainConfig, resolution=args.resolution, seed=derive_seed(args.seed, "louvain")
    )


def _layout_config(args) -> LayoutConfig:
    return _from_flags(_stage.LayoutConfig, scaling_kr=args.scaling, gravity_kg=args.gravity,
                       iterations=args.iterations, seed=derive_seed(args.seed, "layout"))


def _power_config(args) -> PowerIterationConfig:
    mode = args.mode and _stage.CentralityMode(args.mode)
    return _from_flags(_stage.PowerIterationConfig, mode=mode, teleport=args.teleport)


def _graph_from_args(args):
    corpus = _Corpus(args)
    if not args.input.lower().endswith(".gexf"):
        return _stage.build_graph(corpus)[0]
    if corpus.topic is not None:
        raise _FlagError("--topic filters a corpus; a .gexf input holds no tags")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    return _stage.import_gexf(args.input)


# --- subcommand implementations ----------------------------------------------

def _cmd_ingest(args) -> int:
    graph, stats = _stage.build_graph(_Corpus(args))
    out = Path(args.out)
    _stage.export_gexf(graph, out / "graph.gexf")
    with open(out / "ingest_stats.json", "w", encoding="utf-8") as fh:
        json.dump({"records": stats.records, "interactions": stats.interactions,
                   "self_loops_dropped": stats.self_loops_dropped,
                   "n": stats.node_count, "m": stats.edge_count}, fh, indent=2)
        fh.write("\n")
    print(f"n={stats.node_count} m={stats.edge_count} "
          f"self_loops_dropped={stats.self_loops_dropped}")
    return 0


def _cmd_communities(args) -> int:
    config = _louvain_config(args)
    graph = _graph_from_args(args)
    partition = _stage.louvain(graph, config)
    _write_communities(Path(args.out), partition)
    print(f"Q={partition.modularity_q:.6f} communities={partition.community_count}")
    return 0


def _centrality_stage(graph, config, top: int):
    """The centrality stage of `centrality` and `report`, warning if it did not converge."""
    result = _stage.eigenvector_centrality(graph, config)
    if not result.converged:
        print(f"warning: power iteration did not converge in {result.iterations} "
              "iterations", file=sys.stderr)
    return result, _stage.top_k(result.vector, top)


def _cmd_centrality(args) -> int:
    config = _power_config(args)
    top = _top_flag("--top", args.top)
    result, ranking = _centrality_stage(_graph_from_args(args), config, top)
    _write_centrality(Path(args.out), ranking)
    print(f"converged={result.converged} iterations={result.iterations}")
    return 0


def _text_inputs(args) -> tuple[frozenset[str] | None, Lexicon | None]:
    """The side files of `text` and `report`, read before the corpus: ``--stopwords``,
    and ``--lexicon-pos`` with ``--lexicon-neg``."""
    if bool(args.lexicon_pos) != bool(args.lexicon_neg):
        raise _FlagError("--lexicon-pos and --lexicon-neg must be given together")
    stopwords = _read_lines(args.stopwords, str.lower) if args.stopwords else None
    lexicon = _stage.load_lexicon(args.lexicon_pos, args.lexicon_neg) if args.lexicon_pos else None
    return stopwords, lexicon


def _cmd_text(args) -> int:
    top = _top_flag("--top", args.top)
    corpus = _Corpus(args)
    text = _stage.TextFold(*_text_inputs(args))
    # sum() over a generator adds as over a list on any one Python; from 3.12 sum()
    # is compensated, so the last bits differ by version (README, "Determinism and seeds")
    total = sum(s.score for s in map(text.add, corpus) if s is not None and not s.neutral)
    stats = text.result()
    ranked = _stage.top_terms(stats, top, order=args.order)
    out = Path(args.out)
    _write_terms(out, ranked)
    if text.lexicon is not None:
        scored = text.scored_records
        summary = {"records": text.records, "scored_records": scored,
                   "positive_hits": text.positive_hits, "negative_hits": text.negative_hits,
                   "mean_score": total / scored if scored else 0.0}
        with open(out / "sentiment.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"sentiment mean={summary['mean_score']:+.4f} ({scored}/{text.records} scored)")
    print(f"vocabulary={len(stats)} top written to {out / 'terms.csv'}")
    return 0


def _cmd_layout(args) -> int:
    config = _layout_config(args)
    graph = _graph_from_args(args)
    frame = _stage.run_layout(graph, config)
    _write_layout(Path(args.out), frame)
    print(f"iterations={frame.iteration} nodes={len(frame.positions)}")
    return 0


def _cmd_collect(args) -> int:
    config = _stage.CollectorConfig.load(args.config)
    stats = _stage.run_collector(config, max_cycles=1 if args.once else None)  # stops cleanly
    print(f"records={stats.records_emitted} duplicates={stats.duplicates_dropped} "
          f"alerts={stats.alerts_emitted}")
    return 0


def _cmd_report(args) -> int:
    """Ingest -> communities -> centrality -> text -> layout -> redacted report.
    Every flag is checked, and every side file read, before the corpus is read."""
    corpus = _Corpus(args)
    louvain_config = _louvain_config(args)
    power_config = _power_config(args)
    layout_config = _layout_config(args)
    deviation = _from_flags(_stage.DeviationConfig, window=args.deviation_window,
                            bucket_seconds=args.bucket_seconds)
    top_accounts = _top_flag("--top-accounts", args.top_accounts)
    top_terms = _top_flag("--top-terms", args.top_terms)
    text_inputs = _text_inputs(args)
    allowlist = (
        _read_lines(args.redact_allowlist, Handle) if args.redact_allowlist else frozenset()
    )

    text = _stage.TextFold(*text_inputs)
    buckets = _stage.Buckets(deviation.bucket_seconds)
    named = set()

    def fold(record):  # one pass: each on-topic record is counted, then handed to the graph
        summary = text.add(record)
        buckets.add(record, None if summary is None else summary.score)
        if "@" in record.text:  # words written as handles, which the graph may not hold
            named.update(re.findall(r"@([^\s@]+)", record.text))
        return record

    graph, stats = _stage.build_graph(map(fold, corpus))
    partition = _stage.louvain(graph, louvain_config)
    result, ranking = _centrality_stage(graph, power_config, top_accounts)
    ranked_terms = _stage.top_terms(text.result(), top_terms, order=args.order)
    alerts = buckets.alerts(deviation)
    frame = _stage.run_layout(graph, layout_config)

    report = _stage.AnalysisReport(
        record_count=stats.records,
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        modularity_q=partition.modularity_q,
        community_count=partition.community_count,
        top_accounts=tuple((h.display(), s) for h, s in ranking),
        top_terms=tuple((t.term, t.mention_count, t.salience) for t in ranked_terms),
        alerts=tuple(alerts),
        metadata={
            "seed": args.seed,
            "derived_seeds": {"louvain": louvain_config.seed, "layout": layout_config.seed},
            "topic": args.topic or None,
            "resolution": louvain_config.resolution,
            "centrality_mode": power_config.mode.value,
            "normalization": "l1",
            "layout_iterations": layout_config.iterations,
            "barnes_hut": "auto",
            "version": __version__,
            "parse_diagnostics": corpus.diagnostics,
            "self_loops_dropped": stats.self_loops_dropped,
            "centrality_converged": result.converged,
            "centrality_iterations": result.iterations,
        },
    )
    report = _stage.redact(report, _stage.RedactionPolicy(allowlist=allowlist),
                           graph.handles, named)

    out = Path(args.out)
    _stage.export_gexf(graph, out / "graph.gexf", positions=frame, partition=partition,
                       centrality=result.vector)
    _write_communities(out, partition)
    _write_centrality(out, ranking)
    _write_terms(out, ranked_terms)
    _write_layout(out, frame)
    suffix = "json" if args.format == "json" else "txt"
    with open(out / f"report.{suffix}", "w", encoding="utf-8") as fh:
        fh.write(_stage.render_report(report, args.format))
    print(f"records={report.record_count} n={report.node_count} m={report.edge_count} "
          f"Q={report.modularity_q:.6f} communities={report.community_count} "
          f"alerts={len(report.alerts)}")
    return 0


# --- argument wiring -----------------------------------------------------------

def _add_seed(parser):
    parser.add_argument(
        "--seed", type=int, default=global_seed_from_env(0),
        help="global pipeline seed (fallback: SNSGRAPH_SEED env var, then 0)",
    )


def _add_layout_flags(parser):
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--gravity", type=float)
    parser.add_argument("--scaling", type=float)


def _add_text_flags(parser):
    parser.add_argument("--lexicon-pos")
    parser.add_argument("--lexicon-neg")
    parser.add_argument("--stopwords")
    parser.add_argument("--order", choices=["count", "salience"], default="count")


def _add_centrality_flags(parser):
    parser.add_argument("--mode", choices=["incoming", "undirected"])
    parser.add_argument("--teleport", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snsgraph",
        description="Social-network interaction analytics: graphs, communities, "
        "influence, terms, layout, collection.",
    )
    parser.add_argument("--version", action="version", version=f"snsgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="corpus -> graph files")
    p.add_argument("--input", required=True, help="JSON-lines corpus")
    p.add_argument("--topic", help="comma-separated topic tags")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("communities", help="Louvain community detection")
    p.add_argument("--input", required=True, help="graph.gexf or corpus.jsonl")
    p.add_argument("--topic", help="topic tags (corpus input only)")
    p.add_argument("--resolution", type=float)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("centrality", help="eigenvector influence ranking")
    p.add_argument("--input", required=True, help="graph.gexf or corpus.jsonl")
    p.add_argument("--topic", help="topic tags (corpus input only)")
    _add_centrality_flags(p)
    p.add_argument("--top", type=int, default=13)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("text", help="term statistics and sentiment")
    p.add_argument("--input", required=True, help="JSON-lines corpus")
    p.add_argument("--topic", help="comma-separated topic tags")
    _add_text_flags(p)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_text)

    p = sub.add_parser("layout", help="ForceAtlas2 positions")
    p.add_argument("--input", required=True, help="graph.gexf or corpus.jsonl")
    p.add_argument("--topic", help="topic tags (corpus input only)")
    _add_layout_flags(p)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("collect", help="poll sources, emit records, detect deviations")
    p.add_argument("--config", required=True, help="collector config JSON")
    p.add_argument("--once", action="store_true", help="single poll cycle, then exit")
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("report", help="full pipeline -> redacted report")
    p.add_argument("--input", required=True, help="JSON-lines corpus")
    p.add_argument("--topic", help="comma-separated topic tags")
    p.add_argument("--resolution", type=float)
    _add_centrality_flags(p)
    _add_layout_flags(p)
    _add_seed(p)
    p.add_argument("--top-accounts", type=int, default=13)
    p.add_argument("--top-terms", type=int, default=10)
    _add_text_flags(p)
    p.add_argument("--redact-allowlist", help="file of allowlisted handles, one per line")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--deviation-window", type=int)
    p.add_argument("--bucket-seconds", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except ValueError as exc:  # SNSGRAPH_SEED, the --seed default, is not an integer
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    import signal  # here: importing the CLI should not pay for it
    try:  # SIGTERM stops a run as Ctrl-C does; a handler not set from Python reads None
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler) or signal.SIG_DFL
    except ValueError:  # off the main thread, where no handler can be set
        previous = None
    try:
        return args.func(args)
    except _FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AnalyticsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return DATA_ERROR
    finally:
        if previous is not None:  # undo only the handler set here
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
