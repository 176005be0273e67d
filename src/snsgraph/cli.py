"""Command-line interface: the pipeline as composable subcommands.

Stages hand data off through files (JSON-lines corpora, GEXF graphs, CSV
tables) so any stage can be replaced by an external tool. All randomized
stages take the single global seed (flag ``--seed`` or the
``SNSGRAPH_SEED`` environment variable) and derive their own module seed
from it, so ``report`` equals the composition of the individual
subcommands run with the same global seed.

Exit codes: 0 success, 1 usage error, 2 data/input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .centrality import (
    CentralityMode,
    PowerIterationConfig,
    eigenvector_centrality,
    top_k,
)
from .collector import (
    CollectorConfig,
    DeviationConfig,
    bucketize,
    detect_deviation,
    run_collector,
)
from .community import LouvainConfig, louvain
from .errors import AnalyticsError
from .ingest import TopicFilter, build_graph, filter_topic, parse_corpus
from .layout import LayoutConfig, run_layout
from .model import Handle, Normalization
from .report import (
    AnalysisReport,
    RedactionPolicy,
    export_gexf,
    import_gexf,
    redact,
    render_report,
)
from .seeds import derive_seed, global_seed_from_env
from .textmine import load_lexicon, sentiment, term_stats, top_terms

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@dataclass
class PipelineConfig:
    """Everything the full `report` pipeline needs, built from CLI flags."""

    input_path: str
    out_dir: Path
    topic: TopicFilter | None
    global_seed: int
    louvain: LouvainConfig
    power: PowerIterationConfig
    layout: LayoutConfig
    deviation: DeviationConfig
    redaction: RedactionPolicy
    report_format: str = "json"
    top_accounts: int = 13
    top_terms: int = 10
    term_order: str = "count"
    lexicon_pos: str | None = None
    lexicon_neg: str | None = None
    stopwords: str | None = None
    echo: dict = field(default_factory=dict)


def _topic_from(arg: str | None) -> TopicFilter | None:
    if not arg:
        return None
    return TopicFilter(frozenset(t for t in arg.split(",") if t.strip()))


def _read_handle_lines(path: str) -> frozenset[Handle]:
    handles = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                handles.add(Handle(line))
    return frozenset(handles)


def _read_stopwords(path: str | None) -> set[str] | None:
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return {ln.strip().lower() for ln in fh if ln.strip()}


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# One writer per stage table, shared by the subcommands and ``report``.

def _write_communities(out: Path, partition) -> None:
    rows = sorted(partition.assignment.items(), key=lambda item: item[0].value)
    _write_csv(out / "communities.csv", ["handle", "community_id"],
               [(h.display(), c) for h, c in rows])


def _write_centrality(out: Path, ranking) -> None:
    _write_csv(out / "centrality.csv", ["handle", "eigenvector"],
               [(h.display(), repr(s)) for h, s in ranking])


def _write_terms(out: Path, ranked) -> None:
    _write_csv(out / "terms.csv", ["term", "mention_count", "salience"],
               [(t.term, t.mention_count, repr(t.salience)) for t in ranked])


def _write_layout(out: Path, frame) -> None:
    rows = sorted(frame.positions.items(), key=lambda item: item[0].value)
    _write_csv(out / "layout.csv", ["handle", "x", "y"],
               [(h.display(), repr(x), repr(y)) for h, (x, y) in rows])


def _load_corpus(args) -> list:
    records, diagnostics = parse_corpus(args.input)
    for diag in diagnostics:
        print(f"warning: line {diag.line_no}: {diag.reason}", file=sys.stderr)
    topic = _topic_from(getattr(args, "topic", None))
    if topic is not None:
        records = filter_topic(records, topic)
    return records


class _FlagError(Exception):
    """A flag value that a config object rejected: a usage error."""


def _from_flags(config_type, **values):
    try:
        return config_type(**values)
    except ValueError as exc:
        raise _FlagError(exc) from None


def _top_flag(flag: str, k: int) -> int:
    if k < 1:
        raise _FlagError(f"{flag} must be >= 1, got {k}")
    return k


def _louvain_config(args) -> LouvainConfig:
    return _from_flags(
        LouvainConfig, resolution=args.resolution, seed=derive_seed(args.seed, "louvain")
    )


def _layout_config(args) -> LayoutConfig:
    return _from_flags(
        LayoutConfig,
        scaling_kr=args.scaling,
        gravity_kg=args.gravity,
        barnes_hut={"on": True, "off": False, "auto": None}[args.barnes_hut],
        iterations=args.iterations,
        seed=derive_seed(args.seed, "layout"),
    )


def _power_config(args) -> PowerIterationConfig:
    return _from_flags(
        PowerIterationConfig,
        mode=CentralityMode(args.mode),
        normalization=Normalization(args.normalize),
        teleport=args.teleport,
    )


def _graph_from_args(args):
    if args.input.endswith(".gexf"):
        return import_gexf(args.input)
    records = _load_corpus(args)
    graph, _ = build_graph(records)
    return graph


# --- subcommand implementations ----------------------------------------------

def _cmd_ingest(args) -> int:
    records = _load_corpus(args)
    graph, stats = build_graph(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_gexf(graph, out / "graph.gexf")
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
    partition = louvain(graph, config)
    _write_communities(Path(args.out), partition)
    print(f"Q={partition.modularity_q:.6f} communities={partition.community_count}")
    return 0


def _cmd_centrality(args) -> int:
    config = _power_config(args)
    top = _top_flag("--top", args.top)
    graph = _graph_from_args(args)
    result = eigenvector_centrality(graph, config)
    ranking = top_k(result.vector, top)
    _write_centrality(Path(args.out), ranking)
    if not result.converged:
        print(f"warning: power iteration did not converge in {result.iterations} "
              "iterations", file=sys.stderr)
    print(f"converged={result.converged} iterations={result.iterations}")
    return 0


def _cmd_text(args) -> int:
    top = _top_flag("--top", args.top)
    records = _load_corpus(args)
    stats = term_stats(records, stopwords=_read_stopwords(args.stopwords))
    ranked = top_terms(stats, top, order=args.order)
    out = Path(args.out)
    _write_terms(out, ranked)
    if args.lexicon_pos and args.lexicon_neg:
        lexicon = load_lexicon(args.lexicon_pos, args.lexicon_neg)
        summaries = [sentiment(r.text, lexicon) for r in records]
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
        with open(out / "sentiment.json", "w", encoding="utf-8") as fh:
            json.dump(overall, fh, indent=2)
            fh.write("\n")
        print(f"sentiment mean={overall['mean_score']:+.4f} "
              f"({overall['scored_records']}/{overall['records']} scored)")
    print(f"vocabulary={len(stats)} top written to {out / 'terms.csv'}")
    return 0


def _cmd_layout(args) -> int:
    config = _layout_config(args)
    graph = _graph_from_args(args)
    frame = run_layout(graph, config)
    _write_layout(Path(args.out), frame)
    print(f"iterations={frame.iteration} nodes={len(frame.positions)}")
    return 0


def _cmd_collect(args) -> int:
    config = CollectorConfig.load(args.config)
    stats = run_collector(config, once=args.once)
    for diag in stats.diagnostics:
        kind = "retryable" if diag.retryable else "diagnostic"
        print(f"{kind} [{diag.source_id}]: {diag.reason}", file=sys.stderr)
    print(f"records={stats.records_emitted} duplicates={stats.duplicates_dropped} "
          f"alerts={stats.alerts_emitted}")
    return 0


def _pipeline_config_from_args(args) -> PipelineConfig:
    allowlist = (
        _read_handle_lines(args.redact_allowlist)
        if args.redact_allowlist
        else frozenset()
    )
    return PipelineConfig(
        input_path=args.input,
        out_dir=Path(args.out),
        topic=_topic_from(args.topic),
        global_seed=args.seed,
        louvain=_louvain_config(args),
        power=_power_config(args),
        layout=_layout_config(args),
        deviation=_from_flags(
            DeviationConfig,
            window=args.deviation_window, bucket_seconds=args.bucket_seconds,
        ),
        redaction=RedactionPolicy(allowlist=allowlist),
        report_format=args.format,
        top_accounts=_top_flag("--top-accounts", args.top_accounts),
        top_terms=_top_flag("--top-terms", args.top_terms),
        term_order=args.order,
        lexicon_pos=args.lexicon_pos,
        lexicon_neg=args.lexicon_neg,
        stopwords=args.stopwords,
        echo={
            "seed": args.seed,
            "derived_seeds": {
                "louvain": derive_seed(args.seed, "louvain"),
                "layout": derive_seed(args.seed, "layout"),
            },
            "topic": args.topic or None,
            "resolution": args.resolution,
            "centrality_mode": args.mode,
            "normalization": args.normalize,
            "layout_iterations": args.iterations,
            "barnes_hut": args.barnes_hut,
            "version": __version__,
        },
    )


def run_report_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Ingest -> communities -> centrality -> text -> layout -> redacted report."""
    records, diagnostics = parse_corpus(config.input_path)
    if config.topic is not None:
        records = filter_topic(records, config.topic)
    graph, stats = build_graph(records)

    partition = louvain(graph, config.louvain)
    result = eigenvector_centrality(graph, config.power)
    ranking = top_k(result.vector, config.top_accounts)
    terms = term_stats(records, stopwords=_read_stopwords(config.stopwords))
    ranked_terms = top_terms(terms, config.top_terms, order=config.term_order)
    frame = run_layout(graph, config.layout)

    lexicon = None
    if config.lexicon_pos and config.lexicon_neg:
        lexicon = load_lexicon(config.lexicon_pos, config.lexicon_neg)
    alerts = detect_deviation(
        bucketize(records, config.deviation), config.deviation
    )
    if lexicon is not None:
        sent_dev = DeviationConfig(
            metric="mean_sentiment",
            window=config.deviation.window,
            z_threshold=config.deviation.z_threshold,
            sigma_floor=config.deviation.sigma_floor,
            bucket_seconds=config.deviation.bucket_seconds,
        )
        alerts = alerts + detect_deviation(bucketize(records, sent_dev, lexicon), sent_dev)
        alerts.sort(key=lambda a: (a.bucket, a.metric))

    report = AnalysisReport(
        record_count=len(records),
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        modularity_q=partition.modularity_q,
        community_count=partition.community_count,
        top_accounts=tuple((h.display(), s) for h, s in ranking),
        top_terms=tuple(
            (t.term, t.mention_count, t.salience) for t in ranked_terms
        ),
        alerts=tuple(alerts),
        metadata={
            **config.echo,
            "parse_diagnostics": len(diagnostics),
            "self_loops_dropped": stats.self_loops_dropped,
            "centrality_converged": result.converged,
            "centrality_iterations": result.iterations,
        },
    )
    report = redact(report, config.redaction)

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    export_gexf(
        graph, out / "graph.gexf",
        positions=frame, partition=partition, centrality=result.vector,
    )
    _write_communities(out, partition)
    _write_centrality(out, ranking)
    _write_terms(out, ranked_terms)
    _write_layout(out, frame)
    suffix = "json" if config.report_format == "json" else "txt"
    with open(out / f"report.{suffix}", "w", encoding="utf-8") as fh:
        fh.write(render_report(report, config.report_format))
    return report


def _cmd_report(args) -> int:
    config = _pipeline_config_from_args(args)
    report = run_report_pipeline(config)
    print(
        f"records={report.record_count} n={report.node_count} m={report.edge_count} "
        f"Q={report.modularity_q:.6f} communities={report.community_count} "
        f"alerts={len(report.alerts)}"
    )
    return 0


# --- argument wiring -----------------------------------------------------------

def _add_seed(parser, default_from_env=True):
    parser.add_argument(
        "--seed", type=int, default=global_seed_from_env(0),
        help="global pipeline seed (fallback: SNSGRAPH_SEED env var, then 0)",
    )


def _add_layout_flags(parser):
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--barnes-hut", choices=["on", "off", "auto"], default="auto")
    parser.add_argument("--gravity", type=float, default=1.0)
    parser.add_argument("--scaling", type=float, default=2.0)


def _add_centrality_flags(parser):
    parser.add_argument("--mode", choices=["incoming", "undirected"], default="incoming")
    parser.add_argument("--normalize", choices=["l1", "max"], default="l1")
    parser.add_argument("--teleport", type=float, default=0.0)


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
    p.add_argument("--resolution", type=float, default=1.0)
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
    p.add_argument("--lexicon-pos")
    p.add_argument("--lexicon-neg")
    p.add_argument("--stopwords")
    p.add_argument("--order", choices=["count", "salience"], default="count")
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
    p.add_argument("--resolution", type=float, default=1.0)
    _add_centrality_flags(p)
    _add_layout_flags(p)
    _add_seed(p)
    p.add_argument("--top-accounts", type=int, default=13)
    p.add_argument("--top-terms", type=int, default=10)
    p.add_argument("--order", choices=["count", "salience"], default="count")
    p.add_argument("--lexicon-pos")
    p.add_argument("--lexicon-neg")
    p.add_argument("--stopwords")
    p.add_argument("--redact-allowlist", help="file of allowlisted handles, one per line")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--deviation-window", type=int, default=20)
    p.add_argument("--bucket-seconds", type=float, default=60.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except _FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AnalyticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
