"""Social-network interaction analytics toolkit.

Builds weighted interaction graphs from archived post corpora, detects
communities by modularity maximization, ranks influence by eigenvector
centrality, mines term counts/salience and lexicon sentiment, lays graphs
out with ForceAtlas2, collects records from pluggable public sources with
deviation alerting, and emits privacy-redacted reports plus GEXF/CSV/JSON
interchange files.
"""

__version__ = "0.1.0"

# Each exported name and the module that defines it. Names and submodules
# load on first use (PEP 562), so ``import snsgraph`` costs no stage module
# and no numpy until a stage runs.
_EXPORTS = {
    "model": (
        "CentralityVector", "GraphView", "Handle", "InteractionGraph", "InteractionKind",
        "Partition", "merge_kinds", "undirected_view",
    ),
    "ingest": (
        "IngestStats", "InteractionRecord", "ParseDiagnostic", "TopicFilter", "build_graph",
        "filter_topic", "iter_corpus", "parse_corpus", "write_corpus",
    ),
    "community": (
        "LouvainConfig", "MoveContext", "local_move_gain", "louvain", "louvain_trace",
        "modularity",
    ),
    "centrality": (
        "CentralityMode", "CentralityResult", "PowerIterationConfig", "eigenvector_centrality",
        "top_k",
    ),
    "textmine": (
        "Lexicon", "SentimentSummary", "TermStats", "TextFold", "load_lexicon", "sentiment",
        "term_stats", "tokenize", "top_terms",
    ),
    "layout": ("LayoutConfig", "LayoutFrame", "init_layout", "run_layout"),
    "collector": (
        "AlertEvent", "Buckets", "CollectorConfig", "DeviationConfig", "OutputRecord",
        "SourceSpec", "bucketize", "detect_deviation", "emit", "poll_source", "read_records",
        "run_collector",
    ),
    "report": (
        "AnalysisReport", "RedactionPolicy", "export_gexf", "import_gexf", "redact",
        "render_report", "report_from_json",
    ),
    "seeds": ("derive_seed",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "errors"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
