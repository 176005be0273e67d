"""Social-network interaction analytics toolkit.

Builds weighted interaction graphs from archived post corpora, detects
communities by modularity maximization, ranks influence by eigenvector
centrality, mines term counts/salience and lexicon sentiment, lays graphs
out with ForceAtlas2, collects records from pluggable public sources with
deviation alerting, and emits privacy-redacted reports plus GEXF/CSV/JSON
interchange files.
"""

__version__ = "0.1.0"

from .model import (
    CentralityVector,
    GraphCore,
    GraphView,
    Handle,
    InteractionGraph,
    InteractionKind,
    Normalization,
    Partition,
    merge_kinds,
    undirected_view,
)
from .ingest import (
    IngestStats,
    InteractionRecord,
    ParseDiagnostic,
    TopicFilter,
    build_graph,
    filter_topic,
    parse_corpus,
    write_corpus,
)
from .community import (
    LouvainConfig,
    MoveContext,
    local_move_gain,
    louvain,
    louvain_trace,
    modularity,
)
from .centrality import (
    CentralityMode,
    CentralityResult,
    PowerIterationConfig,
    eigenvector_centrality,
    top_k,
)
from .textmine import (
    Lexicon,
    SentimentSummary,
    TermStats,
    load_lexicon,
    sentiment,
    term_stats,
    tokenize,
    top_terms,
)
from .layout import LayoutConfig, LayoutFrame, fa2_step, init_layout, run_layout
from .collector import (
    AlertEvent,
    CollectorConfig,
    DeviationConfig,
    OutputRecord,
    SourceSpec,
    bucketize,
    detect_deviation,
    emit,
    poll_source,
    read_records,
    run_collector,
)
from .report import (
    AnalysisReport,
    RedactionPolicy,
    export_gexf,
    import_gexf,
    redact,
    render_report,
    report_from_json,
)
from .seeds import derive_seed

__all__ = [name for name in dir() if not name.startswith("_")]
