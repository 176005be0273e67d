"""Traced run of one ``snsgraph`` subcommand, for the per-layer breakdown.

Usage::

    python3 perfbench/traced.py --run-id ID --trace-out FILE -- <subcommand> <flags>

The subcommand runs through ``snsgraph.cli.main`` itself. Before it starts,
the public function of every layer is wrapped where the program looks it
up: the names ``snsgraph.cli`` imports, plus the functions the collector,
Louvain and the model views call from inside their own layers. Each
wrapped call is a span named ``<layer>.<function>``, or, for the functions
called once per record (``sentiment``, ``emit``), a time and count
accumulated in counters. Counters come from the wrapped calls' arguments
and return values. Spans and counters stay in memory and are written to
``--trace-out`` at exit, with every span's self time.

If the subcommand ran a layout, ``repulsion_forces`` is then timed
``REPULSION_CALLS`` times on the same graph and initial frame, with the
kernel that ``run_layout`` picked. One process traces one subcommand, as
the CLI runs one subcommand per process, so memory high-water marks are
per-process like the CLI's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPULSION_CALLS = 3
# Spans whose memory high-water mark is reported, taken when each first ends.
RSS_SPANS = (
    "ingest.parse", "ingest.build_graph", "community.louvain",
    "layout.run", "report.export_gexf", "report.import_gexf",
)


def rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Nested spans and counters of one process, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.results: dict = {}
        self._open: list[dict] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            if name in RSS_SPANS:
                self.counters.setdefault(f"{name}.rss_hwm_mb", rss_hwm_mb())

    def count(self, name: str, value) -> None:
        self.counters[name] = float(value)

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def wrap(self, module, attr: str, name: str | None = None, after=None,
             tally: bool = False) -> None:
        """Replace ``module.attr`` by a call that is spanned as ``name`` (or,
        with ``tally``, timed into the counter ``<name>_s``; with no name,
        not timed) and then handed to ``after(result, *args)``."""
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            if tally:
                start = time.perf_counter()
                result = original(*args, **kwargs)
                self.add(f"{name}_s", time.perf_counter() - start)
            elif name:
                with self.span(name):
                    result = original(*args, **kwargs)
            else:
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        setattr(module, attr, wrapped)
        self._undo.append(lambda: setattr(module, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: Path) -> None:
        child_time = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] = (
                    child_time.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
                )
        spans = [
            dict(rec, self=rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0))
            for rec in self.spans
        ]
        Path(path).write_text(
            json.dumps(
                {"run_id": self.run_id, "spans": spans,
                 "counters": self.counters, "results": self.results},
                indent=1,
            ) + "\n",
            encoding="utf-8",
        )


def instrument(t: Tracer, sg) -> dict:
    """Wrap every layer's public function; returns where ``run_layout``'s
    arguments are kept for the repulsion calls."""
    cli, collector = sg.cli, sg.collector
    layout_call: dict = {}

    def parsed(result, *args):
        records, diagnostics = result
        t.count("ingest.records_in", len(records) + len(diagnostics))
        t.count("ingest.parse_diagnostics", len(diagnostics))
        t.count("ingest.records_kept", len(records))

    def built(result, *args):
        graph, stats = result
        for key in ("interactions", "self_loops_dropped"):
            t.count(f"ingest.{key}", getattr(stats, key))
        t.count("ingest.n", stats.node_count)
        t.count("ingest.m", stats.edge_count)
        t.results.update(n=graph.node_count, m=graph.edge_count)

    def partitioned(partition, *args):
        t.count("community.modularity_q", partition.modularity_q)
        t.count("community.communities", partition.community_count)
        t.results["q"] = partition.modularity_q

    def powered(result, *args):
        t.count("centrality.iterations", result.iterations)
        t.count("centrality.converged", result.converged)

    def laid_out(frame, graph, config, *rest):
        t.count("layout.iterations", config.iterations)
        t.count("layout.barnes_hut", config.use_barnes_hut(graph.node_count))
        layout_call.update(graph=graph, config=config)

    def bucketized(series, records, config, *rest):
        if config.metric == "volume":
            t.count("collector.buckets", len(series))

    def collected(stats, *args):
        t.count("collector.records_emitted", stats.records_emitted)
        t.count("collector.duplicates_dropped", stats.duplicates_dropped)
        t.count("collector.items_fetched", stats.records_emitted + stats.duplicates_dropped)

    t.wrap(cli, "parse_corpus", "ingest.parse", parsed)
    t.wrap(cli, "filter_topic", "ingest.filter",
           lambda records, *a: t.count("ingest.records_kept", len(records)))
    t.wrap(cli, "build_graph", "ingest.build_graph", built)
    t.wrap(cli, "import_gexf", "report.import_gexf",
           lambda g, *a: t.results.update(n=g.node_count, m=g.edge_count))
    t.wrap(cli, "louvain", "community.louvain", partitioned)
    t.wrap(sg.community, "louvain_trace",
           after=lambda result, *a: t.count("community.passes", len(result[1])))
    t.wrap(cli, "eigenvector_centrality", "centrality.power", powered)
    t.wrap(cli, "top_k", after=lambda ranking, *a: t.results.update(
        top_accounts=[[h.display(), repr(s)] for h, s in ranking]))
    t.wrap(cli, "term_stats", "textmine.term_stats",
           lambda stats, *a: t.count("textmine.vocabulary", len(stats)))
    t.wrap(cli, "top_terms", after=lambda ranked, *a: t.results.update(
        top_terms=[[s.term, s.mention_count, repr(s.salience)] for s in ranked]))
    for module in (cli, collector):  # `text` scores in the CLI, `report` in bucketize
        t.wrap(module, "sentiment", "textmine.sentiment", tally=True,
               after=lambda s, *a: t.add("textmine.scored_records", not s.neutral))
        t.wrap(module, "bucketize", "collector.bucketize", bucketized)
        t.wrap(module, "detect_deviation", "collector.detect",
               lambda alerts, *a: t.add("collector.alerts", len(alerts)))
    t.wrap(cli, "run_layout", "layout.run", laid_out)
    t.wrap(cli, "run_collector", "collector.run", collected)
    t.wrap(collector, "poll_source", "collector.poll")
    t.wrap(collector, "emit", "collector.emit", tally=True)
    t.wrap(cli, "redact", "report.redact")
    t.wrap(cli, "render_report", "report.render")
    t.wrap(cli, "export_gexf", "report.export_gexf")
    for module in (sg.model, sg.centrality):
        t.wrap(module, "merge_kinds", "model.merge_kinds")
    for module in (sg.community, sg.centrality, sg.layout):
        t.wrap(module, "undirected_view", "model.undirected_view")
    return layout_call


def repulsion_calls(t: Tracer, sg, graph, config) -> None:
    """Time ``repulsion_forces`` on the initial frame with the kernel
    ``run_layout`` picks for this graph."""
    view = sg.undirected_view(graph)
    frame = sg.init_layout(view, config.seed)
    barnes_hut = config.use_barnes_hut(view.node_count)
    for _ in range(REPULSION_CALLS):
        with t.span("layout.repulsion_call"):
            sg.layout.repulsion_forces(view, frame, config, barnes_hut=barnes_hut)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import snsgraph
    import snsgraph.cli

    tracer = Tracer(args.run_id)
    layout_call = instrument(tracer, snsgraph)
    try:
        with tracer.span(f"cli.{command[0]}"):
            code = snsgraph.cli.main(command)
    finally:
        tracer.restore()
    if code != 0:
        return code
    if layout_call:
        repulsion_calls(tracer, snsgraph, layout_call["graph"], layout_call["config"])
    tracer.dump(Path(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
