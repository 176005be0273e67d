"""Analyst reports and interchange exports (GEXF, CSV, JSON).

Redaction is default-deny: every handle not on an explicit allowlist of
public accounts is replaced by a placeholder before a report leaves the
pipeline, leaving all numbers, orderings, and row counts untouched.

GEXF 1.2 export writes directed weighted edges, each with its interaction
kind, and community ids, eigenvector scores and layout positions as node
attributes when given, as formatted text in chunks of bounded size. Import
keeps only compact tuples from expat's callbacks and always reads UTF-8.
Neither builds an element tree, and an exported graph re-imports exactly.
Reports render as JSON or fixed-column text tables, and echo the seeds and
configuration that produced them so every number can be recomputed.
"""

from __future__ import annotations

import io
import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Union
from xml.parsers import expat

from .errors import GexfParseError
from .model import (
    CentralityVector,
    Handle,
    InteractionGraph,
    InteractionKind,
    Partition,
    ValueEdge,
)

if TYPE_CHECKING:  # annotations only: reading or writing GEXF needs neither module
    from .collector import AlertEvent
    from .layout import LayoutFrame

_GEXF_NS = "http://www.gexf.net/1.2draft"
_VIZ_NS = "http://www.gexf.net/1.2draft/viz"


@dataclass(frozen=True)
class RedactionPolicy:
    allowlist: frozenset[Handle] = frozenset()
    placeholder: str = "retracted"

    @classmethod
    def of(cls, *handles: str, placeholder: str = "retracted") -> "RedactionPolicy":
        return cls(frozenset(Handle(h) for h in handles), placeholder)

    def display(self, handle_text: str) -> str:
        """Allowlisted handles keep their display form, others the placeholder.

        Text equal to the placeholder stays redacted even if an account of
        that name is allowlisted — the safe direction under a collision.
        """
        if handle_text == self.placeholder:
            return self.placeholder
        try:
            handle = Handle(handle_text)
        except ValueError:
            return self.placeholder
        if handle in self.allowlist:
            return handle.display()
        return self.placeholder


@dataclass(frozen=True)
class AnalysisReport:
    record_count: int
    node_count: int
    edge_count: int
    modularity_q: float
    community_count: int
    top_accounts: tuple[tuple[str, float], ...]  # (display handle or placeholder, score)
    top_terms: tuple[tuple[str, int, float], ...]  # (term, mention_count, salience)
    alerts: tuple[AlertEvent, ...] = ()
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "corpus": {
                "records": self.record_count,
                "n": self.node_count,
                "m": self.edge_count,
            },
            "community": {
                "modularity_q": self.modularity_q,
                "community_count": self.community_count,
            },
            "top_accounts": [
                {"handle": h, "eigenvector": s} for h, s in self.top_accounts
            ],
            "top_terms": [
                {"term": t, "mention_count": c, "salience": s}
                for t, c, s in self.top_terms
            ],
            "alerts": [a.to_dict() for a in self.alerts],
            "metadata": self.metadata,
        }


def redact(report: AnalysisReport, policy: RedactionPolicy) -> AnalysisReport:
    """Replace non-allowlisted handles with the placeholder; idempotent."""
    accounts = tuple(
        (policy.display(handle), score) for handle, score in report.top_accounts
    )
    return replace(report, top_accounts=accounts)


# --- GEXF --------------------------------------------------------------------

_CHUNK = 1024  # nodes or edges formatted per write: bounds the writer's memory
_DIRECTED = {"directed": True, "undirected": False}  # by an edge's type attribute


def _escape(text: str) -> str:
    """Escape an attribute value by ElementTree's table."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def export_gexf(
    graph: InteractionGraph,
    sink: Union[str, Path, IO[str]],
    positions: LayoutFrame | None = None,
    partition: Partition | None = None,
    centrality: CentralityVector | None = None,
) -> None:
    """Write a GEXF 1.2 document with directed weighted kind-tagged edges."""
    for name, mapping in (("positions", positions and positions.positions),
                          ("partition", partition and partition.assignment),
                          ("centrality", centrality and centrality.scores)):
        missing = [h for h in graph.nodes if h not in mapping] if mapping is not None else []
        if missing:
            raise ValueError(f"{name} does not cover node {missing[0].display()}")

    ids = [_escape(h.value) for h in graph.handles]
    kinds = [k.value for k in graph.kinds]
    attributes = [(key, kind, text) for key, kind, text, given in (
        ("community", "integer", lambda h: partition.assignment[h], partition),
        ("eigenvector", "double", lambda h: repr(centrality.scores[h]), centrality),
    ) if given is not None]
    declared = "".join(f'      <attribute id="{key}" title="{key}" type="{kind}" />\n'
                       for key, kind, _ in attributes)
    viz = f' xmlns:viz="{_VIZ_NS}"' if positions is not None and ids else ""
    head = (
        "<?xml version='1.0' encoding='utf-8'?>\n"
        f'<gexf xmlns="{_GEXF_NS}"{viz} version="1.2">\n  <graph defaultedgetype="directed">\n'
        + (f'    <attributes class="node">\n{declared}    </attributes>\n' if declared
           else '    <attributes class="node" />\n')
        + '    <attributes class="edge">\n'
        '      <attribute id="kind" title="kind" type="string" />\n    </attributes>\n'
    )

    def nodes(lo: int, hi: int) -> Iterator[str]:
        for handle, value in zip(graph.handles[lo:hi], ids[lo:hi]):
            inner = "".join(f'          <attvalue for="{key}" value="{text(handle)}" />\n'
                            for key, _, text in attributes)
            inner = f"        <attvalues>\n{inner}        </attvalues>\n" if inner else ""
            if positions is not None:
                inner += ('        <viz:position x="{!r}" y="{!r}" z="0.0" />\n'
                          .format(*positions.positions[handle]))
            tag = f'      <node id="{value}" label="@{value}"'
            yield f"{tag}>\n{inner}      </node>\n" if inner else f"{tag} />\n"

    def edges(lo: int, hi: int) -> Iterator[str]:
        return (
            f'      <edge id="{i}" source="{ids[s]}" target="{ids[d]}" weight="{float(w)!r}">\n'
            f'        <attvalues>\n          <attvalue for="kind" value="{kinds[k]}" />\n'
            "        </attvalues>\n      </edge>\n"
            for i, s, d, k, w in zip(range(lo, hi), *(
                a[lo:hi].tolist() for a in (graph.src, graph.dst, graph.kind, graph.weight)))
        )

    named = isinstance(sink, (str, Path))
    with open(sink, "w", encoding="utf-8") if named else nullcontext(sink) as fh:
        fh.write(head)  # then at most _CHUNK nodes or edges per write
        for name, rows, count in (("nodes", nodes, len(ids)), ("edges", edges, graph.edge_count)):
            fh.write(f"    <{name}>\n" if count else f"    <{name} />\n")
            for lo in range(0, count, _CHUNK):
                fh.write("".join(rows(lo, lo + _CHUNK)))
            if count:
                fh.write(f"    </{name}>\n")
        fh.write("  </graph>\n</gexf>\n")


def import_gexf(source: Union[str, Path, IO[str]]) -> InteractionGraph:
    """Read a GEXF document back into an interaction graph.

    Unknown attributes are ignored; edges without a kind default to
    mention; undirected edges become two directed edges of equal weight.
    Only the first ``<graph>`` is read, edges may precede their nodes, and
    node ids whose labels name one handle are a :class:`GexfParseError`.
    """
    kinds = {k.value: k for k in InteractionKind}
    default_directed: bool | None = None  # set by the first <graph>
    nodes: list[tuple] = []  # (id, label) per <node> in the first <graph>
    edges: list[tuple] = []  # (id, source, target, weight, directed) per <edge> there
    edge_kinds: list[InteractionKind] = []  # the last valid kind attvalue under each
    open_edges: list[int] = []
    share = {}.setdefault  # one string object per distinct node id and weight
    depth = graph_depth = 0  # graph_depth: depth of the first <graph> while open

    def start(name, attrs):
        nonlocal depth, graph_depth, default_directed
        depth += 1
        local = name.rpartition("}")[2]
        if graph_depth:
            if local == "edge":
                open_edges.append(len(edges))
                get = attrs.get
                src, dst, weight = get("source"), get("target"), get("weight", "1")
                directed = _DIRECTED.get(get("type"), default_directed)
                edges.append((get("id"), share(src, src), share(dst, dst),
                              share(weight, weight), directed))
                edge_kinds.append(InteractionKind.MENTION)
            elif local == "node":
                nodes.append((attrs.get("id"), attrs.get("label")))
            elif local == "attvalue" and open_edges and attrs.get("for") == "kind":
                kind = kinds.get(attrs.get("value"))
                for i in open_edges if kind else ():
                    edge_kinds[i] = kind
        elif depth == 1 and local != "gexf":
            raise GexfParseError(f"not a GEXF document (root <{local}>)")
        elif local == "graph" and default_directed is None:
            default_directed = attrs.get("defaultedgetype", "directed") == "directed"
            graph_depth = depth

    def end(name):
        nonlocal depth, graph_depth
        if depth == graph_depth:
            graph_depth = 0
        elif graph_depth and name.rpartition("}")[2] == "edge":
            open_edges.pop()
        depth -= 1

    parser = expat.ParserCreate(encoding="utf-8", namespace_separator="}")
    parser.StartElementHandler, parser.EndElementHandler = start, end
    try:
        with open(source, "rb") if isinstance(source, (str, Path)) else nullcontext(source) as fh:
            while chunk := fh.read(1 << 16):
                parser.Parse(chunk, False)
            parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise GexfParseError(f"malformed GEXF: {exc}", line=exc.lineno, column=exc.offset) from exc
    if default_directed is None:
        raise GexfParseError("GEXF document has no <graph> element")

    id_to_handle: dict[str, Handle] = {}
    for node_id, label in nodes:
        if node_id is None:
            raise GexfParseError("GEXF node without an id")
        label = label or node_id
        try:
            id_to_handle[node_id] = Handle(label if label.strip() else node_id)
        except ValueError:
            raise GexfParseError(f"GEXF node {node_id!r} has an empty handle {label!r}") from None
    owner: dict[str, str] = {}
    for node_id, handle in id_to_handle.items():
        if owner.setdefault(handle.value, node_id) != node_id:
            raise GexfParseError(f"GEXF nodes {owner[handle.value]!r} and {node_id!r} "
                                 f"both name {handle.display()}")

    handles: dict[str, Handle] = {}
    counts: dict[ValueEdge, int] = {}
    for (edge_id, src_id, dst_id, raw_weight, directed), kind in zip(edges, edge_kinds):
        if src_id is None or dst_id is None:
            raise GexfParseError("GEXF edge without source/target")
        if src_id not in id_to_handle or dst_id not in id_to_handle:
            raise GexfParseError(f"GEXF edge references unknown node {src_id!r}/{dst_id!r}")
        try:
            weight = round(float(raw_weight))
        except (ValueError, OverflowError):  # not a number, NaN or infinite
            weight = 0
        if weight < 1:
            edge_id = f"{src_id}->{dst_id}" if edge_id is None else edge_id
            raise GexfParseError(f"GEXF edge {edge_id!r} "
                                 f"has weight {raw_weight!r}, not a positive count")
        src, dst = id_to_handle[src_id], id_to_handle[dst_id]
        if src.value == dst.value:
            continue
        for s, d in ((src, dst),) if directed else ((src, dst), (dst, src)):
            handles.setdefault(s.value, s)
            handles.setdefault(d.value, d)
            key = (s.value, d.value, kind)
            counts[key] = counts.get(key, 0) + weight

    for i in sorted(id_to_handle):
        handles.setdefault(id_to_handle[i].value, id_to_handle[i])
    return InteractionGraph.interned(handles, counts)


# --- rendering ---------------------------------------------------------------

def render_report(report: AnalysisReport, format: str = "json") -> str:
    """Serialize a report as JSON or fixed-column text tables."""
    if format == "json":
        return json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format: {format!r}")

    out = io.StringIO()
    out.write("== Corpus ==\n")
    out.write(f"records: {report.record_count}\n")
    out.write(f"n (nodes): {report.node_count}\n")
    out.write(f"m (edges): {report.edge_count}\n")
    out.write(f"modularity Q: {report.modularity_q:.6f}\n")
    out.write(f"communities: {report.community_count}\n")
    out.write("\n== Top accounts by eigenvector ==\n")
    out.write(f"{'handle':<32}{'eigenvector':>14}\n")
    for handle, score in report.top_accounts:
        out.write(f"{handle:<32}{score:>14.6f}\n")
    out.write("\n== Top terms ==\n")
    out.write(f"{'term':<32}{'mention_count':>14}{'salience':>12}\n")
    for term, count, salience in report.top_terms:
        out.write(f"{term:<32}{count:>14}{salience:>12.6f}\n")
    if report.alerts:
        out.write("\n== Alerts ==\n")
        for alert in report.alerts:
            out.write(
                f"{alert.to_dict()['bucket']} {alert.metric}: observed={alert.observed:g} "
                f"mean={alert.rolling_mean:g} z={alert.z_score:.2f}\n"
            )
    return out.getvalue()


def report_from_json(text: str) -> AnalysisReport:
    """Parse a JSON report back into the in-memory form (round-trip aid)."""
    from .collector import AlertEvent
    from .ingest import parse_rfc3339

    obj = json.loads(text)
    alerts = tuple(  # the inverse of AlertEvent.to_dict
        AlertEvent(**{**a, "bucket": parse_rfc3339(a["bucket"])}) for a in obj.get("alerts", [])
    )
    return AnalysisReport(
        record_count=obj["corpus"]["records"],
        node_count=obj["corpus"]["n"],
        edge_count=obj["corpus"]["m"],
        modularity_q=obj["community"]["modularity_q"],
        community_count=obj["community"]["community_count"],
        top_accounts=tuple(
            (a["handle"], a["eigenvector"]) for a in obj["top_accounts"]
        ),
        top_terms=tuple(
            (t["term"], t["mention_count"], t["salience"]) for t in obj["top_terms"]
        ),
        alerts=alerts,
        metadata=obj.get("metadata", {}),
    )
