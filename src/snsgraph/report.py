"""Analyst reports and interchange exports (GEXF, CSV, JSON).

Redaction is default-deny: every handle not on an explicit allowlist of
public accounts is replaced by a placeholder before a report leaves the
pipeline, leaving all numbers, orderings, and row counts untouched.

GEXF export targets version 1.2 with directed weighted edges; community
ids, eigenvector scores, and layout positions ride along as node
attributes when available, and each edge keeps its interaction kind so an
exported graph re-imports exactly. Reports render as machine-readable
JSON or as fixed-column text tables, and echo the seeds and configuration
that produced them so every number can be recomputed.
"""

from __future__ import annotations

import io
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Union

from .collector import AlertEvent
from .errors import GexfParseError
from .layout import LayoutFrame
from .model import (
    CentralityVector,
    Handle,
    InteractionGraph,
    InteractionKind,
    Partition,
    ValueEdge,
)

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

def export_gexf(
    graph: InteractionGraph,
    sink: Union[str, Path, IO[str]],
    positions: LayoutFrame | None = None,
    partition: Partition | None = None,
    centrality: CentralityVector | None = None,
) -> None:
    """Write a GEXF 1.2 document with directed weighted kind-tagged edges."""
    for name, mapping in (
        ("positions", positions.positions if positions else None),
        ("partition", partition.assignment if partition else None),
        ("centrality", centrality.scores if centrality else None),
    ):
        if mapping is not None:
            missing = [h for h in graph.nodes if h not in mapping]
            if missing:
                raise ValueError(
                    f"{name} does not cover node {missing[0].display()}"
                )

    ET.register_namespace("", _GEXF_NS)
    ET.register_namespace("viz", _VIZ_NS)
    root = ET.Element(f"{{{_GEXF_NS}}}gexf", version="1.2")
    graph_elem = ET.SubElement(
        root, f"{{{_GEXF_NS}}}graph", defaultedgetype="directed"
    )

    node_attrs = ET.SubElement(
        graph_elem, f"{{{_GEXF_NS}}}attributes", {"class": "node"}
    )
    if partition is not None:
        ET.SubElement(
            node_attrs,
            f"{{{_GEXF_NS}}}attribute",
            id="community", title="community", type="integer",
        )
    if centrality is not None:
        ET.SubElement(
            node_attrs,
            f"{{{_GEXF_NS}}}attribute",
            id="eigenvector", title="eigenvector", type="double",
        )
    edge_attrs = ET.SubElement(
        graph_elem, f"{{{_GEXF_NS}}}attributes", {"class": "edge"}
    )
    ET.SubElement(
        edge_attrs, f"{{{_GEXF_NS}}}attribute", id="kind", title="kind", type="string"
    )

    core = graph.core
    nodes_elem = ET.SubElement(graph_elem, f"{{{_GEXF_NS}}}nodes")
    for handle in core.handles:
        node = ET.SubElement(
            nodes_elem, f"{{{_GEXF_NS}}}node", id=handle.value, label=handle.display()
        )
        values = []
        if partition is not None:
            values.append(("community", str(partition.assignment[handle])))
        if centrality is not None:
            values.append(("eigenvector", repr(centrality.scores[handle])))
        if values:
            attv = ET.SubElement(node, f"{{{_GEXF_NS}}}attvalues")
            for key, val in values:
                ET.SubElement(
                    attv, f"{{{_GEXF_NS}}}attvalue", attrib={"for": key, "value": val}
                )
        if positions is not None:
            x, y = positions.positions[handle]
            ET.SubElement(
                node, f"{{{_VIZ_NS}}}position", x=repr(x), y=repr(y), z="0.0"
            )

    edges_elem = ET.SubElement(graph_elem, f"{{{_GEXF_NS}}}edges")
    values = [h.value for h in core.handles]
    kinds = [k.value for k in core.kinds]
    ordered = zip(
        core.src.tolist(), core.dst.tolist(), core.kind.tolist(), core.weight.tolist()
    )
    for i, (src, dst, kind, weight) in enumerate(ordered):
        edge = ET.SubElement(
            edges_elem,
            f"{{{_GEXF_NS}}}edge",
            id=str(i), source=values[src], target=values[dst], weight=repr(float(weight)),
        )
        attv = ET.SubElement(edge, f"{{{_GEXF_NS}}}attvalues")
        ET.SubElement(
            attv,
            f"{{{_GEXF_NS}}}attvalue",
            attrib={"for": "kind", "value": kinds[kind]},
        )

    ET.indent(root)
    document = ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(document)
    else:
        sink.write(document)


def import_gexf(source: Union[str, Path, IO[str]]) -> InteractionGraph:
    """Read a GEXF document back into an interaction graph.

    Unknown attributes are ignored; edges without a kind default to
    mention; undirected edges become two directed edges of equal weight.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return import_gexf(fh)
    try:
        tree = ET.parse(source)
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise GexfParseError(f"malformed GEXF: {exc}", line=line, column=column) from exc

    root = tree.getroot()
    if root.tag.rsplit("}", 1)[-1] != "gexf":
        raise GexfParseError(f"not a GEXF document (root <{root.tag}>)")

    def find_all(elem, name):
        return [e for e in elem.iter() if e.tag.rsplit("}", 1)[-1] == name]

    graph_elems = find_all(root, "graph")
    if not graph_elems:
        raise GexfParseError("GEXF document has no <graph> element")
    graph_elem = graph_elems[0]
    default_directed = graph_elem.get("defaultedgetype", "directed") == "directed"

    id_to_handle: dict[str, Handle] = {}
    for node in find_all(graph_elem, "node"):
        node_id = node.get("id")
        if node_id is None:
            raise GexfParseError("GEXF node without an id")
        label = node.get("label") or node_id
        try:
            id_to_handle[node_id] = Handle(label if label.strip() else node_id)
        except ValueError:
            raise GexfParseError(f"GEXF node {node_id!r} has an empty handle {label!r}") from None

    kinds = {k.value: k for k in InteractionKind}
    handles: dict[str, Handle] = {}
    counts: dict[ValueEdge, int] = {}
    for edge in find_all(graph_elem, "edge"):
        src_id, dst_id = edge.get("source"), edge.get("target")
        if src_id is None or dst_id is None:
            raise GexfParseError("GEXF edge without source/target")
        if src_id not in id_to_handle or dst_id not in id_to_handle:
            raise GexfParseError(f"GEXF edge references unknown node {src_id!r}/{dst_id!r}")
        try:
            weight = round(float(edge.get("weight", "1")))
        except (ValueError, OverflowError):  # not a number, NaN or infinite
            weight = 0
        if weight < 1:
            raise GexfParseError(f"GEXF edge {edge.get('id', f'{src_id}->{dst_id}')!r} "
                                 f"has weight {edge.get('weight')!r}, not a positive count")
        kind = InteractionKind.MENTION
        for attv in find_all(edge, "attvalue"):
            if attv.get("for") == "kind" and attv.get("value") in kinds:
                kind = kinds[attv.get("value")]
        directed = {"directed": True, "undirected": False}.get(
            edge.get("type", ""), default_directed
        )
        src, dst = id_to_handle[src_id], id_to_handle[dst_id]
        if src.value == dst.value:
            continue
        handles.setdefault(src.value, src)
        handles.setdefault(dst.value, dst)
        pairs = [(src, dst)] if directed else [(src, dst), (dst, src)]
        for s, d in pairs:
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
    obj = json.loads(text)
    from .ingest import parse_rfc3339

    alerts = tuple(
        AlertEvent(
            metric=a["metric"],
            bucket=parse_rfc3339(a["bucket"]),
            observed=a["observed"],
            rolling_mean=a["rolling_mean"],
            rolling_std=a["rolling_std"],
            z_score=a["z_score"],
        )
        for a in obj.get("alerts", [])
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
