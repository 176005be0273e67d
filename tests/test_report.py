"""Reports, redaction and the GEXF codec.

``ref_export_gexf`` and ``ref_import_gexf`` below are the ElementTree
codec the streaming one replaced, kept verbatim apart from their ``ref_``
names. The streaming writer must reproduce their bytes and the streaming
reader their graphs, node order included.
"""

import io
import itertools
import json
import random
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Union

import pytest
from hypothesis import given, settings, strategies as st

from snsgraph.centrality import eigenvector_centrality
from snsgraph.collector import AlertEvent
from snsgraph.community import LouvainConfig, louvain
from snsgraph.errors import GexfParseError
from snsgraph.layout import LayoutConfig, LayoutFrame, run_layout
from snsgraph.model import (
    CentralityVector,
    Edge,
    Handle,
    InteractionGraph,
    InteractionKind,
    Partition,
)
from snsgraph.report import (
    _CHUNK,
    AnalysisReport,
    PLACEHOLDER,
    RedactionPolicy,
    export_gexf,
    import_gexf,
    redact,
    render_report,
    report_from_json,
)
from snsgraph.textmine import tokenize

from conftest import pairs_graph, random_connected_graph, two_triangle_graph


# --- reference ElementTree codec ----------------------------------------------

_GEXF_NS = "http://www.gexf.net/1.2draft"
_VIZ_NS = "http://www.gexf.net/1.2draft/viz"


def ref_export_gexf(
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

    nodes_elem = ET.SubElement(graph_elem, f"{{{_GEXF_NS}}}nodes")
    for handle in graph.handles:
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
    values = [h.value for h in graph.handles]
    kinds = [k.value for k in graph.kinds]
    ordered = zip(
        graph.src.tolist(), graph.dst.tolist(), graph.kind.tolist(), graph.weight.tolist()
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


def ref_import_gexf(source: Union[str, Path, IO[str]]) -> InteractionGraph:
    """Read a GEXF document back into an interaction graph.

    Unknown attributes are ignored; edges without a kind default to
    mention; undirected edges become two directed edges of equal weight.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return ref_import_gexf(fh)
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
    counts: dict[Edge, int] = {}
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
            key = (s, d, kind)
            counts[key] = counts.get(key, 0) + weight

    for i in sorted(id_to_handle):
        handles.setdefault(id_to_handle[i].value, id_to_handle[i])
    return InteractionGraph(counts, handles.values())


def sample_report(accounts=None):
    accounts = accounts if accounts is not None else (
        ("@jeremycorbyn", 0.015),
        ("@privateuser", 0.003),
    )
    return AnalysisReport(
        record_count=10,
        node_count=5,
        edge_count=7,
        modularity_q=0.25,
        community_count=2,
        top_accounts=tuple(accounts),
        top_terms=(("vote", 10, 0.4), ("rt", 30, 0.1)),
        alerts=(
            AlertEvent(
                metric="volume",
                bucket=datetime(2017, 4, 21, 10, 0, tzinfo=timezone.utc),
                observed=100.0,
                rolling_mean=10.0,
                rolling_std=0.0,
                z_score=90.0,
            ),
        ),
        metadata={"seed": 42},
    )


def sample_handles():
    """The graph handles behind :func:`sample_report`'s accounts."""
    return [Handle(h) for h, _ in sample_report().top_accounts]


class TestRedact:
    def test_allowlisted_kept_private_replaced(self):
        policy = RedactionPolicy.of("jeremycorbyn")
        redacted = redact(sample_report(), policy, sample_handles(), ())
        assert redacted.top_accounts == (
            ("@jeremycorbyn", 0.015), ("retracted", 0.003),
        )

    def test_empty_allowlist_redacts_all(self):
        redacted = redact(sample_report(), RedactionPolicy(), sample_handles(), ())
        assert all(h == "retracted" for h, _ in redacted.top_accounts)

    def test_idempotent(self):
        policy = RedactionPolicy.of("jeremycorbyn")
        once = redact(sample_report(), policy, sample_handles(), ())
        assert redact(once, policy, sample_handles(), ()) == once

    def test_numbers_rows_order_untouched(self):
        report = sample_report()
        redacted = redact(report, RedactionPolicy(), sample_handles(), ())
        assert [s for _, s in redacted.top_accounts] == [s for _, s in report.top_accounts]
        assert redacted.top_terms == report.top_terms
        assert redacted.modularity_q == report.modularity_q
        assert len(redacted.top_accounts) == len(report.top_accounts)

    def test_case_insensitive_allowlist(self):
        policy = RedactionPolicy.of("BarrYGardiner")
        report = sample_report(accounts=(("@barrygardiner", 0.002),))
        assert redact(report, policy, [Handle("barrygardiner")], ()).top_accounts == (("@barrygardiner", 0.002),)

    def test_terms_that_name_a_handle_are_redacted(self):
        report = replace(sample_report(), top_terms=(
            ("janedoe", 5, 0.3), ("vote", 4, 0.2), ("private", 3, 0.1), ("corbyn", 2, 0.1)))
        handles = [Handle("@JaneDoe_private"), Handle("corbyn")]
        redacted = redact(report, RedactionPolicy.of("Corbyn"), handles, ())
        assert redacted.top_terms == (
            (PLACEHOLDER, 5, 0.3), ("vote", 4, 0.2), (PLACEHOLDER, 3, 0.1), ("corbyn", 2, 0.1))
        assert redact(redacted, RedactionPolicy.of("Corbyn"), handles, ()) == redacted

    def test_words_written_as_handles_are_redacted(self):
        report = replace(sample_report(), top_terms=(
            ("janesecret", 5, 0.3), ("lunch", 4, 0.2), ("uklabour", 3, 0.1), ("fan", 2, 0.1)))
        written = ["JaneSecret", "UKLabour,", "uklabour_fan"]  # none is a graph handle
        redacted = redact(report, RedactionPolicy.of("uklabour"), [], written)
        assert redacted.top_terms == (
            (PLACEHOLDER, 5, 0.3), ("lunch", 4, 0.2), ("uklabour", 3, 0.1), (PLACEHOLDER, 2, 0.1))

    @settings(max_examples=150, deadline=None)
    @given(
        names=st.lists(st.text("aBz09_\u00e9\u00c9\u03a3\u03c3\u03c2\u00df\u0130",
                               min_size=1, max_size=8), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_no_term_names_a_handle_off_the_allowlist(self, names, data):
        # each handle is named in text as written, upper- or lowercased, with or
        # without its "@"; the terms are the texts' tokens and some plain words.
        # Some handles are in no graph: only their texts name them, with an "@"
        in_graph = [data.draw(st.booleans()) for _ in names]
        handles = [Handle(raw) for raw, kept in zip(names, in_graph) if kept]
        allowed = data.draw(st.sets(st.sampled_from(names)))
        written = [data.draw(st.sampled_from(["", "@", "@@"] if kept else ["@", "@@"]))
                   + data.draw(st.sampled_from([str, str.upper, str.lower]))(raw)
                   for raw, kept in zip(names, in_graph)]
        words = [text.lstrip("@") for text in written if text.startswith("@")]
        tokens = [tokenize(text) for text in written]
        terms = list(dict.fromkeys(
            [t for ts in tokens for t in ts] + ["vote", "uk", "b", "z9", "\u00e9"]))
        report = replace(sample_report(), top_terms=tuple(
            (term, 100 - i, 1 / (i + 1)) for i, term in enumerate(terms)))
        policy = RedactionPolicy.of(*allowed)
        redacted = redact(report, policy, handles, words)

        kept = {term for term, _, _ in redacted.top_terms}
        public = {t.casefold() for h in policy.allowlist for t in tokenize(h.value)}
        private = {t for raw, kept_, ts in zip(names, in_graph, tokens)
                   if Handle(raw) not in policy.allowlist
                   for t in ts if kept_ or t.casefold() not in public}
        assert kept & private <= {PLACEHOLDER}
        assert [row[1:] for row in redacted.top_terms] == [row[1:] for row in report.top_terms]
        named = {t.casefold() for h in handles if h not in policy.allowlist
                 for t in tokenize(h.value)}
        named |= {t.casefold() for w in words for t in tokenize(w)} - public
        for (term, _, _), (after, _, _) in zip(report.top_terms, redacted.top_terms):
            assert after == (PLACEHOLDER if term.casefold() in named else term)
        assert redact(redacted, policy, handles, words) == redacted


class TestGexfRoundTrip:
    def test_plain_graph(self):
        g = two_triangle_graph()
        sink = io.StringIO()
        export_gexf(g, sink)
        assert import_gexf(io.StringIO(sink.getvalue())) == g

    def test_kinds_and_weights_preserved(self):
        a, b, c = Handle("a"), Handle("b"), Handle("c")
        g = InteractionGraph(
            {
                (a, b, InteractionKind.REPLY): 2,
                (a, b, InteractionKind.MENTION): 5,
                (b, c, InteractionKind.FOLLOW): 1,
            }
        )
        sink = io.StringIO()
        export_gexf(g, sink)
        assert import_gexf(io.StringIO(sink.getvalue())) == g

    def test_attributes_attached_for_all_nodes(self):
        g = two_triangle_graph()
        partition = louvain(g, LouvainConfig(seed=1))
        centrality = eigenvector_centrality(g).vector
        frame = run_layout(g, LayoutConfig(iterations=5, seed=1))
        sink = io.StringIO()
        export_gexf(g, sink, positions=frame, partition=partition, centrality=centrality)
        doc = sink.getvalue()
        assert doc.count('for="community"') == g.node_count
        assert doc.count('for="eigenvector"') == g.node_count
        assert doc.count("position") == g.node_count
        assert import_gexf(io.StringIO(doc)) == g

    def test_partial_cover_rejected(self):
        g = two_triangle_graph()
        partition = louvain(g, LouvainConfig(seed=1))
        smaller = pairs_graph([("a1", "a2")])
        partition_small = louvain(smaller, LouvainConfig(seed=1))
        with pytest.raises(ValueError):
            export_gexf(g, io.StringIO(), partition=partition_small)

    def test_undirected_edges_become_two_directed(self):
        doc = """<?xml version="1.0"?>
        <gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
          <graph defaultedgetype="undirected">
            <nodes>
              <node id="a" label="@a"/><node id="b" label="@b"/>
            </nodes>
            <edges><edge id="0" source="a" target="b" weight="3.0"/></edges>
          </graph>
        </gexf>"""
        g = import_gexf(io.StringIO(doc))
        a, b = Handle("a"), Handle("b")
        assert g.edges == {
            (a, b, InteractionKind.MENTION): 3,
            (b, a, InteractionKind.MENTION): 3,
        }

    def test_kind_defaults_to_mention(self):
        doc = """<?xml version="1.0"?>
        <gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
          <graph defaultedgetype="directed">
            <nodes><node id="a"/><node id="b"/></nodes>
            <edges><edge id="0" source="a" target="b"/></edges>
          </graph>
        </gexf>"""
        g = import_gexf(io.StringIO(doc))
        assert g.edges == {(Handle("a"), Handle("b"), InteractionKind.MENTION): 1}

    def test_truncated_document_is_parse_error(self):
        g = two_triangle_graph()
        sink = io.StringIO()
        export_gexf(g, sink)
        truncated = sink.getvalue()[: len(sink.getvalue()) // 2]
        with pytest.raises(GexfParseError):
            import_gexf(io.StringIO(truncated))

    def test_non_gexf_rejected(self):
        with pytest.raises(GexfParseError):
            import_gexf(io.StringIO("<html></html>"))

    def test_file_roundtrip(self, tmp_path):
        g = two_triangle_graph()
        path = tmp_path / "graph.gexf"
        export_gexf(g, path)
        assert import_gexf(path) == g


# --- the streaming codec against the reference ---------------------------------

def is_handle(text):
    try:
        Handle(text)
    except ValueError:
        return False
    return True


# ElementTree escapes & < > " \r \n \t in attribute values; ' and é pass through.
HANDLE_TEXT = st.text(alphabet="aB&<>\"'\t\n\ré@ ", min_size=1, max_size=6).filter(is_handle)
# ElementTree names the locale's preferred encoding in the declaration;
# the streaming writer always declares what it writes.
DECLARATION = "<?xml version='1.0' encoding='utf-8'?>\n"


@st.composite
def attributed_graphs(draw):
    """A graph with hostile handles plus a frame, partition and centrality."""
    edges = {}
    for s, d, kind, w in draw(st.lists(st.tuples(
        HANDLE_TEXT, HANDLE_TEXT, st.sampled_from(InteractionKind), st.integers(1, 9),
    ), max_size=12)):
        if Handle(s) != Handle(d):
            edges[(Handle(s), Handle(d), kind)] = w
    isolated = [Handle(t) for t in draw(st.lists(HANDLE_TEXT, max_size=3))]
    graph = InteractionGraph(edges, extra_nodes=isolated)
    nodes = graph.nodes
    coords = st.floats(allow_nan=False, allow_infinity=False)
    frame = LayoutFrame({h: (draw(coords), draw(coords)) for h in nodes})
    raw = [draw(st.integers(0, 3)) for _ in nodes]
    dense = {c: i for i, c in enumerate(sorted(set(raw)))}
    partition = Partition({h: dense[c] for h, c in zip(nodes, raw)}, len(dense), 0.0)
    scores = [draw(st.floats(0.0, 1.0)) for _ in nodes]
    total = sum(scores)
    centrality = CentralityVector(
        {h: s / total if total else 1.0 / len(nodes) for h, s in zip(nodes, scores)}
    )
    return graph, frame, partition, centrality


def assert_same_documents(graph, frame=None, partition=None, centrality=None):
    """Every attribute combination: equal bytes, equal re-imported graphs."""
    for with_frame, with_partition, with_centrality in itertools.product((False, True), repeat=3):
        kwargs = dict(positions=frame if with_frame else None,
                      partition=partition if with_partition else None,
                      centrality=centrality if with_centrality else None)
        got, want = io.StringIO(), io.StringIO()
        export_gexf(graph, got, **kwargs)
        ref_export_gexf(graph, want, **kwargs)
        doc = got.getvalue()
        assert doc.startswith(DECLARATION)
        assert doc.partition("\n")[2] == want.getvalue().partition("\n")[2], kwargs
        assert_same_graphs(doc)
        assert import_gexf(io.BytesIO(doc.encode())) == graph


def assert_same_graphs(doc):
    got, want = import_gexf(io.StringIO(doc)), ref_import_gexf(io.StringIO(doc))
    assert got == want
    assert list(got.nodes) == list(want.nodes)
    return got


# Nested unknown elements and attributes: the last valid kind attvalue under
# an edge wins, counting node attvalues out and nested edges' attvalues in.
NESTED_KINDS = (
    '<g:gexf xmlns:g="http://www.gexf.net/1.2draft" xmlns:v="urn:v"><g:meta>'
    '<g:creator>x</g:creator></g:meta><g:graph mode="static"><g:nodes>'
    '<g:node id="a" v:size="3"><g:attvalues><g:attvalue for="kind" value="reply"/>'
    '</g:attvalues></g:node><g:node id="b" label="@b"><v:position x="1"/></g:node>'
    '<g:node id="c"/></g:nodes><g:edges><g:edge id="0" source="a" target="b">'
    '<g:attvalues><g:attvalue for="kind" value="follow"/><g:x><g:attvalue for="kind" '
    'value="reply"/></g:x><g:attvalue for="kind" value="nope"/>'
    '<g:attvalue for="other" value="mention"/></g:attvalues>'
    '<g:edge source="b" target="c"><g:attvalue for="kind" value="follow"/></g:edge>'
    '</g:edge><g:edge source="c" target="a" weight="2.4"/></g:edges></g:graph></g:gexf>'
)


class TestStreamingGexf:
    @settings(max_examples=150, deadline=None)
    @given(attributed_graphs())
    def test_matches_reference_on_hostile_handles(self, case):
        assert_same_documents(*case)

    def test_empty_graph(self):
        assert_same_documents(InteractionGraph({}), LayoutFrame({}),
                              Partition({}, 0, 0.0), CentralityVector({}))

    def test_more_edges_than_one_chunk(self):
        graph = random_connected_graph(120, 3 * _CHUNK, seed=5)
        assert graph.edge_count > _CHUNK
        rng = random.Random(6)
        frame = LayoutFrame({h: (rng.gauss(0, 9), rng.gauss(0, 9)) for h in graph.nodes})
        partition = Partition({h: i % 4 for i, h in enumerate(graph.nodes)}, 4, 0.0)
        centrality = eigenvector_centrality(graph).vector
        assert_same_documents(graph, frame, partition, centrality)

    @pytest.mark.parametrize("doc", [
        # undirected by default, one edge directed by type
        '<gexf><graph defaultedgetype="undirected"><nodes><node id="a" label="@a"/>'
        '<node id="b" label="B"/><node id="c"/></nodes><edges>'
        '<edge source="a" target="b" weight="2.0"/>'
        '<edge source="b" target="c" type="directed"/></edges></graph></gexf>',
        # missing kind, no namespace, no weight, unknown kind value
        '<gexf><graph><nodes><node id="a"/><node id="b"/></nodes><edges>'
        '<edge id="e" source="a" target="b"><attvalues>'
        '<attvalue for="kind" value="retweet"/></attvalues></edge></edges></graph></gexf>',
        # edges before nodes, isolated nodes, a self-loop
        '<gexf xmlns="http://www.gexf.net/1.2draft"><graph><edges>'
        '<edge source="x" target="y" weight="3"/><edge source="x" target="x"/></edges>'
        '<nodes><node id="y" label="@Yy"/><node id="x"/><node id="z" label="@zz"/>'
        '<node id="q"/><node id="p" label=" "/></nodes></graph></gexf>',
        # two graphs: only the first is read
        '<gexf><graph><nodes><node id="a"/><node id="b"/></nodes>'
        '<edges><edge source="a" target="b"/></edges></graph>'
        '<graph defaultedgetype="undirected"><nodes><node id="c"/></nodes>'
        '<edges><edge source="a" target="c"/></edges></graph></gexf>',
        NESTED_KINDS,
        # a node id declared twice: the last label wins
        '<gexf><graph><nodes><node id="a" label="one"/><node id="b"/>'
        '<node id="a" label="two"/></nodes><edges><edge source="a" target="b"/></edges>'
        '</graph></gexf>',
    ])
    def test_foreign_documents_match_reference(self, doc):
        graph = assert_same_graphs(doc)
        assert import_gexf(io.BytesIO(doc.encode())) == graph

    def test_nested_kinds(self):
        graph = import_gexf(io.StringIO(NESTED_KINDS))
        a, b, c = Handle("a"), Handle("b"), Handle("c")
        assert graph.edges == {
            (a, b, InteractionKind.FOLLOW): 1,  # the nested edge's attvalue is last
            (b, c, InteractionKind.FOLLOW): 1,
            (c, a, InteractionKind.MENTION): 2,
        }

    def test_weight_summed_past_int64_is_parse_error(self):
        # e1's undirected copy takes the (a, b, mention) count past 2**63 - 1
        doc = ('<gexf><graph><nodes><node id="a"/><node id="b"/></nodes><edges>'
               '<edge id="e0" source="a" target="b" weight="5e18"/>'
               '<edge id="e1" source="b" target="a" weight="5e18" type="undirected"/>'
               '</edges></graph></gexf>')
        with pytest.raises(GexfParseError, match="'e1'"):
            import_gexf(io.StringIO(doc))

    def test_faults_met_while_reading_come_first(self):
        # The undeclared b needs the whole document; the second edge's weight does not.
        doc = ('<gexf><graph><nodes><node id="a"/></nodes><edges>'
               '<edge source="a" target="b"/><edge source="a" target="a" weight="x"/>'
               '</edges></graph></gexf>')
        with pytest.raises(GexfParseError, match="unknown node 'a'/'b'"):
            ref_import_gexf(io.StringIO(doc))
        with pytest.raises(GexfParseError) as got:
            import_gexf(io.StringIO(doc))
        assert str(got.value) == "GEXF edge 'a->a' has weight 'x', not a positive count"

    @pytest.mark.parametrize("default, types", [
        ("directed", (None, "directed", "mutual")),
        ("undirected", (None, "undirected")),
    ])
    def test_edge_types_match_networkx(self, tmp_path, default, types):
        # networkx reads a mutual edge as both arcs, and rejects an edge whose type
        # goes against the graph's default; weights add up per ordered pair.
        nx = pytest.importorskip("networkx")
        rng = random.Random(3)
        ids = [f"n{i}" for i in range(8)]
        edges = "".join(
            f'<edge id="{i}" source="{s}" target="{d}" weight="{rng.randint(1, 9)}"'
            + (f' type="{kind}"' if kind else "") + "/>"
            for i, (s, d, kind) in enumerate(
                (*rng.sample(ids, 2), rng.choice(types)) for _ in range(40)))
        path = tmp_path / "graph.gexf"
        path.write_text(
            f'<gexf xmlns="{_GEXF_NS}" version="1.2"><graph defaultedgetype="{default}">'
            "<nodes>" + "".join(f'<node id="{i}"/>' for i in ids) + "</nodes>"
            f"<edges>{edges}</edges></graph></gexf>")
        want: dict = {}
        reference = nx.read_gexf(path)
        for s, d, w in reference.edges(data="weight"):
            for arc in ((s, d),) if reference.is_directed() else ((s, d), (d, s)):
                want[arc] = want.get(arc, 0) + w
        graph = import_gexf(path)
        got = {(s.value, d.value): w for (s, d, _), w in graph.edges.items()}
        assert got == want
        assert graph.total_weight == sum(want.values())

    @pytest.mark.parametrize("doc, positioned", [
        ('<gexf><graph><nodes><node id="a"/><node id="b"/></nodes><edges>'
         '<edge source="a" target="b"/></edges></graph>', True),
        ("<html></html>", False),
        ("<graph><nodes><node id='a'/></nodes></graph>", False),
        ("<gexf><meta/></gexf>", False),
        ("", True),
        ("<gexf><graph><nodes><node label='a'/></nodes></graph></gexf>", False),
        ("<gexf><graph><nodes><node id='a' label='@'/></nodes></graph></gexf>", False),
        ("<gexf><graph><nodes><node id='a'/></nodes><edges>"
         "<edge source='a' target='b'/></edges></graph></gexf>", False),
        ("<gexf><graph><nodes><node id='a'/><node id='b'/></nodes><edges>"
         "<edge source='a'/></edges></graph></gexf>", False),
        ("<gexf><graph><nodes><node id='a'/><node id='b'/></nodes><edges>"
         "<edge source='a' target='b' weight='inf'/></edges></graph></gexf>", False),
        # edges before nodes: the undeclared id is first named by the second edge
        ("<gexf><graph><edges><edge source='a' target='b'/><edge source='c' target='b'/>"
         "<edge source='d' target='c'/></edges><nodes><node id='b'/><node id='a'/>"
         "<node id='d'/></nodes></graph></gexf>", False),
    ])
    def test_both_readers_reject(self, doc, positioned):
        with pytest.raises(GexfParseError) as want:
            ref_import_gexf(io.StringIO(doc))
        with pytest.raises(GexfParseError) as got:
            import_gexf(io.StringIO(doc))
        assert str(got.value) == str(want.value)
        assert (got.value.line, got.value.column) == (want.value.line, want.value.column)
        assert (got.value.line is not None) == positioned


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    def test_peaks_are_a_quarter_of_the_reference(self, tmp_path):
        graph = random_connected_graph(2000, 4000, seed=11)
        nodes = graph.nodes
        frame = LayoutFrame({h: (i * 0.5, -i * 0.25) for i, h in enumerate(nodes)})
        partition = Partition({h: i % 7 for i, h in enumerate(nodes)}, 7, 0.0)
        centrality = CentralityVector({h: 1.0 / len(nodes) for h in nodes})
        kwargs = dict(positions=frame, partition=partition, centrality=centrality)
        path, ref_path = tmp_path / "new.gexf", tmp_path / "ref.gexf"
        export_peak = traced_peak(lambda: export_gexf(graph, path, **kwargs))
        ref_export_peak = traced_peak(lambda: ref_export_gexf(graph, ref_path, **kwargs))
        assert path.read_bytes().partition(b"\n")[2] == ref_path.read_bytes().partition(b"\n")[2]
        assert 4 * export_peak <= ref_export_peak, (export_peak, ref_export_peak)
        import_peak = traced_peak(lambda: import_gexf(path))
        ref_import_peak = traced_peak(lambda: ref_import_gexf(path))
        assert 4 * import_peak <= ref_import_peak, (import_peak, ref_import_peak)

    def test_import_holds_under_450_bytes_per_edge(self, tmp_path):
        # Holding a tuple per <edge> until the document ended peaked near 541 B per
        # edge; packing each edge as it closes leaves the two arc arrays and the index.
        graph = random_connected_graph(2000, 4000, seed=11)
        path = tmp_path / "graph.gexf"
        export_gexf(graph, path)
        peak = min(traced_peak(lambda: import_gexf(path)) for _ in range(3))
        assert graph.edge_count > 5_000
        assert peak / graph.edge_count < 450, peak / graph.edge_count

    def test_uncovered_partition_leaves_the_sink_untouched(self, tmp_path):
        path = tmp_path / "graph.gexf"
        path.write_text("previous run\n")
        small = louvain(pairs_graph([("a1", "a2")]), LouvainConfig(seed=1))
        with pytest.raises(ValueError, match="partition does not cover"):
            export_gexf(two_triangle_graph(), path, partition=small)
        assert path.read_text() == "previous run\n"


class TestRenderReport:
    def test_json_roundtrip(self):
        report = sample_report()
        again = report_from_json(render_report(report, "json"))
        assert again == report

    def test_text_tables_have_fixed_columns(self):
        text = render_report(sample_report(), "text")
        assert "handle" in text and "eigenvector" in text
        assert "term" in text and "mention_count" in text and "salience" in text
        assert "@jeremycorbyn" in text

    def test_alerts_serialized_in_order(self):
        report = sample_report()
        data = json.loads(render_report(report, "json"))
        assert [a["z_score"] for a in data["alerts"]] == [90.0]

    def test_byte_identical_rendering(self):
        assert render_report(sample_report()) == render_report(sample_report())

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(sample_report(), "pdf")
