"""Relatedness graph: canonical ads joined by shared identifiers.

Each identifier shared by n ads could induce a clique of n(n-1)/2
edges; instead edges are materialized as a star around the lowest ad_id
sharing it. Connectivity (hence components) is identical to the clique
form, edge count stays linear, and every edge records which identifiers
back it.

The graph is built from the rows of clusters.jsonl, identifiers.jsonl
and records.jsonl as they are read: one map from each clustered ad to
its canonical node takes each identifier row and each record's locations
to that node, and a row that contradicts the clusters stops the build.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Literal

from .corpus import AdRecord, atomic_open
from .dedup import DuplicateCluster
from .errors import PipelineError
from .extract import AdIdentifier
from .unionfind import UnionFind

log = logging.getLogger(__name__)


@dataclass
class GraphEdge:
    """Edge between two canonical ads, with the identifiers they share."""

    a: str
    b: str
    shared: list[str]  # "kind:canonical" strings, sorted


@dataclass
class RelatednessGraph:
    nodes: list[str]
    edges: list[GraphEdge]
    components: dict[int, list[str]]  # in id order
    # per canonical node: all "kind:canonical" identifier keys, and raw
    # location strings, unioned over the duplicate cluster's members
    node_identifiers: dict[str, list[str]] = field(default_factory=dict)
    node_locations: dict[str, list[str]] = field(default_factory=dict)
    quarantined: list[dict] = field(default_factory=list)
    materialization: Literal["star"] = "star"
    # derived from components, so graph.json does not store it
    component_of: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.component_of = {node: idx for idx, members in self.components.items() for node in members}
        # graph.json is parsed through here: its components must partition its nodes
        if not all(self.components.values()):
            raise PipelineError("a component is empty")
        once = sum(map(len, self.components.values())) == len(self.component_of) == len(self.nodes)
        if not once or self.component_of.keys() != set(self.nodes):
            raise PipelineError("the components do not list each node exactly once")


@dataclass
class ComponentStats:
    """Component count histogram over fixed size buckets."""

    buckets: dict[str, int]
    total_components: int


BUCKET_LABELS = ("1", "2-10", "10-100", "100-1000", "1000+")


def size_bucket(size: int) -> str:
    """Bucket label for one component size (2-10 inclusive, then half-open)."""
    if size <= 0:
        raise ValueError("component size must be positive")
    if size == 1:
        return "1"
    if size <= 10:
        return "2-10"
    if size <= 100:
        return "10-100"
    if size <= 1000:
        return "100-1000"
    return "1000+"


class InconsistentInput(ValueError):
    """A row of one input that contradicts the others; `artifact` names
    that input: "clusters", "identifiers" or "records"."""

    def __init__(self, artifact: str, reason: str):
        super().__init__(reason)
        self.artifact = artifact


def build_graph(
    clusters: Iterable[DuplicateCluster],
    identifiers: Iterable[AdIdentifier],
    records: Iterable[AdRecord],
    quarantine_cap: int | None = None,
) -> RelatednessGraph:
    """Build the graph over cluster canonicals.

    The identifier rows and the record locations of every cluster member
    count for its canonical. An identifier shared by more ads than
    quarantine_cap (when set) is excluded from linking and recorded in
    graph.quarantined. A canonical or an ad in two clusters, a canonical
    outside its cluster, or an identifier or record row whose ad is in no
    cluster raises InconsistentInput.
    """
    clusters = list(clusters)
    nodes = sorted(c.canonical_id for c in clusters)
    ids_of_node: dict[str, set[str]] = {n: set() for n in nodes}
    locs_of_node: dict[str, set[str]] = {n: set() for n in nodes}
    node_of = {member: c.canonical_id for c in clusters for member in c.member_ids}
    if len(ids_of_node) != len(nodes):
        raise InconsistentInput("clusters", "a canonical id is in two clusters")
    if len(node_of) != sum(len(c.member_ids) for c in clusters):
        raise InconsistentInput("clusters", "an ad is in two clusters")
    if any(node_of.get(c.canonical_id) != c.canonical_id for c in clusters):
        raise InconsistentInput("clusters", "a canonical id is not a member of its cluster")
    for row in identifiers:
        if row.ad_id not in node_of:
            raise InconsistentInput("identifiers", f"ad {row.ad_id!r} is in no cluster")
        ids_of_node[node_of[row.ad_id]].add(f"{row.kind}:{row.canonical}")
    for record in records:
        if record.ad_id not in node_of:
            raise InconsistentInput("records", f"ad {record.ad_id!r} is in no cluster")
        locs_of_node[node_of[record.ad_id]].update(filter(None, map(str.strip, record.locations)))

    sharers: dict[str, list[str]] = {}
    for node in nodes:
        for key in ids_of_node[node]:
            sharers.setdefault(key, []).append(node)

    quarantined: list[dict] = []
    uf = UnionFind(nodes)
    edge_shared: dict[tuple[str, str], list[str]] = {}
    for key in sorted(sharers):
        members = sorted(sharers[key])
        if len(members) < 2:
            continue
        if quarantine_cap is not None and len(members) > quarantine_cap:
            # keys in graph.json's sorted order, so the built graph equals its parse
            quarantined.append({"ad_count": len(members), "identifier": key})
            log.info("quarantined identifier %s shared by %d ads", key, len(members))
            continue
        hub = members[0]
        for other in members[1:]:
            uf.union(hub, other)
            edge_shared.setdefault((hub, other), []).append(key)

    edges = [
        GraphEdge(a=a, b=b, shared=sorted(shared))
        for (a, b), shared in sorted(edge_shared.items())
    ]

    groups = sorted(uf.groups().values(), key=lambda members: members[0])
    return RelatednessGraph(
        nodes=nodes,
        edges=edges,
        components=dict(enumerate(groups)),
        node_identifiers={n: sorted(ids_of_node[n]) for n in nodes},
        node_locations={n: sorted(locs_of_node[n]) for n in nodes},
        quarantined=quarantined,
    )


def component_stats(graph: RelatednessGraph) -> ComponentStats:
    buckets = {label: 0 for label in BUCKET_LABELS}
    for members in graph.components.values():
        buckets[size_bucket(len(members))] += 1
    return ComponentStats(buckets=buckets, total_components=len(graph.components))


def stats_to_csv(stats: ComponentStats, path: str | Path) -> None:
    lines = ["bucket,components"]
    lines.extend(f"{label},{stats.buckets[label]}" for label in BUCKET_LABELS)
    lines.append(f"total,{stats.total_components}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _subgraph_view(graph: RelatednessGraph, component: int | None):
    if component is None:
        return graph.nodes, graph.edges
    if component not in graph.components:
        raise ValueError(f"no component {component} in graph")
    keep = set(graph.components[component])
    nodes = [n for n in graph.nodes if n in keep]
    edges = [e for e in graph.edges if e.a in keep and e.b in keep]
    return nodes, edges


_GRAPHML_HEAD = """<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key for="graph" id="d0" attr.name="materialization" attr.type="string" />
  <key for="node" id="d1" attr.name="component" attr.type="int" />
  <key for="edge" id="d2" attr.name="shared_identifiers" attr.type="string" />
  <key for="node" id="d3" attr.name="ad_id" attr.type="string" />
  <graph id="relatedness" edgedefault="undirected">
"""


def _xml_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _xml_attr(s: str) -> str:
    return (
        _xml_text(s)
        .replace('"', "&quot;")
        .replace("\r", "&#13;")
        .replace("\n", "&#10;")
        .replace("\t", "&#09;")
    )


def _xml_data(indent: str, key: str, text: str) -> str:
    # ElementTree's rendering: an element with empty text closes itself
    if not text:
        return f'{indent}<data key="{key}" />\n'
    return f'{indent}<data key="{key}">{_xml_text(text)}</data>\n'


def export_graphml(graph: RelatednessGraph, path: str | Path, component: int | None = None) -> None:
    """Write GraphML with component and shared-identifier attributes.

    The lines are formatted directly, indented and escaped as
    ElementTree writes them.
    """
    nodes, edges = _subgraph_view(graph, component)
    parts = [_GRAPHML_HEAD, _xml_data("    ", "d0", graph.materialization)]
    for node in nodes:
        parts.append(f'    <node id="{_xml_attr(node)}">\n')
        parts.append(_xml_data("      ", "d1", str(graph.component_of[node])))
        parts.append(_xml_data("      ", "d3", node))
        parts.append("    </node>\n")
    for idx, edge in enumerate(edges):
        parts.append(
            f'    <edge id="e{idx}" source="{_xml_attr(edge.a)}" target="{_xml_attr(edge.b)}">\n'
        )
        parts.append(_xml_data("      ", "d2", ";".join(edge.shared)))
        parts.append("    </edge>\n")
    parts.append("  </graph>\n</graphml>\n")
    with atomic_open(path, binary=True) as fh:
        # a character utf-8 cannot encode (a lone surrogate) becomes a
        # character reference, as ElementTree writes it
        fh.write("".join(parts).encode("utf-8", "xmlcharrefreplace"))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: RelatednessGraph, path: str | Path, component: int | None = None) -> None:
    """Write a Graphviz DOT rendering of the graph."""
    nodes, edges = _subgraph_view(graph, component)
    lines = ["graph relatedness {", f"  // materialization: {graph.materialization}"]
    for node in nodes:
        lines.append(f"  {_dot_quote(node)} [ad_id={_dot_quote(node)}, component={graph.component_of[node]}];")
    for edge in edges:
        label = _dot_quote(";".join(edge.shared))
        lines.append(f"  {_dot_quote(edge.a)} -- {_dot_quote(edge.b)} [shared_identifiers={label}];")
    lines.append("}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
