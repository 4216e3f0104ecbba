import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgraph import graph as g
from adgraph.dedup import DuplicateCluster
from adgraph.errors import PipelineError
from adgraph.extract import Identifier
from adgraph.pipeline import FORMATS

from conftest import graph_of
from oracles import components_ref, export_graphml_ref


def cluster(canonical, members=None):
    members = members or [canonical]
    return DuplicateCluster(canonical, sorted(members), "exact")


def phone(canonical):
    return Identifier("phone", canonical, canonical)


def _random_world(seed, n_clusters=12):
    """Random clusters with random identifier assignments."""
    rng = random.Random(seed)
    clusters = []
    ids_by_ad = {}
    pool = [f"55512301{i:02d}" for i in range(6)]
    counter = 0
    for _ in range(n_clusters):
        canonical = f"c{counter:03d}"
        members = [canonical]
        for _ in range(rng.randint(0, 2)):
            counter += 1
            members.append(f"c{counter:03d}")
        counter += 1
        clusters.append(cluster(canonical, members))
        for m in members:
            ids_by_ad[m] = [phone(rng.choice(pool)) for _ in range(rng.randint(0, 2))]
    return clusters, ids_by_ad


class TestBuildGraph:
    def test_partition_matches_bfs_reference(self):
        for seed in (1, 2, 3, 4, 5, 6):
            clusters, ids_by_ad = _random_world(seed)
            built = graph_of(clusters, ids_by_ad)
            got = {frozenset(m) for m in built.components.values()}
            want = components_ref(
                {c.canonical_id: list(c.member_ids) for c in clusters},
                {ad: [(i.kind, i.canonical) for i in ids] for ad, ids in ids_by_ad.items()},
            )
            assert got == want

    def test_nodes_are_sorted_canonicals(self):
        clusters = [cluster("b1"), cluster("a1", ["a1", "a2"])]
        built = graph_of(clusters, {})
        assert built.nodes == ["a1", "b1"]

    def test_member_identifiers_count_for_canonical(self):
        clusters = [cluster("a1", ["a1", "a2"]), cluster("b1")]
        ids = {"a2": [phone("5551230100")], "b1": [phone("5551230100")]}
        built = graph_of(clusters, ids)
        assert built.component_of["a1"] == built.component_of["b1"]
        assert built.node_identifiers["a1"] == ["phone:5551230100"]

    def test_star_edges_hub_is_lowest_id(self):
        clusters = [cluster("a"), cluster("b"), cluster("c")]
        ids = {x: [phone("5551230100")] for x in "abc"}
        built = graph_of(clusters, ids)
        assert [(e.a, e.b) for e in built.edges] == [("a", "b"), ("a", "c")]
        assert all(e.shared == ["phone:5551230100"] for e in built.edges)

    def test_component_ids_ordered_by_min_member(self):
        clusters = [cluster(x) for x in ("a", "b", "c", "d")]
        ids = {"b": [phone("5551230101")], "d": [phone("5551230101")]}
        built = graph_of(clusters, ids)
        mins = [min(m) for _, m in sorted(built.components.items())]
        assert mins == sorted(mins)
        assert built.components[0] == ["a"]
        assert built.components[1] == ["b", "d"]

    def test_locations_unioned_and_stripped(self):
        clusters = [cluster("a1", ["a1", "a2"])]
        locs = {"a1": [" dallas "], "a2": ["austin", ""]}
        built = graph_of(clusters, {}, locs)
        assert built.node_locations["a1"] == ["austin", "dallas"]

    def test_quarantine_excludes_busy_identifier(self):
        clusters = [cluster(x) for x in "abcd"]
        ids = {x: [phone("5551230100")] for x in "abcd"}
        built = graph_of(clusters, ids, quarantine_cap=3)
        assert len(built.components) == 4
        assert built.edges == []
        assert built.quarantined == [
            {"identifier": "phone:5551230100", "ad_count": 4}
        ]

    def test_no_quarantine_by_default(self):
        clusters = [cluster(x) for x in "abcd"]
        ids = {x: [phone("5551230100")] for x in "abcd"}
        built = graph_of(clusters, ids)
        assert len(built.components) == 1
        assert built.quarantined == []

    def test_duplicate_canonical_rejected(self):
        with pytest.raises(ValueError):
            graph_of([cluster("a"), cluster("a")], {})

    @pytest.mark.parametrize(
        "clusters, ids, locs, artifact",
        [
            ([cluster("a"), cluster("a")], {}, {}, "clusters"),
            ([cluster("a", ["a", "b"]), cluster("c", ["b", "c"])], {}, {}, "clusters"),
            ([cluster("a", ["b"])], {}, {}, "clusters"),
            ([cluster("a")], {"b": [phone("5551230100")]}, {}, "identifiers"),
            ([cluster("a")], {}, {"b": ["dallas"]}, "records"),
        ],
        ids=["canonical-repeated", "ad-in-two-clusters", "canonical-outside-its-cluster", "identifier-unclustered", "record-unclustered"],
    )
    def test_inconsistent_rows_name_their_input(self, clusters, ids, locs, artifact):
        with pytest.raises(g.InconsistentInput) as exc:
            graph_of(clusters, ids, locs)
        assert exc.value.artifact == artifact

    @pytest.mark.parametrize(
        "nodes, components",
        [(["a"], {0: ["a"], 1: []}), (["a", "b"], {0: ["a", "b"], 1: ["b"]}),
         (["a", "b"], {0: ["a"]}), (["a"], {0: ["a", "b"]}), (["a", "a"], {0: ["a"], 1: ["a"]})],
        ids=["empty", "node-in-two", "node-in-none", "member-not-a-node", "node-repeated"],
    )
    def test_components_must_partition_the_nodes(self, nodes, components):
        with pytest.raises(PipelineError):
            g.RelatednessGraph(nodes=nodes, edges=[], components=components)

    def test_edges_within_components(self):
        clusters, ids_by_ad = _random_world(9)
        built = graph_of(clusters, ids_by_ad)
        for e in built.edges:
            assert built.component_of[e.a] == built.component_of[e.b]
            assert e.shared == sorted(e.shared)


class TestStats:
    @pytest.mark.parametrize(
        "size,label",
        [(1, "1"), (2, "2-10"), (10, "2-10"), (11, "10-100"), (100, "10-100"),
         (101, "100-1000"), (1000, "100-1000"), (1001, "1000+")],
    )
    def test_bucket_boundaries(self, size, label):
        assert g.size_bucket(size) == label

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            g.size_bucket(0)

    def test_counts(self):
        built = g.RelatednessGraph(
            nodes=[f"n{i}" for i in range(17)],
            edges=[],
            components={0: ["n0"], 1: ["n1"], 2: [f"n{i}" for i in range(2, 5)],
                        3: [f"n{i}" for i in range(5, 17)]},
        )
        stats = g.component_stats(built)
        assert stats.buckets == {"1": 2, "2-10": 1, "10-100": 1, "100-1000": 0, "1000+": 0}
        assert stats.total_components == 4

    def test_csv_layout(self, tmp_path):
        built = g.RelatednessGraph(
            nodes=["a"], edges=[], components={0: ["a"]}
        )
        path = tmp_path / "stats.csv"
        g.stats_to_csv(g.component_stats(built), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bucket,components"
        assert lines[1] == "1,1"
        assert lines[-1] == "total,1"


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        clusters, ids_by_ad = _random_world(11)
        built = graph_of(clusters, ids_by_ad, {"c000": ["dallas"]})
        path = tmp_path / "graph.json"
        graph_json = FORMATS["graph"]
        graph_json.write(path, built)
        again = graph_json.parse(path)
        # every field, component_of (derived from components) included
        assert again == built

    def test_graphml_reparses_with_attributes(self, tmp_path):
        nx = pytest.importorskip("networkx")
        clusters, ids_by_ad = _random_world(12)
        built = graph_of(clusters, ids_by_ad)
        path = tmp_path / "graph.graphml"
        g.export_graphml(built, path)
        parsed = nx.read_graphml(path)
        assert set(parsed.nodes) == set(built.nodes)
        for node in built.nodes:
            assert parsed.nodes[node]["component"] == built.component_of[node]
            assert parsed.nodes[node]["ad_id"] == node
        assert parsed.number_of_edges() == len(built.edges)
        for e in built.edges:
            assert parsed.edges[e.a, e.b]["shared_identifiers"] == ";".join(e.shared)
        assert parsed.graph["materialization"] == "star"

    def test_graphml_component_filter(self, tmp_path):
        nx = pytest.importorskip("networkx")
        clusters = [cluster("a"), cluster("b"), cluster("c")]
        ids = {"a": [phone("5551230100")], "b": [phone("5551230100")]}
        built = graph_of(clusters, ids)
        path = tmp_path / "part.graphml"
        g.export_graphml(built, path, component=0)
        parsed = nx.read_graphml(path)
        assert set(parsed.nodes) == {"a", "b"}

    def test_dot_output(self, tmp_path):
        clusters = [cluster("a"), cluster("b")]
        ids = {"a": [phone("5551230100")], "b": [phone("5551230100")]}
        built = graph_of(clusters, ids)
        path = tmp_path / "graph.dot"
        g.export_dot(built, path)
        text = path.read_text()
        assert text.startswith("graph relatedness {")
        assert '"a" -- "b" [shared_identifiers="phone:5551230100"];' in text
        assert "// materialization: star" in text
        assert '"a" [ad_id="a", component=0];' in text

    def test_dot_unknown_component_raises(self, tmp_path):
        built = graph_of([cluster("a")], {})
        with pytest.raises(ValueError):
            g.export_dot(built, tmp_path / "x.dot", component=9)


# markup, quotes, whitespace that attributes escape, emoji, control
# characters and a lone surrogate, mixed into arbitrary text
_XML_HOSTILE = st.text(
    alphabet=st.one_of(
        st.sampled_from("&<>\"'\t\n\r; \x00\x01\x1b\x7f\x85\u2028\U0001F600\ud800"),
        st.characters(),
    ),
    max_size=8,
)


@st.composite
def _hostile_graphs(draw):
    ads = draw(st.lists(_XML_HOSTILE, unique=True, max_size=8))
    keys = draw(st.lists(_XML_HOSTILE, max_size=4))
    pick = st.lists(st.sampled_from(keys), max_size=3) if keys else st.just([])
    ids_by_ad = {ad: [Identifier("phone", k, k) for k in draw(pick)] for ad in ads}
    built = graph_of([cluster(ad) for ad in ads], ids_by_ad)
    component = draw(st.none() | st.sampled_from(sorted(built.components))) if built.components else None
    return built, component


class TestGraphmlWriter:
    """export_graphml formats its lines itself; the bytes must be ElementTree's."""

    @given(_hostile_graphs())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_elementtree(self, tmp_path_factory, drawn):
        built, component = drawn
        tmp = tmp_path_factory.mktemp("graphml")
        g.export_graphml(built, tmp / "new.graphml", component=component)
        export_graphml_ref(built, tmp / "ref.graphml", component=component)
        assert (tmp / "new.graphml").read_bytes() == (tmp / "ref.graphml").read_bytes()

    def test_empty_texts_close_themselves_as_in_elementtree(self, tmp_path):
        # no built graph has an edge without identifiers or an empty ad_id,
        # but the writer must still render them as ElementTree does
        built = g.RelatednessGraph(
            nodes=["", "a"],
            edges=[g.GraphEdge("", "a", [])],
            components={0: ["", "a"]},
        )
        g.export_graphml(built, tmp_path / "new.graphml")
        export_graphml_ref(built, tmp_path / "ref.graphml")
        new = (tmp_path / "new.graphml").read_bytes()
        assert new == (tmp_path / "ref.graphml").read_bytes()
        assert b'<data key="d2" />' in new and b'<data key="d3" />' in new

    def test_graph_without_edges(self, tmp_path):
        built = graph_of([cluster("a"), cluster("b")], {})
        assert not built.edges
        g.export_graphml(built, tmp_path / "new.graphml")
        export_graphml_ref(built, tmp_path / "ref.graphml")
        assert (tmp_path / "new.graphml").read_bytes() == (tmp_path / "ref.graphml").read_bytes()
