import json

import pytest

from adgraph import corpus
from adgraph.config import load_config
from adgraph.corpus import ingest, normalize
from adgraph.dedup import SimilarityConfig, deduplicate, similarities
from adgraph.errors import ConfigError
from adgraph.geo import Gazetteer
from adgraph.label import LabelingConfig, label_htrp
from adgraph.pipeline import ARTIFACTS, run_stage
from adgraph.synth import GroundTruth, SynthSpec, generate_corpus

from conftest import graph_of, record_identifiers


SPEC = SynthSpec(n_ads=120, n_components=15, dup_rate=0.5, obfuscation_rate=0.7, seed=3)


def generate(spec: SynthSpec, workdir):
    """The synth stage on spec's settings; the corpus and truth files it wrote."""
    settings = {f"synth.{k}": v for k, v in vars(spec).items() if k != "seed"}
    run_stage("synth", load_config(cli_values={"workdir": str(workdir), "seed": spec.seed, **settings}))
    return workdir / ARTIFACTS["synth_corpus"], workdir / ARTIFACTS["ground_truth"]


@pytest.fixture(scope="module")
def world():
    records, truth = generate_corpus(SPEC)
    normalized = [normalize(r) for r in records]
    return records, truth, normalized


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_components": 0},
            {"n_ads": 5, "n_components": 10},
            {"dup_rate": 1.5},
            {"dup_rate": -0.1},
            {"obfuscation_rate": 2.0},
            {"component_size_distribution": "zipf"},
        ],
    )
    def test_bad_spec(self, kw):
        with pytest.raises(ConfigError):
            SynthSpec(**kw)

    def test_singletons_needs_exact_canonical_count(self):
        spec = SynthSpec(
            n_ads=10, n_components=5, dup_rate=0.0, component_size_distribution="singletons"
        )
        with pytest.raises(ConfigError, match="singletons"):
            generate_corpus(spec)

    def test_singletons_feasible(self):
        spec = SynthSpec(
            n_ads=20, n_components=10, dup_rate=0.5, component_size_distribution="singletons"
        )
        _, truth = generate_corpus(spec)
        assert all(len(c) == 1 for c in truth.planted_components)
        assert len(truth.planted_components) == 10


class TestGeneratedCorpus:
    def test_counts_and_unique_ids(self, world):
        records, truth, _ = world
        assert len(records) == SPEC.n_ads
        assert len({r.ad_id for r in records}) == SPEC.n_ads
        assert len(truth.planted_components) == SPEC.n_components

    def test_ingests_without_rejects(self, tmp_path):
        corpus_path, truth_path = generate(SPEC, tmp_path)
        records, rejects = ingest(corpus_path, "jsonl")
        assert rejects == []
        assert len(records) == SPEC.n_ads
        assert truth_path.exists()

    def test_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate(SPEC, a_dir)
        generate(SPEC, b_dir)
        assert (a_dir / "corpus.jsonl").read_bytes() == (b_dir / "corpus.jsonl").read_bytes()
        assert (a_dir / "ground_truth.json").read_bytes() == (
            b_dir / "ground_truth.json"
        ).read_bytes()

    def test_seed_changes_output(self):
        records_a, _ = generate_corpus(SPEC)
        records_b, _ = generate_corpus(
            SynthSpec(n_ads=120, n_components=15, dup_rate=0.5, obfuscation_rate=0.7, seed=4)
        )
        texts_a = sorted(r.description for r in records_a)
        texts_b = sorted(r.description for r in records_b)
        assert texts_a != texts_b

    def test_ground_truth_round_trip(self, world, tmp_path):
        _, truth_path = generate(SPEC, tmp_path)
        with open(truth_path, encoding="utf-8") as fh:
            assert corpus.from_row(GroundTruth, json.load(fh)) == world[1]


class TestPlantedClusters:
    def test_dedup_recovers_planted_clusters(self, world):
        _, truth, normalized = world
        found = deduplicate(normalized, SimilarityConfig())
        got = {(c.canonical_id, tuple(c.member_ids), c.method) for c in found}
        want = {
            (c["canonical_id"], tuple(c["member_ids"]), c["method"])
            for c in truth.planted_clusters
        }
        assert got == want

    def test_near_duplicates_stay_above_threshold(self, world):
        _, truth, normalized = world
        texts = {n.ad_id: n.norm_text for n in normalized}
        pairs = [
            (texts[cluster["canonical_id"]], texts[member])
            for cluster in truth.planted_clusters
            for member in cluster["member_ids"]
            if member != cluster["canonical_id"]
        ]
        for sim in similarities(pairs):
            assert sim >= 0.9


class TestPlantedIdentifiers:
    def test_extraction_matches_plant_exactly(self, world):
        records, truth, normalized = world
        for record, norm in zip(records, normalized):
            got = {(i.kind, i.canonical) for i in record_identifiers(record, norm)}
            want = {
                (x["kind"], x["canonical"]) for x in truth.planted_identifiers[norm.ad_id]
            }
            assert got == want, norm.ad_id


@pytest.fixture(scope="module")
def graph(world):
    records, truth, normalized = world
    clusters = deduplicate(normalized, SimilarityConfig())
    ids_by_ad = {
        r.ad_id: record_identifiers(r, n)
        for r, n in zip(records, normalized)
    }
    locations = {r.ad_id: r.locations for r in records}
    return graph_of(clusters, ids_by_ad, locations)


class TestPlantedComponents:
    def test_components_recovered(self, world, graph):
        _, truth, _ = world
        got = {frozenset(c) for c in graph.components.values()}
        want = {frozenset(c) for c in truth.planted_components}
        assert got == want

    def test_htrp_matches_plant(self, world, graph):
        _, truth, _ = world
        labels = {ad.ad_id: ad for ad in label_htrp(graph, Gazetteer.bundled(), LabelingConfig())}
        for planted in truth.planted_htrp.values():
            for ad_id in planted["member_canonicals"]:
                got = labels[ad_id]
                assert got.label == planted["label"], ad_id
                assert sorted(got.rule_trace) == sorted(planted["rule_trace"])
                assert got.features.max_span_miles == pytest.approx(
                    planted["max_span_miles"], abs=1e-6
                )
                assert got.features.unique_phone_count == planted["unique_phone_count"]
                assert got.features.unique_identifier_count == planted["unique_identifier_count"]
                assert got.features.unresolved_locations == planted["unresolved_locations"]

    def test_plant_has_both_htrp_classes(self, world):
        # the chosen seed exercises both label values
        _, truth, _ = world
        labels = {p["label"] for p in truth.planted_htrp.values()}
        assert labels == {0, 1}
