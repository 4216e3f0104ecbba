import random
from dataclasses import replace

import pytest

from adgraph import label
from adgraph.corpus import normalize
from adgraph.dedup import DuplicateCluster, deduplicate
from adgraph.errors import ConfigError, LabelingError
from adgraph.extract import Identifier
from adgraph.geo import Gazetteer
from adgraph.synth import SynthSpec, generate_corpus

from conftest import graph_of, record_identifiers
from oracles import sample_pairs_ref

# frozen oracle distances between bundled gazetteer cities
CHI_CLE_MILES = 307.3020  # fires the default 300-mile rule
CHI_CIN_MILES = 252.1557  # does not


def make_graph(components, locations=None, extra_phones=None):
    """Graph with the given node groupings.

    components: list of lists of ad ids; each group shares one synthetic
    phone so it becomes one component. locations: ad_id -> [city].
    extra_phones: ad_id -> count of additional unique phones.
    """
    clusters = []
    ids_by_ad = {}
    for gi, group in enumerate(components):
        link = Identifier("phone", f"link{gi}", f"900555{gi:04d}")
        for ad in group:
            clusters.append(DuplicateCluster(ad, [ad], "exact"))
            ids_by_ad[ad] = [link] if len(group) > 1 else []
    counter = 0
    for ad, n in (extra_phones or {}).items():
        for _ in range(n):
            ids_by_ad[ad].append(Identifier("phone", f"x{counter}", f"901555{counter:04d}"))
            counter += 1
    return graph_of(clusters, ids_by_ad, locations or {})


def random_texts(graph, seed=0, length=40):
    rng = random.Random(seed)
    return {
        n: "".join(rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(length))
        for n in graph.nodes
    }


def cfg(**kw):
    return label.LabelingConfig(**kw)


class TestLabelingConfig:
    def test_defaults(self):
        c = cfg()
        assert c.pair_sim_threshold == 0.5
        assert c.distance_threshold_miles == 300.0
        assert c.phone_count_threshold == 3
        assert c.split_ratio == 0.8

    @pytest.mark.parametrize(
        "kw",
        [
            {"pair_sim_threshold": 0.0},
            {"distance_threshold_miles": -1.0},
            {"phone_count_threshold": 0},
            {"rule_combination": "xor"},
            {"split_ratio": 1.0},
            {"pairs_per_class": 0},
            {"feature_scope": "cluster"},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            cfg(**kw)


class TestSplit:
    def test_ten_singletons(self):
        graph = make_graph([[f"s{i}"] for i in range(10)])
        assignment = label.split_components(graph, cfg(split_ratio=0.8))
        sides = list(assignment.values())
        assert sides.count("train") == 8 and sides.count("test") == 2

    def test_components_stay_whole(self):
        graph = make_graph([["a1", "a2", "a3"], ["b1"], ["c1"], ["d1"], ["e1"]])
        assignment = label.split_components(graph, cfg())
        assert set(assignment) == set(graph.components)
        assert set(assignment.values()) <= {"train", "test"}

    def test_giant_first_then_fill(self):
        graph = make_graph([["g%d" % i for i in range(6)], ["a"], ["b"], ["c"], ["d"]])
        assignment = label.split_components(graph, cfg(split_ratio=0.8))
        report = label.split_report(graph, assignment, cfg(split_ratio=0.8))
        assert report["train_ads"] == 8 and report["test_ads"] == 2
        assert report["deviation"] == 0.0
        assert report["giant_component_share"] == 0.6

    def test_deterministic_per_seed(self):
        graph = make_graph([[f"n{i}"] for i in range(30)])
        a = label.split_components(graph, cfg(seed=5))
        b = label.split_components(graph, cfg(seed=5))
        assert a == b

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_deviation_small_when_no_giant(self, seed):
        rng = random.Random(seed)
        sizes = [rng.randint(1, 6) for _ in range(40)]
        counter = 0
        groups = []
        for s in sizes:
            groups.append([f"n{counter + i:03d}" for i in range(s)])
            counter += s
        graph = make_graph(groups)
        total = sum(sizes)
        assert max(sizes) / total <= 0.3
        c = cfg(seed=seed)
        report = label.split_report(graph, label.split_components(graph, c), c)
        assert report["deviation"] <= 0.05

    def test_empty_graph(self):
        graph = make_graph([])
        assert label.split_components(graph, cfg()) == {}


class TestOadPairs:
    GROUPS = [
        ["a1", "a2", "a3", "a4", "a5"],
        ["b1", "b2", "b3", "b4"],
        ["c1", "c2", "c3"],
        ["d1", "d2", "d3"],
        ["e1", "e2"],
        ["f1", "f2"],
    ]

    def _run(self, pairs_per_class=20, seed=0, monkeylimit=None, monkeypatch=None):
        graph = make_graph(self.GROUPS)
        texts = random_texts(graph, seed=seed)
        if monkeylimit is not None:
            monkeypatch.setattr(label, "_ENUMERATE_LIMIT", monkeylimit)
        c = cfg(pairs_per_class=pairs_per_class, seed=seed)
        split_of = label.split_components(graph, c)
        return graph, split_of, label.generate_oad_pairs(graph, texts, c, split_of)

    def test_labels_match_component_membership(self):
        graph, _, pairs = self._run()
        for p in pairs:
            same = graph.component_of[p.a] == graph.component_of[p.b]
            assert p.label == (1 if same else 0)

    def test_balanced(self):
        _, _, pairs = self._run()
        pos = [p for p in pairs if p.label == 1]
        neg = [p for p in pairs if p.label == 0]
        assert len(pos) == len(neg) > 0

    def test_similarity_filter(self):
        _, _, pairs = self._run()
        assert all(p.similarity < 0.5 for p in pairs)

    def test_near_identical_same_component_pair_excluded(self):
        graph = make_graph([["a1", "a2", "a3"], ["b1"], ["b2"]])
        texts = random_texts(graph)
        texts["a2"] = texts["a1"]  # similarity 1.0
        pairs = label.generate_oad_pairs(graph, texts, cfg(pairs_per_class=10))
        assert ("a1", "a2") not in {(p.a, p.b) for p in pairs}

    def test_no_pair_crosses_split(self):
        graph, split_of, pairs = self._run()
        for p in pairs:
            side_a = split_of[graph.component_of[p.a]]
            side_b = split_of[graph.component_of[p.b]]
            assert side_a == side_b == p.split

    def test_deterministic(self):
        _, _, first = self._run()
        _, _, second = self._run()
        assert first == second

    def test_rejection_route_same_invariants(self, monkeypatch):
        graph, split_of, pairs = self._run(monkeylimit=1, monkeypatch=monkeypatch)
        pos = [p for p in pairs if p.label == 1]
        neg = [p for p in pairs if p.label == 0]
        assert len(pos) == len(neg) > 0
        for p in pairs:
            same = graph.component_of[p.a] == graph.component_of[p.b]
            assert p.label == (1 if same else 0)
            assert p.similarity < 0.5
            assert split_of[graph.component_of[p.a]] == p.split
            assert split_of[graph.component_of[p.b]] == p.split

    def test_truncates_to_min_class(self):
        # only one within-component pair available, plenty of cross pairs
        graph = make_graph([["a1", "a2"], ["b1"], ["b2"], ["b3"], ["b4"]])
        pairs = label.generate_oad_pairs(graph, random_texts(graph), cfg(pairs_per_class=50))
        pos = [p for p in pairs if p.label == 1]
        neg = [p for p in pairs if p.label == 0]
        assert len(pos) == len(neg) == 1

    def test_exhaustion_is_a_warning_naming_the_shortfall(self, caplog):
        graph = make_graph([["a1", "a2"], ["b1"], ["b2"], ["b3"], ["b4"]])
        label.generate_oad_pairs(graph, random_texts(graph), cfg(pairs_per_class=50))
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "kept 1 of 50 wanted per class" in warnings[0].getMessage()
        assert "(the positive class ran out at 1)" in warnings[0].getMessage()

    def test_exhaustion_names_the_negative_class_when_it_runs_out(self, caplog):
        # one component per split side, so no negative pair exists
        graph = make_graph([["a%d" % i for i in range(8)], ["b1", "b2"]])
        assert label.generate_oad_pairs(graph, random_texts(graph), cfg(pairs_per_class=5)) == []
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "kept 0 of 5 wanted per class (the negative class ran out at 0)" in warnings[0].getMessage()

    # drawn at a fixed seed; any change to the sampler's draw order moves them
    FIXED = {
        200_000: [
            ("a2", "a4", 1, 0.05, "train"),
            ("f1", "f2", 1, 0.075, "train"),
            ("d1", "d2", 1, 0.05, "test"),
            ("b2", "b3", 1, 0.05, "train"),
            ("a4", "a5", 1, 0.125, "train"),
            ("b2", "b4", 1, 0.125, "train"),
            ("b1", "b4", 1, 0.075, "train"),
            ("a3", "a5", 1, 0.075, "train"),
            ("a3", "f2", 0, 0.075, "train"),
            ("a3", "c2", 0, 0.075, "train"),
            ("a2", "f1", 0, 0.025, "train"),
            ("b4", "c3", 0, 0.1, "train"),
            ("a4", "e2", 0, 0.1, "train"),
            ("a5", "c2", 0, 0.075, "train"),
            ("a4", "b2", 0, 0.075, "train"),
            ("a4", "c3", 0, 0.05, "train"),
        ],
        1: [
            ("a3", "a4", 1, 0.125, "train"),
            ("a1", "a5", 1, 0.05, "train"),
            ("b1", "b2", 1, 0.075, "train"),
            ("a2", "a5", 1, 0.075, "train"),
            ("c2", "c3", 1, 0.125, "train"),
            ("b3", "b4", 1, 0.025, "train"),
            ("a3", "a5", 1, 0.075, "train"),
            ("f1", "f2", 1, 0.075, "train"),
            ("a1", "c3", 0, 0.075, "train"),
            ("c3", "e2", 0, 0.075, "train"),
            ("a1", "b2", 0, 0.05, "train"),
            ("b1", "f2", 0, 0.075, "train"),
            ("a1", "b1", 0, 0.075, "train"),
            ("a3", "b2", 0, 0.075, "train"),
            ("a5", "c1", 0, 0.075, "train"),
            ("a3", "b4", 0, 0.075, "train"),
        ],
    }

    @pytest.mark.parametrize("limit", [200_000, 1], ids=["enumerate", "rejection"])
    def test_fixed_output(self, limit, monkeypatch):
        monkeypatch.setattr(label, "_ENUMERATE_LIMIT", limit)
        graph = make_graph(self.GROUPS)
        pairs = label.generate_oad_pairs(graph, random_texts(graph), cfg(pairs_per_class=8, seed=3))
        got = [(p.a, p.b, p.label, round(p.similarity, 6), p.split) for p in pairs]
        assert got == self.FIXED[limit]

    def test_single_component_rejected(self):
        graph = make_graph([["a1", "a2"]])
        with pytest.raises(LabelingError):
            label.generate_oad_pairs(graph, random_texts(graph), cfg())

    def test_missing_text_rejected(self):
        graph = make_graph([["a1", "a2"], ["b1"]])
        texts = random_texts(graph)
        del texts["a2"]
        with pytest.raises(LabelingError, match="a2"):
            label.generate_oad_pairs(graph, texts, cfg())

    def test_giant_exclusion_drops_its_positives(self):
        groups = [["g%d" % i for i in range(6)], ["a1", "a2"], ["b1", "b2"]]
        graph = make_graph(groups)
        texts = random_texts(graph)
        c = cfg(pairs_per_class=50, include_giant_component=False)
        pairs = label.generate_oad_pairs(graph, texts, c)
        giant = set(groups[0])
        for p in pairs:
            if p.label == 1:
                assert p.a not in giant and p.b not in giant


class TestBatchedSampler:
    """_sample_pairs scores candidates in batches; the pairs it keeps, their
    order and their floats are those of scoring one candidate at a time."""

    GROUPS = TestOadPairs.GROUPS + [["g%d" % i for i in range(9)]]

    def _cases(self, seed, per_class, threshold):
        """(groups, counts, admissible, texts, cfg) for positives and negatives."""
        graph = make_graph(self.GROUPS)
        texts = random_texts(graph, seed=seed)
        # near copies, so the cap rejects some same-group candidates
        texts["a2"] = texts["a1"][:-1] + "z"
        texts["g1"] = texts["g0"]
        c = cfg(pairs_per_class=per_class, seed=seed, pair_sim_threshold=threshold)
        comp_of = graph.component_of
        nodes = sorted(graph.nodes)
        cases = [
            ([sorted(m) for m in self.GROUPS], [len(m) * (len(m) - 1) // 2 for m in self.GROUPS], lambda a, b: True),
            ([nodes], [len(nodes) * (len(nodes) - 1) // 2], lambda a, b: comp_of[a] != comp_of[b]),
        ]
        return [(*case, texts, c) for case in cases]

    def _both(self, limit, seed, per_class, threshold, monkeypatch):
        monkeypatch.setattr(label, "_ENUMERATE_LIMIT", limit)
        for groups, counts, admissible, texts, c in self._cases(seed, per_class, threshold):
            got = label._sample_pairs(groups, counts, admissible, texts, c, random.Random(seed), per_class)
            want = sample_pairs_ref(groups, counts, admissible, texts, c, random.Random(seed), limit)
            yield got, want

    @pytest.mark.parametrize("limit", [200_000, 1], ids=["enumerate", "rejection"])
    @pytest.mark.parametrize("threshold", [0.075, 0.5])
    @pytest.mark.parametrize("per_class", [1, 5, 8, 30])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_pairs_as_one_at_a_time(self, limit, threshold, per_class, seed, monkeypatch):
        for got, want in self._both(limit, seed, per_class, threshold, monkeypatch):
            assert got == want
            assert len(got) <= per_class

    @pytest.mark.parametrize("limit", [200_000, 1], ids=["enumerate", "rejection"])
    def test_exhausted_pool_same_as_one_at_a_time(self, limit, monkeypatch):
        # 60 same-group pairs exist, fewer pass the cap, and 200 are wanted
        (positives, want_pos), (negatives, want_neg) = self._both(limit, 4, 200, 0.075, monkeypatch)
        assert positives == want_pos and negatives == want_neg
        assert 0 < len(positives) < 60

    def test_budget_follows_pairs_per_class_not_want(self, monkeypatch):
        # one pool of 200 ads where only pairs with "b000" pass the cap, so
        # kept pairs trickle in until the budget, 60 x 300 draws, ends the
        # draw; a smaller want must not shorten it
        monkeypatch.setattr(label, "_ENUMERATE_LIMIT", 1)
        nodes = ["b%03d" % i for i in range(200)]
        texts = dict.fromkeys(nodes, "aaaa")
        texts["b000"] = "zzzz"
        c = cfg(pairs_per_class=300, pair_sim_threshold=0.5)
        args = ([nodes], [len(nodes) * (len(nodes) - 1) // 2], lambda a, b: True, texts, c)
        full = sample_pairs_ref(*args, random.Random(5), 1)
        assert 0 < len(full) < 199
        assert label._sample_pairs(*args, random.Random(5), len(full)) == full

    @pytest.mark.parametrize("limit", [200_000, 1], ids=["enumerate", "rejection"])
    @pytest.mark.parametrize(
        "per_class, threshold", [(30, 0.5), (200, 0.075)], ids=["want-binds", "pool-or-budget-binds"]
    )
    def test_smaller_want_keeps_a_prefix(self, limit, per_class, threshold, monkeypatch):
        # label-oad asks for no more negatives than it found positives; the
        # pairs kept are the first of those a full-size draw keeps
        monkeypatch.setattr(label, "_ENUMERATE_LIMIT", limit)
        cases = self._cases(3, per_class, threshold)
        for i, (groups, counts, admissible, texts, c) in enumerate(cases):
            full = sample_pairs_ref(groups, counts, admissible, texts, c, random.Random(3), limit)
            if per_class == 200 and i == 0:  # the positive pool runs dry, or the budget ends the draw
                assert len(full) < per_class
            n = len(full)
            # label-oad never wants more than pairs_per_class
            for k in sorted({0, 1, 2, n // 2, max(n - 1, 0), n, min(n + 3, per_class), per_class}):
                got = label._sample_pairs(groups, counts, admissible, texts, c, random.Random(3), k)
                assert got == full[:k]


class TestHtrpFeatures:
    def test_distance_rule_fires_over_threshold(self):
        graph = make_graph(
            [["a1", "a2"]], locations={"a1": ["chicago"], "a2": ["cleveland"]}
        )
        gaz = Gazetteer.bundled()
        labels = label.label_htrp(graph, gaz, cfg())
        assert all(ad.label == 1 for ad in labels)
        assert all(ad.rule_trace == ["distance"] for ad in labels)
        assert labels[0].features.max_span_miles == pytest.approx(CHI_CLE_MILES, abs=0.001)

    def test_distance_rule_strictly_greater(self):
        graph = make_graph(
            [["a1", "a2"]], locations={"a1": ["chicago"], "a2": ["cleveland"]}
        )
        gaz = Gazetteer.bundled()
        at = label.label_htrp(graph, gaz, cfg(distance_threshold_miles=CHI_CLE_MILES + 0.001))
        assert all(ad.label == 0 for ad in at)
        below = label.label_htrp(graph, gaz, cfg(distance_threshold_miles=CHI_CLE_MILES - 0.001))
        assert all(ad.label == 1 for ad in below)

    def test_near_pair_does_not_fire(self):
        graph = make_graph(
            [["a1", "a2"]], locations={"a1": ["chicago"], "a2": ["cincinnati"]}
        )
        labels = label.label_htrp(graph, Gazetteer.bundled(), cfg())
        assert all(ad.label == 0 for ad in labels)
        assert labels[0].features.max_span_miles == pytest.approx(CHI_CIN_MILES, abs=0.001)

    def test_phone_rule_fires_at_threshold(self):
        # shared link phone plus two extras: three unique phones
        graph = make_graph([["a1", "a2"]], extra_phones={"a1": 2})
        labels = label.label_htrp(graph, Gazetteer.bundled(), cfg())
        assert all(ad.label == 1 for ad in labels)
        assert all(ad.rule_trace == ["phones"] for ad in labels)
        assert labels[0].features.unique_phone_count == 3

    def test_phone_rule_below_threshold(self):
        graph = make_graph([["a1", "a2"]], extra_phones={"a1": 1})
        labels = label.label_htrp(graph, Gazetteer.bundled(), cfg())
        assert all(ad.label == 0 for ad in labels)

    def test_singleton_benign(self):
        graph = make_graph([["solo"]])
        [ad] = label.label_htrp(graph, Gazetteer.bundled(), cfg())
        assert ad.label == 0
        assert ad.features == label.HtrpFeatures(0.0, 0, 0, 0)
        assert ad.rule_trace == []

    def test_unresolved_locations_counted_not_guessed(self):
        graph = make_graph(
            [["a1", "a2"]],
            locations={"a1": ["chicago", "nowhereville"], "a2": ["cleveland"]},
        )
        labels = label.label_htrp(graph, Gazetteer.bundled(), cfg())
        assert labels[0].features.unresolved_locations == 1
        # span still computed over the resolvable pair
        assert labels[0].features.max_span_miles == pytest.approx(CHI_CLE_MILES, abs=0.001)

    def test_and_combination_requires_both(self):
        graph = make_graph(
            [["a1", "a2"]],
            locations={"a1": ["chicago"], "a2": ["cleveland"]},
            extra_phones={"a1": 2},
        )
        gaz = Gazetteer.bundled()
        both = label.label_htrp(graph, gaz, cfg(rule_combination="and"))
        assert all(ad.label == 1 for ad in both)
        assert sorted(both[0].rule_trace) == ["distance", "phones"]
        only_distance = make_graph(
            [["b1", "b2"]], locations={"b1": ["chicago"], "b2": ["cleveland"]}
        )
        labels = label.label_htrp(only_distance, gaz, cfg(rule_combination="and"))
        assert all(ad.label == 0 for ad in labels)
        assert labels[0].rule_trace == ["distance"]

    def test_component_scope_inherits_features(self):
        graph = make_graph(
            [["a1", "a2"]], locations={"a1": ["chicago"], "a2": ["cleveland"]}
        )
        labels = label.label_htrp(graph, Gazetteer.bundled(), cfg())
        by_id = {ad.ad_id: ad for ad in labels}
        assert by_id["a1"].features == by_id["a2"].features

    def test_ad_scope_uses_own_cluster_only(self):
        graph = make_graph(
            [["a1", "a2"]], locations={"a1": ["chicago"], "a2": ["cleveland"]}
        )
        labels = label.label_htrp(
            graph, Gazetteer.bundled(), cfg(feature_scope="ad")
        )
        assert all(ad.label == 0 for ad in labels)
        assert all(ad.features.max_span_miles == 0.0 for ad in labels)

    def test_empty_gazetteer_fatal(self):
        graph = make_graph([["a1"]])
        with pytest.raises(ConfigError):
            label.label_htrp(graph, Gazetteer({}), cfg())

    def test_output_sorted_by_ad_id(self):
        graph = make_graph([["z1"], ["a1"], ["m1", "m2"]])
        labels = label.label_htrp(graph, Gazetteer.bundled(), cfg())
        assert [ad.ad_id for ad in labels] == sorted(ad.ad_id for ad in labels)

    def test_distance_threshold_sweep_monotone(self):
        graph = make_graph(
            [["a1", "a2"], ["b1"]],
            locations={"a1": ["chicago"], "a2": ["cleveland"]},
        )
        gaz = Gazetteer.bundled()
        counts = []
        for thresh in (300.0, 305.0, 310.0, 400.0, 500.0, 600.0):
            labels = label.label_htrp(graph, gaz, cfg(distance_threshold_miles=thresh))
            counts.append(sum(ad.label for ad in labels))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]  # the sweep actually crosses the span

    def test_phone_threshold_sweep_monotone(self):
        graph = make_graph([["a1", "a2"], ["b1"]], extra_phones={"a1": 2})
        gaz = Gazetteer.bundled()
        counts = []
        for thresh in (2, 3, 4, 5):
            labels = label.label_htrp(graph, gaz, cfg(phone_count_threshold=thresh))
            counts.append(sum(ad.label for ad in labels))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]


# synth graphs of perfbench's three workload shapes, scaled down
RELABEL_SHAPES = {
    "reposted": SynthSpec(n_ads=400, dup_rate=0.9, n_components=32, obfuscation_rate=0.5, seed=7),
    "distinct": SynthSpec(n_ads=300, dup_rate=0.0, n_components=60, obfuscation_rate=1.0, seed=7),
    "relabel": SynthSpec(n_ads=200, dup_rate=0.0, n_components=40, obfuscation_rate=1.0, seed=7),
}


@pytest.fixture(scope="module", params=sorted(RELABEL_SHAPES))
def synth_graph(request):
    records, _ = generate_corpus(RELABEL_SHAPES[request.param])
    normalized = [normalize(r) for r in records]
    ids_by_ad = {r.ad_id: record_identifiers(r, n) for r, n in zip(records, normalized)}
    locations = {r.ad_id: r.locations for r in records}
    return graph_of(deduplicate(normalized), ids_by_ad, locations)


def custom_gazetteer() -> Gazetteer:
    """Every other bundled city, moved 3 degrees north: other spans, and
    locations the bundled list resolves left unresolved."""
    gaz = Gazetteer.bundled()
    coords = {}
    for name in gaz.names()[::2]:
        lat, lon = gaz.resolve(name)
        coords[name] = (lat + 3.0, lon)
    return Gazetteer(coords)


class TestRelabel:
    @pytest.mark.parametrize("scope", ["component", "ad"])
    @pytest.mark.parametrize("combination", ["or", "and"])
    @pytest.mark.parametrize("gaz", [Gazetteer.bundled(), custom_gazetteer()], ids=["bundled", "custom"])
    def test_matches_labeling_from_the_graph(self, synth_graph, scope, combination, gaz):
        # the reference recomputes the features from the graph and the
        # gazetteer under the variant thresholds
        base = cfg(feature_scope=scope, rule_combination=combination)
        labels = label.label_htrp(synth_graph, gaz, base)
        for changes in (
            {},
            {"distance_threshold_miles": 150.0},
            {"distance_threshold_miles": 690.0, "phone_count_threshold": 4},
            {"phone_count_threshold": 1, "rule_combination": "and" if combination == "or" else "or"},
        ):
            variant = replace(base, **changes)
            want = label.label_htrp(synth_graph, gaz, variant)
            assert repr(label.relabel(labels, variant)) == repr(want), changes
