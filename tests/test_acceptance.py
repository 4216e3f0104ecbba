"""Product acceptance gate: ten criteria, one printed pass/fail line each.

Run with -s to see the lines as they complete. Every criterion is
self-reporting: it prints exactly one line and then asserts.
"""

import hashlib
import itertools
import random
import time
from collections import deque
from functools import lru_cache
from pathlib import Path

import pytest

from adgraph import analysis
from adgraph.analysis import PairedSample, wilcoxon_signed_rank
from adgraph.config import load_config
from adgraph.corpus import normalize
from adgraph.dedup import DuplicateCluster, SimilarityConfig, deduplicate, similarities
from adgraph.extract import Identifier, extract_identifiers
from adgraph.geo import Gazetteer, haversine_miles
from adgraph.graph import component_stats
from adgraph.kernels import band_keys, levenshtein_many
from adgraph.label import LabelingConfig, generate_oad_pairs, label_htrp, split_components, split_report
from adgraph.pipeline import run_all, run_stage
from adgraph.synth import SynthSpec, generate_corpus

from conftest import graph_of, record_identifiers
from oracles import (
    components_ref,
    haversine_ref,
    jaccard_shingles_ref,
    similarity_ref,
    wilcoxon_exact_ref,
)

DATA = Path(__file__).parent / "data"


def report(num: int, desc: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    timing = f"  [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[criterion {num:02d}] {status} — {desc}{timing}", flush=True)
    assert not failures, "; ".join(str(f) for f in failures[:5])


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def planted_1000():
    """1000-ad corpus at the stated duplication rate, fully normalized."""
    records, truth = generate_corpus(
        SynthSpec(n_ads=1000, dup_rate=0.9, n_components=80, seed=11)
    )
    normalized = [normalize(r) for r in records]
    return records, truth, normalized


@pytest.fixture(scope="module")
def planted_graph(planted_1000):
    records, _, normalized = planted_1000
    clusters = deduplicate(normalized, SimilarityConfig())
    ids_by_ad = {
        r.ad_id: record_identifiers(r, n)
        for r, n in zip(records, normalized)
    }
    locations = {r.ad_id: r.locations for r in records}
    graph = graph_of(clusters, ids_by_ad, locations)
    return clusters, ids_by_ad, graph


# ---------------------------------------------------------------- criteria


def test_criterion_01_edit_distance_oracle():
    start = time.perf_counter()
    failures = []

    def recursive_ref(a: str, b: str) -> int:
        @lru_cache(maxsize=None)
        def go(i: int, j: int) -> int:
            if i == 0:
                return j
            if j == 0:
                return i
            return min(
                go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
                go(i - 1, j) + 1,
                go(i, j - 1) + 1,
            )
        return go(len(a), len(b))

    rng = random.Random(101)
    alphabet = "abcde "

    def rand_str():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))

    pairs = [(rand_str(), rand_str()) for _ in range(1000)]
    for (a, b), got in zip(pairs, levenshtein_many(pairs)):
        want = recursive_ref(a, b)
        if got != want:
            failures.append(f"d({a!r},{b!r}) = {got}, oracle {want}")

    triples = [(rand_str(), rand_str(), rand_str()) for _ in range(1000)]
    dists = levenshtein_many([p for a, b, c in triples for p in ((a, b), (b, a), (a, a), (a, c), (b, c))])
    for i, (a, b, c) in enumerate(triples):
        dab, dba, daa, dac, dbc = dists[5 * i : 5 * i + 5]
        if dab < 0 or daa != 0:
            failures.append(f"non-negativity/identity broken on {a!r}")
        if (dab == 0) != (a == b):
            failures.append(f"zero iff equal broken on {a!r},{b!r}")
        if dab != dba:
            failures.append(f"symmetry broken on {a!r},{b!r}")
        if dac > dab + dbc:
            failures.append(f"triangle broken on {a!r},{b!r},{c!r}")

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(1, "edit distance matches recursive oracle; metric axioms hold", failures, elapsed)


def test_criterion_02_dedup_recovery(planted_1000):
    records, truth, _ = planted_1000
    start = time.perf_counter()
    failures = []

    normalized = [normalize(r) for r in records]
    found = deduplicate(normalized, SimilarityConfig())

    found_by_member = {}
    for c in found:
        for m in c.member_ids:
            found_by_member[m] = c
    for planted in truth.planted_clusters:
        if planted["method"] != "exact":
            continue
        got = found_by_member[planted["canonical_id"]]
        if (
            got.member_ids != planted["member_ids"]
            or got.canonical_id != planted["canonical_id"]
            or got.method != "exact"
        ):
            failures.append(f"exact cluster {planted['canonical_id']} not recovered verbatim")

    # all-pairs O(n^2) oracle partition over unique texts: sound length
    # prefilter + the batched metric (proven exact in criterion 1) + BFS closure
    texts = {n.ad_id: n.norm_text for n in normalized}
    groups = {}
    for n in normalized:
        groups.setdefault(n.norm_text, []).append(n.ad_id)
    uniq = sorted(groups)
    lens = [len(t) for t in uniq]
    adj = {i: set() for i in range(len(uniq))}
    pairs = []
    for i in range(len(uniq)):
        for j in range(i + 1, len(uniq)):
            la, lb = lens[i], lens[j]
            m = la if la > lb else lb
            if m and (la - lb if la > lb else lb - la) > 0.1 * m:
                continue
            pairs.append((i, j))
    for (i, j), sim in zip(pairs, similarities([(uniq[i], uniq[j]) for i, j in pairs])):
        if sim >= 0.9:
            adj[i].add(j)
            adj[j].add(i)
    seen = set()
    oracle_clusters = []
    for s in range(len(uniq)):
        if s in seen:
            continue
        comp, queue = set(), deque([s])
        seen.add(s)
        while queue:
            node = queue.popleft()
            comp.add(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        ads = []
        for idx in comp:
            ads.extend(groups[uniq[idx]])
        oracle_clusters.append(sorted(ads))

    def near_pairs(clusters_members):
        pairs = set()
        for members in clusters_members:
            for a, b in itertools.combinations(sorted(members), 2):
                if texts[a] != texts[b]:
                    pairs.add((a, b))
        return pairs

    oracle_pairs = near_pairs(oracle_clusters)
    found_pairs = near_pairs([c.member_ids for c in found])
    tp = len(oracle_pairs & found_pairs)
    precision = tp / len(found_pairs) if found_pairs else 1.0
    recall = tp / len(oracle_pairs) if oracle_pairs else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    if not oracle_pairs:
        failures.append("oracle found no near-duplicate pairs; fixture degenerate")
    if f1 < 0.99:
        failures.append(f"near-duplicate pairwise F1 {f1:.4f} < 0.99")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(
        2,
        f"dedup recovers planted clusters (near-dup F1 {f1:.4f} on n=1000, dup rate 0.9)",
        failures,
        elapsed,
    )


def test_criterion_03_candidate_recall():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1234)
    alphabet = "abcdefghijklmnopqrstuvwxyz "

    def rand_text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(250, 340)))

    def mutate(text, n_edits):
        chars = list(text)
        for _ in range(n_edits):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars[pos] = rng.choice(alphabet)
            elif op == 1 and len(chars) > 50:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(alphabet))
        return "".join(chars)

    bases = [rand_text() for _ in range(500)]
    texts = {f"b{i:05d}": t for i, t in enumerate(bases)}
    fixture_pairs = set()
    for i in range(5000):
        base_id = f"b{i % 500:05d}"
        mut_id = f"m{i:05d}"
        texts[mut_id] = mutate(texts[base_id], 1 + i % 4)
        fixture_pairs.add(tuple(sorted((base_id, mut_id))))
    while len(fixture_pairs) < 10000:
        i, j = rng.sample(range(500), 2)
        fixture_pairs.add(tuple(sorted((f"b{i:05d}", f"b{j:05d}"))))

    true_pairs = set()
    for a, b in fixture_pairs:
        if jaccard_shingles_ref(texts[a], texts[b], 5) >= 0.9:
            true_pairs.add((a, b))

    # every text is longer than shingle_k, so banding alone finds the
    # candidates; keys a * n + b index the texts in ad_id order
    ids = sorted(texts)
    n = len(ids)
    keys = {key for band in band_keys([texts[i] for i in ids], SimilarityConfig()) for key in band.tolist()}
    candidates = {(ids[key // n], ids[key % n]) for key in keys}
    covered = sum(1 for p in true_pairs if p in candidates)
    recall = covered / len(true_pairs) if true_pairs else 0.0

    if len(fixture_pairs) != 10000:
        failures.append(f"fixture has {len(fixture_pairs)} pairs, wanted 10000")
    if len(true_pairs) < 1000:
        failures.append(f"only {len(true_pairs)} true pairs at Jaccard >= 0.9; fixture too thin")
    if recall < 0.95:
        failures.append(f"candidate recall {recall:.4f} < 0.95")
    elapsed = time.perf_counter() - start
    report(
        3,
        f"banding covers {recall:.1%} of {len(true_pairs)} pairs at true Jaccard >= 0.9",
        failures,
        elapsed,
    )


def test_criterion_04_phone_fixtures():
    import json

    from conftest import ad_texts

    failures = []
    positives = json.loads((DATA / "phone_obfuscation_cases.json").read_text())
    negatives = json.loads((DATA / "phone_negative_cases.json").read_text())
    assert len(positives) == 100 and len(negatives) == 100

    def phones_of(text):
        return sorted(
            i.canonical for i in extract_identifiers(None, *ad_texts(text)) if i.kind == "phone"
        )

    hits = sum(
        1 for case in positives if phones_of(case["text"]) == sorted(case["expected"])
    )
    false_pos = [case["text"] for case in negatives if phones_of(case["text"])]

    if hits < 95:
        failures.append(f"only {hits}/100 positive fixtures recovered exactly")
    if false_pos:
        failures.append(f"{len(false_pos)} negative fixtures produced a phone, e.g. {false_pos[0]!r}")
    report(4, f"phone deobfuscation: {hits}/100 exact, {len(false_pos)} false positives", failures)


def test_criterion_05_component_partition():
    failures = []
    for n_ads, n_components, seed in ((300, 30, 21), (1000, 80, 22)):
        records, _ = generate_corpus(
            SynthSpec(n_ads=n_ads, dup_rate=0.9, n_components=n_components, seed=seed)
        )
        normalized = [normalize(r) for r in records]
        clusters = deduplicate(normalized, SimilarityConfig())
        ids_by_ad = {
            r.ad_id: record_identifiers(r, n)
            for r, n in zip(records, normalized)
        }
        graph = graph_of(clusters, ids_by_ad, {r.ad_id: r.locations for r in records})

        oracle = components_ref(
            {c.canonical_id: list(c.member_ids) for c in clusters},
            {ad: [(i.kind, i.canonical) for i in ids] for ad, ids in ids_by_ad.items()},
        )
        got = {frozenset(m) for m in graph.components.values()}
        if got != oracle:
            failures.append(f"partition mismatch vs BFS oracle at n={n_ads}")

        def bucket(size):
            if size == 1:
                return "1"
            if size <= 10:
                return "2-10"
            if size <= 100:
                return "10-100"
            if size <= 1000:
                return "100-1000"
            return "1000+"

        oracle_buckets = {"1": 0, "2-10": 0, "10-100": 0, "100-1000": 0, "1000+": 0}
        for comp in oracle:
            oracle_buckets[bucket(len(comp))] += 1
        if component_stats(graph).buckets != oracle_buckets:
            failures.append(f"bucket counts mismatch at n={n_ads}")
    report(5, "component partition equals BFS oracle; bucket histogram matches", failures)


def test_criterion_06_oad_dataset():
    failures = []
    records, _ = generate_corpus(
        SynthSpec(n_ads=1000, n_components=60, dup_rate=0.5, seed=66)
    )
    normalized = [normalize(r) for r in records]
    clusters = deduplicate(normalized, SimilarityConfig())
    ids_by_ad = {
        r.ad_id: record_identifiers(r, n)
        for r, n in zip(records, normalized)
    }
    graph = graph_of(clusters, ids_by_ad, {r.ad_id: r.locations for r in records})
    texts = {n.ad_id: n.norm_text for n in normalized}
    cfg = LabelingConfig(pairs_per_class=200, seed=11)
    split_of = split_components(graph, cfg)
    pairs = generate_oad_pairs(graph, texts, cfg, split_of)

    pos = [p for p in pairs if p.label == 1]
    neg = [p for p in pairs if p.label == 0]
    if len(pos) < 100:
        failures.append(f"only {len(pos)} positive pairs; fixture too thin")
    if len(pos) != len(neg):
        failures.append(f"classes unbalanced: {len(pos)} positive vs {len(neg)} negative")
    for p in pairs:
        same = graph.component_of[p.a] == graph.component_of[p.b]
        if p.label != (1 if same else 0):
            failures.append(f"label disagrees with component oracle on ({p.a},{p.b})")
            break
    for p in pairs:
        if similarity_ref(texts[p.a], texts[p.b]) >= 0.5:
            failures.append(f"pair ({p.a},{p.b}) at oracle similarity >= 0.5 retained")
            break
    for p in pairs:
        side_a = split_of[graph.component_of[p.a]]
        side_b = split_of[graph.component_of[p.b]]
        if not (side_a == side_b == p.split):
            failures.append(f"pair ({p.a},{p.b}) crosses the split")
            break
    report(
        6,
        f"{len(pairs)} pairs: labels match component oracle, balanced, dissimilar, split-safe",
        failures,
    )


def test_criterion_07_split_deviation(planted_graph):
    _, _, graph = planted_graph
    failures = []
    cfg = LabelingConfig(seed=11)
    assignment = split_components(graph, cfg)
    rep = split_report(graph, assignment, cfg)
    if rep["giant_component_share"] > 0.30:
        failures.append(
            f"precondition violated: giant holds {rep['giant_component_share']:.1%} of ads"
        )
    if rep["deviation"] > 0.05:
        failures.append(f"train-share deviation {rep['deviation']:.3f} > 0.05")
    if split_components(graph, cfg) != assignment:
        failures.append("identical seed produced a different split")
    import json

    if json.dumps(assignment, sort_keys=True) != json.dumps(
        split_components(graph, cfg), sort_keys=True
    ):
        failures.append("serialized split not byte-identical under identical seed")
    report(
        7,
        f"split deviation {rep['deviation']:.3f} (giant share {rep['giant_component_share']:.1%}); deterministic",
        failures,
    )


def _scenario_graph(groups, locations=None, extra_phones=None):
    clusters = []
    ids_by_ad = {}
    for gi, group in enumerate(groups):
        link = Identifier("phone", f"link{gi}", f"902555{gi:04d}")
        for ad in group:
            clusters.append(DuplicateCluster(ad, [ad], "exact"))
            ids_by_ad[ad] = [link] if len(group) > 1 else [
                Identifier("phone", "solo", "9025559999")
            ]
    counter = 0
    for ad, n in (extra_phones or {}).items():
        for _ in range(n):
            ids_by_ad[ad].append(Identifier("phone", f"x{counter}", f"903555{counter:04d}"))
            counter += 1
    return graph_of(clusters, ids_by_ad, locations or {})


def test_criterion_08_htrp_geography(planted_graph):
    failures = []
    rng = random.Random(77)
    for _ in range(1000):
        lat1, lon1 = rng.uniform(-90, 90), rng.uniform(-180, 180)
        lat2, lon2 = rng.uniform(-90, 90), rng.uniform(-180, 180)
        mine = haversine_miles(lat1, lon1, lat2, lon2)
        ref = haversine_ref(lat1, lon1, lat2, lon2)
        if ref > 1e-6:
            if abs(mine - ref) / ref > 0.005:
                failures.append(f"haversine off by {abs(mine-ref)/ref:.2%} at {(lat1,lon1,lat2,lon2)}")
                break
        elif abs(mine - ref) > 1e-6:
            failures.append("haversine disagrees near zero")
            break

    gaz = Gazetteer.bundled()
    span_pair = ("chicago", "cleveland")
    a, b = (gaz.resolve(c) for c in span_pair)
    oracle_span = haversine_ref(a[0], a[1], b[0], b[1])
    if not oracle_span > 300.0:
        failures.append("fixture cities no longer span > 300 miles")

    g1 = _scenario_graph([["a1", "a2"]], {"a1": [span_pair[0]], "a2": [span_pair[1]]})
    s1 = label_htrp(g1, gaz, LabelingConfig())
    if not all(ad.label == 1 and ad.rule_trace == ["distance"] for ad in s1):
        failures.append("distance scenario did not fire exactly")
    if abs(s1[0].features.max_span_miles - oracle_span) > 1e-6:
        failures.append("distance scenario span disagrees with oracle")

    g2 = _scenario_graph([["b1", "b2"]], {"b1": ["chicago"], "b2": ["chicago"]}, {"b1": 2})
    s2 = label_htrp(g2, gaz, LabelingConfig())
    if not all(ad.label == 1 and ad.rule_trace == ["phones"] for ad in s2):
        failures.append("three-phone scenario did not fire exactly")
    if s2[0].features.unique_phone_count != 3:
        failures.append("three-phone scenario counted wrong")

    g3 = _scenario_graph([["c1"]], {"c1": ["chicago"]})
    s3 = label_htrp(g3, gaz, LabelingConfig())
    if not all(ad.label == 0 and ad.rule_trace == [] for ad in s3):
        failures.append("benign singleton labeled nonzero")

    _, _, graph = planted_graph
    distance_counts = []
    for thresh in (300.0, 400.0, 500.0, 600.0):
        labels = label_htrp(graph, gaz, LabelingConfig(distance_threshold_miles=thresh))
        distance_counts.append(sum(ad.label for ad in labels))
    if distance_counts != sorted(distance_counts, reverse=True):
        failures.append(f"distance sweep not monotone: {distance_counts}")
    phone_counts = []
    for thresh in (2, 3, 4, 5):
        labels = label_htrp(graph, gaz, LabelingConfig(phone_count_threshold=thresh))
        phone_counts.append(sum(ad.label for ad in labels))
    if phone_counts != sorted(phone_counts, reverse=True):
        failures.append(f"phone sweep not monotone: {phone_counts}")

    report(
        8,
        "haversine within 0.5% of oracle; three rule scenarios exact; sweeps monotone",
        failures,
    )


def test_criterion_09_wilcoxon(monkeypatch):
    failures = []
    rng = random.Random(909)
    for trial in range(200):
        n = rng.randint(1, 10)
        if trial % 3 == 0:
            diffs = [rng.choice([-2.0, -1.0, 1.0, 2.0]) for _ in range(n)]
        else:
            diffs = [rng.uniform(-1, 1) or 0.5 for _ in range(n)]
        res = wilcoxon_signed_rank(
            [PairedSample(f"s{i}", d, 0.0) for i, d in enumerate(diffs)]
        )
        ref_stat, ref_p = wilcoxon_exact_ref(diffs)
        if abs(res.p_value - ref_p) > 1e-9 or abs(res.statistic - ref_stat) > 1e-9:
            failures.append(f"exact mismatch on trial {trial}: {res.p_value} vs {ref_p}")
            break

    orig_limit = analysis.EXACT_LIMIT
    for n in range(20, 26):
        diffs = [rng.uniform(-1, 1) for _ in range(n)]
        samples = [PairedSample(f"s{i}", d, 0.0) for i, d in enumerate(diffs)]
        monkeypatch.setattr(analysis, "EXACT_LIMIT", orig_limit)
        exact = wilcoxon_signed_rank(samples)
        monkeypatch.setattr(analysis, "EXACT_LIMIT", 0)
        approx = wilcoxon_signed_rank(samples)
        if exact.method != "exact" or approx.method != "normal":
            failures.append(f"method routing broken at n={n}")
        if abs(exact.p_value - approx.p_value) > 0.01:
            failures.append(
                f"exact vs normal differ by {abs(exact.p_value - approx.p_value):.4f} at n={n}"
            )

    degenerate = wilcoxon_signed_rank([PairedSample(f"s{i}", 0.3, 0.3) for i in range(6)])
    if not (degenerate.p_value == 1.0 and degenerate.degenerate and degenerate.method == "degenerate"):
        failures.append("degenerate all-zero case not flagged with p = 1.0")
    report(9, "signed-rank test matches enumeration oracle; approximation within 0.01", failures)


def test_criterion_10_end_to_end_scale(tmp_path):
    failures = []
    synth_overrides = ["synth.n_ads=100000", "synth.n_components=8000"]

    def one_run(workdir):
        cfg = load_config(overrides=synth_overrides, cli_values={"workdir": str(workdir)})
        run_stage("synth", cfg)
        start = time.perf_counter()
        run_all(cfg)
        return time.perf_counter() - start

    def digest_tree(workdir):
        out = {}
        for p in sorted(Path(workdir).rglob("*")):
            if p.is_file():
                out[str(p.relative_to(workdir))] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    elapsed = one_run(tmp_path / "run1")
    if elapsed >= 120.0:
        failures.append(f"full chain took {elapsed:.1f}s >= 120s on 100,000 ads")
    one_run(tmp_path / "run2")
    tree1, tree2 = digest_tree(tmp_path / "run1"), digest_tree(tmp_path / "run2")
    if tree1 != tree2:
        diff = [k for k in tree1.keys() | tree2.keys() if tree1.get(k) != tree2.get(k)]
        failures.append(f"reruns differ in {len(diff)} files, e.g. {sorted(diff)[:3]}")
    report(
        10,
        f"100,000-ad end-to-end chain in {elapsed:.1f}s; two runs byte-identical",
        failures,
        elapsed,
    )
