"""Output checks for one finished `adgraph all` workdir.

Every check compares the pipeline's artifacts with something computed
apart from it: the planted truth that `synth` wrote next to the corpus,
an edit distance by plain dynamic programming over texts normalized
here, and the HTRP rules applied to the planted features. No check
compares against a stored copy of earlier output. Each check returns a
list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

# artifacts a label-only change must leave byte for byte as they were
UPSTREAM_ARTIFACTS = ("clusters.jsonl", "identifiers.jsonl", "graph.json")

# a planted span this close to the distance threshold could fall on
# either side of it in the pipeline's own floating-point arithmetic
SPAN_MARGIN_MILES = 1e-6

PAIR_SIM_THRESHOLD = 0.5  # the pipeline's default label.pair_sim_threshold
DP_SAMPLE = 12  # oad pairs per operation whose similarity is recomputed

# near clusters split by MinHash banding misses that one chain may show;
# of `reposted` seeds 1 to 474, 60 show one such miss, 7 show two
BANDING_MISS_LIMIT = 3


@dataclass(frozen=True)
class Expectation:
    """What a correct chain over one synthetic corpus must produce."""

    truth: dict
    texts: dict[str, str]  # ad_id -> title and description joined, as ingest does
    distance_threshold_miles: float
    phone_count_threshold: int
    upstream_digests: dict[str, str] | None = None  # relabel: digests of the base run


def normalize(text: str) -> str:
    """The pipeline's text form for synth prose: casefold, NFC, single spaces."""
    return " ".join(unicodedata.normalize("NFC", text.casefold()).split())


def read_corpus_texts(path: Path) -> dict[str, str]:
    texts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            title, description = row["title"], row["description"]
            joined = f"{title} {description}" if title and description else title or description
            texts[row["ad_id"]] = joined
    return texts


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the textbook row-by-row recurrence."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def upstream_digests(workdir: Path) -> dict[str, str]:
    return {name: file_digest(workdir / name) for name in UPSTREAM_ARTIFACTS}


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _found_identifiers(workdir: Path) -> dict[str, dict[tuple[str, str], tuple]]:
    """ad_id -> {(kind, canonical): (start, end) in the joined text, or Nones}."""
    found: dict[str, dict] = {}
    for row in _jsonl(workdir / "identifiers.jsonl"):
        found.setdefault(row["ad_id"], {})[(row["kind"], row["canonical"])] = (row["start"], row["end"])
    return found


def _edited_span(text: str, parent: str) -> tuple[int, int]:
    """The part of a near duplicate's text that differs from its parent's."""
    n = min(len(text), len(parent))
    head = 0
    while head < n and text[head] == parent[head]:
        head += 1
    tail = 0
    while tail < n - head and text[-1 - tail] == parent[-1 - tail]:
        tail += 1
    return head, len(text) - tail


def edit_made_identifiers(found: dict, exp: Expectation) -> dict[str, set[tuple[str, str]]]:
    """Identifiers that synth's near-duplicate edits spelled without planting.

    synth edits letters in a near duplicate's prose, and an edit can
    spell an identifier the truth file does not list ("hi loves" became
    "ig lcoves", an instagram handle). An unplanted identifier found on
    a near duplicate is put down to the edit when its span overlaps the
    text that differs from the parent ad; any other one is an error.
    """
    made = {}
    for cluster in exp.truth["planted_clusters"]:
        parent = exp.texts[cluster["canonical_id"]]
        for ad in cluster["member_ids"]:
            if exp.texts[ad] == parent:
                continue
            planted = {(x["kind"], x["canonical"]) for x in exp.truth["planted_identifiers"][ad]}
            lo, hi = _edited_span(exp.texts[ad], parent)
            extra = {
                key
                for key, (start, end) in found.get(ad, {}).items()
                if key not in planted and start is not None and start < hi and end > lo
            }
            if extra:
                made[ad] = extra
    return made


def _canonical_of(truth: dict) -> dict[str, str]:
    """Every ad -> the canonical ad of its planted duplicate cluster."""
    return {ad: c["canonical_id"] for c in truth["planted_clusters"] for ad in c["member_ids"]}


def expected_rules(features: dict, exp: Expectation) -> list[str]:
    """Rules the OR-combined HTRP labeler fires on planted features."""
    fired = []
    if features["max_span_miles"] > exp.distance_threshold_miles:
        fired.append("distance")
    if features["unique_phone_count"] >= exp.phone_count_threshold:
        fired.append("phones")
    return fired


def check_clusters(workdir: Path, exp: Expectation) -> list[str]:
    """Planted clusters come out verbatim, up to a few banding misses.

    Near-duplicate candidates come from MinHash banding, which misses a
    pair with some small probability: seed 103 of `reposted` has a near
    duplicate at similarity 0.955 (shingle Jaccard 0.66) that no band
    catches, and so it comes out as a cluster of its own. A planted near
    cluster may come out in pieces, each a subset of it; the pieces
    beyond one per planted cluster count as misses, and more than
    BANDING_MISS_LIMIT of them in one chain fail the check. Every other
    difference fails it too.
    """
    planted = {ad: c for c in exp.truth["planted_clusters"] for ad in c["member_ids"]}
    wrong, seen = 0, []
    pieces: dict[str, int] = {}  # split planted near canonical -> its pieces found
    for found in _jsonl(workdir / "clusters.jsonl"):
        members = found["member_ids"]
        seen += members
        home = planted.get(members[0])
        if home is not None and home["method"] == "near" and set(members) < set(home["member_ids"]):
            pieces[home["canonical_id"]] = pieces.get(home["canonical_id"], 0) + 1
        elif found != home:
            wrong += 1
    misses = sum(n - 1 for n in pieces.values())
    missing = len(planted.keys() - set(seen)) + len(seen) - len(set(seen))
    if not wrong and not missing and misses <= BANDING_MISS_LIMIT:
        return []
    return [
        f"clusters: {wrong} differ from the plant, {missing} ads missing or repeated, "
        f"near clusters split {misses} times (at most {BANDING_MISS_LIMIT} allowed)"
    ]


def check_identifiers(workdir: Path, exp: Expectation) -> list[str]:
    found = _found_identifiers(workdir)
    made = edit_made_identifiers(found, exp)
    wrong = [
        ad
        for ad, planted in exp.truth["planted_identifiers"].items()
        if set(found.pop(ad, {})) - made.get(ad, set())
        != {(x["kind"], x["canonical"]) for x in planted}
    ]
    wrong.extend(found)  # identifiers on ads the corpus does not hold
    if not wrong:
        return []
    return [f"identifiers: {len(wrong)} ads differ from the plant, e.g. {sorted(wrong)[0]}"]


def check_components(workdir: Path, exp: Expectation) -> list[str]:
    """Graph components, with each node read as its planted cluster's canonical."""
    canonical_of = _canonical_of(exp.truth)
    got = {
        frozenset(canonical_of.get(node, node) for node in members)
        for members in _json(workdir / "graph.json")["components"].values()
    }
    want = {frozenset(m) for m in exp.truth["planted_components"]}
    if got == want:
        return []
    return [f"components: {len(got - want)} unplanted, {len(want - got)} planted not recovered"]


def _expected_htrp(made: dict, exp: Expectation) -> dict[str, tuple[dict, list[str]]]:
    """Planted canonical -> (features, rules fired) of its planted component."""
    cluster_of = {c["canonical_id"]: c["member_ids"] for c in exp.truth["planted_clusters"]}
    out = {}
    for planted in exp.truth["planted_htrp"].values():
        canonicals = planted["member_canonicals"]
        extra = {key for ad in canonicals for m in cluster_of[ad] for key in made.get(m, ())}
        if extra:  # counted like planted ones by every feature but the span
            keys = {
                (x["kind"], x["canonical"])
                for ad in canonicals
                for x in exp.truth["planted_identifiers"][ad]
            } | extra
            planted = {
                **planted,
                "unique_identifier_count": len(keys),
                "unique_phone_count": sum(1 for kind, _ in keys if kind == "phone"),
            }
        for ad in canonicals:
            out[ad] = (planted, expected_rules(planted, exp))
    return out


def check_htrp(workdir: Path, exp: Expectation) -> list[str]:
    labels = {row["ad_id"]: row for row in _jsonl(workdir / "htrp_labels.jsonl")}
    expected = _expected_htrp(edit_made_identifiers(_found_identifiers(workdir), exp), exp)
    canonical_of = _canonical_of(exp.truth)
    problems = [f"htrp: {ad} has no label" for ad in sorted(expected.keys() - labels.keys())]
    for ad, row in sorted(labels.items()):
        if canonical_of.get(ad) not in expected:
            problems.append(f"htrp: label on unplanted ad {ad}")
            continue
        planted, fired = expected[canonical_of[ad]]
        if abs(planted["max_span_miles"] - exp.distance_threshold_miles) <= SPAN_MARGIN_MILES:
            problems.append(f"htrp: planted span {planted['max_span_miles']} sits on the threshold")
        f = row["features"]
        if (
            row["label"] != (1 if fired else 0)
            or sorted(row["rule_trace"]) != sorted(fired)
            or abs(f["max_span_miles"] - planted["max_span_miles"]) > SPAN_MARGIN_MILES
            or f["unique_phone_count"] != planted["unique_phone_count"]
            or f["unique_identifier_count"] != planted["unique_identifier_count"]
            or f["unresolved_locations"] != planted["unresolved_locations"]
        ):
            problems.append(f"htrp: {ad} label, trace or features differ from the plant")
    return problems[:5]


def check_pairs(workdir: Path, exp: Expectation, sample_seed: str) -> list[str]:
    """Pair labels, class balance, split integrity, and sampled similarities."""
    pairs = _jsonl(workdir / "oad_pairs.jsonl")
    components = _json(workdir / "graph.json")["components"]
    split = _json(workdir / "split.json")["components"]
    side_of = {ad: split[cid] for cid, members in components.items() for ad in members}
    canonical_of = _canonical_of(exp.truth)
    planted_of = {ad: i for i, m in enumerate(exp.truth["planted_components"]) for ad in m}

    def component(ad):
        return planted_of.get(canonical_of.get(ad), ad)

    problems = []
    positives = sum(1 for p in pairs if p["label"] == 1)
    if positives == 0 or 2 * positives != len(pairs):
        problems.append(f"pairs: {positives} positive of {len(pairs)}, classes unbalanced")
    for members in exp.truth["planted_components"]:
        if len({side_of.get(ad) for ad in members}) != 1:
            problems.append(f"split: planted component of {members[0]} straddles the split")
            break
    for p in pairs:
        a, b = p["a"], p["b"]
        if p["label"] != int(component(a) == component(b)):
            problems.append(f"pairs: ({a}, {b}) label {p['label']} disagrees with the plant")
            break
        if not side_of.get(a) == side_of.get(b) == p["split"]:
            problems.append(f"pairs: ({a}, {b}) crosses the split")
            break

    rng = random.Random(sample_seed)
    for p in rng.sample(pairs, min(DP_SAMPLE, len(pairs))):
        ta, tb = normalize(exp.texts[p["a"]]), normalize(exp.texts[p["b"]])
        sim = 1.0 - edit_distance(ta, tb) / max(len(ta), len(tb))
        if sim != p["similarity"] or not sim < PAIR_SIM_THRESHOLD:
            problems.append(
                f"pairs: ({p['a']}, {p['b']}) similarity {p['similarity']} "
                f"recomputes as {sim}, cap {PAIR_SIM_THRESHOLD}"
            )
            break
    return problems


def check_upstream_unchanged(workdir: Path, exp: Expectation) -> list[str]:
    if exp.upstream_digests is None:
        return []
    return [
        f"relabel: {name} changed bytes"
        for name, digest in exp.upstream_digests.items()
        if file_digest(workdir / name) != digest
    ]


def check_outputs(workdir: Path, exp: Expectation, sample_seed: str) -> list[str]:
    """All checks; an empty list means the chain's outputs are correct."""
    problems: list[str] = []
    for check in (check_clusters, check_identifiers, check_components, check_htrp):
        problems += check(workdir, exp)
    problems += check_pairs(workdir, exp, sample_seed)
    problems += check_upstream_unchanged(workdir, exp)
    return problems
