"""Pseudo-labeling: balanced pair datasets, component splits, risk labels.

Pair labels come from graph components (1 = same component). Components
never straddle the train/test boundary, and neither does any emitted
pair. Risk labels fire on geographic span and phone counts computed per
component (or per ad, by config) and are inherited by member ads.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import logging
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Literal, Mapping, Sequence

from .dedup import similarities
from .errors import ConfigError, LabelingError
from .geo import Gazetteer, haversine_miles
from .graph import RelatednessGraph

log = logging.getLogger(__name__)

# below this many same-class candidate pairs the sampler enumerates and
# shuffles instead of rejection-sampling
_ENUMERATE_LIMIT = 200_000

RULE_DISTANCE = "distance"
RULE_PHONES = "phones"


@dataclass(frozen=True)
class LabelingConfig:
    pair_sim_threshold: float = 0.5
    distance_threshold_miles: float = 300.0
    phone_count_threshold: int = 3
    rule_combination: str = "or"
    split_ratio: float = 0.8
    seed: int = 0
    pairs_per_class: int = 1000
    include_giant_component: bool = True
    feature_scope: str = "component"

    def __post_init__(self) -> None:
        if self.pair_sim_threshold <= 0:
            raise ConfigError("pair_sim_threshold must be positive")
        if self.distance_threshold_miles <= 0:
            raise ConfigError("distance_threshold_miles must be positive")
        if self.phone_count_threshold <= 0:
            raise ConfigError("phone_count_threshold must be positive")
        if self.rule_combination not in ("or", "and"):
            raise ConfigError("rule_combination must be 'or' or 'and'")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        if self.pairs_per_class < 1:
            raise ConfigError("pairs_per_class must be >= 1")
        if self.feature_scope not in ("component", "ad"):
            raise ConfigError("feature_scope must be 'component' or 'ad'")


@dataclass
class LabeledPair:
    a: str
    b: str
    label: int
    similarity: float
    split: str


@dataclass
class HtrpFeatures:
    max_span_miles: float
    unique_phone_count: int
    unique_identifier_count: int
    unresolved_locations: int


@dataclass
class LabeledAd:
    ad_id: str
    label: int
    features: HtrpFeatures
    rule_trace: list[str]


@dataclass
class Split:
    """Each component's side of the train/test split, in component order."""

    components: dict[int, Literal["train", "test"]]


def split_components(graph: RelatednessGraph, cfg: LabelingConfig) -> dict[int, str]:
    """Assign every component to train or test, keeping components whole.

    Components are taken largest first (ties ordered by a seeded hash)
    and each goes to the split with the larger remaining ad-count
    deficit against its target share; exact ties go to train.
    """
    total = sum(len(m) for m in graph.components.values())
    if total == 0:
        return {}

    def tiebreak(cid: int) -> str:
        return hashlib.sha256(f"{cfg.seed}:{cid}".encode()).hexdigest()

    order = sorted(
        graph.components,
        key=lambda cid: (-len(graph.components[cid]), tiebreak(cid), cid),
    )
    train_target = cfg.split_ratio * total
    test_target = (1.0 - cfg.split_ratio) * total
    train_count = test_count = 0
    assignment: dict[int, str] = {}
    for cid in order:
        size = len(graph.components[cid])
        if train_target - train_count >= test_target - test_count:
            assignment[cid] = "train"
            train_count += size
        else:
            assignment[cid] = "test"
            test_count += size
    return assignment


def split_report(graph: RelatednessGraph, assignment: Mapping[int, str], cfg: LabelingConfig) -> dict:
    """Counts, achieved-vs-target deviation, and giant-component share."""
    train_ads = sum(len(graph.components[c]) for c, s in assignment.items() if s == "train")
    test_ads = sum(len(graph.components[c]) for c, s in assignment.items() if s == "test")
    total = train_ads + test_ads
    largest = max((len(m) for m in graph.components.values()), default=0)
    achieved = train_ads / total if total else 0.0
    return {
        "train_ads": train_ads,
        "test_ads": test_ads,
        "deviation": abs(achieved - cfg.split_ratio),
        "giant_component_share": largest / total if total else 0.0,
    }


def _giant_component(graph: RelatednessGraph) -> int | None:
    best = None
    for cid, members in graph.components.items():
        if best is None or (len(members), -cid) > (len(graph.components[best]), -best):
            best = cid
    return best


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _sample_pairs(
    groups: Sequence[Sequence[str]],
    counts: Sequence[int],
    admissible: Callable[[str, str], bool],
    texts: Mapping[str, str],
    cfg: LabelingConfig,
    rng: random.Random,
    want: int,
) -> list[tuple[str, str, float]]:
    """Up to want admissible pairs below pair_sim_threshold.

    A pair's two ads come from one group; counts[k] is group k's number
    of admissible pairs. Small pools are enumerated and shuffled; large
    ones are rejection-sampled, each group drawn in proportion to its
    count, until the attempt budget runs out. The budget depends on
    pairs_per_class, not on want, so the pairs kept for a smaller want
    are a prefix of those kept for a larger one. Candidates are scored
    in batches, never more than the pairs still wanted, so the pairs
    kept and the RNG draws are those of scoring one candidate at a time.
    """
    total = sum(counts)
    if total == 0 or want == 0:
        return []

    threshold = cfg.pair_sim_threshold
    out: list[tuple[str, str, float]] = []

    def keep(batch: list[tuple[str, str]]) -> None:
        sims = similarities([(texts[a], texts[b]) for a, b in batch])
        out.extend((a, b, sim) for (a, b), sim in zip(batch, sims) if sim < threshold)

    if total <= _ENUMERATE_LIMIT:
        candidates = [
            (a, b)
            for nodes in groups
            for a, b in itertools.combinations(nodes, 2)
            if admissible(a, b)
        ]
        rng.shuffle(candidates)
        done = 0
        while len(out) < want and done < len(candidates):
            batch = candidates[done : done + want - len(out)]
            done += len(batch)
            keep(batch)
        return out

    cum = list(itertools.accumulate(counts))
    seen: set[tuple[str, str]] = set()
    attempts = 0
    budget = max(60 * cfg.pairs_per_class, 10_000)
    while len(out) < want and attempts < budget:
        batch: list[tuple[str, str]] = []
        while len(out) + len(batch) < want and attempts < budget:
            attempts += 1
            nodes = groups[bisect.bisect_right(cum, rng.randrange(cum[-1]))]
            i, j = rng.sample(range(len(nodes)), 2)
            a, b = nodes[i], nodes[j]
            if not admissible(a, b):
                continue
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                continue
            seen.add((a, b))
            batch.append((a, b))
        keep(batch)
    return out


def generate_oad_pairs(
    graph: RelatednessGraph,
    texts: Mapping[str, str],
    cfg: LabelingConfig,
    split_of: Mapping[int, str] | None = None,
) -> list[LabeledPair]:
    """Balanced same-component / cross-component pair dataset.

    Both classes are sampled seeded-uniformly from their candidate
    pools, drop any pair at or above pair_sim_threshold similarity, and
    are truncated to the smaller class. Negative pairs are drawn within
    one split side so no pair crosses the boundary.
    """
    if len(graph.components) < 2:
        raise LabelingError("need at least 2 components to form negative pairs")
    missing = [n for n in graph.nodes if n not in texts]
    if missing:
        raise LabelingError(f"missing normalized text for {len(missing)} nodes, e.g. {missing[0]!r}")
    if split_of is None:
        split_of = split_components(graph, cfg)

    # positives: any two ads of one component (the giant one left out on request)
    excluded = None if cfg.include_giant_component else _giant_component(graph)
    comps = [
        members
        for cid, members in sorted(graph.components.items())
        if len(members) >= 2 and cid != excluded
    ]
    positives = _sample_pairs(
        comps,
        [_pair_count(len(m)) for m in comps],
        lambda a, b: True,
        texts,
        cfg,
        random.Random(f"{cfg.seed}:oad:pos"),
        cfg.pairs_per_class,
    )

    # negatives: two ads of different components on one split side. Both
    # classes are cut to the smaller, so no more negatives are scored than
    # positives were found; they are a prefix of the full draw.
    by_split: dict[str, list[str]] = {"train": [], "test": []}
    for cid, members in sorted(graph.components.items()):
        by_split[split_of[cid]].extend(members)
    comp_of = graph.component_of
    sides = [sorted(nodes) for nodes in by_split.values() if len(nodes) >= 2]
    negatives = _sample_pairs(
        sides,
        [
            _pair_count(len(nodes))
            - sum(map(_pair_count, Counter(comp_of[n] for n in nodes).values()))
            for nodes in sides
        ],
        lambda a, b: comp_of[a] != comp_of[b],
        texts,
        cfg,
        random.Random(f"{cfg.seed}:oad:neg"),
        min(cfg.pairs_per_class, len(positives)),
    )

    keep = len(negatives)
    if keep < cfg.pairs_per_class:
        short = "negative" if keep < len(positives) else "positive"
        log.warning(
            "pair candidates exhausted: kept %d of %d wanted per class (the %s class ran out at %d)",
            keep,
            cfg.pairs_per_class,
            short,
            keep,
        )

    pairs = [
        LabeledPair(a, b, 1, sim, split_of[comp_of[a]])
        for a, b, sim in positives[:keep]
    ]
    pairs.extend(
        LabeledPair(a, b, 0, sim, split_of[comp_of[a]])
        for a, b, sim in negatives
    )
    return pairs


def _component_features(
    nodes: list[str],
    graph: RelatednessGraph,
    gazetteer: Gazetteer,
) -> HtrpFeatures:
    identifiers: set[str] = set()
    raw_locations: set[str] = set()
    for node in nodes:
        identifiers.update(graph.node_identifiers.get(node, ()))
        raw_locations.update(loc.strip().casefold() for loc in graph.node_locations.get(node, ()))

    coords: set[tuple[float, float]] = set()
    unresolved = 0
    for loc in sorted(raw_locations):
        point = gazetteer.resolve(loc)
        if point is None:
            unresolved += 1
        else:
            coords.add(point)

    span = 0.0
    points = sorted(coords)
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            span = max(span, haversine_miles(p[0], p[1], q[0], q[1]))

    phones = {key for key in identifiers if key.startswith("phone:")}
    return HtrpFeatures(
        max_span_miles=span,
        unique_phone_count=len(phones),
        unique_identifier_count=len(identifiers),
        unresolved_locations=unresolved,
    )


def _rules(features: HtrpFeatures, cfg: LabelingConfig) -> tuple[int, HtrpFeatures, list[str]]:
    """The label, features and fired rules of one ad under cfg's thresholds."""
    fired = []
    if features.max_span_miles > cfg.distance_threshold_miles:
        fired.append(RULE_DISTANCE)
    if features.unique_phone_count >= cfg.phone_count_threshold:
        fired.append(RULE_PHONES)
    if cfg.rule_combination == "or":
        label = 1 if fired else 0
    else:
        label = 1 if len(fired) == 2 else 0
    return label, features, fired


def label_htrp(
    graph: RelatednessGraph,
    gazetteer: Gazetteer,
    cfg: LabelingConfig,
) -> list[LabeledAd]:
    """Binary risk label per canonical ad, from span and phone-count rules.

    With feature_scope "component" (default) features pool over the
    whole component and members inherit them; "ad" scores each node on
    its own cluster's identifiers and locations.
    """
    if len(gazetteer) == 0:
        raise ConfigError("gazetteer is empty")
    if cfg.feature_scope == "component":
        groups = [members for _, members in sorted(graph.components.items())]
    else:
        groups = [[node] for node in graph.nodes]
    features_of: dict[str, HtrpFeatures] = {}
    for members in groups:
        features = _component_features(members, graph, gazetteer)
        features_of.update(dict.fromkeys(members, features))
    return [LabeledAd(node, *_rules(features_of[node], cfg)) for node in sorted(features_of)]


def relabel(labels: Sequence[LabeledAd], cfg: LabelingConfig) -> list[LabeledAd]:
    """The same ads, features kept, judged by cfg's rule thresholds."""
    return [LabeledAd(ad.ad_id, *_rules(ad.features, cfg)) for ad in labels]
