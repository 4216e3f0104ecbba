"""Label-variant comparison with a Wilcoxon signed-rank test.

The exact branch computes the full sign-assignment distribution of the
statistic (all 2^n assignments, counted by subset-sum convolution over
doubled midranks so ties stay exact in integer arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import to_row
from .errors import AnalysisError
from .label import LabeledAd

EXACT_LIMIT = 25


@dataclass(frozen=True)
class PairedSample:
    stratum: str
    value_a: float
    value_b: float


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    n_effective: int
    degenerate: bool
    method: str  # "exact", "normal", or "degenerate"


def _doubled_midranks(abs_diffs: Sequence[float]) -> list[int]:
    """Two times the midrank of each |difference|, exact integers."""
    order = sorted(range(len(abs_diffs)), key=lambda i: abs_diffs[i])
    doubled = [0] * len(abs_diffs)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and abs_diffs[order[end + 1]] == abs_diffs[order[pos]]:
            end += 1
        # ranks pos+1 .. end+1 (1-based) share midrank (pos+1 + end+1)/2
        for k in range(pos, end + 1):
            doubled[order[k]] = pos + end + 2
        pos = end + 1
    return doubled


def _exact_p(doubled: list[int], observed_doubled: int) -> float:
    """P(min(W+, W-) <= observed) over all 2^n sign assignments."""
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for w in range(total - r, -1, -1):
            if counts[w]:
                counts[w + r] += counts[w]
    hits = sum(c for w, c in enumerate(counts) if min(w, total - w) <= observed_doubled)
    return hits / (1 << len(doubled))


def _normal_p(w_stat: float, n: int, tie_sizes: Iterable[int]) -> float:
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - sum(t**3 - t for t in tie_sizes) / 48.0
    sd = math.sqrt(var)
    z = (w_stat + 0.5 - mean) / sd  # continuity correction toward the mean
    p = math.erfc(-z / math.sqrt(2.0))  # = 2 * Phi(z)
    return min(1.0, p)


def wilcoxon_signed_rank(samples: Sequence[PairedSample]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank over paired per-stratum values.

    Zero differences drop out. Exact distribution up to n_effective of
    25, normal approximation with tie and continuity corrections above.
    """
    if not samples:
        raise AnalysisError("wilcoxon needs at least one paired sample")
    seen: set[str] = set()
    for s in samples:
        if s.stratum in seen:
            raise AnalysisError(f"duplicate stratum {s.stratum!r}")
        seen.add(s.stratum)
        for v in (s.value_a, s.value_b):
            if not math.isfinite(v):
                raise AnalysisError(f"non-finite value in stratum {s.stratum!r}")

    diffs = [s.value_a - s.value_b for s in samples if s.value_a != s.value_b]
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, True, "degenerate")

    abs_diffs = [abs(d) for d in diffs]
    doubled = _doubled_midranks(abs_diffs)
    w_plus2 = sum(r for r, d in zip(doubled, diffs) if d > 0)
    w_minus2 = sum(doubled) - w_plus2
    observed2 = min(w_plus2, w_minus2)
    statistic = observed2 / 2.0

    if n <= EXACT_LIMIT:
        return WilcoxonResult(statistic, _exact_p(doubled, observed2), n, False, "exact")

    tie_sizes: dict[float, int] = {}
    for v in abs_diffs:
        tie_sizes[v] = tie_sizes.get(v, 0) + 1
    p = _normal_p(statistic, n, tie_sizes.values())
    return WilcoxonResult(statistic, p, n, False, "normal")


def compare_label_variants(
    labels_a: Sequence[LabeledAd],
    labels_b: Sequence[LabeledAd],
    strata: Mapping[str, str],
) -> dict:
    """Compare two HTRP labelings of the same ads.

    strata maps ad_id to a grouping key (ads absent from the mapping
    group under "(none)"). Per-stratum positive rates feed the Wilcoxon
    test; flip counts tally per-ad label changes.
    """
    a_by_id = {ad.ad_id: ad for ad in labels_a}
    b_by_id = {ad.ad_id: ad for ad in labels_b}
    if len(a_by_id) != len(labels_a) or len(b_by_id) != len(labels_b):
        raise AnalysisError("duplicate ad_id within a label set")
    if a_by_id.keys() != b_by_id.keys():
        only_a = len(a_by_id.keys() - b_by_id.keys())
        only_b = len(b_by_id.keys() - a_by_id.keys())
        raise AnalysisError(
            f"label sets cover different ads ({only_a} only in a, {only_b} only in b)"
        )

    groups: dict[str, list[str]] = {}
    for ad_id in a_by_id:
        groups.setdefault(strata.get(ad_id, "(none)"), []).append(ad_id)

    samples = []
    stratum_rows = []
    for stratum in sorted(groups):
        ids = groups[stratum]
        rate_a = sum(a_by_id[i].label for i in ids) / len(ids)
        rate_b = sum(b_by_id[i].label for i in ids) / len(ids)
        samples.append(PairedSample(stratum, rate_a, rate_b))
        stratum_rows.append({"stratum": stratum, "n_ads": len(ids), "rate_a": rate_a, "rate_b": rate_b})

    neg_to_pos = sum(1 for i in a_by_id if a_by_id[i].label == 0 and b_by_id[i].label == 1)
    pos_to_neg = sum(1 for i in a_by_id if a_by_id[i].label == 1 and b_by_id[i].label == 0)

    return {
        "n_ads": len(a_by_id),
        "n_strata": len(groups),
        "flips": {"neg_to_pos": neg_to_pos, "pos_to_neg": pos_to_neg},
        "wilcoxon": to_row(wilcoxon_signed_rank(samples)),
        "strata": stratum_rows,
    }


def render_report(report: dict) -> str:
    """Human-readable table for the comparison report."""
    w = report["wilcoxon"]
    lines = [
        f"ads compared      {report['n_ads']}",
        f"strata            {report['n_strata']}",
        f"label flips       0->1: {report['flips']['neg_to_pos']}   1->0: {report['flips']['pos_to_neg']}",
        f"wilcoxon          W={w['statistic']:.1f}  p={w['p_value']:.6g}  n={w['n_effective']}  method={w['method']}",
        "",
        f"{'stratum':<24} {'n_ads':>6} {'rate_a':>8} {'rate_b':>8}",
    ]
    for row in report["strata"]:
        lines.append(
            f"{row['stratum']:<24} {row['n_ads']:>6} {row['rate_a']:>8.4f} {row['rate_b']:>8.4f}"
        )
    return "\n".join(lines)
