"""Tests of the benchmark itself, on a tiny synthetic corpus.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing

TINY = {"n_ads": 300, "dup_rate": 0.5, "n_components": 40, "obfuscation_rate": 0.7}
SEED = 5
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], synth=TINY)


def finished_chain(wl: run.Workload, rundir):
    _, inputs = run.set_up(wl, SEED, rundir, 1)
    workdir, log = rundir / "chain", rundir / "chain.log"
    run.fresh_workdir(inputs, workdir)
    done = run.run_process(run.adgraph_cmd(*run.chain_args(workdir, inputs.corpus, wl.relabel)), log)
    assert done.returncode == 0, log.read_text()
    return workdir, run.expectation(wl, inputs)


@pytest.fixture(scope="module")
def reposted(tmp_path_factory):
    return finished_chain(tiny("reposted"), tmp_path_factory.mktemp("reposted"))


@pytest.fixture(scope="module")
def relabel(tmp_path_factory):
    return finished_chain(tiny("relabel"), tmp_path_factory.mktemp("relabel"))


@pytest.fixture
def editable(reposted, tmp_path):
    """A copy of the finished reposted workdir that a test may corrupt."""
    workdir, exp = reposted
    shutil.copytree(workdir, tmp_path / "w")
    return tmp_path / "w", exp


def edit_jsonl(path, edit):
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("".join(json.dumps(r) + "\n" for r in edit(rows)), encoding="utf-8")


@pytest.mark.parametrize("name", ["reposted", "relabel"])
def test_every_check_passes_on_real_output(name, request):
    workdir, exp = request.getfixturevalue(name)
    assert checks.check_clusters(workdir, exp) == []
    assert checks.check_identifiers(workdir, exp) == []
    assert checks.check_components(workdir, exp) == []
    assert checks.check_htrp(workdir, exp) == []
    assert checks.check_pairs(workdir, exp, "any") == []
    assert checks.check_upstream_unchanged(workdir, exp) == []
    assert (exp.upstream_digests is not None) == (name == "relabel")


def test_relabel_thresholds_move_planted_labels(relabel):
    _, exp = relabel
    base = dataclasses.replace(
        exp, distance_threshold_miles=run.BASE_DISTANCE_MILES, phone_count_threshold=run.BASE_PHONE_COUNT
    )
    planted = exp.truth["planted_htrp"].values()
    moved = [p for p in planted if checks.expected_rules(p, exp) != checks.expected_rules(p, base)]
    assert moved


def test_relabel_distance_is_clear_of_every_city_distance():
    from adgraph.geo import Gazetteer, haversine_miles

    gaz = Gazetteer.bundled()
    points = [gaz.resolve(n) for n in gaz.names()]
    gaps = [
        abs(haversine_miles(*p, *q) - run.RELABEL_DISTANCE_MILES)
        for i, p in enumerate(points)
        for q in points[i + 1 :]
    ]
    assert min(gaps) > 1.0


def test_flipped_htrp_label_fails(editable):
    workdir, exp = editable

    def flip(rows):
        rows[0]["label"] = 1 - rows[0]["label"]
        return rows

    edit_jsonl(workdir / "htrp_labels.jsonl", flip)
    assert checks.check_htrp(workdir, exp)


def test_pair_spanning_two_planted_components_fails(editable):
    workdir, exp = editable
    comp_of = {a: i for i, m in enumerate(exp.truth["planted_components"]) for a in m}

    def respan(rows):
        pair = next(r for r in rows if r["label"] == 1)
        pair["b"] = next(
            r[k] for r in rows for k in ("a", "b")
            if r["split"] == pair["split"] and comp_of[r[k]] != comp_of[pair["a"]]
        )
        return rows

    edit_jsonl(workdir / "oad_pairs.jsonl", respan)
    assert any("disagrees with the plant" in p for p in checks.check_pairs(workdir, exp, "any"))


def split_off(rows, method, times=1):
    """Move a member of each of the first `times` `method` clusters into a cluster of its own."""
    clusters = [r for r in rows if r["method"] == method and len(r["member_ids"]) > 1]
    for cluster in clusters[:times]:
        member = cluster["member_ids"].pop()
        rows.append({"canonical_id": member, "member_ids": [member], "method": "exact"})
    return rows


def near_into_singletons(rows):
    """What a dedup that never merges a near duplicate would write."""
    near = [r for r in rows if r["method"] == "near"]
    singletons = [
        {"canonical_id": ad, "member_ids": [ad], "method": "exact"}
        for r in near
        for ad in r["member_ids"]
    ]
    return [r for r in rows if r["method"] != "near"] + singletons


def merge_first_two(rows):
    rows[0]["member_ids"] = sorted(rows[0]["member_ids"] + rows.pop(1)["member_ids"])
    return rows


@pytest.mark.parametrize(
    "edit, passes",
    [
        (lambda rows: split_off(rows, "near"), True),  # a banding miss, allowed
        (lambda rows: split_off(rows, "near", checks.BANDING_MISS_LIMIT), True),
        (lambda rows: split_off(rows, "near", checks.BANDING_MISS_LIMIT + 1), False),
        (near_into_singletons, False),
        (lambda rows: split_off(rows, "exact"), False),
        (merge_first_two, False),
    ],
)
def test_clusters_differing_from_the_plant(editable, edit, passes):
    workdir, exp = editable
    edit_jsonl(workdir / "clusters.jsonl", edit)
    assert (checks.check_clusters(workdir, exp) == []) == passes


def test_dropped_identifier_fails(editable):
    workdir, exp = editable
    edit_jsonl(workdir / "identifiers.jsonl", lambda rows: rows[1:])
    assert checks.check_identifiers(workdir, exp)


@pytest.mark.parametrize("inside_edit", [True, False])
def test_unplanted_identifier_passes_only_inside_a_synth_edit(editable, inside_edit):
    workdir, exp = editable
    ad, parent = next(
        (ad, c["canonical_id"])
        for c in exp.truth["planted_clusters"]
        for ad in c["member_ids"]
        if exp.texts[ad] != exp.texts[c["canonical_id"]]
    )
    lo, hi = checks._edited_span(exp.texts[ad], exp.texts[parent])
    start = lo if inside_edit else len(exp.texts[ad]) - 2
    row = {"ad_id": ad, "kind": "social_handle", "raw": "ig zz", "canonical": "instagram:zz",
           "start": start, "end": start + 2}
    edit_jsonl(workdir / "identifiers.jsonl", lambda rows: rows + [row])
    assert (checks.check_identifiers(workdir, exp) == []) == inside_edit


def test_misreported_similarity_fails(editable):
    workdir, exp = editable

    def nudge(rows):
        for r in rows:
            r["similarity"] += 1e-9
        return rows

    edit_jsonl(workdir / "oad_pairs.jsonl", nudge)
    assert any("recomputes as" in p for p in checks.check_pairs(workdir, exp, "any"))


def test_unbalanced_pairs_fail(editable):
    workdir, exp = editable
    edit_jsonl(workdir / "oad_pairs.jsonl", lambda rows: [r for r in rows if r["label"] == 1])
    assert any("unbalanced" in p for p in checks.check_pairs(workdir, exp, "any"))


def test_changed_upstream_artifact_fails_relabel(relabel, tmp_path):
    workdir, exp = relabel
    shutil.copytree(workdir, tmp_path / "w")
    with open(tmp_path / "w" / "graph.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert checks.check_upstream_unchanged(tmp_path / "w", exp) == ["relabel: graph.json changed bytes"]


def test_edit_distance_matches_known_values():
    assert checks.edit_distance("kitten", "sitting") == 3
    assert checks.edit_distance("", "abc") == 3
    assert checks.edit_distance("flaw", "lawn") == 2


@pytest.mark.parametrize("name", ["reposted", "relabel"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = run.measure(tiny(name), SEED, 0.0, True, tmp_path / "run", tmp_path / "spans")
    assert (result["attempted"], result["failed"]) == (1 + 2 * run.TRACE_PAIRS, 0)
    assert result["correct"] is True
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["pipeline.stages_ran"] == 10
    assert values["corpus.records"] == TINY["n_ads"]
    assert values["synth.generate_s"] > 0
    assert values["graph.read_graph_json_calls"] > 0
    assert (tmp_path / "spans-chain.json").is_file()
    assert (tmp_path / "spans-synth.json").is_file()


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    result = run.measure(tiny("reposted"), SEED, 0.0, False, tmp_path / "run", tmp_path / "spans")
    assert (result["attempted"], result["failed"]) == (1, 0)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_failed_check_makes_the_result_incorrect():
    chain = run.ChainRun(wall_s=1.0, cpu_s=1.0, peak_rss_mb=50.0, returncode=0)
    ops = [run.Operation(chain, 1.0, []), run.Operation(chain, 1.0, ["htrp: a1 has no label"])]
    metrics = {"chain_s": (1.0, "s")}
    assert run.result(ops[:1], metrics)["correct"] is True
    got = run.result(ops, metrics)
    assert (got["correct"], got["attempted"], got["failed"]) == (False, 2, 1)


def test_tracer_wraps_names_where_they_are_looked_up():
    from adgraph import corpus, emoji, label, pipeline

    original = emoji.count_emoji
    tracer = tracing.Tracer()
    with tracer.installed():
        assert corpus.count_emoji is not original
        assert label.similarity.__wrapped__ is not None
        assert pipeline.build_graph.__wrapped__ is not None
        corpus.normalize(corpus.AdRecord("x", "hi", "there", None))
    assert corpus.count_emoji is original
    assert [s[0] for s in tracer.spans] == ["corpus.normalize", "emoji.count_emoji"]
    assert tracer.spans[1][1] == 0


def test_self_time_subtracts_traced_children():
    spans = [
        ["dedup.deduplicate", -1, 0.0, 10.0, {"threshold": 0.9}],
        ["dedup.levenshtein", 0, 1.0, 3.0, {"d": 5, "longest": 100}],
        ["dedup.levenshtein", 0, 4.0, 5.0, {"d": 50, "longest": 100}],
    ]
    got = tracing.layer_metrics(spans, [])
    assert got["dedup.deduplicate_s"] == (10.0, "s")
    assert got["dedup.filter_s"] == (7.0, "s")
    assert got["dedup.levenshtein_s"] == (3.0, "s")
    assert got["dedup.merge_ratio"] == (0.5, "ratio")


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reposted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
