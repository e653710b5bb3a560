import json
import os
import subprocess
import sys

import pytest

import datagen
import spans
from conftest import BENCH, SRC


def _span(sid, start, end, parent=None, name="x"):
    return [sid, name, start, end, parent, None, 0]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(-5, 20)], 0, 10) == 10


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),      # overlaps span 2, as pool threads do
        _span(4, 8.0, 12.0, parent=1),     # runs past its parent's end
        _span(5, 2.5, 4.5, parent=3),      # grandchild: counts against span 3 only
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 6.0)
    assert selfs[3] == pytest.approx(3.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(4.0)


def test_percentile_is_nearest_rank_and_zero_when_idle():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 95) == 95
    assert spans.percentile([7.0], 95) == 7.0
    assert spans.percentile([], 50) == 0.0


def test_traced_rerank_links_pool_thread_spans_to_their_query(tmp_path):
    data = datagen.write_dataset(2, 60, 4, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=SRC)
    index, run, out = (str(tmp_path / n) for n in ("index.json", "bm25.trec", "rr.trec"))
    launch = [sys.executable, os.path.join(BENCH, "launch.py")]
    subprocess.run([sys.executable, "-m", "qlmrank.cli", "index", "--corpus", data["corpus"],
                    "--out", index], env=env, check=True, capture_output=True)
    subprocess.run([sys.executable, "-m", "qlmrank.cli", "search", "--index", index,
                    "--queries", data["queries"], "--k", "5", "--out", run],
                   env=env, check=True, capture_output=True)
    trace = str(tmp_path / "trace.json")
    subprocess.run(launch + [trace, "rerank", "--run", run, "--corpus", data["corpus"],
                             "--queries", data["queries"], "--out", out, "--provider", "bigram",
                             "--model-family", "t5", "--dataset", "trecc", "--depth", "5",
                             "--max-workers", "2"],
                   env=env, check=True, capture_output=True, timeout=120)
    dumped = json.load(open(trace))
    by_id = {s[spans.SID]: s for s in dumped["spans"]}
    reranks = [s for s in dumped["spans"] if s[spans.NAME] == "likelihood.rerank"]
    providers = [s for s in dumped["spans"] if s[spans.NAME] == "likelihood.provider"]
    assert len(reranks) == 4 and len(providers) == 20
    for span in providers:
        parent = by_id[span[spans.PARENT]]
        assert parent[spans.NAME] == "likelihood.rerank"
        assert span[spans.QID] == parent[spans.QID]
        assert parent[spans.START] <= span[spans.START] <= span[spans.END] <= parent[spans.END]
    (main,) = [s for s in dumped["spans"] if s[spans.NAME] == "cli.main"]
    assert main[spans.PARENT] is None
    assert 0 < dumped["distinct_prompts"] <= 20
    metrics = spans.layer_metrics([dict(dumped, spawn=dumped["ready"] - 0.1)], 2, None)
    assert metrics["likelihood.provider_calls"] == 20 and metrics["prompts.calls"] == 20
    assert metrics["cli.startup_s"] == pytest.approx(0.1)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        declared = json.load(f)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    idle = spans.layer_metrics([{"spawn": 0.0, "ready": 0.1, "spans": [],
                                 "distinct_prompts": 0}], 2, None)
    layers = [*idle, "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: run._layer_unit(name) for name in layers}
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
