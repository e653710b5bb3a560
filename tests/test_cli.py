import argparse
import base64
import json
import os
import pathlib
import struct
import subprocess
import sys
import threading

import pytest

import qlmrank
from qlmrank import ranking
from qlmrank.cli import atomic_write, build_parser, main
from qlmrank.corpus import read_run


@pytest.fixture
def dataset(tmp_path):
    """Small five-doc, three-query dataset on disk."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(json.dumps(row) for row in [
        {"_id": "d1", "title": "apples", "text": "apples grow on apple trees"},
        {"_id": "d2", "title": "", "text": "bananas are yellow fruit"},
        {"_id": "d3", "title": "citrus", "text": "oranges and lemons are citrus fruit"},
        {"_id": "d4", "title": "", "text": "trees need water and light"},
        {"_id": "d5", "title": "", "text": "fruit salad mixes apples bananas oranges"},
    ]) + "\n", encoding="utf-8")
    queries = tmp_path / "queries.jsonl"
    queries.write_text("\n".join(json.dumps(row) for row in [
        {"_id": "q1", "text": "apple trees"},
        {"_id": "q2", "text": "yellow bananas"},
        {"_id": "q3", "text": "citrus fruit"},
    ]) + "\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text(
        "q1\td1\t2\nq1\td5\t1\nq2\td2\t2\nq2\td5\t1\nq3\td3\t2\n",
        encoding="utf-8",
    )
    return {
        "dir": tmp_path,
        "corpus": str(corpus),
        "queries": str(queries),
        "qrels": str(qrels),
    }


def run_cli(*argv):
    return main([str(a) for a in argv])


def packed(code, *values):
    """An index file's packed array: struct typecode, then base64 of the
    values' little-endian bytes."""
    return code + base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode()


class TestIndexAndSearch:
    def test_index_then_search(self, dataset):
        index = dataset["dir"] / "index.json"
        run_path = dataset["dir"] / "bm25.trec"
        assert run_cli("index", "--corpus", dataset["corpus"], "--out", index) == 0
        assert run_cli("search", "--index", index, "--queries", dataset["queries"],
                       "--out", run_path, "--k", 5) == 0
        run = read_run(str(run_path))
        assert run.doc_ids("q1")[0] == "d1"
        assert run.tag == "bm25"

    def test_dirichlet_ranker(self, dataset):
        index = dataset["dir"] / "index.json"
        run_path = dataset["dir"] / "dir.trec"
        run_cli("index", "--corpus", dataset["corpus"], "--out", index)
        assert run_cli("search", "--index", index, "--queries", dataset["queries"],
                       "--out", run_path, "--ranker", "dirichlet", "--k", 5) == 0
        run = read_run(str(run_path))
        assert len(run.doc_ids("q1")) == 5  # dirichlet scores every document

    def test_search_is_deterministic(self, dataset):
        index = dataset["dir"] / "index.json"
        run_cli("index", "--corpus", dataset["corpus"], "--out", index)
        out1 = dataset["dir"] / "a.trec"
        out2 = dataset["dir"] / "b.trec"
        run_cli("search", "--index", index, "--queries", dataset["queries"], "--out", out1)
        run_cli("search", "--index", index, "--queries", dataset["queries"], "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_corpus_is_data_error(self, dataset):
        assert run_cli("index", "--corpus", "/nope/corpus.jsonl",
                       "--out", dataset["dir"] / "x.json") == 2


class TestRerankAndFuse:
    def _first_stage(self, dataset):
        index = dataset["dir"] / "index.json"
        first = dataset["dir"] / "first.trec"
        run_cli("index", "--corpus", dataset["corpus"], "--out", index)
        run_cli("search", "--index", index, "--queries", dataset["queries"],
                "--out", first, "--k", 5)
        return first

    def test_bigram_rerank(self, dataset):
        first = self._first_stage(dataset)
        out = dataset["dir"] / "reranked.trec"
        code = run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", out,
                       "--provider", "bigram", "--model-family", "llama",
                       "--dataset", "trecc", "--depth", 3)
        assert code == 0
        reranked = read_run(str(out))
        original = read_run(str(first))
        for qid in reranked.query_ids():
            assert sorted(reranked.doc_ids(qid)) == sorted(original.doc_ids(qid)[:3])

    def test_rerank_stats_written(self, dataset):
        first = self._first_stage(dataset)
        out = dataset["dir"] / "reranked.trec"
        stats_path = dataset["dir"] / "stats.json"
        run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                "--queries", dataset["queries"], "--out", out,
                "--provider", "bigram", "--model-family", "llama",
                "--dataset", "trecc", "--stats-out", stats_path)
        stats = json.loads(stats_path.read_text())
        pairs = sum(len(ranking) for ranking in read_run(str(first)).entries.values())
        assert stats == {"requests": pairs}

    @pytest.mark.parametrize("fewshot", [[], ["--fewshot"]])
    def test_bigram_output_independent_of_max_workers(self, dataset, fewshot):
        first = self._first_stage(dataset)
        outputs = []
        for workers in (1, 8):
            out = dataset["dir"] / f"reranked{workers}.trec"
            assert run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                           "--queries", dataset["queries"], "--out", out,
                           "--provider", "bigram", "--model-family", "llama",
                           "--dataset", "trecc", "--max-workers", workers, *fewshot) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_max_workers_below_one_is_usage_error(self, dataset, capsys, workers):
        first = self._first_stage(dataset)
        capsys.readouterr()
        code = run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", dataset["dir"] / "x.trec",
                       "--provider", "bigram", "--model-family", "llama",
                       "--dataset", "trecc", "--max-workers", workers)
        assert code == 1
        assert capsys.readouterr().err == f"error: --max-workers must be >= 1, got {workers}\n"
        assert not (dataset["dir"] / "x.trec").exists()

    def test_unreachable_remote_is_provider_error(self, dataset):
        first = self._first_stage(dataset)
        code = run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"],
                       "--out", dataset["dir"] / "x.trec",
                       "--provider", "remote", "--endpoint", "http://127.0.0.1:1",
                       "--model-family", "llama", "--dataset", "trecc")
        assert code == 3

    def test_remote_without_endpoint_is_usage_error(self, dataset, monkeypatch):
        monkeypatch.delenv("QLMRANK_ENDPOINT", raising=False)
        first = self._first_stage(dataset)
        code = run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"],
                       "--out", dataset["dir"] / "x.trec",
                       "--provider", "remote",
                       "--model-family", "llama", "--dataset", "trecc")
        assert code == 1

    def test_endpoint_read_from_environment(self, dataset, monkeypatch):
        # unreachable endpoint from the env var: proves the var is honored
        monkeypatch.setenv("QLMRANK_ENDPOINT", "http://127.0.0.1:1")
        first = self._first_stage(dataset)
        code = run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"],
                       "--out", dataset["dir"] / "x.trec",
                       "--provider", "remote",
                       "--model-family", "llama", "--dataset", "trecc")
        assert code == 3

    def test_fuse(self, dataset):
        first = self._first_stage(dataset)
        reranked = dataset["dir"] / "reranked.trec"
        run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                "--queries", dataset["queries"], "--out", reranked,
                "--provider", "bigram", "--model-family", "llama",
                "--dataset", "trecc")
        fused = dataset["dir"] / "fused.trec"
        assert run_cli("fuse", "--run-a", first, "--run-b", reranked,
                       "--alpha", 0.2, "--out", fused) == 0
        fused_run = read_run(str(fused))
        first_run = read_run(str(first))
        for qid in first_run.query_ids():
            assert set(fused_run.doc_ids(qid)) >= set(first_run.doc_ids(qid))

    def test_fuse_alpha_out_of_range_is_usage_error(self, dataset):
        first = self._first_stage(dataset)
        assert run_cli("fuse", "--run-a", first, "--run-b", first,
                       "--alpha", 1.5, "--out", dataset["dir"] / "x.trec") == 1


class TestEvalSigtestSweep:
    def _runs(self, dataset):
        index = dataset["dir"] / "index.json"
        bm25 = dataset["dir"] / "bm25.trec"
        dirichlet = dataset["dir"] / "dirichlet.trec"
        run_cli("index", "--corpus", dataset["corpus"], "--out", index)
        run_cli("search", "--index", index, "--queries", dataset["queries"],
                "--out", bm25, "--k", 5)
        run_cli("search", "--index", index, "--queries", dataset["queries"],
                "--out", dirichlet, "--ranker", "dirichlet", "--k", 5)
        return bm25, dirichlet

    def test_eval_writes_report(self, dataset, capsys):
        bm25, _ = self._runs(dataset)
        report = dataset["dir"] / "eval.tsv"
        assert run_cli("eval", "--run", bm25, "--qrels", dataset["qrels"],
                       "--out", report) == 0
        text = report.read_text()
        assert "q1\t" in text and "# mean_ndcg@10" in text
        assert text == capsys.readouterr().out

    def test_sigtest(self, dataset, capsys):
        bm25, dirichlet = self._runs(dataset)
        out = dataset["dir"] / "sig.txt"
        assert run_cli("sigtest", bm25, dirichlet, "--qrels", dataset["qrels"],
                       "--out", out) == 0
        text = out.read_text()
        assert "a  bm25" in text and "b  dirichlet" in text

    def test_sigtest_needs_two_runs(self, dataset):
        bm25, _ = self._runs(dataset)
        assert run_cli("sigtest", bm25, "--qrels", dataset["qrels"]) == 1

    def test_sweep(self, dataset):
        bm25, dirichlet = self._runs(dataset)
        out = dataset["dir"] / "sweep.tsv"
        assert run_cli("sweep", "--run-a", bm25, "--run-b", dirichlet,
                       "--qrels", dataset["qrels"], "--alphas", "0,0.5,1",
                       "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha\tndcg"
        assert len(lines) == 4

    def test_bad_alpha_list_is_usage_error(self, dataset):
        bm25, dirichlet = self._runs(dataset)
        assert run_cli("sweep", "--run-a", bm25, "--run-b", dirichlet,
                       "--qrels", dataset["qrels"], "--alphas", "0,zap") == 1


class TestPipeline:
    def make_config(self, dataset, outdir, **extra):
        config = {
            "corpus": dataset["corpus"],
            "queries": dataset["queries"],
            "qrels": dataset["qrels"],
            "output_dir": str(outdir),
            "model_family": "llama",
            "dataset": "trecc",
            "depth": 4,
            "provider": "bigram",
        }
        config.update(extra)
        path = dataset["dir"] / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_pipeline_emits_all_artifacts(self, dataset):
        outdir = dataset["dir"] / "out"
        config = self.make_config(dataset, outdir)
        assert run_cli("pipeline", "--config", config) == 0
        for name in ("index.json", "first_stage.trec", "reranked.trec",
                     "fused.trec", "eval.tsv", "significance.txt",
                     "provider_stats.json"):
            assert (outdir / name).is_file(), name

    def test_pipeline_searches_the_index_it_built(self, dataset, monkeypatch):
        # index.json is written for audit, not read back
        def no_load(path):
            raise AssertionError(f"pipeline read back {path}")
        monkeypatch.setattr(ranking, "load_index", no_load)
        outdir = dataset["dir"] / "out"
        assert run_cli("pipeline", "--config", self.make_config(dataset, outdir)) == 0
        assert (outdir / "index.json").is_file()

    def test_flag_overrides_win(self, dataset):
        outdir = dataset["dir"] / "out2"
        config = self.make_config(dataset, dataset["dir"] / "ignored", depth=2)
        assert run_cli("pipeline", "--config", config, "--output-dir", outdir,
                       "--depth", 3) == 0
        reranked = read_run(str(outdir / "reranked.trec"))
        assert all(len(reranked.doc_ids(q)) <= 3 for q in reranked.query_ids())

    def test_unknown_config_key_is_usage_error(self, dataset):
        outdir = dataset["dir"] / "out3"
        config = self.make_config(dataset, outdir, nonsense=True)
        assert run_cli("pipeline", "--config", config) == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_max_workers_below_one_is_usage_error(self, dataset, capsys, workers):
        outdir = dataset["dir"] / "out_mw"
        config = self.make_config(dataset, outdir, max_workers=workers)
        assert run_cli("pipeline", "--config", config) == 1
        assert capsys.readouterr().err == f"error: max_workers must be >= 1, got {workers}\n"
        assert not outdir.exists()

    def test_provider_down_exits_3_but_keeps_first_stage(self, dataset):
        outdir = dataset["dir"] / "out4"
        config = self.make_config(dataset, outdir, provider="remote",
                                  endpoint="http://127.0.0.1:1")
        assert run_cli("pipeline", "--config", config) == 3
        assert (outdir / "first_stage.trec").is_file()
        assert not (outdir / "reranked.trec").exists()

    def test_no_tmp_files_left_behind(self, dataset):
        outdir = dataset["dir"] / "out5"
        config = self.make_config(dataset, outdir)
        run_cli("pipeline", "--config", config)
        leftovers = [p for p in os.listdir(outdir) if p.endswith(".tmp")]
        assert leftovers == []

    def test_fewshot_flag_switches_prompt_mode(self, dataset, caplog):
        outdir = dataset["dir"] / "out_fs"
        config = self.make_config(dataset, outdir, fewshot=True)
        with caplog.at_level("INFO"):
            assert run_cli("pipeline", "--config", config) == 0
        assert "fewshot" in caplog.text

    def test_hybrid_first_stage(self, dataset):
        # external run: doc ids the lexical stage may not surface
        external = dataset["dir"] / "external.trec"
        lines = []
        for qid in ("q1", "q2", "q3"):
            lines.append(f"{qid} Q0 d4 1 9.0 ext")
            lines.append(f"{qid} Q0 d5 2 5.0 ext")
        external.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outdir = dataset["dir"] / "out6"
        config = self.make_config(dataset, outdir,
                                  external_run=str(external), hybrid_alpha=0.5)
        assert run_cli("pipeline", "--config", config) == 0
        hybrid = read_run(str(outdir / "hybrid.trec"))
        assert "d4" in hybrid.doc_ids("q1")


def test_usage_error_on_unknown_command():
    assert main(["frobnicate"]) == 1


def test_usage_error_on_missing_required_flag():
    assert main(["search", "--index", "x"]) == 1


REQ, OPT = (True, None, None), (False, None, None)
ALPHAS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
# each verb's arguments in help order: option string (a positional's dest)
# -> (required, default, choices)
VERB_ARGS = {
    "index": {"--corpus": REQ, "--out": REQ, "--no-lowercase": (False, True, None),
              "--stopwords": OPT, "--stem": (False, False, None)},
    "search": {"--index": REQ, "--queries": REQ, "--out": REQ,
               "--ranker": (False, "bm25", ("bm25", "dirichlet")), "--k": (False, 100, None),
               "--k1": (False, 0.9, None), "--b": (False, 0.4, None),
               "--mu": (False, 1000.0, None), "--tag": OPT},
    "rerank": {"--run": REQ, "--corpus": REQ, "--queries": REQ, "--out": REQ,
               "--model-family": REQ, "--dataset": REQ,
               "--provider": (False, "bigram", ("bigram", "remote")), "--endpoint": OPT,
               "--auth-token": OPT, "--catalog": OPT, "--depth": (False, 100, None),
               "--doc-max-chars": (False, 4000, None), "--fewshot": (False, False, None),
               "--on-error": (False, "fail", ("fail", "floor")),
               "--max-workers": (False, 8, None), "--tag": (False, "qlm", None),
               "--stats-out": OPT},
    "fuse": {"--run-a": REQ, "--run-b": REQ, "--out": REQ, "--alpha": REQ, "--tag": OPT},
    "eval": {"--run": REQ, "--qrels": REQ, "--k": (False, 10, None), "--out": OPT},
    "sigtest": {"runs": REQ, "--qrels": REQ, "--k": (False, 10, None),
                "--alpha-level": (False, 0.05, None),
                "--correction": (False, "bonferroni", ("bonferroni", "none")), "--out": OPT},
    "sweep": {"--run-a": REQ, "--run-b": REQ, "--qrels": REQ, "--alphas": (False, ALPHAS, None),
              "--k": (False, 10, None), "--out": OPT},
    "pipeline": {"--config": REQ, "--output-dir": OPT, "--depth": OPT,
                 "--provider": (False, None, ("bigram", "remote")), "--endpoint": OPT,
                 "--auth-token": OPT, "--model-family": OPT, "--dataset": OPT,
                 "--rerank-alpha": OPT, "--hybrid-alpha": OPT, "--fewshot": OPT, "--eval-k": OPT},
}


@pytest.mark.parametrize("verb", VERB_ARGS)
def test_verb_arguments(verb):
    [verbs] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(verbs.choices) == list(VERB_ARGS)
    got = {(a.option_strings[0] if a.option_strings else a.dest): (a.required, a.default, a.choices)
           for a in verbs.choices[verb]._actions if a.dest != "help"}
    assert list(got.items()) == list(VERB_ARGS[verb].items())


class TestMalformedInput:
    """Every malformed flag or config value is a usage error: exit 1, one
    `error:` line naming the parameter, and nothing run or written. Every
    malformed input file is a data error: exit 2 and one `data error:` line."""

    DROP = object()  # a CONFIG_CASES value that removes the key
    CONFIG_CASES = {
        "depth-as-string": ({"depth": "100"}, 'depth must be an integer, got "100"'),
        "depth-as-bool": ({"depth": True}, "depth must be an integer, got true"),
        "rerank-alpha-as-string": ({"rerank_alpha": "0.5"},
                                   'rerank_alpha must be a number, got "0.5"'),
        "bm25-typo": ({"bm25": {"k_1": 5}}, "unknown config key 'bm25.k_1'"),
        "analyzer-typo": ({"analyzer": {"lower": False}}, "unknown config key 'analyzer.lower'"),
        "fewshot-as-string": ({"fewshot": "no"}, 'fewshot must be true or false, got "no"'),
        "doc-max-chars-zero": ({"doc_max_chars": 0}, "doc_max_chars must be >= 1, got 0"),
        "on-error-unknown": ({"on_error": "ignore"},
                             "on_error must be one of fail, floor, got 'ignore'"),
        "bm25-b-above-one": ({"bm25": {"b": 2}}, "bm25.b must be in [0, 1], got 2"),
        "bm25-k1-infinite": ({"bm25": {"k1": float("inf")}},
                             "bm25.k1 must be finite and > 0, got inf"),
        "correction-unknown": ({"correction": "holm"},
                               "correction must be one of bonferroni, none, got 'holm'"),
        "alpha-level-above-one": ({"alpha_level": 5}, "alpha_level must be in [0, 1], got 5"),
        "array": ([], "config must be a JSON object"),
        "endpoint-without-scheme": ({"provider": "remote", "endpoint": "localhost:8000"},
                                    "endpoint must be an http:// or https:// URL with a host, "
                                    "got 'localhost:8000'"),
        "corpus-missing": ({"corpus": DROP}, "missing required config keys ['corpus']"),
        "provider-null": ({"provider": None}, "provider must be a string, got null"),
        "first-stage-unknown": ({"first_stage": "tfidf"},
                                "first_stage must be one of bm25, dirichlet, got 'tfidf'"),
        "eval-k-zero": ({"eval_k": 0}, "eval_k must be >= 1, got 0"),
    }

    # paths that do not exist: each error must come before any file is read
    FLAG_CASES = {
        "search-k1-zero": (["search", "--index", "i.json", "--queries", "q.jsonl",
                            "--out", "o.trec", "--k1", "0"],
                           "--k1 must be finite and > 0, got 0.0"),
        "search-k1-nan": (["search", "--index", "i.json", "--queries", "q.jsonl",
                           "--out", "o.trec", "--k1", "nan"],
                          "--k1 must be finite and > 0, got nan"),
        "search-b-above-one": (["search", "--index", "i.json", "--queries", "q.jsonl",
                                "--out", "o.trec", "--b", "2"], "--b must be in [0, 1], got 2.0"),
        "search-mu-negative": (["search", "--index", "i.json", "--queries", "q.jsonl",
                                "--out", "o.trec", "--mu", "-1"],
                               "--mu must be finite and > 0, got -1.0"),
        "rerank-doc-max-chars-zero": (["rerank", "--run", "r.trec", "--corpus", "c.jsonl",
                                       "--queries", "q.jsonl", "--out", "o.trec",
                                       "--model-family", "llama", "--dataset", "trecc",
                                       "--doc-max-chars", "0"],
                                      "--doc-max-chars must be >= 1, got 0"),
        "sigtest-alpha-level-above-one": (["sigtest", "a.trec", "b.trec", "--qrels", "q.tsv",
                                           "--alpha-level", "7"],
                                          "--alpha-level must be in [0, 1], got 7.0"),
        "sweep-empty-alphas": (["sweep", "--run-a", "a.trec", "--run-b", "b.trec",
                                "--qrels", "q.tsv", "--alphas", ","],
                               "--alphas must be comma-separated floats, got ','"),
        "sweep-alpha-above-one": (["sweep", "--run-a", "a.trec", "--run-b", "b.trec",
                                   "--qrels", "q.tsv", "--alphas", "0,5"],
                                  "--alphas must be in [0, 1], got 5.0"),
        "pipeline-depth-flag-zero": (["pipeline", "--config", "c.json", "--depth", "0"],
                                     "--depth must be >= 1, got 0"),
        "rerank-endpoint-ftp": (["rerank", "--run", "r.trec", "--corpus", "c.jsonl",
                                 "--queries", "q.jsonl", "--out", "o.trec",
                                 "--model-family", "llama", "--dataset", "trecc",
                                 "--provider", "remote", "--endpoint", "ftp://example.org"],
                                "endpoint must be an http:// or https:// URL with a host, "
                                "got 'ftp://example.org'"),
        "pipeline-eval-k-zero": (["pipeline", "--config", "c.json", "--eval-k", "0"],
                                 "--eval-k must be >= 1, got 0"),
        "pipeline-hybrid-alpha-two": (["pipeline", "--config", "c.json", "--hybrid-alpha", "2"],
                                      "--hybrid-alpha must be in [0, 1], got 2.0"),
        "search-tag-with-space": (["search", "--index", "i.json", "--queries", "q.jsonl",
                                   "--out", "o.trec", "--tag", "my tag"],
                                  "--tag must be one word without whitespace, got 'my tag'"),
        "fuse-tag-empty": (["fuse", "--run-a", "a.trec", "--run-b", "b.trec", "--out", "o.trec",
                            "--alpha", "0.5", "--tag", ""],
                           "--tag must be one word without whitespace, got ''"),
        "rerank-tag-with-tab": (["rerank", "--run", "r.trec", "--corpus", "c.jsonl",
                                 "--queries", "q.jsonl", "--out", "o.trec",
                                 "--model-family", "llama", "--dataset", "trecc",
                                 "--tag", "q\tlm"],
                                "--tag must be one word without whitespace, got 'q\\tlm'"),
    }

    make_config = TestPipeline.make_config

    INDEX = {"format_version": 3, "analyzer": {"lowercase": True, "stopwords": [], "stem": False},
             "doc_ids": ["d1", "d2"], "terms": ["apple"], "doc_len": packed("B", 1, 2),
             "df": packed("B", 2), "positions": packed("B", 0, 1), "tfs": packed("B", 1, 2)}
    V2_INDEX = {"format_version": 2, "analyzer": INDEX["analyzer"], "doc_ids": ["d1", "d2"],
                "doc_len": [1, 2], "postings": {"apple": [[0, 1], [1, 2]]}}
    NO_DOCS = {"doc_ids": [], "terms": [], "doc_len": packed("B"), "df": packed("B"),
               "positions": packed("B"), "tfs": packed("B")}
    BAD_DOC_IDS = "doc_ids must be a non-empty list of non-empty strings without whitespace"
    BAD_TERMS = "terms must be a list of unique strings in sorted order"
    INDEX_CASES = {
        "array": ([], "unsupported index format version None"),
        "v1": ({"format_version": 1, "analyzer": INDEX["analyzer"], "n_docs": 1,
                "total_terms": 1, "doc_len": {"d1": 1}, "cf": {"apple": 1},
                "postings": {"apple": [["d1", 1]]}}, "unsupported index format version 1"),
        "v2": (V2_INDEX, "unsupported index format version 2"),
        "postings-array": ({**INDEX, "positions": [0, 1]},
                           "positions must be a packed array string, got [0, 1]"),
        "doc-len-array": ({**INDEX, "doc_len": [["d1", 1], ["d2", 2]]},
                          "doc_len must be a packed array string, got [[\"d1\", 1], "),
        "doc-len-bools": ({**INDEX, "doc_len": [True, 2]},
                          "doc_len must be a packed array string, got [true, 2]"),
        "tfs-true": ({**INDEX, "tfs": True}, "tfs must be a packed array string, got true"),
        "posting-not-a-pair": ({**INDEX, "positions": packed("B", 0)},
                               "positions and tfs must each hold sum(df) = 2 entries, "
                               "got 1 and 2"),
        "n-docs-string": ({**INDEX, "n_docs": "2"}, "index keys must be ['analyzer', 'df', "
                          "'doc_ids', 'doc_len', 'format_version', 'positions', 'terms', 'tfs'], "
                          "got ['analyzer', 'df', 'doc_ids', 'doc_len', 'format_version', "
                          "'n_docs', 'positions', 'terms', 'tfs']"),
        "analyzer-missing": ({k: v for k, v in INDEX.items() if k != "analyzer"},
                             "index keys must be"),
        "not-json": ("{", "invalid JSON"),
        "posting-three-lists": ({**INDEX, "terms": ["apple", "pear"]},
                                "df must hold one count per term (2), got 1"),
        "tf-string": ({**INDEX, "tfs": "1,2"}, "tfs must start with typecode B, H or I, got '1'"),
        "tf-zero": ({**INDEX, "tfs": packed("B", 3, 0)}, "every tf must be >= 1"),
        "position-negative": ({**INDEX, "positions": packed("i", -1, 1)},
                              "positions must start with typecode B, H or I, got 'i'"),
        "position-float": ({**INDEX, "positions": packed("d", 0.0, 1.0)},
                           "positions must start with typecode B, H or I, got 'd'"),
        "typecode-unknown": ({**INDEX, "df": packed("Q", 2)},
                             "df must start with typecode B, H or I, got 'Q'"),
        "typecode-missing": ({**INDEX, "df": ""}, "df must start with typecode B, H or I, got ''"),
        "doc-len-string": ({**INDEX, "doc_len": "B1,2"}, "doc_len is not canonical base64"),
        "base64-non-canonical": ({**INDEX, "positions": "BAAF="},  # "BAAE=" with padding bits set
                                 "positions is not canonical base64"),
        "base64-not-ascii": ({**INDEX, "positions": "B\u00e9"}, "positions is not canonical base64"),
        "bytes-ragged": ({**INDEX, "doc_len": "H" + base64.b64encode(b"\1\0\2").decode()},
                         "doc_len holds 3 bytes, not a multiple of its item size 2"),
        "doc-len-short": ({**INDEX, "doc_len": packed("B", 3)},
                          "doc_len must hold one length per doc id (2), got 1"),
        "doc-len-below-tfs": ({**INDEX, "doc_len": packed("B", 1, 0)},  # d2 holds tf 2
                              "doc_len must sum to the sum of all tfs (3), got 1"),
        "doc-id-not-string": ({**INDEX, "doc_ids": ["d1", ["d2"]]}, BAD_DOC_IDS),
        "doc-id-with-space": ({**INDEX, "doc_ids": ["a b", "d2"]}, BAD_DOC_IDS),
        "doc-id-empty-string": ({**INDEX, "doc_ids": ["", "d2"]}, BAD_DOC_IDS),
        "doc-ids-empty": ({**INDEX, **NO_DOCS}, BAD_DOC_IDS),
        "doc-ids-duplicate": ({**INDEX, "doc_ids": ["d1", "d1"]}, "duplicate doc id 'd1'"),
        "terms-unsorted": ({**INDEX, "terms": ["pear", "apple"], "df": packed("B", 1, 1)},
                           BAD_TERMS),
        "terms-duplicate": ({**INDEX, "terms": ["apple", "apple"], "df": packed("B", 1, 1)},
                            BAD_TERMS),
        "term-not-string": ({**INDEX, "terms": [1]}, BAD_TERMS),
        "pair-lengths-differ": ({**INDEX, "tfs": packed("B", 3)},
                                "positions and tfs must each hold sum(df) = 2 entries, "
                                "got 2 and 1"),
        "posting-empty": ({**INDEX, "df": packed("B", 0), "positions": packed("B"),
                           "tfs": packed("B")}, "every df must be >= 1"),
        "position-out-of-range": ({**INDEX, "positions": packed("B", 0, 2)},
                                  "positions of 'apple' must ascend and be below 2"),
        "positions-not-ascending": ({**INDEX, "positions": packed("B", 1, 0)},
                                    "positions of 'apple' must ascend and be below 2"),
        "analyzer-loose": ({**INDEX, "analyzer": {"lowercase": "no", "stopwords": "the",
                                                  "stem": 0, "extra": 1}},
                           'analyzer must be {lowercase: bool, stopwords: [string], stem: bool}, '
                           'got {"lowercase": "no", "stopwords": "the", "stem": 0, "extra": 1}'),
        "analyzer-unknown-key": ({**INDEX, "analyzer": {**INDEX["analyzer"], "extra": 1}},
                                 "analyzer must be"),
        "analyzer-key-missing": ({**INDEX, "analyzer": {"lowercase": True, "stopwords": []}},
                                 "analyzer must be"),
        "analyzer-stem-null": ({**INDEX, "analyzer": {**INDEX["analyzer"], "stem": None}},
                               "analyzer must be"),
        "analyzer-stopword-not-string": ({**INDEX, "analyzer": {**INDEX["analyzer"],
                                                                "stopwords": ["the", 1]}},
                                         "analyzer must be"),
    }

    TRIPLE = {"document": "a doc", "good_question": "good?", "bad_question": "bad?"}
    ENTRY = {"model_family": "llama", "dataset": "trecc", "body": "Doc: {doc}",
             "fewshot": [TRIPLE] * 3}
    CATALOG_CASES = {
        "entry-not-object": (["llama"], "catalog entry must be an object, got str"),
        "body-not-string": ([{**ENTRY, "body": 5}],
                            "template body, system_prefix and suffix must be strings"),
        "dataset-not-string": ([{**ENTRY, "dataset": ["trecc"]}],
                               "model_family and dataset must be strings"),
        "fewshot-not-list": ([{**ENTRY, "fewshot": TRIPLE}], "fewshot must be a list of objects"),
        "triple-not-object": ([{**ENTRY, "fewshot": [list(TRIPLE.values())] * 3}],
                              "fewshot must be a list of objects"),
        "triple-field-not-string": ([{**ENTRY, "fewshot": [{**TRIPLE, "good_question": 7}] * 3}],
                                    "few-shot example fields must all be non-empty strings"),
    }

    @staticmethod
    def assert_usage_error(code, err, message):
        assert code == 1
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("error: ") and line.endswith(message)

    @staticmethod
    def assert_data_error(code, err, message):
        assert code == 2
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("data error: ") and message in line

    @pytest.mark.parametrize("case", CONFIG_CASES)
    def test_config(self, dataset, capsys, case):
        change, message = self.CONFIG_CASES[case]
        outdir = dataset["dir"] / "out"
        config = self.make_config(dataset, outdir)
        data = ({k: v for k, v in {**json.loads(config.read_text()), **change}.items()
                 if v is not self.DROP} if change else change)
        config.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config)
        self.assert_usage_error(code, capsys.readouterr().err, message)
        assert not outdir.exists()

    @pytest.mark.parametrize("case", FLAG_CASES)
    def test_flag(self, tmp_path, monkeypatch, capsys, case):
        argv, message = self.FLAG_CASES[case]
        monkeypatch.chdir(tmp_path)
        code = run_cli(*argv)
        self.assert_usage_error(code, capsys.readouterr().err, message)
        assert os.listdir(tmp_path) == []

    def test_remote_without_endpoint(self, dataset, monkeypatch, capsys):
        monkeypatch.delenv("QLMRANK_ENDPOINT", raising=False)
        outdir = dataset["dir"] / "out"
        config = self.make_config(dataset, outdir, provider="remote")
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config)
        self.assert_usage_error(code, capsys.readouterr().err,
                                "remote provider needs --endpoint or $QLMRANK_ENDPOINT")
        assert not outdir.exists()

    @pytest.mark.parametrize("change, message", [
        ({"model_family": "gpt9"}, "no template for gpt9/trecc"),
        ({"catalog": "no-fewshot.json", "fewshot": True},
         "no few-shot examples for dataset 'trecc'"),
    ])
    def test_prompt_missing_from_catalog(self, dataset, capsys, change, message):
        # a data error like the re-rank stage's own, before any stage runs
        (dataset["dir"] / "no-fewshot.json").write_text(json.dumps(
            [{"model_family": "llama", "dataset": "trecc", "body": "Doc: {doc}"}]))
        if "catalog" in change:
            change = {**change, "catalog": str(dataset["dir"] / change["catalog"])}
        outdir = dataset["dir"] / "out"
        config = self.make_config(dataset, outdir, **change)
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config)
        self.assert_data_error(code, capsys.readouterr().err, message)
        assert not outdir.exists()

    @pytest.mark.parametrize("case", INDEX_CASES)
    def test_index(self, dataset, capsys, case):
        payload, message = self.INDEX_CASES[case]
        index = dataset["dir"] / "index.json"
        index.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        out = dataset["dir"] / "out.trec"
        code = run_cli("search", "--index", index, "--queries", dataset["queries"], "--out", out)
        self.assert_data_error(code, capsys.readouterr().err, f"{index}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("ranker", ["bm25", "dirichlet"])
    def test_index_control(self, dataset, ranker):
        # the unbroken INDEX searches, so each INDEX_CASES entry fails on its one change
        index = dataset["dir"] / "index.json"
        index.write_text(json.dumps(self.INDEX))
        out = dataset["dir"] / "out.trec"
        assert run_cli("search", "--index", index, "--queries", dataset["queries"],
                       "--out", out, "--ranker", ranker) == 0
        assert out.exists()

    @pytest.mark.parametrize("case", CATALOG_CASES)
    def test_catalog(self, dataset, capsys, case):
        entries, message = self.CATALOG_CASES[case]
        catalog = dataset["dir"] / "catalog.json"
        catalog.write_text(json.dumps(entries))
        outdir = dataset["dir"] / "out"
        config = self.make_config(dataset, outdir, catalog=str(catalog), fewshot=True)
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config)
        self.assert_data_error(code, capsys.readouterr().err, message)
        assert not outdir.exists()

    @pytest.mark.parametrize("name, row, message", [
        ("corpus", {"_id": "a b", "text": "x"},
         "corpus.jsonl:6: malformed corpus line (document id 'a b' must not contain whitespace)"),
        ("queries", {"_id": "q\t4", "text": "x"},
         "queries.jsonl:4: malformed query line (query id 'q\\t4' must not contain whitespace)"),
    ], ids=["corpus", "queries"])
    def test_id_with_whitespace(self, dataset, capsys, name, row, message):
        # a run file splits its columns on whitespace: such an id would break every run
        with open(dataset[name], "a", encoding="utf-8") as f:
            f.write(json.dumps(row) + "\n")
        out = dataset["dir"] / "out.trec"
        code = run_cli("rerank", "--run", dataset["dir"] / "r.trec", "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", out,
                       "--model-family", "llama", "--dataset", "trecc")
        self.assert_data_error(code, capsys.readouterr().err, message)
        assert not out.exists()

    def test_missing_stopword_file(self, dataset, capsys):
        outdir = dataset["dir"] / "out"
        missing = dataset["dir"] / "stopwords.txt"
        config = self.make_config(dataset, outdir, analyzer={"stopwords": str(missing)})
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config)
        self.assert_data_error(code, capsys.readouterr().err,
                               f"analyzer.stopwords not found: {missing}")
        assert not outdir.exists()


def test_cli_import_leaves_out_the_http_stack():
    # only a remote provider needs http.client and ssl; the offline verbs never load them
    src = os.path.dirname(os.path.dirname(qlmrank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qlmrank.cli; print(sorted({'http.client', 'ssl'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestAtomicWrite:
    def test_failing_writer_keeps_old_content_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "run.trec"
        target.write_text("old\n", encoding="utf-8")

        def failing(tmp):
            with open(tmp, "w", encoding="utf-8") as f:
                f.write("half a fi")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(str(target), failing)
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["run.trec"]

    def test_concurrent_writers_each_leave_a_complete_file(self, tmp_path):
        target = str(tmp_path / "run.trec")
        contents = [f"{name}\n" * 200_000 for name in ("aaaa", "bbbb")]
        seen = []

        def writer(text):
            for _ in range(5):
                atomic_write(target, lambda tmp: pathlib.Path(tmp).write_text(text))
                with open(target, encoding="utf-8") as f:
                    seen.append(f.read())

        threads = [threading.Thread(target=writer, args=(text,)) for text in contents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(seen) == 10 and all(text in contents for text in seen)
        assert os.listdir(tmp_path) == ["run.trec"]

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        atomic_write(str(tmp_path / "a"), lambda tmp: pathlib.Path(tmp).write_text("x"))
        (tmp_path / "b").write_text("x")
        assert os.stat(tmp_path / "a").st_mode == os.stat(tmp_path / "b").st_mode
