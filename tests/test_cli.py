import argparse
import ast
import base64
import errno
import fcntl
import inspect
import json
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import qlmrank
from http_stub import StubHandler
from qlmrank import cli, corpus, likelihood, prompts, ranking
from qlmrank.cli import build_parser, main
from qlmrank.corpus import Document, Run, open_atomic, read_run, write_run


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
    """An index file's packed array: struct typecode, then base64 of the zlib
    stream of the values' byte planes, byte k of value i at k * len(values) + i."""
    width, data = struct.calcsize("<" + code), struct.pack(f"<{len(values)}{code}", *values)
    return deflated(code, bytes(data[i * width + k] for k in range(width)
                                for i in range(len(values))))


def deflated(code, data):
    """A packed array string holding the zlib stream of data, bytes as given."""
    return code + base64.b64encode(zlib.compress(data, ranking.ZLIB_LEVEL)).decode()


def word_list(*values):
    """An index file's packed word list: the UTF-8 byte count of the values
    joined by newlines, a colon, and base64 of those bytes' zlib stream."""
    data = "\n".join(values).encode("utf-8")
    return worded(len(data), zlib.compress(data, ranking.ZLIB_LEVEL))


def worded(size, stream):
    """A packed word list string of a byte count and a zlib stream as given."""
    return f"{size}:" + base64.b64encode(stream).decode()


def zero_bomb(mib):
    """The zlib stream of mib MiB of zero bytes, made without holding them."""
    deflater = zlib.compressobj(1)
    chunk = bytes(1 << 20)
    return b"".join(deflater.compress(chunk) for _ in range(mib)) + deflater.flush()


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

    @pytest.mark.parametrize("mu, term, value", [("1e-323", "apple", "0.0"),
                                                 ("1e308", "trees", "inf")])
    def test_dirichlet_mu_out_of_range_names_mu_and_term(self, dataset, capsys, mu, term,
                                                         value):
        # "apple" has cf 1 and "trees" cf 2 of 28 tokens: mu * cf / total is 0 for
        # the first mu and inf for the second
        index = dataset["dir"] / "index.json"
        run_path = dataset["dir"] / "dir.trec"
        run_cli("index", "--corpus", dataset["corpus"], "--out", index)
        capsys.readouterr()
        assert run_cli("search", "--index", index, "--queries", dataset["queries"],
                       "--out", run_path, "--ranker", "dirichlet", "--mu", mu) == 2
        assert capsys.readouterr().err == (
            f"data error: mu={float(mu)!r} is out of range: term {term!r} gets smoothed "
            f"probability mu * cf / total / (dl + mu) = {value} in the longest document\n")
        assert not run_path.exists()

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


def may_use_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def alive(pid):
    """Whether process pid still runs: it has not ended, or ended but is not yet reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


# the environment of a fresh interpreter whose stdout to a file or pipe is block-buffered
BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}


def python(code, *argv, **kwargs):
    """A fresh interpreter running `code` with sys.argv[1:] = argv; kwargs go to Popen."""
    return subprocess.Popen([sys.executable, "-c", code, *map(str, argv)], **kwargs)


def wait_for(condition, proc, seconds=30):
    """Poll condition() until it holds; fail if proc ends or `seconds` pass first."""
    deadline = time.monotonic() + seconds
    while not condition():
        assert proc.poll() is None, proc.communicate()
        assert time.monotonic() < deadline
        time.sleep(0.02)


# run() with each query taking 1 s, on 2 CPUs: the helper's block of the 25 queries
# takes 12 s or more. The helper touches a file named by its pid in directory sys.argv[1].
SLOW_SEARCH = """
import os, sys, time
from qlmrank import cli, ranking
os.sched_getaffinity = lambda pid: {0, 1}
cli._BLOCK_POSTINGS = 1  # a helper for each CPU, however few postings its block reads
parent, search, pids = os.getpid(), ranking.bm25_search, sys.argv.pop(1)
def slow(*args, **kwargs):
    if os.getpid() != parent:
        open(os.path.join(pids, str(os.getpid())), "w").close()
    time.sleep(1)
    return search(*args, **kwargs)
ranking.bm25_search = slow
cli.run()
"""

# run() with every fsync held up for 30 s, after touching the file sys.argv[1]
SLOW_WRITE = """
import os, sys, time
from qlmrank import cli
fsync, held = os.fsync, sys.argv.pop(1)
def slow(fd):
    open(held, "w").close()
    time.sleep(30)
    fsync(fd)
os.fsync = slow
cli.run()
"""


class TestSearchOnEveryCpu:
    """search splits its queries over the CPUs the process may use, in helpers
    forked from it: the bytes written and the error raised are the one-process ones.
    Each CPU gets a block here, however few postings it reads, unless a test says
    otherwise."""

    @pytest.fixture(autouse=True)
    def blocks_of_any_size(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_POSTINGS", 1)

    @pytest.fixture
    def indexed(self, tmp_path):
        """An index of 80 seeded documents and 25 queries over a 30-word vocabulary."""
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(30)]
        corpus, queries = tmp_path / "corpus.jsonl", tmp_path / "queries.jsonl"
        corpus.write_text("".join(json.dumps({"_id": f"d{i}", "text": " ".join(
            rng.choices(vocab, k=rng.randrange(1, 12)))}) + "\n" for i in range(80)))
        queries.write_text("".join(json.dumps({"_id": f"q{i}", "text": " ".join(
            rng.sample(vocab, 3))}) + "\n" for i in range(25)))
        assert run_cli("index", "--corpus", corpus, "--out", tmp_path / "index.json") == 0
        return ["--index", str(tmp_path / "index.json"), "--queries", str(queries)]

    @staticmethod
    def search_in_subprocess(args, pin):
        code = ("import os, sys\n" + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                                     if pin else "")
                + "from qlmrank import cli\ncli._BLOCK_POSTINGS = 1\n"
                + "sys.exit(cli.main(sys.argv[1:]))")
        return subprocess.run([sys.executable, "-c", code, "search", *args],
                              capture_output=True, text=True)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("ranker", ["bm25", "dirichlet"])
    def test_bytes_do_not_depend_on_the_cpus(self, indexed, tmp_path, monkeypatch, ranker):
        outs = {name: tmp_path / f"{name}.trec" for name in ("one", "all", "five")}
        for name, pin in (("one", True), ("all", False)):
            proc = self.search_in_subprocess(
                [*indexed, "--ranker", ranker, "--k", "7", "--out", str(outs[name])], pin)
            assert proc.returncode == 0, proc.stderr
        may_use_cpus(monkeypatch, 5)  # more helpers than this machine may have CPUs
        assert run_cli("search", *indexed, "--ranker", ranker, "--k", 7,
                       "--out", outs["five"]) == 0
        assert outs["one"].read_bytes() == outs["all"].read_bytes() == outs["five"].read_bytes()
        assert len(outs["one"].read_text().splitlines()) > 25 * 5
        assert_no_child_left()

    def test_this_process_searches_block_0_and_one_helper_each_later_block(
            self, indexed, tmp_path, monkeypatch):
        # each query's one result names the process that searched it
        monkeypatch.setattr(ranking, "bm25_search",
                            lambda index, params, text, k: [(f"p{os.getpid()}", 1.0)])
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(pid := fork()) or pid)
        may_use_cpus(monkeypatch, 3)
        assert run_cli("search", *indexed, "--out", tmp_path / "run.trec") == 0
        run = read_run(str(tmp_path / "run.trec"))
        by = [run.doc_ids(f"q{i}")[0] for i in range(25)]
        # 25 queries in blocks of 8, 8 and 9, the later ones by the helpers in fork order
        assert by == [f"p{pid}" for pid in [os.getpid()] * 8 + [forked[0]] * 8 + [forked[1]] * 9]
        assert len(set(by)) == 3
        assert_no_child_left()

    def test_the_helpers_inherit_every_query_terms_postings_decoded(
            self, indexed, tmp_path, monkeypatch):
        # a term two blocks' queries hold is decoded once, before the first fork, not in each
        loaded, decoded_at_fork, load_index, fork = [], [], ranking.load_index, os.fork

        def load(path):
            loaded.append(load_index(path))
            return loaded[-1]

        def forking():
            decoded_at_fork.append(set(loaded[0].postings._decoded))
            return fork()
        monkeypatch.setattr(ranking, "load_index", load)
        monkeypatch.setattr(os, "fork", forking)
        may_use_cpus(monkeypatch, 2)
        assert run_cli("search", *indexed, "--out", tmp_path / "run.trec") == 0
        [index] = loaded
        terms = {term for query in corpus.load_queries(indexed[3])
                 for term in index.analyzer.tokenize(query.text) if term in index.postings}
        assert len(terms) > 3 and decoded_at_fork == [terms]
        assert_no_child_left()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(texts=st.lists(st.sampled_from("abcdefgh"), max_size=30), cpus=st.integers(1, 5),
           failing=st.sets(st.sampled_from("abcdefgh")))
    def test_split_gives_the_loops_lists_or_its_first_error(self, texts, cpus, failing):
        def search(text):
            if text in failing:
                raise ValueError(f"{text} fails")
            return [(text, 1 / (ord(text) - 96)), ("x", -0.0)]  # floats marshal keeps exact

        def outcome(split):
            try:
                return split(search, texts)
            except ValueError as exc:
                return repr(exc)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                               create=True):
            assert outcome(lambda search, texts: cli._search_on_every_cpu(
                search, texts, len(texts))) == outcome(
                lambda search, texts: [search(text) for text in texts])
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_first_failing_query_names_the_error(self, dataset, capsys, monkeypatch, cpus):
        # at mu = 1e308, mu * cf overflows for the terms of cf 2 or more: q2's "trees"
        # fails before q3's "fruit", here at 2 CPUs and in the first helper at 3
        (dataset["dir"] / "q.jsonl").write_text("".join(json.dumps({"_id": qid, "text": text})
                                                        + "\n" for qid, text in [
            ("q1", "apple"), ("q2", "trees"), ("q3", "fruit"), ("q4", "citrus")]))
        index = dataset["dir"] / "index.json"
        run_cli("index", "--corpus", dataset["corpus"], "--out", index)
        capsys.readouterr()
        may_use_cpus(monkeypatch, cpus)
        assert run_cli("search", "--index", index, "--queries", dataset["dir"] / "q.jsonl",
                       "--out", dataset["dir"] / "run.trec", "--ranker", "dirichlet",
                       "--mu", "1e308") == 2
        assert capsys.readouterr().err == (
            "data error: mu=1e+308 is out of range: term 'trees' gets smoothed probability "
            "mu * cf / total / (dl + mu) = inf in the longest document\n")
        assert not (dataset["dir"] / "run.trec").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["helper dies", "fork fails"])
    def test_a_helper_lost_costs_only_time(self, indexed, tmp_path, monkeypatch, fault):
        assert run_cli("search", *indexed, "--out", tmp_path / "serial.trec") == 0
        parent, search = os.getpid(), ranking.bm25_search
        if fault == "helper dies":
            def dying(*args, **kwargs):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return search(*args, **kwargs)
            monkeypatch.setattr(ranking, "bm25_search", dying)
        else:
            def fork():
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", fork)
        may_use_cpus(monkeypatch, 3)
        assert run_cli("search", *indexed, "--out", tmp_path / "split.trec") == 0
        assert (tmp_path / "split.trec").read_bytes() == (tmp_path / "serial.trec").read_bytes()
        assert_no_child_left()

    def test_interrupt_stops_and_reaps_every_helper(self, indexed, tmp_path, monkeypatch):
        parent = os.getpid()

        def search(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(3)  # a helper still busy: its 8 or 9 queries would take 24 s or more
        monkeypatch.setattr(ranking, "bm25_search", search)
        may_use_cpus(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cli("search", *indexed, "--out", tmp_path / "run.trec")
        assert time.monotonic() - start < 2
        assert_no_child_left()
        assert not (tmp_path / "run.trec").exists()

    def test_no_fork_while_another_thread_runs(self, indexed, tmp_path, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        may_use_cpus(monkeypatch, 3)
        assert run_cli("search", *indexed, "--out", tmp_path / "split.trec") == 0
        assert len(forks) == 2
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # from 3.12 on, a fork here would warn
                assert run_cli("search", *indexed, "--out", tmp_path / "alone.trec") == 0
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert len(forks) == 2
        assert (tmp_path / "alone.trec").read_bytes() == (tmp_path / "split.trec").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
    def test_a_helper_holds_no_pipe_but_its_own_write_end(self, indexed, tmp_path, monkeypatch):
        def pipes():
            links = set()
            for fd in os.listdir("/proc/self/fd"):
                try:
                    links.add(os.readlink(f"/proc/self/fd/{fd}"))
                except FileNotFoundError:  # listdir's own descriptor, closed since
                    pass
            return {link for link in links if link.startswith("pipe:")}
        parent, before = os.getpid(), pipes()
        # each query's one result counts the pipes its process holds that this one did not
        monkeypatch.setattr(ranking, "bm25_search", lambda index, params, text, k: [
            (f"n{len(pipes() - before) if os.getpid() != parent else 0}", 1.0)])
        may_use_cpus(monkeypatch, 3)
        assert run_cli("search", *indexed, "--out", tmp_path / "run.trec") == 0
        run = read_run(str(tmp_path / "run.trec"))
        assert [run.doc_ids(f"q{i}")[0] for i in range(25)] == ["n0"] * 8 + ["n1"] * 17
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["KILL", "TERM"])
    def test_a_helper_ends_with_its_parent(self, indexed, tmp_path, sig):
        # SIGKILL leaves the helper to notice it has no parent, after one query;
        # SIGTERM unwinds the parent, which kills and reaps the helper before it ends
        pids, out = tmp_path / "pids", tmp_path / "run.trec"
        pids.mkdir()
        proc = python(SLOW_SEARCH, pids, "search", *indexed, "--out", out,
                      stderr=subprocess.PIPE, text=True)
        wait_for(lambda: os.listdir(pids), proc)
        [helper] = [int(name) for name in os.listdir(pids)]
        proc.send_signal(sig)
        assert proc.communicate(timeout=10) == (None, "")
        assert proc.returncode == -sig
        deadline = time.monotonic() + 4
        while alive(helper):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert not out.exists()


def search_forks(monkeypatch, cpus, *argv):
    """How many helpers the search verb forks, run with argv on `cpus` CPUs."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    may_use_cpus(monkeypatch, cpus)
    assert run_cli("search", *argv) == 0
    assert_no_child_left()
    return len(forks)


@pytest.mark.parametrize("cpus", [2, 8])
def test_a_tiny_search_stays_in_this_process(dataset, monkeypatch, cpus):
    # 3 queries over 5 documents read 10 postings: about 45 us here, 3.6 ms with a helper
    index = dataset["dir"] / "index.json"
    assert run_cli("index", "--corpus", dataset["corpus"], "--out", index) == 0
    assert search_forks(monkeypatch, cpus, "--index", index, "--queries", dataset["queries"],
                        "--out", dataset["dir"] / "run.trec") == 0


def test_the_benchs_smallest_search_still_splits(tmp_path, monkeypatch):
    # rerank-remote's first stage: 40 queries over 1,000 seed-0 documents read 25,883 postings
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    subprocess.run([sys.executable, os.path.join(bench, "datagen.py"), "--seed", "0",
                    "--docs", "1000", "--queries", "40", "--out", tmp_path], check=True,
                   stdout=subprocess.DEVNULL)
    index = tmp_path / "index.json"
    assert run_cli("index", "--corpus", tmp_path / "corpus.jsonl", "--out", index) == 0
    assert search_forks(monkeypatch, 2, "--index", index, "--queries", tmp_path / "queries.jsonl",
                        "--out", tmp_path / "run.trec") == 1


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

    @pytest.mark.parametrize("fewshot", [[], ["--fewshot"]])
    def test_bigram_verb_scopes_its_model_and_writes_the_full_models_run(self, dataset,
                                                                         monkeypatch, fewshot):
        first = self._first_stage(dataset)
        trained = []
        train = likelihood.BigramLm.train

        def recording(texts, continuations=None):
            trained.append(train(texts, continuations))
            return trained[-1]
        monkeypatch.setattr(likelihood.BigramLm, "train", staticmethod(recording))
        out = dataset["dir"] / "reranked.trec"
        assert run_cli("rerank", "--run", first, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", out, "--provider", "bigram",
                       "--model-family", "llama", "--dataset", "trecc", *fewshot) == 0
        monkeypatch.undo()

        docs = corpus.load_corpus(dataset["corpus"])
        queries = corpus.load_queries(dataset["queries"])
        full = likelihood.BigramLm.train([d.text() for d in docs])
        [scoped] = trained
        assert scoped.scope == {likelihood.UNK}.union(*(ranking.words(q.text) for q in queries))
        assert len(scoped.bigrams) < len(full.bigrams)
        catalog = prompts.default_catalog()
        expected = likelihood.rerank_run(
            full, catalog.template("llama", "trecc"), queries, read_run(str(first)),
            {d.id: d for d in docs}, fewshot=catalog.fewshot_for("trecc") if fewshot else None)
        write_run(expected, str(dataset["dir"] / "expected.trec"))
        assert out.read_bytes() == (dataset["dir"] / "expected.trec").read_bytes()

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

    def test_unreachable_remote_is_provider_error(self, dataset, no_backoff):
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

    def test_endpoint_read_from_environment(self, dataset, monkeypatch, no_backoff):
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

    @pytest.mark.parametrize("on_error", ["fail", "floor"])
    def test_bigram_query_without_word_tokens(self, dataset, capsys, caplog, on_error):
        # a pair the bigram model cannot score fails like a provider call: exit 3, or the floor
        queries, run = dataset["dir"] / "odd.jsonl", dataset["dir"] / "odd.trec"
        queries.write_text(json.dumps({"_id": "q9", "text": "\u00bf\u00bf??"}) + "\n",
                           encoding="utf-8")
        run.write_text("q9 Q0 d1 1 2.0 bm25\nq9 Q0 d2 2 1.0 bm25\n", encoding="utf-8")
        out = dataset["dir"] / "reranked.trec"
        capsys.readouterr()
        code = run_cli("rerank", "--run", run, "--corpus", dataset["corpus"], "--queries", queries,
                       "--out", out, "--model-family", "llama", "--dataset", "trecc",
                       "--on-error", on_error)
        if on_error == "fail":
            assert code == 3 and not out.exists()
            assert capsys.readouterr().err == (
                "provider error: continuation ' \u00bf\u00bf??' has no word tokens\n")
        else:
            assert code == 0
            assert read_run(str(out)).entries == {"q9": [("d1", -100.0), ("d2", -100.0)]}
            assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
                f"provider failed on doc {doc}, query q9; scoring at floor -100"
                for doc in ("d1", "d2")]

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

    def test_sigtest_takes_at_most_26_runs(self, dataset, capsys):
        # a usage error before any file is read: none of these paths exists
        missing = [str(dataset["dir"] / f"run{i}.trec") for i in range(27)]
        capsys.readouterr()
        assert run_cli("sigtest", *missing, "--qrels", dataset["dir"] / "none.tsv") == 1
        assert capsys.readouterr().err == "error: sigtest needs 2 to 26 run files, got 27\n"

    def test_sigtest_needs_unique_basenames(self, dataset, capsys):
        bm25, _ = self._runs(dataset)
        (dataset["dir"] / "other").mkdir()
        twin = dataset["dir"] / "other" / bm25.name
        twin.write_text(bm25.read_text())
        out = dataset["dir"] / "sig.txt"
        capsys.readouterr()
        assert run_cli("sigtest", bm25, twin, "--qrels", dataset["qrels"], "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: run file basenames must be unique (they name the rows)\n")
        assert not out.exists()

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

    def test_provider_down_exits_3_but_keeps_first_stage(self, dataset, no_backoff):
        outdir = dataset["dir"] / "out4"
        config = self.make_config(dataset, outdir, provider="remote",
                                  endpoint="http://127.0.0.1:1")
        assert run_cli("pipeline", "--config", config) == 3
        assert (outdir / "first_stage.trec").is_file()
        assert not (outdir / "reranked.trec").exists()

    def test_output_dir_another_pipeline_holds_is_left_untouched(self, dataset, capsys):
        outdir = dataset["dir"] / "out_locked"
        outdir.mkdir()
        config = self.make_config(dataset, outdir)
        fd = os.open(outdir, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            capsys.readouterr()
            assert run_cli("pipeline", "--config", config) == 2
        finally:
            os.close(fd)
        assert capsys.readouterr().err == f"data error: {outdir}: in use by another pipeline\n"
        assert os.listdir(outdir) == []
        assert run_cli("pipeline", "--config", config) == 0  # the lock goes with its holder

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

    def write_external(self, dataset):
        external = dataset["dir"] / "external.trec"
        external.write_text("".join(f"{qid} Q0 d{d} {rank} {9.0 - rank} ext\n"
                                    for qid in ("q0", "q1", "q2", "q3")
                                    for rank, d in enumerate((4, 2), 1)), encoding="utf-8")
        return external

    def test_hybrid_query_without_first_stage_hit_matches_manual_chain(self, dataset):
        # q0 comes first but BM25 finds nothing for it: its empty first-stage ranking
        # must not put it first in the hybrid run, where the run file read back has none
        queries = dataset["dir"] / "queries0.jsonl"
        queries.write_text(json.dumps({"_id": "q0", "text": "zebras"}) + "\n"
                           + (dataset["dir"] / "queries.jsonl").read_text(encoding="utf-8"),
                           encoding="utf-8")
        external, piped, manual = (self.write_external(dataset), dataset["dir"] / "piped",
                                   dataset["dir"] / "manual")
        config = self.make_config(dataset, piped, queries=str(queries), external_run=str(external))
        assert run_cli("pipeline", "--config", config) == 0
        manual.mkdir()
        m = {name: manual / name for name in os.listdir(piped)}
        chain = [
            ["index", "--corpus", dataset["corpus"], "--out", m["index.json"]],
            ["search", "--index", m["index.json"], "--queries", queries, "--k", 4,
             "--out", m["first_stage.trec"]],
            ["fuse", "--run-a", m["first_stage.trec"], "--run-b", external, "--alpha", 0.5,
             "--tag", "hybrid", "--out", m["hybrid.trec"]],
            ["rerank", "--run", m["hybrid.trec"], "--corpus", dataset["corpus"],
             "--queries", queries, "--model-family", "llama", "--dataset", "trecc",
             "--depth", 4, "--out", m["reranked.trec"], "--stats-out", m["provider_stats.json"]],
            ["fuse", "--run-a", m["hybrid.trec"], "--run-b", m["reranked.trec"], "--alpha", 0.2,
             "--out", m["fused.trec"]],
            ["eval", "--run", m["fused.trec"], "--qrels", dataset["qrels"], "--out", m["eval.tsv"]],
            ["sigtest", m["hybrid.trec"], m["reranked.trec"], m["fused.trec"],
             "--qrels", dataset["qrels"], "--out", m["significance.txt"]],
        ]
        for argv in chain:
            assert run_cli(*argv) == 0
        assert read_run(str(m["hybrid.trec"])).query_ids()[-1] == "q0"
        assert sorted(m) == sorted(os.listdir(manual))
        for name, path in m.items():
            assert (piped / name).read_bytes() == path.read_bytes(), name

    def test_pipeline_reads_each_input_once_and_no_run_back(self, dataset, monkeypatch):
        external = self.write_external(dataset)
        reads = []

        def reader(name, original):
            def read(path):
                reads.append(name)
                assert name != "read_run" or path == str(external), f"read back {path}"
                return original(path)
            return read
        for name in ("load_corpus", "load_queries", "load_qrels", "read_run"):
            monkeypatch.setattr(corpus, name, reader(name, getattr(corpus, name)))
        config = self.make_config(dataset, dataset["dir"] / "out", external_run=str(external))
        assert run_cli("pipeline", "--config", config) == 0
        assert reads == ["load_corpus", "load_queries", "load_qrels", "read_run"]

    def test_stages_take_the_last_ones_result_from_memory(self, dataset, monkeypatch):
        # another writer replaces first_stage.trec while the re-rank runs: the
        # fused run and its reports do not change
        clean, disturbed = dataset["dir"] / "clean", dataset["dir"] / "disturbed"
        assert run_cli("pipeline", "--config", self.make_config(dataset, clean)) == 0
        original = likelihood.rerank_run

        def disturbing(*args, **kwargs):
            reranked = original(*args, **kwargs)
            write_run(Run({"q1": [("d2", 1.0)]}, tag="other"), str(disturbed / "first_stage.trec"))
            return reranked
        monkeypatch.setattr(likelihood, "rerank_run", disturbing)
        assert run_cli("pipeline", "--config", self.make_config(dataset, disturbed)) == 0
        assert (disturbed / "first_stage.trec").read_text() == "q1 Q0 d2 1 1.0 other\n"
        for name in ("fused.trec", "eval.tsv", "significance.txt"):
            assert (disturbed / name).read_bytes() == (clean / name).read_bytes(), name

    def test_index_is_dropped_before_rerank(self, dataset, monkeypatch):
        # re-ranking reads the corpus: the index it no longer needs must not stay alive
        built, build, rerank_run = [], ranking.build_index, likelihood.rerank_run

        def building(*args):
            index = build(*args)
            built.append(weakref.ref(index))
            return index

        def reranking(*args, **kwargs):
            assert [ref() for ref in built] == [None]
            return rerank_run(*args, **kwargs)
        monkeypatch.setattr(ranking, "build_index", building)
        monkeypatch.setattr(likelihood, "rerank_run", reranking)
        config = self.make_config(dataset, dataset["dir"] / "out")
        assert run_cli("pipeline", "--config", config) == 0
        assert len(built) == 1

    def test_every_config_key_reaches_its_stage(self, dataset, monkeypatch, stub_server):
        # the pipeline names each key it passes on: one it never reads would be dropped
        read = set()

        class Recording:
            def __init__(self, config):
                self.config = config

            def __getattr__(self, name):
                read.add(name)
                return getattr(self.config, name)
        load = cli.load_config
        monkeypatch.setattr(cli, "load_config", lambda *args: Recording(load(*args)))
        remote = {"provider": "remote", "endpoint": stub_server, "auth_token": "t",
                  "on_error": "floor", "first_stage": "dirichlet",
                  "external_run": str(self.write_external(dataset))}
        for extra in ({}, remote):
            config = self.make_config(dataset, dataset["dir"] / "out", **extra)
            assert run_cli("pipeline", "--config", config) == 0
        assert read == set(cli.config_keys())


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


def test_every_help_entry_names_a_keyword_of_its_verb():
    # a keyword renamed in its run_* function would drop its flag's help without a word
    for verb, helps in cli._HELP.items():
        assert set(helps) <= set(inspect.signature(cli.VERBS[verb]).parameters), verb


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

    INDEX = {"format_version": 7, "analyzer": {"lowercase": True, "stopwords": [], "stem": False},
             "doc_ids": word_list("d1", "d2"), "terms": word_list("apple"),
             "doc_len": packed("B", 1, 2), "df": packed("B", 2), "positions": packed("B", 0, 1),
             "tfs": packed("B", 1, 2)}
    V2_INDEX = {"format_version": 2, "analyzer": INDEX["analyzer"], "doc_ids": ["d1", "d2"],
                "doc_len": [1, 2], "postings": {"apple": [[0, 1], [1, 2]]}}
    NO_DOCS = {"doc_ids": word_list(), "terms": word_list(), "doc_len": packed("B"),
               "df": packed("B"), "positions": packed("B"), "tfs": packed("B")}
    BAD_TERMS = "terms must be unique non-empty strings in sorted order"
    BAD_COUNT = "must start with its byte count in decimal and a colon"
    INDEX_CASES = {
        "array": ([], "unsupported index format version None"),
        "v1": ({"format_version": 1, "analyzer": INDEX["analyzer"], "n_docs": 1,
                "total_terms": 1, "doc_len": {"d1": 1}, "cf": {"apple": 1},
                "postings": {"apple": [["d1", 1]]}}, "unsupported index format version 1"),
        "v2": (V2_INDEX, "unsupported index format version 2"),
        "v3": ({**INDEX, "format_version": 3, "positions": "BAAE="},
               "unsupported index format version 3"),
        "v4": ({**INDEX, "format_version": 4}, "unsupported index format version 4"),
        "v5": ({**INDEX, "format_version": 5, "doc_ids": ["d1", "d2"], "terms": ["apple"]},
               "unsupported index format version 5"),
        "v6": ({**INDEX, "format_version": 6}, "unsupported index format version 6"),
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
        "posting-three-lists": ({**INDEX, "terms": word_list("apple", "pear")},
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
        "bytes-ragged": ({**INDEX, "doc_len": deflated("H", b"\1\0\2")},
                         "doc_len holds 3 bytes, not a multiple of its item size 2"),
        "doc-len-short": ({**INDEX, "doc_len": packed("B", 3)},
                          "doc_len must hold one length per doc id (2), got 1"),
        "doc-len-below-tfs": ({**INDEX, "doc_len": packed("B", 1, 0)},  # d2 holds tf 2
                              "doc_len must sum to the sum of all tfs (3), got 1"),
        "doc-ids-list": ({**INDEX, "doc_ids": ["d1", "d2"]},
                         'doc_ids must be a packed word list string, got ["d1", "d2"]'),
        "doc-id-not-string": ({**INDEX, "doc_ids": ["d1", ["d2"]]},
                              'doc_ids must be a packed word list string, got ["d1", ["d2"]]'),
        "term-not-string": ({**INDEX, "terms": [1]},
                            "terms must be a packed word list string, got [1]"),
        "terms-null": ({**INDEX, "terms": None},
                       "terms must be a packed word list string, got null"),
        "doc-id-with-space": ({**INDEX, "doc_ids": word_list("d1", "a b")},
                              "doc id 'a b' must be one word without whitespace"),
        "doc-id-empty-string": ({**INDEX, "doc_ids": word_list("", "d2")},
                                "doc id '' must be one word without whitespace"),
        "doc-id-trailing-newline": ({**INDEX, "doc_ids": word_list("d1", "d2", "")},
                                    "doc id '' must be one word without whitespace"),
        "doc-ids-empty": ({**INDEX, **NO_DOCS}, "doc_ids must hold at least one doc id"),
        "doc-ids-duplicate": ({**INDEX, "doc_ids": word_list("d1", "d1")},
                              "duplicate doc id 'd1'"),
        "doc-ids-one-short": ({**INDEX, "doc_ids": word_list("d1")},
                              "doc_len decompresses to more than its 1 bytes"),
        "doc-id-not-utf8": ({**INDEX, "doc_ids": worded(5, zlib.compress(b"d1\nd\xff"))},
                            "doc_ids is not UTF-8 (invalid start byte)"),
        "terms-unsorted": ({**INDEX, "terms": word_list("pear", "apple"),
                            "df": packed("B", 1, 1)}, BAD_TERMS),
        "terms-duplicate": ({**INDEX, "terms": word_list("apple", "apple"),
                             "df": packed("B", 1, 1)}, BAD_TERMS),
        "term-empty": ({**INDEX, "terms": word_list("", "apple"), "df": packed("B", 1, 1)},
                       BAD_TERMS),
        "term-not-utf8": ({**INDEX, "terms": worded(5, zlib.compress(b"appl\xc3"))},
                          "terms is not UTF-8 (unexpected end of data)"),
        "count-missing": ({**INDEX, "terms": INDEX["terms"].split(":")[1]}, f"terms {BAD_COUNT}"),
        "count-empty": ({**INDEX, "terms": ":" + INDEX["terms"].split(":")[1]},
                        f"terms {BAD_COUNT}"),
        "count-leading-zero": ({**INDEX, "terms": "0" + INDEX["terms"]}, f"terms {BAD_COUNT}"),
        "count-signed": ({**INDEX, "doc_ids": "+" + INDEX["doc_ids"]}, f"doc_ids {BAD_COUNT}"),
        "count-not-ascii": ({**INDEX, "terms": "\u0665:" + INDEX["terms"].split(":")[1]},
                            f"terms {BAD_COUNT}"),
        "count-19-digits": ({**INDEX, "terms": "1" * 19 + ":" + INDEX["terms"].split(":")[1]},
                            f"terms {BAD_COUNT}"),
        "count-above": ({**INDEX, "terms": "6:" + INDEX["terms"].split(":")[1]},
                        "terms holds 5 bytes, not its byte count 6"),
        "count-below": ({**INDEX, "doc_ids": "4:" + INDEX["doc_ids"].split(":")[1]},
                        "doc_ids decompresses to more than its 4 bytes"),
        "words-base64-non-canonical": ({**INDEX, "terms": "0:eAEDAAAAAAF="},  # padding bits set
                                       "terms is not canonical base64"),
        "words-base64-stray": ({**INDEX, "terms": INDEX["terms"] + "\n"},
                               "terms is not canonical base64"),
        "words-not-zlib": ({**INDEX, "terms": worded(5, b"apple")}, "terms is not a zlib stream: "),
        "words-zlib-truncated": ({**INDEX, "terms": worded(5, zlib.compress(b"apple")[:-2])},
                                 "terms ends inside its zlib stream"),
        "words-zlib-then-bytes": ({**INDEX, "terms": worded(5, zlib.compress(b"apple") + b"\0")},
                                  "terms holds bytes after its zlib stream"),
        "words-past-size": ({**INDEX, "doc_ids": worded(5, zero_bomb(64))},
                            "doc_ids decompresses to more than its 5 bytes"),
        "pair-lengths-differ": ({**INDEX, "tfs": packed("B", 3)},
                                "positions and tfs must each hold sum(df) = 2 entries, "
                                "got 2 and 1"),
        "posting-empty": ({**INDEX, "df": packed("B", 0), "positions": packed("B"),
                           "tfs": packed("B")}, "every df must be >= 1"),
        "position-out-of-range": ({**INDEX, "positions": packed("B", 0, 2)},
                                  "positions of 'apple' must ascend and be below 2"),
        "positions-not-ascending": ({**INDEX, "positions": packed("B", 1, 0)},
                                    "positions of 'apple' must ascend and be below 2"),
        "gap-zero": ({**INDEX, "positions": packed("B", 0, 0)},
                     "positions of 'apple' must ascend and be below 2"),
        "gaps-sum-to-n-docs": ({**INDEX, "positions": packed("B", 1, 1)},
                               "positions of 'apple' must ascend and be below 2"),
        "gaps-sum-past-2**32": ({**INDEX, "positions": packed("I", 1, 2**32 - 1)},
                                "positions of 'apple' must ascend and be below 2"),
        # postings lie by df, ties in terms order: fig [1], pear [2], apple [0, 1]; pear,
        # first in neither order, holds the bad position
        "position-of-a-middle-term": ({**INDEX, "terms": word_list("apple", "fig", "pear"),
                                       "doc_len": packed("B", 2, 2), "df": packed("B", 2, 1, 1),
                                       "positions": packed("B", 1, 2, 0, 1),
                                       "tfs": packed("B", 1, 1, 1, 1)},
                                      "positions of 'pear' must ascend and be below 2"),
        "not-zlib": ({**INDEX, "positions": "B" + base64.b64encode(b"\0\1").decode()},
                     "positions is not a zlib stream: "),
        "zlib-truncated": ({**INDEX, "positions": "B" + base64.b64encode(
                               zlib.compress(b"\0\1")[:-2]).decode()},
                           "positions ends inside its zlib stream"),
        "zlib-then-bytes": ({**INDEX, "positions": "B" + base64.b64encode(
                                zlib.compress(b"\0\1") + b"\0").decode()},
                            "positions holds bytes after its zlib stream"),
        "zlib-past-size": ({**INDEX, "positions": "B" + base64.b64encode(
                               zero_bomb(64)).decode()},
                           "positions decompresses to more than its 2 bytes"),
        "df-past-size": ({**INDEX, "df": packed("B", 2, 1)},
                         "df decompresses to more than its 1 bytes"),
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
        "fewshot-not-list": ([{**ENTRY, "fewshot": TRIPLE}],
                             "llama/trecc: fewshot must be a list of objects"),
        "triple-not-object": ([{**ENTRY, "fewshot": [list(TRIPLE.values())] * 3}],
                              "llama/trecc: fewshot must be a list of objects"),
        "triple-field-not-string": ([{**ENTRY, "fewshot": [{**TRIPLE, "good_question": 7}] * 3}],
                                    "few-shot example fields must all be non-empty strings"),
        "not-json": ("[{", "invalid JSON"),  # raw text, as in INDEX_CASES
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

    def test_index_past_its_size_is_not_inflated(self, dataset, capsys):
        # the stream holds 64 MiB of zeros; load inflates one byte past positions' 2
        payload, message = self.INDEX_CASES["zlib-past-size"]
        index = dataset["dir"] / "index.json"
        index.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            code = run_cli("search", "--index", index, "--queries", dataset["queries"],
                           "--out", dataset["dir"] / "out.trec")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.assert_data_error(code, capsys.readouterr().err, message)
        assert peak < 4 << 20

    def test_word_list_past_its_size_is_not_inflated(self, dataset, capsys, monkeypatch):
        # the stream holds 64 MiB of zeros; load inflates one byte past doc_ids' count of 5
        payload, message = self.INDEX_CASES["words-past-size"]
        index = dataset["dir"] / "index.json"
        index.write_text(json.dumps(payload))
        inflated = []
        decompressobj = zlib.decompressobj

        class Inflater:  # zlib's, counting what each decompress call returns
            def __init__(self):
                self._inflater = decompressobj()

            def decompress(self, data, max_length=0):
                out = self._inflater.decompress(data, max_length)
                inflated.append(len(out))
                return out

            def __getattr__(self, name):
                return getattr(self._inflater, name)

        monkeypatch.setattr(zlib, "decompressobj", Inflater)
        tracemalloc.start()
        try:
            code = run_cli("search", "--index", index, "--queries", dataset["queries"],
                           "--out", dataset["dir"] / "out.trec")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.assert_data_error(code, capsys.readouterr().err, message)
        assert inflated == [6]
        assert peak < 4 << 20

    @pytest.mark.parametrize("ranker", ["bm25", "dirichlet"])
    def test_index_checks_terms_no_query_reads(self, dataset, capsys, ranker):
        # "zebra", in no query, holds the one bad posting: d2 before d1
        index = dataset["dir"] / "index.json"
        index.write_text(json.dumps({
            **self.INDEX, "terms": word_list("apple", "zebra"), "doc_len": packed("B", 2, 3),
            "df": packed("B", 2, 2), "positions": packed("B", 0, 1, 1, 0),
            "tfs": packed("B", 1, 2, 1, 1)}))
        out = dataset["dir"] / "out.trec"
        code = run_cli("search", "--index", index, "--queries", dataset["queries"],
                       "--out", out, "--ranker", ranker)
        self.assert_data_error(code, capsys.readouterr().err,
                               f"{index}: positions of 'zebra' must ascend and be below 2")
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
        catalog.write_text(entries if isinstance(entries, str) else json.dumps(entries))
        outdir = dataset["dir"] / "out"
        config = self.make_config(dataset, outdir, catalog=str(catalog), fewshot=True)
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config)
        self.assert_data_error(code, capsys.readouterr().err, f"{catalog}: {message}")
        assert not outdir.exists()

    @pytest.mark.parametrize("name, verb", [
        ("corpus", "index"), ("stopwords", "index"), ("queries", "search"), ("index", "search"),
        ("qrels", "eval"), ("run", "eval"), ("config", "pipeline"), ("catalog", "pipeline")])
    def test_not_utf8(self, dataset, capsys, name, verb):
        # every input is read as UTF-8: a \xff byte is a data error that names the file
        d = dataset["dir"]
        files = {**dataset, "stopwords": d / "stopwords.txt", "index": d / "index.json",
                 "run": d / "run.trec", "catalog": d / "catalog.json", "config": d / "config.json"}
        files["stopwords"].write_text("the\n", encoding="utf-8")
        files["catalog"].write_text(json.dumps([self.ENTRY]), encoding="utf-8")
        self.make_config(dataset, d / "out", catalog=str(files["catalog"]), fewshot=True)
        assert run_cli("index", "--corpus", files["corpus"], "--out", files["index"]) == 0
        assert run_cli("search", "--index", files["index"], "--queries", files["queries"],
                       "--out", files["run"]) == 0
        out = d / "out"
        argv = {"index": ["--corpus", files["corpus"], "--stopwords", files["stopwords"],
                          "--out", out],
                "search": ["--index", files["index"], "--queries", files["queries"], "--out", out],
                "eval": ["--run", files["run"], "--qrels", files["qrels"], "--out", out],
                "pipeline": ["--config", files["config"]]}[verb]
        with open(files[name], "ab") as f:
            f.write(b"\xff\n")
        capsys.readouterr()
        code = run_cli(verb, *argv)
        self.assert_data_error(code, capsys.readouterr().err, f"{files[name]}: not UTF-8")
        assert not out.exists()

    JSON_FILES = ["config", "index", "catalog", "corpus", "queries"]

    @pytest.mark.parametrize("name", JSON_FILES + ["payload"])
    def test_json_nested_too_deep(self, dataset, capsys, request, name):
        # json's parser raises RecursionError on it: malformed JSON like any other
        self.assert_json_rejected(dataset, capsys, request, name, "[" * 100_000,
                                  "maximum recursion depth exceeded")

    @pytest.mark.parametrize("name", JSON_FILES)
    def test_json_integer_too_long(self, dataset, capsys, request, name):
        # json raises a plain ValueError, no JSONDecodeError, for an integer longer than
        # int()'s 4,300-digit limit: malformed JSON too, naming the file (and line)
        self.assert_json_rejected(dataset, capsys, request, name,
                                  '{"_id": ' + "1" * 5000 + ', "text": "x"}', "(4300 digits)")

    def assert_json_rejected(self, dataset, capsys, request, name, text, says):
        """`text` replacing the JSON file `name`, or one more line of a JSONL file, or
        the stub's payload, is malformed JSON whose one error line holds `says`."""
        d = dataset["dir"]
        out, run, index, catalog = d / "out", d / "run.trec", d / "index.json", d / "catalog.json"
        config = self.make_config(dataset, out, catalog=str(catalog))
        catalog.write_text(json.dumps([self.ENTRY]), encoding="utf-8")
        run.write_text("q1 Q0 d1 1 1.0 bm25\n", encoding="utf-8")
        rerank = ["rerank", "--run", run, "--corpus", dataset["corpus"], "--queries",
                  dataset["queries"], "--model-family", "llama", "--dataset", "trecc",
                  "--out", out]
        argv, prefix = {  # the JSON files are replaced, the JSONL ones get one more line
            "config": (["pipeline", "--config", config], f"data error: {config}: invalid JSON ("),
            "index": (["search", "--index", index, "--queries", dataset["queries"], "--out", out],
                      f"data error: {index}: invalid JSON ("),
            "catalog": (["pipeline", "--config", config], f"data error: {catalog}: invalid JSON ("),
            "corpus": (["index", "--corpus", dataset["corpus"], "--out", out],
                       f"data error: {dataset['corpus']}:6: malformed corpus line ("),
            "queries": (rerank, f"data error: {dataset['queries']}:4: malformed query line ("),
            "payload": (rerank, "provider error: malformed response from "),
        }[name]
        if name == "payload":
            argv += ["--provider", "remote", "--endpoint", request.getfixturevalue("stub_server")]
            StubHandler.script = [(200, text.encode())]
        elif name in ("corpus", "queries"):
            with open(dataset[name], "a", encoding="utf-8") as f:
                f.write(text + "\n")
        else:
            {"config": config, "index": index, "catalog": catalog}[name].write_text(text)
        capsys.readouterr()
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == (3 if name == "payload" else 2)
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith(prefix) and says in line
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["eval", "sigtest"])
    @pytest.mark.parametrize("lines, message", [
        ("q2\td1\t1024\n", "qrels.tsv:6: qrels (q2, d1): grade must be in [0, 1023], got 1024"),
        ("q2\td1\t1100\n", "qrels.tsv:6: qrels (q2, d1): grade must be in [0, 1023], got 1100"),
        (f"q2\td1\t{10 ** 23}\n",
         f"qrels.tsv:6: qrels (q2, d1): grade must be in [0, 1023], got {10 ** 23}"),
        ("".join(f"q1\td{i}\t1023\n" for i in (2, 3, 4)),
         "query q1: ideal DCG@10 overflows (top grade 1023)"),
    ], ids=["1024", "1100", "huge", "three-at-1023"])
    def test_grade_whose_gain_overflows(self, dataset, capsys, verb, lines, message):
        # nDCG's gain 2 ** grade - 1 is a finite float up to grade 1023, and only
        # three of those sum to a finite ideal DCG
        with open(dataset["qrels"], "a", encoding="utf-8") as f:
            f.write(lines)
        runs = [dataset["dir"] / name for name in ("a.trec", "b.trec")]
        for run in runs:
            run.write_text("q1 Q0 d1 1 1.0 bm25\nq2 Q0 d2 1 1.0 bm25\n", encoding="utf-8")
        argv = (["eval", "--run", runs[0]] if verb == "eval" else ["sigtest", *runs])
        capsys.readouterr()
        code = run_cli(*argv, "--qrels", dataset["qrels"])
        self.assert_data_error(code, capsys.readouterr().err, message)

    def test_qrels_id_with_whitespace(self, dataset, capsys):
        # "q1 " could never match a run's q1: eval reported it at 0.000000
        qrels = dataset["dir"] / "qrels.tsv"
        qrels.write_text("q1 \td1\t2\n", encoding="utf-8")
        run = dataset["dir"] / "a.trec"
        run.write_text("q1 Q0 d1 1 1.0 bm25\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli("eval", "--run", run, "--qrels", qrels)
        self.assert_data_error(code, capsys.readouterr().err,
                               f"{qrels}:1: query id 'q1 ' must be one word "
                               "without whitespace")

    @pytest.mark.parametrize("lines, message", [
        ("q0 Q0 d3 1 2.0 bm25\nq0 Q0 d3 2 1.0 bm25\n",
         "run 'bm25', query q0: duplicate doc id 'd3'"),
        ("q0 Q0 d3 1 nan bm25\n", "run 'bm25', query q0, doc d3: non-finite score"),
        ("q0 Q0 d3 1 -inf bm25\n", "run 'bm25', query q0, doc d3: non-finite score"),
    ], ids=["duplicate-doc", "nan-score", "inf-score"])
    def test_run_level(self, dataset, capsys, lines, message):
        # fuse over two runs of one tag: only the path says which file is bad
        good, bad = dataset["dir"] / "good.trec", dataset["dir"] / "bad.trec"
        good.write_text("q0 Q0 d3 1 1.0 bm25\n", encoding="utf-8")
        bad.write_text(lines, encoding="utf-8")
        out = dataset["dir"] / "fused.trec"
        code = run_cli("fuse", "--run-a", good, "--run-b", bad, "--out", out, "--alpha", "0.5")
        self.assert_data_error(code, capsys.readouterr().err, f"{bad}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("name, row, message", [
        ("corpus", {"_id": "a b", "text": "x"},
         "corpus.jsonl:6: malformed corpus line "
         "(document id 'a b' must be one word without whitespace)"),
        ("queries", {"_id": "q\t4", "text": "x"},
         "queries.jsonl:4: malformed query line "
         "(query id 'q\\t4' must be one word without whitespace)"),
        *[("corpus", {"_id": value, "text": "x"}, "corpus.jsonl:6: malformed corpus line "
           f"(_id must be a string or an integer, got {json.dumps(value)})")
          for value in (None, True, 1.5, ["x"])],
        *[("queries", {"_id": value, "text": "x"}, "queries.jsonl:4: malformed query line "
           f"(_id must be a string or an integer, got {json.dumps(value)})")
          for value in (None, False, 2.0, {"x": 1})],
        *[("corpus", {"_id": "d6", "title": value, "text": "x"}, "corpus.jsonl:6: malformed "
           "corpus line (document 'd6': title and body must be strings)")
          for value in (0, False, [], 1)],
    ], ids=["corpus", "queries", *[f"{kind}-{value}" for kind, values in [
        ("corpus-id", ("null", "true", "1.5", "list")),
        ("query-id", ("null", "false", "2.0", "object")),
        ("title", ("0", "false", "empty-list", "1"))] for value in values]])
    def test_malformed_id_or_title(self, dataset, capsys, name, row, message):
        # a run file splits its columns on whitespace: such an id would break every run. An
        # id that is not a JSON string or integer once loaded as its repr ('None', 'True'),
        # and a title of 0, false or [] as an empty title
        with open(dataset[name], "a", encoding="utf-8") as f:
            f.write(json.dumps(row) + "\n")
        out = dataset["dir"] / "out.trec"
        code = run_cli("rerank", "--run", dataset["dir"] / "r.trec", "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", out,
                       "--model-family", "llama", "--dataset", "trecc")
        self.assert_data_error(code, capsys.readouterr().err, message)
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["rerank", "pipeline"])
    @pytest.mark.parametrize("suffix", ["/api?x=1", "/api#frag", "/a b", "/a\tb", "/caf\u00e9",
                                        "user:secret@"],
                             ids=["query", "fragment", "space", "tab", "non-ascii", "user-info"])
    def test_endpoint_beyond_host_port_and_path(self, dataset, capsys, caplog, stub_server,
                                                verb, suffix):
        # each once reached the stub at the wrong path or without its credentials, or failed
        # every attempt; now it is a usage error before any input is read
        if suffix.endswith("@"):
            endpoint = stub_server.replace("//", "//" + suffix)
            message = "endpoint must not hold user info; authenticate with a bearer token"
        else:
            endpoint = stub_server + suffix
            message = ("endpoint must hold no query, fragment, space or control character, "
                       f"nor a non-ASCII path, got {endpoint!r}")
        out = dataset["dir"] / "out"
        if verb == "rerank":
            run = dataset["dir"] / "r.trec"
            run.write_text("q1 Q0 d1 1 1.0 bm25\n", encoding="utf-8")
            argv = ["rerank", "--run", run, "--corpus", dataset["corpus"], "--queries",
                    dataset["queries"], "--out", out, "--model-family", "llama",
                    "--dataset", "trecc", "--provider", "remote", "--endpoint", endpoint]
        else:
            argv = ["pipeline", "--config", self.make_config(dataset, out, provider="remote",
                                                              endpoint=endpoint)]
        capsys.readouterr()
        code = run_cli(*argv)
        err = capsys.readouterr().err
        self.assert_usage_error(code, err, message)
        assert "secret" not in err + caplog.text
        assert StubHandler.requests_seen == []
        assert not out.exists()

    # each verb's input flags (a positional run of sigtest's is "runs")
    INPUTS = {"index": ["--corpus", "--stopwords"], "search": ["--index", "--queries"],
              "rerank": ["--run", "--corpus", "--queries", "--catalog"],
              "fuse": ["--run-a", "--run-b"], "eval": ["--run", "--qrels"],
              "sigtest": ["runs", "--qrels"], "sweep": ["--run-a", "--run-b", "--qrels"]}

    def verb_argv(self, dataset, verb, missing):
        """Arguments that run `verb` on real inputs, but for input flag
        `missing`, which names no file, and write its output to `out`."""
        d = dataset["dir"]
        (d / "stopwords.txt").write_text("the\n", encoding="utf-8")
        (d / "catalog.json").write_text(json.dumps([self.ENTRY]), encoding="utf-8")
        assert run_cli("index", "--corpus", dataset["corpus"], "--out", d / "index.json") == 0
        assert run_cli("search", "--index", d / "index.json", "--queries", dataset["queries"],
                       "--out", d / "run.trec") == 0
        (d / "b.trec").write_text((d / "run.trec").read_text())  # sigtest names rows by file
        inputs = {"--corpus": dataset["corpus"], "--stopwords": d / "stopwords.txt",
                  "--index": d / "index.json", "--queries": dataset["queries"],
                  "--run": d / "run.trec", "--catalog": d / "catalog.json",
                  "--run-a": d / "run.trec", "--run-b": d / "run.trec", "runs": d / "run.trec",
                  "--qrels": dataset["qrels"]}
        inputs[missing] = d / "missing"
        argv = [verb, *[arg for flag in self.INPUTS[verb] if flag != "runs"
                        for arg in (flag, inputs[flag])], "--out", d / "out"]
        return argv + {"rerank": ["--model-family", "llama", "--dataset", "trecc"],
                       "fuse": ["--alpha", "0.5"], "sigtest": [inputs["runs"], d / "b.trec"]
                       }.get(verb, [])

    @pytest.mark.parametrize("verb, flag", [(verb, flag) for verb, flags in INPUTS.items()
                                            for flag in flags])
    def test_missing_input(self, dataset, capsys, verb, flag):
        argv = self.verb_argv(dataset, verb, flag)
        capsys.readouterr()
        assert run_cli(*argv) == 2
        missing = dataset["dir"] / "missing"
        assert capsys.readouterr().err == (
            f"data error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'\n")
        assert not (dataset["dir"] / "out").exists()
        assert not [p for p in os.listdir(dataset["dir"]) if p.endswith(".tmp")]

    def test_key_error_prints_its_message(self, dataset, capsys):
        # str() of a KeyError would quote the message
        run, out = dataset["dir"] / "run.trec", dataset["dir"] / "out.trec"
        run.write_text("q1 Q0 d1 1 1.0 bm25\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli("rerank", "--run", run, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", out,
                       "--model-family", "gpt9", "--dataset", "trecc")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: no template for gpt9/trecc (have: ") and \
            err.endswith(")\n") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_rerank_candidate_outside_the_corpus_names_the_files(self, dataset, capsys,
                                                                 monkeypatch):
        # checked before the bigram model is trained; q3 is in no run line
        run, out = dataset["dir"] / "run.trec", dataset["dir"] / "out.trec"
        run.write_text("q1 Q0 d1 1 2.0 bm25\nq2 Q0 d2 1 2.0 bm25\nq2 Q0 d9 2 1.0 bm25\n",
                       encoding="utf-8")
        trained = []
        monkeypatch.setattr(likelihood.BigramLm, "train", lambda *a: trained.append(a))
        code = run_cli("rerank", "--run", run, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", out,
                       "--model-family", "llama", "--dataset", "trecc")
        self.assert_data_error(code, capsys.readouterr().err,
                               f"{run}: query q2: candidate doc id 'd9' is not in corpus "
                               f"{dataset['corpus']}")
        assert not trained and not out.exists()

    def test_rerank_reads_no_candidate_past_depth_or_query(self, dataset):
        # accepted as before: d9 is past depth 1, q9 is in no queries file
        run, out = dataset["dir"] / "run.trec", dataset["dir"] / "out.trec"
        run.write_text("q1 Q0 d1 1 2.0 bm25\nq1 Q0 d9 2 1.0 bm25\nq9 Q0 d8 1 1.0 bm25\n",
                       encoding="utf-8")
        assert run_cli("rerank", "--run", run, "--corpus", dataset["corpus"],
                       "--queries", dataset["queries"], "--out", out, "--depth", 1,
                       "--model-family", "llama", "--dataset", "trecc") == 0
        assert read_run(str(out)).doc_ids("q1") == ["d1"]

    def test_pipeline_external_candidate_outside_the_corpus_names_the_files(self, dataset,
                                                                             capsys):
        external = dataset["dir"] / "external.trec"
        external.write_text("q1 Q0 d9 1 5.0 ext\n", encoding="utf-8")
        config = self.make_config(dataset, dataset["dir"] / "out", external_run=str(external))
        code = run_cli("pipeline", "--config", config)
        self.assert_data_error(code, capsys.readouterr().err,
                               f"{external}: query q1: candidate doc id 'd9' is not in corpus "
                               f"{dataset['corpus']}")
        assert not (dataset["dir"] / "out" / "reranked.trec").exists()

    def assert_pipeline_input_missing(self, dataset, capsys, **change):
        # the line the verbs print for a missing input, before output_dir is made
        outdir, missing = dataset["dir"] / "out", dataset["dir"] / "missing"
        config = self.make_config(dataset, outdir, **{
            key: {"stopwords": str(missing)} if key == "analyzer" else str(missing)
            for key in change})
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"data error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'\n")
        assert not outdir.exists()

    def test_missing_stopword_file(self, dataset, capsys):
        self.assert_pipeline_input_missing(dataset, capsys, analyzer=True)

    @pytest.mark.parametrize("key", ["corpus", "queries", "qrels", "external_run", "catalog"])
    def test_missing_pipeline_input(self, dataset, capsys, key):
        self.assert_pipeline_input_missing(dataset, capsys, **{key: True})

    @pytest.mark.parametrize("change, code, message", [
        ({"provider": "remote", "corpus": "missing"}, 1, "remote provider needs --endpoint"),
        ({"qrels": "missing", "catalog": "missing"}, 2, "missing/qrels"),
        ({"analyzer": {"stopwords": "missing"}, "model_family": "gpt9"}, 2, "missing/stopwords"),
    ], ids=["endpoint-before-files", "inputs-before-catalog", "stopwords-before-prompt"])
    def test_pipeline_checks_in_rerank_order(self, dataset, capsys, monkeypatch, change, code,
                                             message):
        # the first failing check names its input; no later one runs
        monkeypatch.delenv("QLMRANK_ENDPOINT", raising=False)
        d = dataset["dir"]
        (d / "missing").mkdir()
        change = {key: {"stopwords": str(d / "missing" / "stopwords")} if key == "analyzer"
                  else str(d / "missing" / key) if value == "missing" else value
                  for key, value in change.items()}
        outdir = d / "out"
        capsys.readouterr()
        assert run_cli("pipeline", "--config", self.make_config(dataset, outdir, **change)) == code
        [line] = capsys.readouterr().err.splitlines()
        assert message in line
        assert not outdir.exists()


def _loaded_after(code, *argv):
    """The qlmrank.* modules, the lazily imported standard modules and the
    modules no verb may load (dataclasses, inspect, ast and dis cost start-up
    time) that a fresh interpreter has loaded after running `code` with
    sys.argv[1:] = argv."""
    src = os.path.dirname(os.path.dirname(qlmrank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nprint(sorted(m for m in sys.modules if m.startswith("
         "('qlmrank.', 'http.client', 'ssl', 'concurrent.futures', 'statistics', "
         "'dataclasses', 'inspect', 'ast', 'dis'))))",
         *map(str, argv)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])  # after any report the verb printed


BASE = ["qlmrank.cli", "qlmrank.corpus", "qlmrank.evaluation", "qlmrank.fusion"]


@pytest.mark.parametrize("verb", ["index", "search", "fuse", "eval", "sigtest", "sweep", "rerank",
                                  "rerank-remote", "pipeline"])
def test_each_verb_imports_only_what_it_runs(dataset, request, verb):
    # only index, search and pipeline load ranking; only rerank and pipeline likelihood and
    # prompts; only a remote provider http.client and ssl, and only the verbs that test
    # significance statistics; no re-rank, at any --max-workers, loads concurrent.futures
    d, index, run = dataset["dir"], dataset["dir"] / "index.json", dataset["dir"] / "a.trec"
    assert run_cli("index", "--corpus", dataset["corpus"], "--out", index) == 0
    assert run_cli("search", "--index", index, "--queries", dataset["queries"], "--out", run) == 0
    (d / "b.trec").write_text(run.read_text())
    qrels = ["--qrels", dataset["qrels"]]
    argv = {
        "index": ["--corpus", dataset["corpus"], "--out", d / "index2.json"],
        "search": ["--index", index, "--queries", dataset["queries"], "--out", d / "c.trec"],
        "fuse": ["--run-a", run, "--run-b", d / "b.trec", "--alpha", "0.2", "--out", d / "f.trec"],
        "eval": ["--run", run, *qrels, "--out", d / "eval.tsv"],
        "sigtest": [run, d / "b.trec", *qrels, "--out", d / "sig.txt"],
        "sweep": ["--run-a", run, "--run-b", d / "b.trec", *qrels, "--out", d / "sweep.tsv"],
        "rerank": ["--run", run, "--corpus", dataset["corpus"], "--queries", dataset["queries"],
                   "--model-family", "llama", "--dataset", "trecc", "--out", d / "r.trec"],
        "pipeline": ["--config", TestPipeline().make_config(dataset, d / "out")],
    }
    if verb == "rerank-remote":  # every pair answered, on 4 threads
        argv[verb] = argv["rerank"] + ["--provider", "remote", "--max-workers", "4",
                                       "--endpoint", request.getfixturevalue("stub_server")]
        StubHandler.script = [(200, {"tokens": ["x"], "logprobs": [-1.0]})] * len(
            run.read_text().splitlines())
    loaded = _loaded_after("import sys, qlmrank.cli\nassert qlmrank.cli.main(sys.argv[1:]) == 0",
                           verb.removesuffix("-remote"), *argv[verb])
    expected = BASE + (["qlmrank.ranking"] if verb in ("index", "search", "pipeline") else [])
    expected += (["qlmrank.likelihood", "qlmrank.prompts"]
                 if verb in ("rerank", "rerank-remote", "pipeline") else [])
    expected += ["http.client", "ssl"] if verb == "rerank-remote" else []
    expected += ["statistics"] if verb in ("sigtest", "pipeline") else []
    assert loaded == sorted(expected)


def test_cli_import_leaves_out_the_http_stack():
    # nor any module that no verb needs; the package loads a module only for a name used
    assert _loaded_after("import sys, qlmrank") == []
    assert _loaded_after("import sys, qlmrank.cli") == BASE
    assert _loaded_after("import sys\nfrom qlmrank import load_qrels") == ["qlmrank.corpus"]
    assert _loaded_after("import sys\nfrom qlmrank import Bm25Params") == ["qlmrank.corpus"]


def test_package_names_are_their_modules_objects():
    assert len(qlmrank.__all__) == len(set(qlmrank.__all__)) == 48
    for name in qlmrank.__all__:
        value = getattr(qlmrank, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(qlmrank.__all__) <= set(dir(qlmrank))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        qlmrank.nope


class TestCommand:
    """The qlmrank command, run(): main() in a process that ends with os._exit once
    main() returns, and that a SIGTERM unwinds as Ctrl-C does."""

    def test_run_ends_with_mains_code_and_no_teardown(self):
        code = ("import atexit, gc, sys\nfrom qlmrank import cli\n"
                "atexit.register(print, 'teardown')\n"
                "cli.main = lambda: print(gc.get_threshold()) or 3\ncli.run()")
        proc = python(code, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                      env=BUFFERED)
        assert proc.communicate(timeout=60) == (f"{cli.GC_THRESHOLD}\n", "")
        assert proc.returncode == 3

    @pytest.mark.parametrize("verb", ["eval", "sigtest", "sweep", "--help", "search --help"])
    def test_a_report_reaches_a_file_and_a_closed_pipe_is_a_data_error(
            self, dataset, capsys, monkeypatch, tmp_path, verb):
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the subprocesses
        env = {**BUFFERED, "COLUMNS": "80"}
        if verb.endswith("--help"):  # argparse prints the help, then raises SystemExit(0)
            argv = verb.split()
            capsys.readouterr()
            with pytest.raises(SystemExit, match="^0$"):
                run_cli(*argv)
        else:
            bm25, dirichlet = TestEvalSigtestSweep()._runs(dataset)
            argv = {"eval": ["eval", "--run", bm25], "sigtest": ["sigtest", bm25, dirichlet],
                    "sweep": ["sweep", "--run-a", bm25, "--run-b", dirichlet]}[verb]
            argv = [*map(str, argv), "--qrels", dataset["qrels"]]
            capsys.readouterr()
            assert run_cli(*argv) == 0
        report = capsys.readouterr().out
        assert report
        command = [sys.executable, "-m", "qlmrank.cli", *argv]
        with open(tmp_path / "report", "w") as out:
            proc = subprocess.run(command, stdout=out, stderr=subprocess.PIPE, text=True,
                                  env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report").read_text() == report
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(command, stdout=w, stderr=subprocess.PIPE, text=True,
                                  env=env)
        finally:
            os.close(w)
        assert proc.returncode == 2
        assert [line for line in proc.stderr.splitlines() if " INFO " not in line] == [
            "data error: [Errno 32] Broken pipe"]

    def test_a_verb_under_python_m_logs_as_qlmrank_cli(self, dataset, tmp_path):
        # under python -m the module is __main__, which is not the logger's name
        proc = subprocess.run([sys.executable, "-m", "qlmrank.cli", "index", "--corpus",
                               str(dataset["corpus"]), "--out", str(tmp_path / "index.json")],
                              capture_output=True, text=True, env=BUFFERED)
        assert proc.returncode == 0, proc.stderr
        [line] = proc.stderr.splitlines()
        assert " INFO qlmrank.cli: indexed " in line

    @pytest.mark.parametrize("verb", ["index", "pipeline"])
    def test_sigterm_in_a_write_removes_its_temp_file_and_ends_the_process_by_it(
            self, dataset, verb):
        outdir = dataset["dir"] / "out"
        if verb == "index":
            outdir.mkdir()
            argv = ["index", "--corpus", dataset["corpus"], "--out", outdir / "index.json"]
        else:
            argv = ["pipeline", "--config", TestPipeline().make_config(dataset, outdir)]
        held = dataset["dir"] / "held"
        proc = python(SLOW_WRITE, held, *argv, stderr=subprocess.PIPE, text=True)
        wait_for(held.exists, proc)
        [tmp] = os.listdir(outdir)  # index.json's temp file, the first output written
        assert tmp.endswith(".tmp")
        proc.terminate()
        err = proc.communicate(timeout=10)[1]
        assert proc.returncode == -signal.SIGTERM
        assert "Traceback" not in err
        assert os.listdir(outdir) == []


class TestAtomicWrite:
    def test_failing_writer_keeps_old_content_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "run.trec"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(OSError, match="disk full"):
            with open_atomic(str(target)) as f:
                f.write("half a fi")
                raise OSError("disk full")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["run.trec"]

    def test_concurrent_writers_each_leave_a_complete_file(self, tmp_path):
        target = str(tmp_path / "run.trec")
        contents = [f"{name}\n" * 200_000 for name in ("aaaa", "bbbb")]
        seen = []

        def writer(text):
            for _ in range(5):
                with open_atomic(target) as f:
                    f.write(text)
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
        # under the umask in force, set here long after the package was imported
        previous = os.umask(0o022)
        try:
            for umask in (0o022, 0o077, 0o027):
                os.umask(umask)
                with open_atomic(str(tmp_path / f"a{umask:o}")) as f:
                    f.write("x")
                (tmp_path / f"b{umask:o}").write_text("x")
                mode = os.stat(tmp_path / f"a{umask:o}").st_mode
                assert mode == os.stat(tmp_path / f"b{umask:o}").st_mode
                assert mode & 0o777 == 0o666 & ~umask
        finally:
            os.umask(previous)

    @pytest.mark.parametrize("writer", ["write_run", "save_index", "save_catalog"])
    def test_library_writer_failing_mid_write_keeps_old_file(self, tmp_path, monkeypatch,
                                                             writer):
        target = tmp_path / "out"
        target.write_text("old\n", encoding="utf-8")
        write, value = {
            "write_run": (write_run, Run({"q1": [("d1", 1.0)]})),
            "save_index": (ranking.save_index,
                           ranking.build_index([Document("d1", "", "a b")], ranking.Analyzer())),
            "save_catalog": (prompts.save_catalog, prompts.default_catalog()),
        }[writer]

        def failing_fsync(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError) as raised:
            write(value, str(target))
        # the error names the file the caller asked for, not the temp file
        assert str(raised.value) == f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}: '{target}'"
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_write_error_names_the_given_path(self, dataset, capsys, monkeypatch, where):
        d = dataset["dir"]
        run = d / "run.trec"
        run.write_text("q1 Q0 d1 1 1.0 bm25\n", encoding="utf-8")
        (d / "outdir").mkdir()
        monkeypatch.chdir(d)
        out = {"missing-directory": str(d / "nodir" / "b.trec"), "a-directory": "outdir"}[where]
        capsys.readouterr()
        assert run_cli("eval", "--run", run, "--qrels", dataset["qrels"], "--out", out) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: [Errno ") and line.endswith(f": '{out}'")
        assert not [p for p in os.listdir(d) if p.endswith(".tmp")]
        assert os.listdir(d / "outdir") == []
