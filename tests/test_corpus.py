import gc
import os
import random
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qlmrank.corpus import (
    Document,
    FormatError,
    QrelSet,
    Run,
    load_corpus,
    load_qrels,
    load_queries,
    read_run,
    write_run,
)

# ids and tags as read_run splits a line: no whitespace, nothing UTF-8 cannot encode
TOKENS = st.text(st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace()),
                 min_size=1, max_size=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestLoadCorpus:
    def test_field_mapping(self, write_jsonl):
        path = write_jsonl("corpus.jsonl", [{"_id": "d1", "title": "T", "text": "B"}])
        docs = load_corpus(path)
        assert docs == [Document("d1", "T", "B")]

    def test_missing_title_defaults_empty(self, write_jsonl):
        path = write_jsonl("corpus.jsonl", [{"_id": "d2", "text": "only body"}])
        assert load_corpus(path) == [Document("d2", "", "only body")]

    def test_duplicate_id_rejected(self, write_jsonl):
        path = write_jsonl("corpus.jsonl", [
            {"_id": "d1", "text": "x"},
            {"_id": "d1", "text": "y"},
        ])
        with pytest.raises(FormatError, match="duplicate"):
            load_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"d1","text":"ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(FormatError, match=":2"):
            load_corpus(str(path))

    def test_reader_stopped_early_closes_its_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"_id":"d1","text":"ok"}\nnot json\n{"_id":"d3","text":"ok"}\n',
                        encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(FormatError, match=":2: malformed corpus line"):
                load_corpus(str(path))
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_order_preserved(self, write_jsonl):
        rows = [{"_id": f"d{i}", "text": f"body {i}"} for i in range(50)]
        path = write_jsonl("corpus.jsonl", rows)
        docs = load_corpus(path)
        assert [d.id for d in docs] == [f"d{i}" for i in range(50)]


class TestLoadQueries:
    def test_basic(self, write_jsonl):
        path = write_jsonl("queries.jsonl", [{"_id": "q1", "text": "what is x"}])
        queries = load_queries(path)
        assert queries[0].id == "q1" and queries[0].text == "what is x"

    def test_empty_text_rejected(self, write_jsonl):
        path = write_jsonl("queries.jsonl", [{"_id": "q1", "text": ""}])
        with pytest.raises(FormatError):
            load_queries(path)

    def test_full_benchmark_query_count(self, write_jsonl):
        # the 4-dataset evaluation set size this toolkit targets
        rows = [{"_id": f"q{i}", "text": f"query {i}"} for i in range(1347)]
        path = write_jsonl("queries.jsonl", rows)
        assert len(load_queries(path)) == 1347


class TestLoadQrels:
    def test_basic(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t2\n", encoding="utf-8")
        qrels = load_qrels(str(path))
        assert qrels.grade("q1", "d1") == 2

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t-1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="negative"):
            load_qrels(str(path))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("query-id\tcorpus-id\tscore\nq1\td1\t1\n", encoding="utf-8")
        qrels = load_qrels(str(path))
        assert len(qrels) == 1

    def test_non_integer_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq2\td2\tbad\n", encoding="utf-8")
        with pytest.raises(FormatError, match="non-integer"):
            load_qrels(str(path))

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["q1", "q2"]), st.sampled_from(["d1", "d2"]),
                              st.integers(0, 3)), min_size=1))
    def test_repeated_pair_keeps_its_last_grade(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "qrels.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(f"{qid}\t{did}\t{grade}\n" for qid, did, grade in rows)
            qrels = load_qrels(path)
        last: dict[str, dict[str, int]] = {}
        for qid, did, grade in rows:
            last.setdefault(qid, {})[did] = grade
        assert qrels == QrelSet(last)

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq1\td1\t2\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            qrels = load_qrels(str(path))
        assert qrels.grade("q1", "d1") == 2
        assert "duplicate" in caplog.text


class TestRun:
    def test_sorted_on_construction(self):
        run = Run({"q1": [("d1", 1.0), ("d2", 5.0), ("d3", 3.0)]})
        assert run.doc_ids("q1") == ["d2", "d3", "d1"]

    def test_tie_break_by_doc_id(self):
        run = Run({"q1": [("d2", 1.0), ("d1", 1.0)]})
        assert run.doc_ids("q1") == ["d1", "d2"]

    def test_duplicate_doc_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            Run({"q1": [("d1", 1.0), ("d1", 2.0)]})

    def test_shuffling_input_never_changes_order(self):
        rng = random.Random(7)
        pairs = [(f"d{i}", rng.choice([0.0, 1.0, 2.5])) for i in range(30)]
        reference = Run({"q": list(pairs)}).doc_ids("q")
        for _ in range(20):
            rng.shuffle(pairs)
            assert Run({"q": list(pairs)}).doc_ids("q") == reference


class TestRunFiles:
    def test_read_line_format(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d3 1 12.5 bm25\n", encoding="utf-8")
        run = read_run(str(path))
        assert run.entries["q1"] == [("d3", 12.5)]
        assert run.tag == "bm25"

    def test_round_trip_preserves_order_and_scores(self, tmp_path):
        run = Run({
            "q1": [("d1", 0.3), ("d2", -1.7), ("d3", 2.123456789)],
            "q2": [("dA", 1e-9), ("dB", 0.0), ("dC", -3.5)],
        }, tag="t")
        path = tmp_path / "run.trec"
        write_run(run, str(path))
        back = read_run(str(path))
        assert back.entries == run.entries
        assert back.tag == run.tag

    @pytest.mark.parametrize("tag", ["my tag", "", "q\tlm"])
    def test_tag_that_is_not_one_word_is_not_written(self, tmp_path, tag):
        # read_run splits a line on whitespace, so such a tag adds or drops a column
        path = tmp_path / "run.trec"
        with pytest.raises(FormatError, match="must be one word without whitespace"):
            write_run(Run({"q1": [("d1", 1.0)]}, tag=tag), str(path))
        assert not path.exists()

    def test_ties_serialize_doc_id_ascending(self, tmp_path):
        run = Run({"q1": [("d2", 1.0), ("d1", 1.0)]})
        path = tmp_path / "run.trec"
        write_run(run, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].split()[2] == "d1"
        assert lines[1].split()[2] == "d2"

    def test_rank_column_starts_at_one(self, tmp_path):
        run = Run({"q1": [("d1", 2.0), ("d2", 1.0)], "q2": [("d3", 1.0)]})
        path = tmp_path / "run.trec"
        write_run(run, str(path))
        ranks = [line.split()[3] for line in path.read_text().splitlines()]
        assert ranks == ["1", "2", "1"]

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="6 columns"):
            read_run(str(path))

    def test_non_numeric_score_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 high bm25\n", encoding="utf-8")
        with pytest.raises(FormatError, match="non-numeric"):
            read_run(str(path))

    @settings(deadline=None)
    @given(st.dictionaries(TOKENS, st.dictionaries(TOKENS, FINITE, min_size=1), min_size=1),
           TOKENS)
    def test_read_run_inverts_write_run(self, scores, tag):
        run = Run.from_scores(scores, tag=tag)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.trec")
            write_run(run, path)
            assert read_run(path) == run

    def test_random_round_trips(self, tmp_path):
        rng = random.Random(42)
        for trial in range(25):
            entries = {}
            for q in range(rng.randint(1, 4)):
                docs = rng.sample(range(100), rng.randint(1, 12))
                entries[f"q{q}"] = [(f"d{d}", rng.uniform(-50, 50)) for d in docs]
            run = Run(entries, tag=f"t{trial}")
            path = tmp_path / f"run{trial}.trec"
            write_run(run, str(path))
            assert read_run(str(path)).entries == run.entries


def test_qrelset_rejects_negative_grade():
    with pytest.raises(FormatError):
        QrelSet({"q1": {"d1": -2}})
