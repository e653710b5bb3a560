import gc
import os
import random
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qlmrank.corpus import (
    Document,
    FormatError,
    QrelSet,
    Run,
    _sort_ranking,
    load_corpus,
    load_qrels,
    load_queries,
    read_run,
    write_run,
)
from qlmrank.fusion import interpolate

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

    def test_integer_id_keeps_its_decimal_text(self, write_jsonl):
        path = write_jsonl("corpus.jsonl", [{"_id": 7, "title": None, "text": "x"},
                                            {"_id": -0, "text": "y"}])
        assert load_corpus(path) == [Document("7", "", "x"), Document("0", "", "y")]

    def test_duplicate_id_rejected(self, write_jsonl):
        path = write_jsonl("corpus.jsonl", [
            {"_id": "d1", "text": "x"},
            {"_id": "d1", "text": "y"},
        ])
        with pytest.raises(FormatError, match="duplicate"):
            load_corpus(path)

    @pytest.mark.parametrize("row, message", [
        ({"_id": "", "text": "x"}, "id '' must be one word without whitespace"),
        ({"_id": "d1", "title": 7, "text": "x"}, "title and body must be strings"),
        ({"_id": "d1", "text": ["x"]}, "title and body must be strings"),
    ], ids=["empty-id", "title-not-string", "body-not-string"])
    def test_bad_field_names_its_line(self, write_jsonl, row, message):
        path = write_jsonl("corpus.jsonl", [{"_id": "d0", "text": "ok"}, row])
        with pytest.raises(FormatError, match=f":2: malformed corpus line .*{message}"):
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

    def test_empty_id_rejected(self, write_jsonl):
        path = write_jsonl("queries.jsonl", [{"_id": "", "text": "what is x"}])
        with pytest.raises(FormatError, match=":1: malformed query line "
                                              ".*id '' must be one word without whitespace"):
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

    def test_query_ids_in_file_order(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q2\td1\t1\nq10\td1\t0\nq2\td2\t2\nq1\td3\t1\n", encoding="utf-8")
        assert load_qrels(str(path)).query_ids() == ["q2", "q10", "q1"]

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t-1\n", encoding="utf-8")
        message = f"{path}:1: qrels (q1, d1): grade must be in [0, 1023], got -1"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_qrels(str(path))

    @pytest.mark.parametrize("grade", [1024, 1100, 10 ** 23])
    def test_grade_above_1023_rejected(self, tmp_path, grade):
        # nDCG's gain 2 ** grade - 1 is a finite float only up to grade 1023
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q1\td1\t1023\nq1\td2\t{grade}\n", encoding="utf-8")
        message = f"qrels (q1, d2): grade must be in [0, 1023], got {grade}"
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_qrels(str(path))
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            QrelSet({"q1": {"d1": 1023, "d2": grade}})

    @pytest.mark.parametrize("line, message", [
        ("q1 \td1\t2\n", "query id 'q1 ' must be one word without whitespace"),
        ("q1\t d1\t2\n", "doc id ' d1' must be one word without whitespace"),
        ("\td1\t2\n", "query id '' must be one word without whitespace"),
        ("q1\td 1\t2\n", "doc id 'd 1' must be one word without whitespace"),
    ], ids=["query-trailing-space", "doc-leading-space", "query-empty", "doc-inner-space"])
    def test_id_a_run_cannot_hold_rejected(self, tmp_path, line, message):
        # a run file's columns split on whitespace, so no run could match the judgment
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td0\t1\n" + line, encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_qrels(str(path))
        qid, did, _ = line.rstrip("\n").split("\t")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            QrelSet({qid: {did: 2}})

    def test_repeated_pair_with_a_bad_grade_fails_without_a_warning(self, tmp_path, caplog):
        # the CLI prints one line for a data error: the duplicate's warning would add one
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq1\td1\t1024\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2: qrels"):
            load_qrels(str(path))
        assert caplog.records == []

    @pytest.mark.parametrize("line", ["q1\td1\n", "q1\td1\t1\textra\n", "q1 d1 1\n"],
                             ids=["two", "four", "space-separated"])
    def test_wrong_column_count_rejected(self, tmp_path, line):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td0\t1\n" + line, encoding="utf-8")
        with pytest.raises(FormatError, match=":2: expected 3 tab-separated columns"):
            load_qrels(str(path))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("query-id\tcorpus-id\tscore\nq1\td1\t1\n", encoding="utf-8")
        qrels = load_qrels(str(path))
        assert len(qrels) == 1

    @pytest.mark.parametrize("grade", ["1.5", "1e3", "-0.5", "nan"])
    def test_first_line_with_a_numeric_grade_is_no_header(self, tmp_path, grade):
        # only a grade column that is not a number at all marks line 1 as a header
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q1\td1\t{grade}\nq1\td2\t1\n", encoding="utf-8")
        message = f"{path}:1: non-integer grade {grade!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_qrels(str(path))

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

    @pytest.mark.parametrize("entries, message", [
        ({"q 1": [("d1", 1.0)]}, "query id 'q 1' must be one word without whitespace"),
        ({"q1": [("a b", 1.0)]}, "doc id 'a b' must be one word without whitespace"),
        ({"q1": [("", 1.0)]}, "doc id '' must be one word without whitespace"),
        ({"q1": [("d1", 2.0)], "q2": [("d1", 2.0), ("d\n2", 1.0)]},
         "doc id 'd\\n2' must be one word without whitespace"),
    ], ids=["query-space", "doc-space", "doc-empty", "second-query-newline"])
    def test_id_that_is_not_one_word_is_not_written(self, tmp_path, entries, message):
        # read_run splits a line on whitespace, so such an id adds or drops a column
        path = tmp_path / "run.trec"
        path.write_text("q0 Q0 d0 1 1.0 old\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            write_run(Run(entries), str(path))
        assert path.read_text(encoding="utf-8") == "q0 Q0 d0 1 1.0 old\n"
        assert os.listdir(tmp_path) == ["run.trec"]

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
    @given(st.dictionaries(TOKENS, st.dictionaries(TOKENS, FINITE)).filter(
               lambda scores: any(scores.values())), TOKENS)
    def test_read_run_inverts_write_run(self, scores, tag):
        # a run handed from stage to stage in memory equals the file written of it, in
        # query order too, even where a query has an empty ranking: the file cannot hold it
        run = Run({qid: list(docs.items()) for qid, docs in scores.items()}, tag=tag)
        assert list(run.entries) == [qid for qid, docs in scores.items() if docs]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.trec")
            write_run(run, path)
            read = read_run(path)
        assert read == run and list(read.entries) == list(run.entries)

    def test_empty_run_is_an_empty_file_that_reads_back_untagged(self, tmp_path):
        # the tag lives only in a run's lines, so a run without one loses it; fused with
        # another empty run, as the pipeline re-ranks an empty run, it writes no line either
        path, fused = str(tmp_path / "run.trec"), str(tmp_path / "fused.trec")
        empty = Run({"q1": []}, tag="bm25")
        write_run(empty, path)
        assert (tmp_path / "run.trec").read_bytes() == b""
        read = read_run(path)
        assert read == Run({}, tag="run") != empty
        for run in (empty, read):
            fusion = interpolate(run, Run({}, tag="qlm"), 0.2)
            write_run(fusion, fused)
            assert (tmp_path / "fused.trec").read_bytes() == b""

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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d1", "d10", "d2", "\u00e9"]),
                          st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e308])),
                max_size=12) | st.lists(st.tuples(TOKENS, FINITE)))
def test_sort_ranking_matches_the_negated_score_key(pairs):
    # the rule as one key: score descending, then doc id ascending; 0.0 and -0.0
    # tie, so their order is compared by repr, which tells them apart
    assert repr(_sort_ranking(pairs)) == repr(sorted(pairs, key=lambda p: (-p[1], p[0])))


def test_qrelset_rejects_negative_grade():
    with pytest.raises(FormatError):
        QrelSet({"q1": {"d1": -2}})
