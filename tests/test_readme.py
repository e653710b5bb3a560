"""README's library example runs as written, on a tiny BEIR dataset, its
pipeline config block lists every config key with its default, and its
index.json example is what save_index writes."""

import inspect
import json
import re
from pathlib import Path

from qlmrank.cli import ANALYZER_KEYS, MISSING, config_keys, load_config, run_index
from qlmrank.corpus import Document
from qlmrank.ranking import build_index, save_index

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    docs = [("d1", "Apples", "apple pie recipe with fresh apples"),
            ("d2", "", "banana bread and banana smoothie"),
            ("d3", "Cherries", "cherry orchards bloom in spring"),
            ("d4", "", "apple orchards and cherry trees")]
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps({"_id": i, "title": t, "text": b}) + "\n" for i, t, b in docs),
        encoding="utf-8")
    (tmp_path / "queries.jsonl").write_text(
        json.dumps({"_id": "q1", "text": "apple pie"}) + "\n"
        + json.dumps({"_id": "q2", "text": "cherry orchards"}) + "\n", encoding="utf-8")
    (tmp_path / "qrels.tsv").write_text(
        "query-id\tcorpus-id\tscore\nq1\td1\t2\nq1\td4\t1\nq2\td3\t2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    match = re.fullmatch(r"nDCG@10 (\d\.\d{4})\n", printed)
    assert match and 0.0 < float(match.group(1)) <= 1.0


def test_config_block_holds_every_key_and_default(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("### One-shot pipeline", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    required = [key for key, (_, default) in config_keys().items()
                if default is MISSING]
    assert set(list(block)[:6]) == set(required)  # "the first six are required"
    # a config of the required keys alone loads with every other key at its default
    monkeypatch.chdir(tmp_path)
    for name in ("corpus", "queries", "qrels"):
        Path(block[name]).write_text("", encoding="utf-8")
    Path("config.json").write_text(json.dumps({k: block[k] for k in required}), encoding="utf-8")
    config = load_config("config.json")
    loaded = dict(vars(config))
    # a section's fields, in order, are its __match_args__
    loaded.update(bm25={name: getattr(config.bm25, name) for name in config.bm25.__match_args__},
                  dirichlet={name: getattr(config.dirichlet, name)
                             for name in config.dirichlet.__match_args__},
                  # an absent analyzer key takes run_index's default
                  analyzer={name: inspect.signature(run_index).parameters[name].default
                            for name in ANALYZER_KEYS} | config.analyzer)
    assert loaded == block


def test_index_example_is_what_save_index_writes(tmp_path):
    paragraph = " ".join(README.read_text(encoding="utf-8").split(
        "`index.json` is canonical JSON", 1)[1].split("\n\n", 1)[0].split())
    path = tmp_path / "index.json"
    save_index(build_index([Document("d1", "", "apple apple pear"),
                            Document("d2", "", "pear fig")]), str(path))
    written = json.loads(path.read_text(encoding="utf-8"))
    shown = json.loads(re.search(r"`(\{.*?\})`", paragraph).group(1).replace("{...}", "null"))
    assert shown == {**written, "analyzer": None}
