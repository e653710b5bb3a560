"""README's library example runs as written, on a tiny BEIR dataset."""

import json
import re
from pathlib import Path

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
