import datagen


def _read_all(paths):
    return {role: open(path, "rb").read() for role, path in paths.items()}


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = _read_all(datagen.write_dataset(5, 200, 20, str(tmp_path / "a")))
    second = _read_all(datagen.write_dataset(5, 200, 20, str(tmp_path / "b")))
    assert first == second
    other = _read_all(datagen.write_dataset(6, 200, 20, str(tmp_path / "c")))
    assert all(other[role] != first[role] for role in first)


def test_queries_come_from_their_target_and_grades_are_mixed():
    corpus, queries, qrels = datagen.generate(3, 400, 40)
    texts = {row["_id"]: set(row["text"].split()) for row in corpus}
    targets = {q: d for q, d, g in qrels if g == 2}
    assert len(targets) == len(queries) == 40
    for query in queries:
        assert set(query["text"].split()) <= texts[targets[query["_id"]]]
    assert {g for _, _, g in qrels} == {0, 1, 2}
