"""Every artifact of the verb chain and of one pipeline, run on a small seeded
dataset made here, against its committed sha256 digest.

Byte-identical reruns are an invariant; this pins the bytes themselves, on
every supported Python. An index.json holds zlib streams, which another zlib
build may deflate differently: its digest is checked only under the zlib
version that wrote it. Its INFLATED digest, of the file with each packed field
replaced by its typecode or byte count and the bytes its stream inflates to,
is checked under any zlib. A change that alters an artifact on purpose
updates GOLDEN (and INFLATED) and says why.

Without pytest, for instance under another Python version:
    PYTHONPATH=src python3 -W error tests/test_golden.py
prints every artifact whose digest differs, with the digest it has, and exits
1 if there is one.
"""

import base64
import hashlib
import json
import random
import sys
import tempfile
import zlib
from pathlib import Path

from qlmrank.cli import main

ZLIB_VERSION = "1.2.13"  # the zlib that wrote the index.json digests below
GOLDEN = {
    "chain/bm25.trec": "3491db50c7021fcf284311af2382b3a1c6af90b7a9d40a77f62aa37210d71e51",
    "chain/dirichlet.trec": "b36db01e049a69064ead65b934b41b1abfb3138226b1af836771e22d1ff53fa4",
    "chain/eval.tsv": "d1cc26fd96ea785edb5956ccee685a964e6fad7f2ce77624c3dc3f4934c1e44e",
    "chain/fewshot.json": "1f3cb33d06b4935dbacc32c79cda14e2a8fbff3c752e2ca028edd4a8794df58f",
    "chain/fewshot.trec": "739e865f7b3e97660a271f03fc244a44e5f12d0abb9508a3a1ca694a55b56422",
    "chain/fused.trec": "ae33b976a453a2b8ab8623d5af2206d7fc2a91ad38b86cd7c43013460da0fdfd",
    "chain/index.json": "14b22febc8016f987f86513ec1f7a7ba2c26f871713df3bdb0d182d2dc5a8f6a",
    "chain/sig.txt": "f368f9ed545812d8a170ac8013bc1619409f9590a5098604ce0f9cf5db94874f",
    "chain/sweep.tsv": "cbd7eaac91d1c47a7b3f75e6832616fa4fc4d52bafaca69a515b47a684cc7b77",
    "chain/zeroshot.json": "1f3cb33d06b4935dbacc32c79cda14e2a8fbff3c752e2ca028edd4a8794df58f",
    "chain/zeroshot.trec": "739e865f7b3e97660a271f03fc244a44e5f12d0abb9508a3a1ca694a55b56422",
    "pipeline/eval.tsv": "f6a658dd90b589fc92d3b50caf01ea023ec8b1602b5241563b88a955a10f5835",
    "pipeline/first_stage.trec": "ad216c658effd869734fc74bc447fcf65e7d01b40b16c5dcd2a1dc4ca298d871",
    "pipeline/fused.trec": "c8887b922c62ed8e2aed31ebb99bcc1b526b5781337670687ff5f354567023c0",
    "pipeline/hybrid.trec": "44fdaa95c33651d872783f1c18c3538884f489a091818e505224b8fca6beda92",
    "pipeline/index.json": "14b22febc8016f987f86513ec1f7a7ba2c26f871713df3bdb0d182d2dc5a8f6a",
    "pipeline/provider_stats.json": "b7956378e2942dc81d528cee9164bb0408a66c1a922dbece549b452836039451",
    "pipeline/reranked.trec": "2958a93f6e672b9a40dada9b6d6a8f917d5922eb445f34ebefefc56748f3a249",
    "pipeline/significance.txt": "b6f257c746b8acde0d172ecc0b91c6f39758a428512e6ba271011d47663c22d9",
}
INFLATED = {
    "chain/index.json": "89ffb32c408f0b2b841dc789b9bbe2fee7f7133be28d8be89f8a5773908de91d",
    "pipeline/index.json": "89ffb32c408f0b2b841dc789b9bbe2fee7f7133be28d8be89f8a5773908de91d",
}
# index.json's zlib-packed fields: the arrays, a typecode and then base64, and the
# word lists, a byte count and a colon and then base64
PACKED = ("doc_ids", "doc_len", "df", "positions", "terms", "tfs")


def inflated_digest(path: Path) -> str:
    """sha256 of index.json's text with each packed field's string replaced by its
    typecode or byte count and colon, and the hex of the bytes its zlib stream
    inflates to."""
    text = path.read_text(encoding="utf-8")
    index = json.loads(text)
    for field in PACKED:
        value = index[field]
        head = value[:value.index(":") + 1] if ":" in value else value[:1]
        inflated = zlib.decompress(base64.b64decode(value[len(head):])).hex()
        text = text.replace(json.dumps(value), json.dumps(head + inflated))
    return hashlib.sha256(text.encode()).hexdigest()


def write_dataset(root: Path) -> None:
    """corpus.jsonl, queries.jsonl and qrels.tsv under root, the same bytes on every
    Python: 150 documents on 5 topics of 12 words over 30 common ones, and 12
    queries, each drawn from one document, which is judged 2; the documents that
    share two of its words are judged 1, and one that shares none 0."""
    rng = random.Random(2024)
    vocab = [a + b for a in ("ka", "lo", "mi", "nu", "pe", "ro", "su", "ta", "vi")
             for b in "bdgkmnprst"]
    common, topics = vocab[:30], [vocab[30 + 12 * t:42 + 12 * t] for t in range(5)]
    docs = [rng.choices(common, k=rng.randrange(3, 30)) + rng.choices(topics[i % 5], k=8)
            for i in range(150)]
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as f:
        for i, words in enumerate(docs):
            title = " ".join(rng.choices(topics[i % 5], k=2)) if i % 2 else ""
            f.write(json.dumps({"_id": f"d{i:03d}", "title": title, "text": " ".join(words)})
                    + "\n")
    with open(root / "queries.jsonl", "w", encoding="utf-8") as f, \
         open(root / "qrels.tsv", "w", encoding="utf-8") as qrels:
        for q in range(12):
            target = 13 * q + 5
            words = set(rng.choices(docs[target], k=3))
            f.write(json.dumps({"_id": f"q{q:02d}", "text": " ".join(sorted(words))}) + "\n")
            shared = [len(words & set(doc)) for doc in docs]
            grades = {target: 2, shared.index(0): 0}
            grades.update((d, 1) for d in range(150) if d not in grades and shared[d] >= 2)
            qrels.writelines(f"q{q:02d}\td{d:03d}\t{g}\n" for d, g in sorted(grades.items()))


def make_artifacts(root: Path) -> list[Path]:
    """Write the dataset and every artifact under root; return the artifacts."""
    write_dataset(root)
    data = {name: str(root / name) for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv")}
    chain, pipeline = root / "chain", root / "pipeline"
    chain.mkdir()

    def out(name: str) -> str:
        return str(chain / name)

    rerank = ["rerank", "--run", out("bm25.trec"), "--corpus", data["corpus.jsonl"],
              "--queries", data["queries.jsonl"], "--dataset", "trecc", "--depth", "30"]
    qrels = ["--qrels", data["qrels.tsv"]]
    for argv in (
        ["index", "--corpus", data["corpus.jsonl"], "--out", out("index.json")],
        ["search", "--index", out("index.json"), "--queries", data["queries.jsonl"],
         "--k", "40", "--out", out("bm25.trec")],
        ["search", "--index", out("index.json"), "--queries", data["queries.jsonl"],
         "--ranker", "dirichlet", "--k", "40", "--out", out("dirichlet.trec")],
        ["fuse", "--run-a", out("bm25.trec"), "--run-b", out("dirichlet.trec"),
         "--alpha", "0.3", "--out", out("fused.trec")],
        [*rerank, "--model-family", "llama", "--out", out("zeroshot.trec"),
         "--stats-out", out("zeroshot.json")],
        [*rerank, "--model-family", "t5", "--fewshot", "--out", out("fewshot.trec"),
         "--stats-out", out("fewshot.json")],
        ["eval", "--run", out("zeroshot.trec"), *qrels, "--out", out("eval.tsv")],
        ["sigtest", out("bm25.trec"), out("dirichlet.trec"), out("zeroshot.trec"),
         out("fewshot.trec"), *qrels, "--out", out("sig.txt")],
        ["sweep", "--run-a", out("bm25.trec"), "--run-b", out("fewshot.trec"), *qrels,
         "--out", out("sweep.tsv")],
    ):
        assert main(argv) == 0, argv
    with open(root / "config.json", "w", encoding="utf-8") as f:
        json.dump({"corpus": data["corpus.jsonl"], "queries": data["queries.jsonl"],
                   "qrels": data["qrels.tsv"], "output_dir": str(pipeline),
                   "first_stage": "dirichlet", "external_run": out("bm25.trec"),
                   "hybrid_alpha": 0.4, "model_family": "t5", "dataset": "trecc",
                   "depth": 20, "rerank_alpha": 0.3}, f)
    assert main(["pipeline", "--config", str(root / "config.json")]) == 0
    return sorted([*chain.iterdir(), *pipeline.iterdir()])


def mismatches(root: Path) -> list[str]:
    """'name digest' for every artifact under root whose digest is not GOLDEN's,
    and for every GOLDEN name that no artifact has."""
    found = {path.relative_to(root).as_posix(): path for path in make_artifacts(root)}
    bad = [f"{name} missing" for name in GOLDEN if name not in found]
    for name, path in found.items():
        if name in INFLATED and (digest := inflated_digest(path)) != INFLATED[name]:
            bad.append(f"{name} inflated {digest}")
        if name in INFLATED and zlib.ZLIB_RUNTIME_VERSION != ZLIB_VERSION:
            continue
        if (digest := hashlib.sha256(path.read_bytes()).hexdigest()) != GOLDEN.get(name):
            bad.append(f"{name} {digest}")
    return bad


def test_every_artifact_has_its_committed_digest(tmp_path):
    assert mismatches(tmp_path) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        bad = mismatches(Path(tmp))
    print("\n".join(bad) if bad else f"all {len(GOLDEN)} artifacts have their digests",
          file=sys.stderr)
    sys.exit(1 if bad else 0)
