"""Seeded synthetic BEIR-layout dataset: corpus.jsonl, queries.jsonl and
qrels/test.tsv.

Documents mix a Zipf-distributed background vocabulary with the words of
one topic. Each query is drawn from the content words of one target
document (grade 2). Other documents of the same topic that share at least
two query words are graded 1, and a few same-topic documents that share
none are judged 0. So the grades are mixed and lexical retrieval finds
some but not all of the relevant documents: nDCG@10 sits in a mid range.

The same (seed, sizes) always give byte-identical files.

Usage: python3 bench/datagen.py --seed 7 --docs 2000 --queries 40 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random

ZIPF_EXPONENT = 1.0
VOCAB_PER_DOC = 4          # vocabulary size = 4 x documents, at least 8000
DOC_LEN_MEAN = 150
DOC_LEN_SD = 35
DOCS_PER_TOPIC = 40
TOPIC_WORDS = 40
TOPIC_SHARE = 0.2          # share of a document's tokens drawn from its topic
CONTENT_RANK = 300         # words below this Zipf rank are too common for queries
QUERY_TERMS = (2, 4)       # words of the target's topic per query
RARE_TERMS = (0, 1)        # plus words only the target is likely to have
COMMON_TERMS = (1, 2)      # plus frequent words, so postings lists are long
MAX_GRADE1 = 8
JUDGED_ZERO = 3

_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fr gr pl st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def generate(seed: int, n_docs: int, n_queries: int) -> tuple[list[dict], list[dict], list[tuple[str, str, int]]]:
    """Return (corpus rows, query rows, qrels triples) for the seed."""
    if n_queries > n_docs:
        raise ValueError("need at least one document per query")
    rng = random.Random(seed)
    vocab = _vocabulary(rng, max(8000, VOCAB_PER_DOC * n_docs))
    cum_weights = list(itertools.accumulate(1.0 / r ** ZIPF_EXPONENT
                                            for r in range(1, len(vocab) + 1)))
    content = vocab[CONTENT_RANK:]
    n_topics = max(1, n_docs // DOCS_PER_TOPIC)
    topics = [rng.sample(content, TOPIC_WORDS) for _ in range(n_topics)]

    corpus: list[dict] = []
    doc_tokens: list[list[str]] = []
    doc_topic: list[int] = []
    for i in range(n_docs):
        topic = i % n_topics
        length = max(40, min(320, round(rng.gauss(DOC_LEN_MEAN, DOC_LEN_SD))))
        n_topic = sum(rng.random() < TOPIC_SHARE for _ in range(length))
        tokens = rng.choices(vocab, cum_weights=cum_weights, k=length - n_topic)
        tokens += rng.choices(topics[topic], k=n_topic)
        rng.shuffle(tokens)
        title = " ".join(tokens[:rng.randint(3, 6)]) if rng.random() < 0.8 else ""
        corpus.append({"_id": f"d{i}", "title": title, "text": " ".join(tokens)})
        doc_tokens.append(tokens)
        doc_topic.append(topic)

    by_topic: dict[int, list[int]] = {}
    for i, topic in enumerate(doc_topic):
        by_topic.setdefault(topic, []).append(i)
    common = set(vocab[:CONTENT_RANK])
    topic_sets = [set(words) for words in topics]

    queries: list[dict] = []
    qrels: list[tuple[str, str, int]] = []
    for qn, target in enumerate(sorted(rng.sample(range(n_docs), n_queries))):
        qid = f"q{qn}"
        present = sorted(set(doc_tokens[target]))
        topical = [t for t in present if t in topic_sets[doc_topic[target]]]
        rare = [t for t in present if t not in common and t not in topic_sets[doc_topic[target]]]
        frequent = [t for t in present if t in common]
        terms = rng.sample(topical, min(len(topical), rng.randint(*QUERY_TERMS)))
        terms += rng.sample(rare, min(len(rare), rng.randint(*RARE_TERMS)))
        terms += rng.sample(frequent, min(len(frequent), rng.randint(*COMMON_TERMS)))
        rng.shuffle(terms)
        queries.append({"_id": qid, "text": " ".join(terms)})
        qrels.append((qid, f"d{target}", 2))
        term_set = set(terms) - common
        siblings = [i for i in by_topic[doc_topic[target]] if i != target]
        overlap = {i: len(term_set & set(doc_tokens[i])) for i in siblings}
        partial = sorted((i for i in siblings if overlap[i] >= 2), key=lambda i: (-overlap[i], i))
        unrelated = [i for i in siblings if not term_set & set(doc_tokens[i])]
        for i in partial[:MAX_GRADE1]:
            qrels.append((qid, f"d{i}", 1))
        for i in unrelated[:JUDGED_ZERO]:
            qrels.append((qid, f"d{i}", 0))
    return corpus, queries, qrels


def write_dataset(seed: int, n_docs: int, n_queries: int, out_dir: str) -> dict[str, str]:
    """Write the BEIR files under out_dir; return their paths by role."""
    corpus, queries, qrels = generate(seed, n_docs, n_queries)
    paths = {
        "corpus": os.path.join(out_dir, "corpus.jsonl"),
        "queries": os.path.join(out_dir, "queries.jsonl"),
        "qrels": os.path.join(out_dir, "qrels", "test.tsv"),
    }
    os.makedirs(os.path.dirname(paths["qrels"]), exist_ok=True)
    for role in ("corpus", "queries"):
        rows = corpus if role == "corpus" else queries
        with open(paths[role], "w", encoding="utf-8") as f:
            f.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    with open(paths["qrels"], "w", encoding="utf-8") as f:
        f.write("query-id\tcorpus-id\tscore\n")
        f.writelines(f"{q}\t{d}\t{g}\n" for q, d, g in qrels)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for role, path in write_dataset(args.seed, args.docs, args.queries, args.out).items():
        print(f"{role}\t{path}")


if __name__ == "__main__":
    main()
