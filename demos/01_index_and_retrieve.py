"""Walkthrough: build the two index modes and retrieve from each.

The fixture corpus is 50 short passages spanning two conversation topics
(trail running and home espresso) plus a handful of distractors.  We build
a BM25 index straight from the text, a sparse index from the shipped
precomputed term-weight vectors, and compare what each mode returns.

Run from the repository root:  python3 demos/01_index_and_retrieve.py
"""

from pathlib import Path

from convsearch import (
    bm25_retrieve,
    build_index,
    build_sparse_index,
    load_sparse_vectors,
    read_corpus,
    sparse_retrieve,
    text_to_query_vector,
)

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixture"


def show(title, ranked, passages, n=5):
    print(f"\n{title}")
    for rank, (doc_id, score) in enumerate(ranked.items[:n], start=1):
        print(f"  {rank}. {doc_id}  {score:8.4f}  {passages[doc_id].text[:60]}")


def main():
    passages = {p.doc_id: p for p in read_corpus(FIXTURE / "corpus.tsv")}
    print(f"corpus: {len(passages)} passages")

    # --- BM25 mode: postings hold BM25 impacts, computed once from -------
    # each term frequency and document length when the index is built
    bm25_index = build_index(passages.values())
    print(f"bm25 index: {bm25_index.doc_count} docs, {len(bm25_index.terms)} terms")
    print(f"documents holding 'espresso': {bm25_index.document_frequency('espresso')}")

    query = "trail running shoes for a marathon"
    show(f"BM25 top-5 for: {query!r}", bm25_retrieve(bm25_index, query, 10), passages)

    # --- sparse mode: postings hold precomputed term weights -------------
    vectors = load_sparse_vectors(FIXTURE / "sparse_vectors.tsv")
    sparse_index = build_sparse_index(vectors)
    print(f"\nsparse index: {sparse_index.doc_count} docs, {len(sparse_index.terms)} terms")

    # query side: the default encoder turns text into term counts; the dot
    # product against the stored document weights does the ranking
    query_vector = text_to_query_vector(query, sparse_index.analyzer)
    print(f"query vector: {query_vector.entries}")
    show(f"sparse top-5 for: {query!r}", sparse_retrieve(sparse_index, query_vector, 10), passages)

    # --- determinism: same inputs, bit-identical outputs ------------------
    first = bm25_retrieve(bm25_index, query, 10)
    second = bm25_retrieve(bm25_index, query, 10)
    print(f"\nretrieval deterministic: {first.items == second.items}")


if __name__ == "__main__":
    main()
