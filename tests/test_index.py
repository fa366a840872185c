"""Index construction and retrieval, checked against full-scan oracles."""

import io
import json
import math
from collections import Counter

import numpy as np
import pytest

from convsearch.index import (
    B,
    K1,
    AnalyzerConfig,
    Passage,
    RankedList,
    SparseVector,
    bm25_retrieve,
    build_index,
    build_sparse_index,
    load_index,
    load_sparse_vectors,
    read_corpus,
    save_index,
    sparse_retrieve,
    text_to_query_vector,
)

# ---------------------------------------------------------------------------
# independent oracles: direct-definition scoring over every document
# ---------------------------------------------------------------------------


def oracle_bm25_scores(
    docs: dict[str, str], query: str, k1: float = 0.9, b: float = 0.4
) -> dict[str, float]:
    """BM25 over all docs, written straight from the formula."""
    analyzer = AnalyzerConfig()
    tokenized = {doc_id: analyzer.tokenize(text) for doc_id, text in docs.items()}
    n_docs = len(docs)
    avgdl = sum(len(t) for t in tokenized.values()) / n_docs if n_docs else 0.0
    df: dict[str, int] = {}
    for tokens in tokenized.values():
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    scores = {}
    for doc_id, tokens in tokenized.items():
        total = 0.0
        for term in analyzer.tokenize(query):
            tf = tokens.count(term)
            if tf == 0:
                continue
            idf = math.log(1 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            norm = 1 - b + b * len(tokens) / (avgdl or 1.0)
            total += idf * (tf * (k1 + 1)) / (tf + k1 * norm)
        if total > 0:
            scores[doc_id] = total
    return scores


def oracle_dot_scores(
    vectors: dict[str, dict[str, float]], query: dict[str, float]
) -> dict[str, float]:
    """Dot product against every document vector."""
    scores = {}
    for doc_id, vector in vectors.items():
        total = sum(weight * vector[term] for term, weight in query.items() if term in vector)
        if total > 0:
            scores[doc_id] = total
    return scores


def oracle_top_k(scores: dict[str, float], k: int) -> list[tuple[str, float]]:
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------


def test_build_index_empty_corpus():
    index = build_index([])
    assert index.doc_count == 0
    assert index.terms == ()
    assert index.avg_doc_length == 0.0


def test_build_index_hand_counts():
    index = build_index([Passage("d1", "apple banana"), Passage("d2", "banana")])
    assert {d for d, _ in index.posting("apple")} == {"d1"}
    assert {d for d, _ in index.posting("banana")} == {"d1", "d2"}
    assert index.avg_doc_length == 1.5
    assert index.doc_count == 2


def test_build_index_rejects_duplicate_doc_id():
    with pytest.raises(ValueError, match="d1"):
        build_index([Passage("d1", "a"), Passage("d1", "b")])


def test_build_index_empty_text_policy():
    with pytest.raises(ValueError, match="d1"):
        build_index([Passage("d1", "")])
    index = build_index([Passage("d1", "")], allow_empty_text=True)
    assert index.doc_count == 1
    assert index.doc_lengths["d1"] == 0


def test_build_index_token_accounting_matches_direct_count():
    # 1,000 random two-word docs; oracle is a direct token-counting pass
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]
    passages = [
        Passage(f"d{i:04d}", f"{vocab[rng.integers(len(vocab))]} {vocab[rng.integers(len(vocab))]}")
        for i in range(1000)
    ]
    index = build_index(passages)
    analyzer = AnalyzerConfig()
    total_tokens = sum(len(analyzer.tokenize(p.text)) for p in passages)
    distinct_pairs = sum(len(set(analyzer.tokenize(p.text))) for p in passages)
    assert sum(tf for term in index.terms for _, tf in index.posting(term)) == total_tokens
    assert sum(len(index.posting(term)) for term in index.terms) == distinct_pairs
    assert sum(index.doc_lengths.values()) == total_tokens


def test_index_invariants_hold():
    passages = [Passage(f"d{i}", "alpha beta gamma"[: 5 + i]) for i in range(5)]
    index = build_index(passages)
    for term in index.terms:
        for doc_id, _ in index.posting(term):
            assert doc_id in index.doc_lengths
    assert index.doc_count == len(index.doc_lengths)
    assert index.avg_doc_length == pytest.approx(
        sum(index.doc_lengths.values()) / index.doc_count
    )


# ---------------------------------------------------------------------------
# bm25_retrieve
# ---------------------------------------------------------------------------


def test_bm25_no_matching_term():
    index = build_index([Passage("d1", "apple")])
    assert bm25_retrieve(index, "zebra", 10).items == ()


def test_bm25_single_doc_match():
    index = build_index([Passage("d1", "apple")])
    result = bm25_retrieve(index, "apple", 10)
    assert result.doc_ids() == ["d1"]
    assert result.items[0][1] > 0


def test_bm25_three_doc_fixture_frozen_scores():
    # frozen from the standalone formula evaluation (k1=0.9, b=0.4)
    docs = {"d1": "a a b", "d2": "a c", "d3": "c c"}
    index = build_index([Passage(d, t) for d, t in docs.items()])
    result = bm25_retrieve(index, "a c", 10)
    got = dict(result.items)
    expected = {
        "d1": 0.5947714813480764,
        "d2": 0.9661589287431659,
        "d3": 0.626985784249577,
    }
    assert set(got) == set(expected)
    for doc_id, score in expected.items():
        assert got[doc_id] == pytest.approx(score, abs=1e-6)
    assert oracle_top_k(oracle_bm25_scores(docs, "a c"), 10) == list(result.items)


def test_bm25_rejects_k_zero():
    index = build_index([Passage("d1", "apple")])
    with pytest.raises(ValueError):
        bm25_retrieve(index, "apple", 0)


def test_bm25_empty_query_tokens():
    index = build_index([Passage("d1", "apple")])
    assert bm25_retrieve(index, "!!! ???", 5).items == ()


def test_bm25_requires_bm25_mode():
    index = build_sparse_index({"d1": SparseVector({"a": 1.0})})
    with pytest.raises(ValueError, match="bm25"):
        bm25_retrieve(index, "a", 5)


def test_bm25_repeated_query_terms_boost():
    docs = {"d1": "a b", "d2": "a a"}
    index = build_index([Passage(d, t) for d, t in docs.items()])
    single = dict(bm25_retrieve(index, "a", 10).items)
    double = dict(bm25_retrieve(index, "a a", 10).items)
    for doc_id in single:
        assert double[doc_id] == pytest.approx(2 * single[doc_id])


# ---------------------------------------------------------------------------
# sparse_retrieve
# ---------------------------------------------------------------------------


def test_sparse_empty_query():
    index = build_sparse_index({"d1": SparseVector({"a": 1.0})})
    assert sparse_retrieve(index, SparseVector({}), 5).items == ()


def test_sparse_hand_dot_products():
    index = build_sparse_index(
        {"d1": SparseVector({"a": 1.5}), "d2": SparseVector({"a": 0.5, "b": 7.0})}
    )
    result = sparse_retrieve(index, SparseVector({"a": 2.0}), 5)
    assert list(result.items) == [("d1", 3.0), ("d2", 1.0)]


def test_sparse_rejects_k_zero():
    index = build_sparse_index({"d1": SparseVector({"a": 1.0})})
    with pytest.raises(ValueError):
        sparse_retrieve(index, SparseVector({"a": 1.0}), 0)


def naive_top_k(
    postings: dict[str, list[tuple[str, float]]], clauses, k: int
) -> list[tuple[str, float]]:
    """Dict accumulation in the documented order: clause by clause, acc + qw * weight."""
    acc: dict[str, float] = {}
    for term, query_weight in clauses:
        for doc_id, weight in postings.get(term, ()):
            acc[doc_id] = acc.get(doc_id, 0.0) + query_weight * weight
    return oracle_top_k({d: s for d, s in acc.items() if s > 0.0}, k)


def test_sparse_random_docs_match_brute_force():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(40)]
    vectors = {}
    for i in range(50):
        terms = rng.choice(len(vocab), size=rng.integers(1, 8), replace=False)
        vectors[f"d{i:02d}"] = {vocab[t]: float(rng.uniform(0.1, 5.0)) for t in terms}
    index = build_sparse_index({d: SparseVector(v) for d, v in vectors.items()})
    for _ in range(20):
        q_terms = rng.choice(len(vocab), size=rng.integers(1, 6), replace=False)
        query = {vocab[t]: float(rng.uniform(0.1, 3.0)) for t in q_terms}
        got = sparse_retrieve(index, SparseVector(query), 50)
        assert list(got.items) == oracle_top_k(oracle_dot_scores(vectors, query), 50)

    # doc ids inserted out of sorted order, exact ties (a twin with a smaller
    # id inserted after its source), and SPLADE-sized queries of 64+ terms
    wide = [f"x{i}" for i in range(300)]
    shuffled: dict[str, dict[str, float]] = {}
    for i in rng.permutation(120):
        terms = rng.choice(len(wide), size=rng.integers(1, 40), replace=False)
        shuffled[f"e{i:03d}"] = {wide[t]: float(rng.uniform(0.1, 5.0)) for t in terms}
    twins = ("ae005", "ae060", "ae119")
    for twin in twins:
        shuffled[twin] = dict(shuffled[twin[1:]])
    assert list(shuffled) != sorted(shuffled)
    index = build_sparse_index({d: SparseVector(v) for d, v in shuffled.items()})
    postings: dict[str, list[tuple[str, float]]] = {}
    for doc_id, vector in shuffled.items():
        for term, weight in vector.items():
            postings.setdefault(term, []).append((doc_id, weight))
    ties = 0
    for _ in range(20):
        q_terms = rng.choice(len(wide), size=rng.integers(64, 121), replace=False)
        query = {wide[t]: float(rng.uniform(0.1, 3.0)) for t in q_terms}
        got = sparse_retrieve(index, SparseVector(query), 1000)
        assert list(got.items) == naive_top_k(postings, query.items(), 1000)
        ties += len(set(twins) & set(got.doc_ids()))
    assert ties > 0

    # the BM25 front over the same shapes, with repeated query tokens; the
    # impacts are written from the formula in the module docstring
    texts = {}
    for i in rng.permutation(120):
        tokens = rng.integers(0, 80, size=rng.integers(1, 30))
        texts[f"e{i:03d}"] = " ".join(wide[t] for t in tokens)
    for twin in twins:
        texts[twin] = texts[twin[1:]]
    index = build_index([Passage(d, t) for d, t in texts.items()])
    tokenized = {d: AnalyzerConfig().tokenize(t) for d, t in texts.items()}
    n_docs = len(tokenized)
    avgdl = sum(len(tokens) for tokens in tokenized.values()) / n_docs
    df = Counter(term for tokens in tokenized.values() for term in set(tokens))
    impacts: dict[str, list[tuple[str, float]]] = {}
    for doc_id, tokens in tokenized.items():
        norm = 1.0 - B + B * (len(tokens) / avgdl)
        for term, count in Counter(tokens).items():
            tf = float(count)
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            impact = idf * (tf * (K1 + 1.0)) / (tf + K1 * norm)
            impacts.setdefault(term, []).append((doc_id, impact))
    for _ in range(20):
        tokens = [wide[t] for t in rng.integers(0, 90, size=rng.integers(1, 80))]
        tokens += tokens[:3]
        got = bm25_retrieve(index, " ".join(tokens), 1000)
        assert list(got.items) == naive_top_k(impacts, [(t, 1.0) for t in tokens], 1000)


# ---------------------------------------------------------------------------
# retrieval properties
# ---------------------------------------------------------------------------


def _random_corpus(rng, max_docs=200) -> dict[str, str]:
    vocab = [f"v{i}" for i in range(25)]
    n_docs = int(rng.integers(1, max_docs + 1))
    return {
        f"d{i:03d}": " ".join(
            vocab[int(t)] for t in rng.integers(0, len(vocab), size=rng.integers(1, 12))
        )
        for i in range(n_docs)
    }


def test_retrieval_determinism_bit_for_bit():
    rng = np.random.default_rng(3)
    docs = _random_corpus(rng)
    index = build_index([Passage(d, t) for d, t in docs.items()])
    first = bm25_retrieve(index, "v1 v2 v3", 20)
    second = bm25_retrieve(index, "v1 v2 v3", 20)
    assert first.items == second.items  # exact float equality


def test_retrieval_monotone_k_prefix():
    rng = np.random.default_rng(5)
    docs = _random_corpus(rng, max_docs=80)
    index = build_index([Passage(d, t) for d, t in docs.items()])
    for k in range(1, 15):
        smaller = bm25_retrieve(index, "v0 v5 v9", k).items
        larger = bm25_retrieve(index, "v0 v5 v9", k + 1).items
        assert larger[: len(smaller)] == smaller


def test_ranked_list_score_order_invariant():
    with pytest.raises(ValueError):
        RankedList("q", (("a", 1.0), ("b", 2.0)))
    with pytest.raises(ValueError):
        RankedList("q", (("b", 1.0), ("a", 1.0)))  # tie must be doc_id ascending
    with pytest.raises(ValueError):
        RankedList("q", (("a", 1.0), ("a", 0.5)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ranked_list_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="'b'"):
        RankedList.from_scores("q", {"a": 1.0, "b": bad, "c": 3.0})
    with pytest.raises(ValueError, match="'b'"):
        RankedList("q", (("b", bad),))


# ---------------------------------------------------------------------------
# sparse-vector file + corpus file
# ---------------------------------------------------------------------------


def test_load_sparse_vectors_empty_file():
    assert load_sparse_vectors(io.StringIO("")) == {}


def test_load_sparse_vectors_line_format():
    vectors = load_sparse_vectors(io.StringIO("d1\tapple:1.5 banana:0.25\n"))
    assert vectors == {"d1": SparseVector({"apple": 1.5, "banana": 0.25})}


def test_load_sparse_vectors_rejects_negative_weight():
    with pytest.raises(ValueError, match="line 2"):
        load_sparse_vectors(io.StringIO("d1\ta:1.0\nd2\tx:-1\n"))


def test_load_sparse_vectors_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        load_sparse_vectors(io.StringIO("d1\tapple=1.5\n"))
    with pytest.raises(ValueError, match="line 1"):
        load_sparse_vectors(io.StringIO("no-tab-here\n"))


def test_load_sparse_vectors_rejects_duplicate_doc():
    with pytest.raises(ValueError, match="duplicate"):
        load_sparse_vectors(io.StringIO("d1\ta:1\nd1\tb:2\n"))


def test_load_sparse_vectors_drops_zero_weights():
    vectors = load_sparse_vectors(io.StringIO("d1\ta:0 b:2.0\n"))
    assert vectors["d1"].entries == {"b": 2.0}


def test_sparse_vector_rejects_negative():
    with pytest.raises(ValueError):
        SparseVector({"a": -0.1})


def test_read_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\thello world\nd2\tsecond passage\n", encoding="utf-8")
    passages = list(read_corpus(path))
    assert passages == [Passage("d1", "hello world"), Passage("d2", "second passage")]


def test_read_corpus_rejects_missing_tab():
    with pytest.raises(ValueError, match="line 1"):
        list(read_corpus(io.StringIO("no tab line\n")))


def test_text_to_query_vector_counts():
    vector = text_to_query_vector("Apple apple banana!")
    assert vector.entries == {"apple": 2.0, "banana": 1.0}


def test_save_load_index_roundtrip(tmp_path):
    passages = [Passage("d1", "apple banana"), Passage("d2", "banana cherry")]
    index = build_index(passages)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert list(tmp_path.iterdir()) == [path]
    assert {t: loaded.posting(t) for t in loaded.terms} == {
        t: index.posting(t) for t in index.terms
    }
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.avg_doc_length == index.avg_doc_length
    assert loaded.mode == index.mode
    for built in (index, loaded):
        for arr in (built._offsets, built._docs, built._payloads, built._weights):
            assert not arr.flags.writeable
    query = "banana"
    assert bm25_retrieve(loaded, query, 5).items == bm25_retrieve(index, query, 5).items


def test_load_index_accepts_postings_in_corpus_order(tmp_path):
    # save files list postings in any doc order: this one is in corpus order
    docs = {"d2": "banana cherry banana", "d1": "apple banana", "d3": "cherry"}
    payload = {
        "mode": "bm25",
        "analyzer": AnalyzerConfig().to_dict(),
        "doc_lengths": {"d2": 3, "d1": 2, "d3": 1},
        "doc_count": 3,
        "avg_doc_length": 2.0,
        "postings": {
            "banana": [["d2", 2.0], ["d1", 1.0]],
            "cherry": [["d2", 1.0], ["d3", 1.0]],
            "apple": [["d1", 1.0]],
        },
    }
    path = tmp_path / "index.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = load_index(path)
    built = build_index([Passage(d, t) for d, t in docs.items()])
    assert loaded.doc_ids == built.doc_ids == ("d1", "d2", "d3")
    for query in ("banana", "cherry apple", "banana banana cherry"):
        assert bm25_retrieve(loaded, query, 5).items == bm25_retrieve(built, query, 5).items
