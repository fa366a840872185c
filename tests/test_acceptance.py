"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Full-scale benchmark results are out of reach at desk scale (they
need the full collection, a live model, and withheld judgments), so
acceptance is property- and oracle-based.
"""

import functools
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from convsearch.evaluation import (
    Qrels,
    average_precision,
    evaluate_run,
    ndcg_at_k,
    parse_qrels,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from convsearch.fusion import ensemble_fuse, interleave, pool_candidates
from convsearch.index import (
    AnalyzerConfig,
    Passage,
    RankedList,
    SparseVector,
    bm25_retrieve,
    build_index,
    build_sparse_index,
    sparse_retrieve,
)
from convsearch.pipeline import execute_spec, load_run_spec
from convsearch.prompts import TEMPLATES, render_prompt

from conftest import CONFIG_DIR, FIXTURE_DIR, TESTS_FIXTURE_DIR


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. metric oracle suite
# ---------------------------------------------------------------------------


def _brute_ndcg(doc_ids, rels, k):
    gains = [rels.get(d, 0) for d in doc_ids][: k if k else None]
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains))
    ideal = sorted(rels.values(), reverse=True)[: k if k else None]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def _brute_rr(doc_ids, rels):
    for i, d in enumerate(doc_ids):
        if rels.get(d, 0) >= 1:
            return 1.0 / (i + 1)
    return 0.0


def _brute_p(doc_ids, rels, k):
    return sum(1 for d in doc_ids[:k] if rels.get(d, 0) >= 1) / k


def _brute_r(doc_ids, rels, k):
    total = sum(1 for r in rels.values() if r >= 1)
    if total == 0:
        return 0.0
    return sum(1 for d in doc_ids[:k] if rels.get(d, 0) >= 1) / total


def _brute_ap(doc_ids, rels):
    total = sum(1 for r in rels.values() if r >= 1)
    if total == 0:
        return 0.0
    hits, acc = 0, 0.0
    for i, d in enumerate(doc_ids):
        if rels.get(d, 0) >= 1:
            hits += 1
            acc += hits / (i + 1)
    return acc / total


@criterion(1, "metric oracle suite")
def test_criterion_1_metric_oracles():
    started = time.monotonic()

    # hand-computed anchors
    anchor_ranking = RankedList({"C": 3.0, "A": 2.0, "B": 1.0})
    anchor_judged = Qrels({("q", "A"): 2, ("q", "B"): 1}).for_query("q")
    assert ndcg_at_k(anchor_ranking, anchor_judged, 3) == pytest.approx(0.66968, abs=1e-5)
    ap_ranking = RankedList({"A": 3.0, "X": 2.0, "B": 1.0})
    ap_judged = Qrels({("q", "A"): 1, ("q", "B"): 1}).for_query("q")
    assert average_precision(ap_ranking, ap_judged) == pytest.approx(0.83333, abs=1e-5)

    rng = np.random.default_rng(101)
    for _ in range(1000):
        n_docs = int(rng.integers(1, 51))
        order = rng.permutation(n_docs)
        doc_ids = [f"d{int(i):02d}" for i in order]
        n_judged = int(rng.integers(0, 11))
        judged_ids = rng.choice(60, size=n_judged, replace=False)
        rels = {f"d{int(i):02d}": int(rng.integers(0, 4)) for i in judged_ids}
        ranking = RankedList({d: float(n_docs - i) for i, d in enumerate(doc_ids)})
        judged = Qrels({("q", d): r for d, r in rels.items()}).for_query("q")
        k = int(rng.integers(1, 15))
        assert abs(ndcg_at_k(ranking, judged, k) - _brute_ndcg(doc_ids, rels, k)) <= 1e-9
        assert abs(reciprocal_rank(ranking, judged) - _brute_rr(doc_ids, rels)) <= 1e-9
        assert abs(precision_at_k(ranking, judged, k) - _brute_p(doc_ids, rels, k)) <= 1e-9
        assert abs(recall_at_k(ranking, judged, k) - _brute_r(doc_ids, rels, k)) <= 1e-9
        assert abs(average_precision(ranking, judged) - _brute_ap(doc_ids, rels)) <= 1e-9

    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 2. retrieval oracle suite
# ---------------------------------------------------------------------------


def _oracle_bm25(docs, query, k1=0.9, b=0.4):
    analyzer = AnalyzerConfig()
    tokenized = {d: analyzer.tokenize(t) for d, t in docs.items()}
    n_docs = len(docs)
    avgdl = sum(len(t) for t in tokenized.values()) / n_docs
    df = {}
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
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def _oracle_dot(vectors, query):
    scores = {}
    for doc_id, vec in vectors.items():
        total = sum(w * vec[t] for t, w in query.items() if t in vec)
        if total > 0:
            scores[doc_id] = total
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


@criterion(2, "retrieval oracle suite")
def test_criterion_2_retrieval_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(211)
    vocab = [f"w{i}" for i in range(30)]

    for case in range(200):  # 200 random corpora per retrieval mode
        n_docs = int(rng.integers(1, 201))
        docs = {
            f"d{i:03d}": " ".join(
                vocab[int(t)] for t in rng.integers(0, len(vocab), size=rng.integers(1, 15))
            )
            for i in range(n_docs)
        }
        index = build_index([Passage(d, t) for d, t in docs.items()])
        query = " ".join(vocab[int(t)] for t in rng.integers(0, len(vocab), size=4))
        k = int(rng.integers(1, n_docs + 1))
        got = bm25_retrieve(index, query, k).items
        expected = _oracle_bm25(docs, query)[:k]
        assert [d for d, _ in got] == [d for d, _ in expected]
        assert all(abs(g - e) <= 1e-6 for (_, g), (_, e) in zip(got, expected))

    for case in range(200):
        n_docs = int(rng.integers(1, 201))
        vectors = {}
        for i in range(n_docs):
            terms = rng.choice(len(vocab), size=int(rng.integers(1, 10)), replace=False)
            vectors[f"d{i:03d}"] = {vocab[int(t)]: float(rng.uniform(0.05, 4.0)) for t in terms}
        index = build_sparse_index({d: SparseVector(v) for d, v in vectors.items()})
        q_terms = rng.choice(len(vocab), size=int(rng.integers(1, 6)), replace=False)
        query = {vocab[int(t)]: float(rng.uniform(0.05, 3.0)) for t in q_terms}
        k = int(rng.integers(1, n_docs + 1))
        got = sparse_retrieve(index, SparseVector(query), k).items
        expected = _oracle_dot(vectors, query)[:k]
        assert [d for d, _ in got] == [d for d, _ in expected]
        assert all(abs(g - e) <= 1e-6 for (_, g), (_, e) in zip(got, expected))

    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 3. fusion properties
# ---------------------------------------------------------------------------


@criterion(3, "fusion properties")
def test_criterion_3_fusion_properties():
    started = time.monotonic()
    rng = np.random.default_rng(311)

    # (a) min-max preserves ordering
    for _ in range(500):
        n = int(rng.integers(1, 40))
        ranked = RankedList({f"d{i:02d}": float(rng.normal()) for i in range(n)})
        assert ensemble_fuse([ranked]).doc_ids() == ranked.doc_ids()

    # (b) ensemble ranking invariant under positive affine transform of one scorer
    for _ in range(500):
        n_docs = int(rng.integers(2, 25))
        n_lists = int(rng.integers(2, 6))
        doc_ids = [f"d{i:02d}" for i in range(n_docs)]
        raw = [{d: float(rng.normal()) for d in doc_ids} for _ in range(n_lists)]
        lists = [RankedList(s) for s in raw]
        baseline = ensemble_fuse(lists).doc_ids()
        target = int(rng.integers(n_lists))
        a = float(rng.uniform(0.05, 20.0))
        b = float(rng.normal(0, 10.0))
        transformed = [dict(s) for s in raw]
        transformed[target] = {d: a * s + b for d, s in transformed[target].items()}
        shifted = ensemble_fuse([RankedList(s) for s in transformed])
        assert shifted.doc_ids() == baseline

    # (c) fusing k identical lists reproduces the list ordering
    for _ in range(500):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, 6))
        ranked = RankedList({f"d{i:02d}": float(rng.normal()) for i in range(n)})
        fused = ensemble_fuse([ranked] * k)
        assert fused.doc_ids() == ranked.doc_ids()

    # (d) interleave: within-list order on disjoint lists + the worked example
    for _ in range(500):
        universe = list(rng.permutation(80))
        lists = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 12))
            chosen, universe = universe[:n], universe[n:]
            lists.append(
                RankedList({f"d{int(c):02d}": float(n - j) for j, c in enumerate(chosen)})
            )
        merged = interleave(lists).doc_ids()
        position = {d: i for i, d in enumerate(merged)}
        for ranked in lists:
            ids = ranked.doc_ids()
            assert all(position[x] < position[y] for x, y in zip(ids, ids[1:]))
    worked = interleave(
        [
            RankedList({"A": 3.0, "B": 2.0, "C": 1.0}),
            RankedList({"B": 2.0, "D": 1.0}),
        ]
    )
    assert worked.doc_ids() == ["A", "B", "C", "D"]

    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 4. pooled-candidate recall dominance
# ---------------------------------------------------------------------------


@criterion(4, "pooled recall dominance")
def test_criterion_4_recall_dominance():
    rng = np.random.default_rng(411)
    vocab = [f"w{i}" for i in range(25)]
    improvements = []
    for _ in range(200):
        n_docs = int(rng.integers(5, 120))
        docs = {
            f"d{i:03d}": " ".join(
                vocab[int(t)] for t in rng.integers(0, len(vocab), size=rng.integers(2, 12))
            )
            for i in range(n_docs)
        }
        index = build_index([Passage(d, t) for d, t in docs.items()])
        rewrite = " ".join(vocab[int(t)] for t in rng.integers(0, len(vocab), size=3))
        extra = [
            " ".join(vocab[int(t)] for t in rng.integers(0, len(vocab), size=3))
            for _ in range(int(rng.integers(1, 5)))
        ]
        queries = [rewrite] + extra  # the query set includes the single rewrite
        depth = int(rng.integers(1, 30))
        lists = [bm25_retrieve(index, q, depth) for q in queries]
        pooled = set(pool_candidates(lists, depth))
        single_top = set(lists[0].doc_ids())
        relevant = {
            f"d{int(i):03d}"
            for i in rng.choice(n_docs, size=min(n_docs, int(rng.integers(1, 8))), replace=False)
        }
        pooled_recall = len(pooled & relevant) / len(relevant)
        single_recall = len(single_top & relevant) / len(relevant)
        assert single_top <= pooled  # superset property at equal depth
        assert pooled_recall >= single_recall
        improvements.append(pooled_recall - single_recall)
    # directionally, pooling should help on some fixtures, never hurt
    assert max(improvements) > 0
    assert min(improvements) >= 0


# ---------------------------------------------------------------------------
# 5. end-to-end determinism over the shipped fixture
# ---------------------------------------------------------------------------


@criterion(5, "end-to-end determinism")
def test_criterion_5_replay_determinism(tmp_path):
    config_paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(config_paths) == 6
    # sha256 of each config's .run and .responses.jsonl, frozen when recorded
    golden = json.loads((TESTS_FIXTURE_DIR / "golden_outputs.json").read_text())
    digests = {}
    for config_path in config_paths:
        # replay: the shipped config names no mode, and the run is given no transport
        assert "llm_mode" not in json.loads(config_path.read_text(encoding="utf-8"))
        spec = load_run_spec(config_path)
        outputs = []
        for attempt in range(3):
            started = time.monotonic()
            run_path, responses_path = execute_spec(
                spec,
                out_dir=tmp_path / f"{config_path.stem}_{attempt}",
                transport=None,  # so a cache miss fails loudly, with no network attempt
            )
            assert time.monotonic() - started < 60.0
            outputs.append((run_path.read_bytes(), responses_path.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] and outputs[0][1]
        for path, data in zip((run_path, responses_path), outputs[0]):
            digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == golden


# ---------------------------------------------------------------------------
# 6. prompt fidelity
# ---------------------------------------------------------------------------


@criterion(6, "prompt fidelity")
def test_criterion_6_prompt_fidelity():
    multi = TEMPLATES["multi_query"]
    rag = TEMPLATES["rag_answer"]
    classify = TEMPLATES["ptkb_classify"]

    # golden bodies, frozen verbatim
    assert multi == (
        "# Instruction: I will give you a conversation between a user and a system. "
        "Imagine you want to find the answer to the last user question by searching on Google. "
        "You should generate the search queries that you need to search on Google. "
        "Please don't generate more than {phi} queries and write each query on one line.\n"
        "# Background knowledge: {ptkb}\n"
        "# Context: {ctx}\n"
        "# User question: {user utterance}\n"
        "# Generated queries:"
    )
    assert rag == (
        "# Doc1: {doc_1}\n"
        "# Doc2: {doc_2}\n"
        "# Doc3: {doc_3}\n"
        "# Doc4: {doc_4}\n"
        "# Doc5: {doc_5}\n"
        "# I will give you a conversation between a user and a system. "
        "Also, I will give you some background information about the user. "
        "You should answer the last utterance of the user by providing a summary "
        "of the relevant parts of the given documents. "
        "Please remember that your answer shouldn't be more than 200 words.\n"
        "# Background information about the user: {ptkb}\n"
        "# Conversation: {ctx}\n"
        "# User query: {user utterance}"
    )
    assert classify == (
        "I will give you some background information about a user and a conversation "
        "between the user and a system. You should tell me which of the background "
        "information is relevant for answering the last question of the user.\n"
        "Here is the background information about the user: {ptkb}\n"
        "Please just copy the relevant background information to the last user utterance."
    )

    rendered = render_prompt(
        TEMPLATES["multi_query"], {"phi": "5", "ptkb": "", "ctx": "", "user utterance": ""}
    )
    assert "don't generate more than 5 queries" in rendered
    assert "shouldn't be more than 200 words" in rag
    assert "copy the relevant background information" in classify


# ---------------------------------------------------------------------------
# 7. report shape on the fixture
# ---------------------------------------------------------------------------


@criterion(7, "report shape")
def test_criterion_7_report_shape(tmp_path):
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    run_path, _ = execute_spec(spec, out_dir=tmp_path)
    qrels = parse_qrels(FIXTURE_DIR / "qrels.txt")
    report = evaluate_run(run_path, qrels)
    assert report.metrics == ["nDCG@5", "nDCG", "MRR", "Recall@100", "P@20", "mAP"]
    assert set(report.aggregate) == set(report.metrics)
    # one slice row per turn number and per topic in the fixture
    assert sorted(report.per_depth) == [1, 2, 3]
    assert sorted(report.per_topic) == ["1", "2"]
    for values in report.per_depth.values():
        assert set(values) == set(report.metrics)
    for values in report.per_topic.values():
        assert set(values) == set(report.metrics)
