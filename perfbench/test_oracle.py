"""Self-checks of the benchmark's oracles, generator and tracer.

Run from the repository root: ``python3 -m pytest -q perfbench``.
Each oracle is checked on small cases worked out by hand and against an
independent naive loop on the committed fixture, so that a broken
oracle cannot vouch for a broken program.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
FIXTURE = REPO / "data" / "fixture"
sys.path.insert(0, str(REPO / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def tiny() -> oracle.Reference:
    # d0 = apple apple pear, d1 = pear fig, d2 = fig
    words = ["apple", "pear", "fig"]
    tokens = [np.array(t) for t in ([0, 0, 1], [1, 2], [2])]
    return oracle.Reference(gen.assemble(words, ["d0", "d1", "d2"], tokens, [], []))


def test_bm25_by_hand():
    ref = tiny()  # N = 3, avgdl = 2
    idf_apple = math.log(1 + 2.5 / 1.5)
    want = idf_apple * 2 * 1.9 / (2 + 0.9 * 1.2)
    assert ref.bm25("Apple?", 10) == [("d0", pytest.approx(want, rel=1e-15))]
    # repeated query tokens add one clause each; the shorter passage wins
    idf_fig = math.log(1 + 1.5 / 2.5)
    got = ref.bm25("fig fig", 10)
    assert [d for d, _ in got] == ["d2", "d1"]
    assert got[0][1] == pytest.approx(2 * idf_fig * 1.9 / (1 + 0.9 * 0.8), rel=1e-15)
    assert got[1][1] == pytest.approx(2 * idf_fig * 1.9 / (1 + 0.9 * 1.0), rel=1e-15)
    assert ref.bm25("banana", 10) == []


def test_sparse_by_hand():
    ref = tiny()
    # weights: count * ln(1 + N / df), rounded to 3 decimals
    assert ref.col.pair_weights.tolist() == [2.773, 0.916, 0.916, 0.916, 0.916]
    assert ref.sparse("apple pear", 10) == [("d0", 2.773 + 0.916), ("d1", 0.916)]
    # equal scores break ties by ascending doc id, and k cuts the list
    assert ref.sparse("fig", 1) == [("d1", 0.916)]


def test_rerank_by_hand():
    ref = tiny()
    assert ref.overlap("the apple and the pear", ["d0", "d1", "d2"]) == [1.0, 0.5, 0.0]
    assert ref.overlap("the and", ["d0"]) == [0.0]
    digest_prefix = 1178370050276247953  # first 8 bytes of the sha256, big-endian
    assert oracle.unit_hash("deberta-v3", "apple pear", "apple apple pear") == digest_prefix / 2**64
    ranking = ref.rerank(["deberta-v3"], "apple pear", ["d2", "d1", "d0"], 2)
    assert [d for d, _ in ranking] == ["d1", "d2"]  # d0 lies beyond the depth
    assert ranking[0][1] == 0.5 + 0.25 * oracle.unit_hash("deberta-v3", "apple pear", "pear fig")


def test_fusion_by_hand():
    a = [("x", 3.0), ("y", 1.0)]
    b = [("y", 2.0), ("z", 0.0)]
    # x: (1 + 0) / 2, y: (0 + 1) / 2, z: (0 + 0) / 2; ties by doc id
    assert oracle.ensemble([a, b]) == [("x", 0.5), ("y", 0.5), ("z", 0.0)]
    assert oracle.ensemble([[("x", 2.0), ("y", 2.0)]]) == [("x", 1.0), ("y", 1.0)]
    assert oracle.interleave([a, b, [("x", 9.0), ("w", 1.0)]]) == [
        ("x", 1.0), ("y", 0.5), ("w", 1 / 3), ("z", 0.25)
    ]
    assert oracle.pool([a, b], 1) == ["x", "y"]
    assert oracle.pool([a, b], 1000) == ["x", "y", "z"]


def test_trec_metrics_by_hand():
    got = oracle.trec_metrics(["b", "a", "d", "c"], {"a": 2, "b": 0, "c": 1})
    dcg = 2 / math.log2(3) + 1 / math.log2(5)
    idcg = 2 + 1 / math.log2(3)
    assert got == pytest.approx(
        {"nDCG@5": dcg / idcg, "nDCG": dcg / idcg, "MRR": 0.5, "Recall@100": 1.0, "P@20": 0.1,
         "mAP": 0.5}
    )
    assert oracle.trec_metrics(["a"], {"a": 0})["nDCG"] == 0.0


def test_read_run_resorts_ties_by_doc_id():
    text = "q Q0 b 1 1.000000 t\nq Q0 a 2 1.000000 t\nq Q0 c 3 2.000000 t\n"
    assert oracle.read_run(text) == {"q": [("c", 2.0), ("a", 1.0), ("b", 1.0)]}
    assert oracle.trec_lines("q", [("c", 2.0)], "t") == ["q Q0 c 1 2.000000 t"]


def test_cache_file_names_of_the_fixture():
    files = sorted((FIXTURE / "llm_cache").glob("*.json"))
    assert files
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == oracle.cache_file_name(record["model_id"], record["prompt"])
    assert oracle.cache_file_name("m", "p") != oracle.cache_file_name("m\x00", "p")


def _fixture_reference() -> oracle.Reference:
    lines = (FIXTURE / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    doc_ids, texts = zip(*(line.split("\t", 1) for line in lines if line))
    token_lists = [oracle.tokenize(t) for t in texts]
    words = sorted({t for toks in token_lists for t in toks})
    word_id = {w: i for i, w in enumerate(words)}
    tokens = [np.array([word_id[t] for t in toks]) for toks in token_lists]
    col = gen.assemble(words, list(doc_ids), tokens, [], [])
    col.texts = list(texts)
    weights = {}
    for line in (FIXTURE / "sparse_vectors.tsv").read_text(encoding="utf-8").splitlines():
        doc, payload = line.split("\t")
        for entry in payload.split():
            term, weight = entry.rsplit(":", 1)
            weights[(word_id[term], doc_ids.index(doc))] = float(weight)
    pairs = zip(col.pair_terms.tolist(), col.pair_docs.tolist())
    col.pair_weights = np.array([weights[p] for p in pairs])
    return oracle.Reference(col)


def _fixture_queries() -> list[str]:
    topics = json.loads((FIXTURE / "topics.json").read_text(encoding="utf-8"))
    turns = [turn for topic in topics for turn in topic["turns"]]
    return [q for turn in turns for q in (turn["utterance"], turn["manual_rewrite"])]


def test_first_stage_against_naive_loops_and_program_on_fixture():
    from convsearch.index import bm25_retrieve, build_index, build_sparse_index, load_sparse_vectors
    from convsearch.index import read_corpus, sparse_retrieve, text_to_query_vector

    ref = _fixture_reference()
    docs = [Counter(oracle.tokenize(t)) for t in ref.col.texts]
    avgdl = sum(sum(c.values()) for c in docs) / len(docs)
    vectors: dict[str, dict[str, float]] = {d: {} for d in ref.col.doc_ids}
    col = ref.col
    for t, i, w in zip(col.pair_terms.tolist(), col.pair_docs.tolist(), col.pair_weights.tolist()):
        vectors[col.doc_ids[i]][col.words[t]] = w
    bm25_index = build_index(read_corpus(FIXTURE / "corpus.tsv"))
    sparse_index = build_sparse_index(load_sparse_vectors(FIXTURE / "sparse_vectors.tsv"))
    for query in _fixture_queries():
        tokens = oracle.tokenize(query)
        naive_bm25, naive_dot = {}, {}
        for doc_id, counts in zip(ref.col.doc_ids, docs):
            score = 0.0
            for token in tokens:
                df = sum(1 for c in docs if token in c)
                if token in counts:
                    idf = math.log(1.0 + (len(docs) - df + 0.5) / (df + 0.5))
                    tf = float(counts[token])
                    norm = 0.6 + 0.4 * (sum(counts.values()) / avgdl)
                    score += idf * (tf * 1.9) / (tf + 0.9 * norm)
            if score > 0:
                naive_bm25[doc_id] = score
            dot = sum(w * vectors[doc_id].get(t, 0.0) for t, w in Counter(tokens).items())
            if dot > 0:
                naive_dot[doc_id] = dot
        for got, naive in ((ref.bm25(query, 1000), naive_bm25), (ref.sparse(query, 1000), naive_dot)):
            want = oracle.ordered(naive)
            assert [d for d, _ in got] == [d for d, _ in want]
            assert [s for _, s in got] == pytest.approx([s for _, s in want], rel=1e-12)
        assert ref.bm25(query, 1000) == list(bm25_retrieve(bm25_index, query, 1000).items)
        vector = text_to_query_vector(query)
        assert ref.sparse(query, 1000) == list(sparse_retrieve(sparse_index, vector, 1000).items)


def test_rerank_against_program_on_fixture():
    from convsearch.fusion import rerank, resolve_scorer
    from convsearch.index import Passage

    ref = _fixture_reference()
    passages = {d: Passage(d, t) for d, t in zip(ref.col.doc_ids, ref.col.texts)}
    ids = ("deberta-v2", "deberta-v3", "roberta", "albert", "electra")
    for query in _fixture_queries()[:6]:
        candidates = [d for d, _ in ref.sparse(query, 1000)]
        for scorers in (ids[:1], ids):
            resolved = [resolve_scorer(s) for s in scorers]
            got = rerank(resolved, query, candidates, 20, passages.__getitem__)
            assert list(got.items) == ref.rerank(scorers, query, candidates, 20)


def test_generator_is_a_function_of_the_seed():
    a, b, c = gen.generate(5, 300), gen.generate(5, 300), gen.generate(6, 300)
    assert a.texts == b.texts and a.topics == b.topics and a.qrels == b.qrels
    assert a.texts != c.texts
    assert len(a.topics) == 13 and sum(len(t["turns"]) for t in a.topics) == 103
    assert len(a.qrels) == 103 * gen.JUDGED_PER_TURN
    assert not set(gen.vocabulary()) & gen.STOPWORDS


def test_tracer_spans_one_fixture_turn_and_restores_the_program():
    from convsearch import fusion, pipeline
    from convsearch.llm import LLMGateway

    spec = pipeline.load_run_spec(REPO / "configs" / "mq4cs_qr_ensemble.json")
    index, topics, passages = pipeline.load_resources(spec)
    llm = LLMGateway(spec.model_id, spec.paths["cache_dir"], mode="replay")
    original = pipeline.rerank
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.execute_run(spec.config, topics[:1], index, llm, passages=passages)
    finally:
        tracer.uninstall()
    assert pipeline.rerank is original is fusion.rerank
    names = {s[2] for s in tracer.spans}
    assert {"pipeline.execute_turn", "index.retrieve", "fusion.pool", "fusion.rerank",
            "fusion.scorer", "llm.complete", "llm.cache_get", "prompts.render"} <= names
    turns = {s[0]: s[5] for s in tracer.spans if s[2] == "pipeline.execute_turn"}
    assert all(s[5] == turns[s[1]] for s in tracer.spans if s[1] in turns)
    metrics = tracing.per_layer(tracer)
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER} - set(tracing.FROM_PASSES)
    # each of the five scorers tokenizes every candidate
    assert metrics["fusion.tokenize_per_candidate"] > 4.9
    assert metrics["llm.cache_hit_ratio"] == 1.0


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
