"""Run orchestration: config validation, turn execution, output formats."""

import io
import json

import pytest

from convsearch.conversation import PTKBStatement, Topic, Turn, parse_topics
from convsearch.index import Passage, RankedList, build_index, read_corpus
from convsearch.llm import CacheMissError, LLMGateway
from convsearch.offline import ScriptedTransport
from convsearch.pipeline import (
    MAX_RANKING,
    RunConfig,
    TurnExecutionError,
    TurnResult,
    execute_run,
    execute_turn,
    load_resources,
    load_run_spec,
    write_response_records,
    write_trec_run,
)

from conftest import CONFIG_DIR, TESTS_FIXTURE_DIR

# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


def test_run_config_accepts_submitted_run_shapes():
    RunConfig(
        run_tag="r1", rewriter="multi_query", retriever="sparse",
        fusion="pool_then_rerank", scorer_ids=("deberta-v3",), phi=5,
    )
    RunConfig(
        run_tag="r4", rewriter="multi_query", retriever="bm25",
        fusion="none", scorer_ids=("minilm",), phi=1,
    )
    RunConfig(
        run_tag="r6", rewriter="human_rewrite", retriever="sparse",
        fusion="none",
        scorer_ids=("deberta-v2", "deberta-v3", "roberta", "albert", "electra"),
    )


def test_run_config_pool_requires_multi_query():
    with pytest.raises(ValueError, match="multi_query"):
        RunConfig(
            run_tag="x", rewriter="single_rewrite", retriever="sparse",
            fusion="pool_then_rerank", scorer_ids=("s",),
        )


def test_run_config_pool_requires_reranker():
    with pytest.raises(ValueError, match="reranker"):
        RunConfig(
            run_tag="x", rewriter="multi_query", retriever="sparse",
            fusion="pool_then_rerank",
        )


def test_run_config_multi_query_needs_fusion():
    with pytest.raises(ValueError, match="fusion"):
        RunConfig(
            run_tag="x", rewriter="multi_query", retriever="bm25",
            fusion="none", scorer_ids=("s",), phi=5,
        )


# ---------------------------------------------------------------------------
# in-memory mini environment
# ---------------------------------------------------------------------------


def _mini_topic(n_turns=2, manual=True):
    turns = tuple(
        Turn(
            i,
            f"tell me about apples variant {i}",
            f"apples are discussed {i}",
            manual_rewrite=f"apples manual rewrite {i}" if manual else None,
        )
        for i in range(1, n_turns + 1)
    )
    return Topic(
        topic_id="t1",
        title="apples",
        ptkb=(PTKBStatement(1, "I grow apples at home."), PTKBStatement(2, "I dislike pears.")),
        turns=turns,
    )


def _mini_passages():
    texts = {
        "p1": "apples are red or green fruit",
        "p2": "apples grow on trees in orchards",
        "p3": "pears are a different fruit",
        "p4": "apple pie needs apples and pastry",
        "p5": "bicycles have two wheels",
    }
    return {d: Passage(d, t) for d, t in texts.items()}


def _mini_env(tmp_path):
    passages = _mini_passages()
    index = build_index(passages.values())
    gateway = LLMGateway("m", tmp_path / "cache", mode="record", transport=ScriptedTransport())
    return index, gateway, passages


def test_execute_turn_single_rewrite_shape(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(
        run_tag="x", rewriter="single_rewrite", retriever="bm25",
        scorer_ids=("lexical-overlap",),
    )
    result = execute_turn(config, _mini_topic(), 1, index, gateway, passages=passages)
    assert result.turn_id == "t1_1"
    assert len(result.ranking) >= 1
    assert result.provenance == tuple(result.ranking.doc_ids()[:5])
    assert len(result.ptkb_labels) == 2
    assert result.answer


def test_execute_turn_human_rewrite_requires_field(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(run_tag="x", rewriter="human_rewrite", retriever="bm25")
    with pytest.raises(TurnExecutionError, match="manual_rewrite"):
        execute_turn(config, _mini_topic(manual=False), 1, index, gateway, passages=passages)


def test_execute_turn_pool_then_rerank_uses_independent_rewrite(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(
        run_tag="x", rewriter="multi_query", retriever="bm25", phi=3,
        fusion="pool_then_rerank", scorer_ids=("lexical-overlap",),
    )
    result = execute_turn(config, _mini_topic(), 1, index, gateway, passages=passages)
    assert len(result.ranking) >= 1
    # the cache must contain a phi=1 rewrite exchange alongside the phi=3 one
    prompts = [
        json.loads(f.read_text())["prompt"] for f in gateway.cache.directory.glob("*.json")
    ]
    assert any("more than 3 queries" in p for p in prompts)
    assert any("more than 1 queries" in p for p in prompts)


def test_execute_turn_interleave_path(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(
        run_tag="x", rewriter="multi_query", retriever="bm25", phi=3,
        fusion="interleave", scorer_ids=("lexical-overlap",),
    )
    result = execute_turn(config, _mini_topic(), 1, index, gateway, passages=passages)
    scores = [s for _, s in result.ranking.items]
    assert scores == [1.0 / r for r in range(1, len(scores) + 1)]


def test_execute_turn_replay_miss_carries_turn_id(tmp_path):
    index, _, passages = _mini_env(tmp_path)
    replay = LLMGateway("m", tmp_path / "empty_cache", mode="replay")
    config = RunConfig(run_tag="x", rewriter="single_rewrite", retriever="bm25")
    with pytest.raises(TurnExecutionError, match="t1_1") as excinfo:
        execute_turn(config, _mini_topic(), 1, index, replay, passages=passages)
    assert isinstance(excinfo.value.__cause__, CacheMissError)


def test_turn_result_invariants():
    ranking = RankedList("t_1", (("a", 2.0), ("b", 1.0)))
    with pytest.raises(ValueError, match="provenance"):
        TurnResult("t_1", ranking, (0,), "ans", ("zzz",))
    too_long = RankedList.from_scores("t_1", {f"d{i:04d}": float(i) for i in range(MAX_RANKING + 1)})
    with pytest.raises(ValueError, match="exceeds"):
        TurnResult("t_1", too_long, (0,), "ans", ())


# ---------------------------------------------------------------------------
# execute_run
# ---------------------------------------------------------------------------


def _two_topics():
    first = _mini_topic(3)
    second = Topic(
        topic_id="t2",
        title="pears",
        ptkb=(PTKBStatement(1, "I like pears."),),
        turns=tuple(Turn(i, f"pears question {i}", f"pears answer {i}") for i in (1, 2, 3)),
    )
    return [first, second]


def test_execute_run_enumerates_in_order(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(run_tag="x", rewriter="single_rewrite", retriever="bm25")
    results = execute_run(config, _two_topics(), index, gateway, passages=passages)
    assert [r.turn_id for r in results] == ["t1_1", "t1_2", "t1_3", "t2_1", "t2_2", "t2_3"]


def test_execute_run_deterministic_and_parallel_consistent(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(run_tag="x", rewriter="single_rewrite", retriever="bm25")
    sequential = execute_run(config, _two_topics(), index, gateway, passages=passages)
    again = execute_run(config, _two_topics(), index, gateway, passages=passages)
    parallel = execute_run(config, _two_topics(), index, gateway, passages=passages, workers=4)
    assert sequential == again == parallel


def test_execute_run_benchmark_scale(tmp_path):
    # 13 topics totalling 103 turns enumerate to 103 results
    index, gateway, passages = _mini_env(tmp_path)
    topics = []
    turn_counts = [8] * 12 + [7]
    for i, count in enumerate(turn_counts, start=1):
        topics.append(
            Topic(
                topic_id=f"topic{i}",
                title=f"t{i}",
                ptkb=(PTKBStatement(1, "I grow apples."),),
                turns=tuple(
                    Turn(t, f"apples question {i} {t}", f"answer {t}") for t in range(1, count + 1)
                ),
            )
        )
    config = RunConfig(run_tag="x", rewriter="single_rewrite", retriever="bm25")
    results = execute_run(config, topics, index, gateway, passages=passages, workers=4)
    assert len(results) == 103
    sink = io.StringIO()
    assert write_trec_run(results, "x", sink) <= 103 * MAX_RANKING


def test_execute_run_is_atomic_on_failure(tmp_path):
    index, _, passages = _mini_env(tmp_path)
    replay = LLMGateway("m", tmp_path / "empty", mode="replay")
    config = RunConfig(run_tag="x", rewriter="single_rewrite", retriever="bm25")
    with pytest.raises(TurnExecutionError):
        execute_run(config, _two_topics(), index, replay, passages=passages)


def test_filtered_ptkb_mode_changes_prompt_inputs(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(
        run_tag="x", rewriter="single_rewrite", retriever="bm25", filtered_ptkb=True,
    )
    result = execute_turn(config, _mini_topic(), 1, index, gateway, passages=passages)
    assert result.answer
    # the rewrite prompt carried only the statements classified relevant
    prompts = [
        json.loads(f.read_text())["prompt"] for f in gateway.cache.directory.glob("*.json")
    ]
    rewrite_prompts = [p for p in prompts if "# Generated queries:" in p]
    assert rewrite_prompts
    assert all("dislike pears" not in p for p in rewrite_prompts)


def test_run_config_default_depths_are_1000():
    config = RunConfig(run_tag="x", rewriter="single_rewrite", retriever="bm25")
    assert config.rerank_depth == 1000
    assert config.retrieval_depth == 1000


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _result(turn_id, pairs, labels=(1, 0), answer="ans"):
    ranking = RankedList(turn_id, tuple(pairs))
    return TurnResult(turn_id, ranking, tuple(labels), answer, tuple(d for d, _ in pairs[:5]))


def test_write_trec_run_line_format():
    sink = io.StringIO()
    write_trec_run([_result("t1_1", [("dA", 0.5)])], "runX", sink)
    assert sink.getvalue() == "t1_1 Q0 dA 1 0.500000 runX\n"


def test_write_trec_run_empty_ranking_writes_nothing():
    sink = io.StringIO()
    result = TurnResult("t1_1", RankedList("t1_1", ()), (0,), "ans", ())
    assert write_trec_run([result], "runX", sink) == 0
    assert sink.getvalue() == ""


def test_write_trec_run_ranks_and_blocks():
    sink = io.StringIO()
    results = [
        _result("t1_1", [("dA", 2.0), ("dB", 1.0)]),
        _result("t1_2", [("dC", 9.0)]),
    ]
    write_trec_run(results, "tag", sink)
    lines = sink.getvalue().splitlines()
    assert lines == [
        "t1_1 Q0 dA 1 2.000000 tag",
        "t1_1 Q0 dB 2 1.000000 tag",
        "t1_2 Q0 dC 1 9.000000 tag",
    ]


def test_write_response_records_jsonl():
    sink = io.StringIO()
    write_response_records([_result("t1_1", [("dA", 1.0)], labels=(1, 0, 1))], sink)
    record = json.loads(sink.getvalue())
    assert record == {
        "turn_id": "t1_1",
        "answer": "ans",
        "provenance": ["dA"],
        "ptkb_labels": [1, 0, 1],
    }


# ---------------------------------------------------------------------------
# shipped fixture: spec loading, golden turn, determinism
# ---------------------------------------------------------------------------


def test_shipped_configs_reproduce_submitted_run_seams():
    expected = {
        "mq4cs-qr-deberta": ("multi_query", "sparse", "pool_then_rerank", 1, 5),
        "mq4cs-qr-ensemble": ("multi_query", "sparse", "pool_then_rerank", 5, 5),
        "gpt4qr-deberta": ("single_rewrite", "sparse", "none", 1, 5),
        "gpt4qr-bm25-qd1": ("multi_query", "bm25", "none", 1, 1),
        "humanqr-deberta": ("human_rewrite", "sparse", "none", 1, 5),
        "humanqr-ensemble": ("human_rewrite", "sparse", "none", 5, 5),
    }
    seen = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        spec = load_run_spec(path)
        config = spec.config
        seen[config.run_tag] = (
            config.rewriter, config.retriever, config.fusion, len(config.scorer_ids), config.phi,
        )
    assert seen == expected


def test_legacy_reranker_key_is_ignored():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        legacy = dict(data, reranker="ensemble" if len(data["scorer_ids"]) > 1 else "single")
        assert RunConfig.from_dict(legacy) == RunConfig.from_dict(data)
    bare = {"run_tag": "x", "rewriter": "single_rewrite", "retriever": "bm25"}
    assert RunConfig.from_dict(dict(bare, reranker="none")) == RunConfig.from_dict(bare)


def test_golden_turn_matches_frozen_record():
    golden = json.loads((TESTS_FIXTURE_DIR / "golden_turn.json").read_text())
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    index, topics, passages = load_resources(spec)
    gateway = LLMGateway(spec.model_id, spec.paths["cache_dir"], mode="replay")
    result = execute_turn(spec.config, topics[0], 1, index, gateway, passages=passages)
    assert result.turn_id == golden["turn_id"]
    assert [[d, s] for d, s in result.ranking.items] == golden["ranking"]
    assert list(result.ptkb_labels) == golden["ptkb_labels"]
    assert result.answer == golden["answer"]
    assert list(result.provenance) == golden["provenance"]


def test_fixture_topics_parse():
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    topics = parse_topics(spec.paths["topics"])
    assert len(topics) == 2
    assert sum(len(t.turns) for t in topics) == 6
    assert all(t.manual_rewrite for topic in topics for t in topic.turns)


def test_fixture_corpus_is_fifty_docs():
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    assert len(list(read_corpus(spec.paths["corpus"]))) == 50
