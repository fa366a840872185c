"""Run orchestration: config validation, turn execution, output formats."""

import io
import json
import re
import threading
from dataclasses import fields, replace

import pytest

from convsearch.conversation import PTKBStatement, Topic, Turn, parse_topics
from convsearch.evaluation import default_query_id_parser
from convsearch.index import Passage, RankedList, build_index, read_corpus
from convsearch.llm import CacheMissError, LLMGateway
from convsearch.offline import ScriptedTransport
from convsearch.pipeline import (
    MAX_RANKING,
    RunConfig,
    TurnExecutionError,
    TurnResult,
    execute_run,
    execute_spec,
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
            run_tag="x", rewriter="human_rewrite", retriever="sparse",
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
        run_tag="x", rewriter="multi_query", phi=1, retriever="bm25",
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
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
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
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
    results = execute_run(config, _two_topics(), index, gateway, passages=passages)
    assert [r.turn_id for r in results] == ["t1_1", "t1_2", "t1_3", "t2_1", "t2_2", "t2_3"]


def test_execute_run_deterministic_and_parallel_consistent(tmp_path):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
    sequential = execute_run(config, _two_topics(), index, gateway, passages=passages)
    again = execute_run(config, _two_topics(), index, gateway, passages=passages)
    parallel = execute_run(config, _two_topics(), index, gateway, passages=passages, workers=4)
    assert sequential == again == parallel


def test_record_mode_workers_overlap_transport_waits(tmp_path):
    # the first two transport calls return only once both are waiting, so
    # the run completes only if two turns wait on the transport at once
    index, _, passages = _mini_env(tmp_path)
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
    barrier = threading.Barrier(2, timeout=10)
    calls, lock, scripted = [], threading.Lock(), ScriptedTransport()

    def transport(model_id, prompt):
        with lock:
            calls.append(prompt)
            waits = len(calls) <= 2
        if waits:
            barrier.wait()
        return scripted(model_id, prompt)

    overlapped = LLMGateway("m", tmp_path / "a", mode="record", transport=transport)
    plain = LLMGateway("m", tmp_path / "b", mode="record", transport=ScriptedTransport())
    results = execute_run(config, _two_topics(), index, overlapped, passages=passages, workers=2)
    assert results == execute_run(config, _two_topics(), index, plain, passages=passages)
    assert not barrier.broken and len(calls) > 2


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
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
    results = execute_run(config, topics, index, gateway, passages=passages, workers=4)
    assert len(results) == 103
    sink = io.StringIO()
    assert write_trec_run(results, "x", sink) <= 103 * MAX_RANKING


def test_execute_run_is_atomic_on_failure(tmp_path):
    index, _, passages = _mini_env(tmp_path)
    replay = LLMGateway("m", tmp_path / "empty", mode="replay")
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
    with pytest.raises(TurnExecutionError):
        execute_run(config, _two_topics(), index, replay, passages=passages)


@pytest.mark.parametrize("workers", [0, -1])
def test_execute_run_rejects_fewer_than_one_worker(tmp_path, workers):
    index, gateway, passages = _mini_env(tmp_path)
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
    with pytest.raises(ValueError, match=re.escape("workers must be >= 1")):
        execute_run(config, _two_topics(), index, gateway, passages=passages, workers=workers)
    assert not any(gateway.cache.directory.glob("*.json"))


def test_run_config_default_depths_are_1000():
    # every stage ranks to the TREC submission depth
    assert MAX_RANKING == 1000


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
        "gpt4qr-deberta": ("multi_query", "sparse", "none", 1, 1),
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
    # from_dict reads only its fields; load_run_spec is what rejects other keys
    for path in sorted(CONFIG_DIR.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        legacy = dict(data, reranker="ensemble" if len(data["scorer_ids"]) > 1 else "single")
        assert RunConfig.from_dict(legacy) == RunConfig.from_dict(data)
    bare = {"run_tag": "x", "rewriter": "multi_query", "phi": 1, "retriever": "bm25"}
    assert RunConfig.from_dict(dict(bare, reranker="none")) == RunConfig.from_dict(bare)


def test_from_dict_reads_every_field_and_defaults_the_rest():
    data = {
        "run_tag": "x", "rewriter": "multi_query", "retriever": "sparse",
        "fusion": "interleave", "scorer_ids": ["a", "b"], "phi": 3,
        "scorer_endpoints": {"a": "http://h/a"},
    }
    assert set(data) == {f.name for f in fields(RunConfig)}
    assert RunConfig.from_dict(data) == RunConfig(**dict(data, scorer_ids=("a", "b")))
    bare = {"run_tag": "x", "rewriter": "multi_query", "phi": 1, "retriever": "bm25"}
    assert RunConfig.from_dict(bare) == RunConfig(**bare)


@pytest.mark.parametrize(
    "key, value",
    [
        ("scorer_ids", "deberta-v3"),
        ("scorer_ids", ["deberta-v3", 3]),
        ("run_tag", 5),
        ("rewriter", None),
        ("phi", "5"),
        ("phi", 5.0),
        ("phi", True),
        ("retriever", ["bm25"]),
        ("fusion", False),
        ("scorer_endpoints", {"a": 1}),
    ],
)
def test_config_values_must_have_their_json_type(key, value):
    data = {"run_tag": "x", "rewriter": "multi_query", "phi": 1, "retriever": "bm25", key: value}
    with pytest.raises(ValueError, match=f"field '{key}' must be"):
        RunConfig.from_dict(data)


def test_turn_ids_parse_back_into_topic_and_turn():
    turn_id = RunConfig.turn_id_template.format(topic="t_1", turn=3)
    assert default_query_id_parser(turn_id) == ("t_1", 3)


def test_run_spec_rejects_unknown_keys(tmp_path):
    # a misspelt scorer_ids would otherwise run without reranking
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    data["scorer_id"] = data.pop("scorer_ids")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown keys ['scorer_id']")):
        load_run_spec(path)


@pytest.mark.parametrize(
    "key, value",
    [("rerank_depth", 1000), ("retrieval_depth", 1000), ("filtered_ptkb", False),
     ("reranker", "single")],
)
def test_run_spec_rejects_the_retired_keys(tmp_path, key, value):
    # every stage ranks to MAX_RANKING and every prompt gets the whole PTKB
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    path = tmp_path / "old.json"
    path.write_text(json.dumps(dict(data, **{key: value})), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"run spec {path}: unknown keys ['{key}']")):
        load_run_spec(path)


def test_run_spec_rejects_unknown_path_names(tmp_path):
    # a spec naming a saved index must fail, not silently build from its sources
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    for name in ("index", "corpus_file"):
        path = tmp_path / f"{name}.json"
        spec = dict(data, paths=dict(data["paths"], **{name: "x.json"}))
        path.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown paths ['{name}']")):
            load_run_spec(path)


def test_run_spec_rejects_the_single_rewrite_rewriter(tmp_path):
    # a single rewrite is multi_query at phi 1; the old spelling has no alias
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    path = tmp_path / "old.json"
    path.write_text(json.dumps(dict(data, rewriter="single_rewrite")), encoding="utf-8")
    message = f"run spec {path}: unknown rewriter 'single_rewrite'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_run_spec(path)


def test_run_spec_rejects_an_unknown_llm_mode_before_any_index_is_built(tmp_path):
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    for mode in ("live", "bogus"):
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(dict(data, llm_mode=mode)), encoding="utf-8")
        message = f"run spec {path}: unknown llm_mode '{mode}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_run_spec(path)
    spec = load_run_spec(CONFIG_DIR / "gpt4qr_deberta.json")
    with pytest.raises(ValueError, match="unknown llm_mode 'live'"):
        replace(spec, llm_mode="live")


def test_run_spec_names_a_missing_field_and_its_file(tmp_path):
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    for name in ("run_tag", "rewriter", "retriever"):
        path = tmp_path / f"no_{name}.json"
        path.write_text(json.dumps({k: v for k, v in data.items() if k != name}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing fields ['{name}']")):
            load_run_spec(path)
    with pytest.raises(ValueError, match=re.escape("['run_tag', 'rewriter', 'retriever']")):
        RunConfig.from_dict({})


@pytest.mark.parametrize(
    "text, message",
    [("{", "Expecting property name"), ("5", "expected a JSON object, got int"),
     ("[]", "expected a JSON object, got list"), ("null", "got NoneType")],
    ids=["invalid", "number", "array", "null"],
)
def test_run_spec_that_is_not_a_json_object_names_its_file(tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"run spec {path}: ") + f".*{message}"):
        load_run_spec(path)


def test_a_run_names_the_paths_its_spec_lacks(tmp_path):
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    shipped = load_run_spec(CONFIG_DIR / "gpt4qr_deberta.json").paths
    cases = [
        ("sparse", ("corpus",), "['corpus']"),
        ("sparse", ("topics", "sparse_vectors"), "['sparse_vectors', 'topics']"),
        ("bm25", ("topics",), "['topics']"),
    ]
    for retriever, dropped, message in cases:
        path = tmp_path / "spec.json"
        paths = {k: str(v) for k, v in shipped.items() if k not in dropped}
        path.write_text(json.dumps(dict(data, retriever=retriever, paths=paths)), "utf-8")
        spec = load_run_spec(path)
        expected = re.escape(f"run spec 'gpt4qr-deberta' is missing paths {message}")
        for run in (load_resources, lambda s: execute_spec(s, tmp_path / "out")):
            with pytest.raises(ValueError, match=expected):
                run(spec)
    # a bm25 run reads no vectors, and a spec may leave cache_dir to its caller
    paths = {k: str(v) for k, v in shipped.items() if k not in ("sparse_vectors", "cache_dir")}
    path.write_text(json.dumps(dict(data, retriever="bm25", paths=paths)), "utf-8")
    spec = load_run_spec(path)
    assert load_resources(spec)[0].mode == "bm25"
    with pytest.raises(ValueError, match=re.escape("is missing paths ['cache_dir']")):
        execute_spec(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_spec_keys_are_config_fields_and_spec_settings(tmp_path):
    # generated specs carry a shipped config with absolute paths
    for path in sorted(CONFIG_DIR.glob("*.json")):
        spec = load_run_spec(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["paths"] = {name: str(value) for name, value in spec.paths.items()}
        copy = tmp_path / path.name
        copy.write_text(json.dumps(data), encoding="utf-8")
        assert load_run_spec(copy) == spec
    data["model_id"] = 4
    copy.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match="field 'model_id' must be str"):
        load_run_spec(copy)


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


def test_fixture_cache_is_what_the_six_configs_record(tmp_path):
    # recorded from an empty cache, the configs write the shipped cache byte
    # for byte, and use every entry of it
    transport = ScriptedTransport()
    for path in sorted(CONFIG_DIR.glob("*.json")):
        spec = load_run_spec(path)
        shipped = spec.paths["cache_dir"]
        spec.paths["cache_dir"] = tmp_path / "cache"
        execute_spec(replace(spec, llm_mode="record"), tmp_path / "out", transport=transport)
    recorded = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
    assert recorded == {p.name: p.read_bytes() for p in shipped.iterdir()}
    assert len(recorded) == transport.calls == 47


def test_fixture_topics_parse():
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    topics = parse_topics(spec.paths["topics"])
    assert len(topics) == 2
    assert sum(len(t.turns) for t in topics) == 6
    assert all(t.manual_rewrite for topic in topics for t in topic.turns)


def test_fixture_corpus_is_fifty_docs():
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    assert len(list(read_corpus(spec.paths["corpus"]))) == 50
