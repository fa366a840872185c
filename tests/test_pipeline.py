"""Run orchestration: config validation, turn execution, output formats."""

import codecs
import functools
import hashlib
import io
import json
import re
import tempfile
import threading
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsearch import pipeline
from convsearch.conversation import Topic, Turn, parse_topics
from convsearch.evaluation import _default_query_id_parser
from convsearch.index import Passage, RankedList, build_index, read_corpus
from convsearch.llm import CacheMissError, LLMGateway, TransportError
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

from conftest import CONFIG_DIR, NOT_HTTP_URLS, TESTS_FIXTURE_DIR, CountingTransport

# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


def test_run_config_accepts_submitted_run_shapes():
    assert RunConfig(
        run_tag="r1", rewriter="multi_query", retriever="sparse",
        scorer_ids=("deberta-v3",), phi=5,
    ).pools
    assert not RunConfig(
        run_tag="r4", rewriter="multi_query", retriever="bm25",
        scorer_ids=("minilm",), phi=1,
    ).pools
    assert not RunConfig(
        run_tag="r6", rewriter="human_rewrite", retriever="sparse",
        scorer_ids=("deberta-v2", "deberta-v3", "roberta", "albert", "electra"),
    ).pools
    for url in ("http://h", "https://h:8443/score", "http://127.0.0.1:9000/s", "http://[::1]/s"):
        RunConfig(run_tag="r2", rewriter="multi_query", retriever="sparse", phi=1,
                  scorer_ids=("deberta-v3",), scorer_endpoints={"deberta-v3": url})


def test_run_config_pool_requires_multi_query(tmp_path):
    # a human rewrite is one query whatever phi says, and a spec cannot ask it to pool
    config = RunConfig(run_tag="x", rewriter="human_rewrite", retriever="sparse", phi=5,
                       scorer_ids=("s",))
    assert not config.pools
    data = {"run_tag": "x", "rewriter": "human_rewrite", "retriever": "sparse",
            "scorer_ids": ["s"], "fusion": "pool_then_rerank"}
    with pytest.raises(ValueError, match="field 'fusion' must be 'none', got 'pool_then_rerank'"):
        load_run_spec(_write_spec(tmp_path, data))


def test_run_config_pool_requires_reranker():
    message = "pooling (multi_query at phi > 1) requires a reranker (scorer_ids)"
    for phi in (2, 5):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(run_tag="x", rewriter="multi_query", retriever="sparse", phi=phi)


@pytest.mark.parametrize(
    "fields, message",
    [({"retriever": "dense"}, "unknown retriever 'dense'"), ({"phi": 0}, "phi must be >= 1"),
     # a mis-keyed endpoint used to run the offline stand-in, never the service
     ({"scorer_ids": ("deberta-v3",), "scorer_endpoints": {"deberta_v3": "http://h/d"}},
      "scorer_endpoints keys not in scorer_ids ['deberta_v3']"),
     # "" built the index and failed the first rerank on "turn 1_1: unknown url type: ''"
     *(({"scorer_ids": ("deberta-v3", "minilm"),
         "scorer_endpoints": {"minilm": "http://h/m", "deberta-v3": url}},
        f"scorer_endpoints value of 'deberta-v3' is not an http(s) URL naming a host: {url!r}")
       for url in NOT_HTTP_URLS)],
    ids=["unknown-retriever", "phi-zero", "mis-keyed-endpoint",
         *(f"endpoint-{url}" for url in NOT_HTTP_URLS)],
)
def test_run_config_rejects_a_bad_value(fields, message):
    base = {"run_tag": "x", "rewriter": "multi_query", "phi": 1, "retriever": "bm25"}
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**dict(base, **fields))


def test_run_config_multi_query_needs_fusion(tmp_path):
    # several queries pool; a spec that calls such a run unpooled is rejected
    config = RunConfig(run_tag="x", rewriter="multi_query", retriever="bm25",
                       scorer_ids=("s",), phi=5)
    assert config.pools
    data = {"run_tag": "x", "rewriter": "multi_query", "retriever": "bm25",
            "scorer_ids": ["s"], "phi": 5, "fusion": "none"}
    with pytest.raises(ValueError, match="field 'fusion' must be 'pool_then_rerank', got 'none'"):
        load_run_spec(_write_spec(tmp_path, data))


_ABSENT = object()  # a spec with no fusion key


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["multi_query", "human_rewrite"]),
    st.integers(1, 6),
    st.sampled_from([[], ["minilm"], ["deberta-v3", "roberta"]]),
    st.one_of(
        st.just(_ABSENT), st.sampled_from(["none", "pool_then_rerank", "interleave", ""]),
        st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
        st.none(), st.booleans(), st.integers(), st.lists(st.just("none"), max_size=1),
    ),
)
@example("multi_query", 3, ["minilm"], _ABSENT)  # pooling was asked for by the key alone
def test_a_spec_reads_iff_its_fusion_key_is_the_implied_shape(
    rewriter, phi, scorer_ids, fusion
):
    data = {"run_tag": "x", "rewriter": rewriter, "retriever": "bm25", "phi": phi,
            "scorer_ids": scorer_ids}
    if fusion is not _ABSENT:
        data["fusion"] = fusion
    pools = rewriter == "multi_query" and phi > 1
    shape = "pool_then_rerank" if pools else "none"
    if pools and not scorer_ids:
        problem = "pooling (multi_query at phi > 1) requires a reranker (scorer_ids)"
    elif fusion is _ABSENT or fusion == shape:
        problem = None
    elif isinstance(fusion, str):
        problem = f"field 'fusion' must be {shape!r}, got {fusion!r}"
    else:
        problem = "field 'fusion' must be a string, got "
    with tempfile.TemporaryDirectory() as scratch:
        path = _write_spec(Path(scratch), data)
        if problem is None:
            assert load_run_spec(path).config.pools == pools
        else:
            with pytest.raises(ValueError, match=re.escape(f"run spec {path}: {problem}")):
                load_run_spec(path)


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
        ptkb=("I grow apples at home.", "I dislike pears."),
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
        scorer_ids=("minilm",),
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
        scorer_ids=("minilm",),
    )
    result = execute_turn(config, _mini_topic(), 1, index, gateway, passages=passages)
    assert len(result.ranking) >= 1
    # the cache must contain a phi=1 rewrite exchange alongside the phi=3 one
    prompts = [
        json.loads(f.read_text())["prompt"] for f in gateway.cache.directory.glob("*.json")
    ]
    assert any("more than 3 queries" in p for p in prompts)
    assert any("more than 1 queries" in p for p in prompts)


def test_execute_turn_replay_miss_carries_turn_id(tmp_path):
    index, _, passages = _mini_env(tmp_path)
    replay = LLMGateway("m", tmp_path / "empty_cache", mode="replay")
    config = RunConfig(run_tag="x", rewriter="multi_query", phi=1, retriever="bm25")
    with pytest.raises(TurnExecutionError, match="t1_1") as excinfo:
        execute_turn(config, _mini_topic(), 1, index, replay, passages=passages)
    assert isinstance(excinfo.value.__cause__, CacheMissError)


def test_turn_result_invariants():
    ranking = RankedList({"a": 2.0, "b": 1.0})
    with pytest.raises(ValueError, match="provenance"):
        TurnResult("t_1", ranking, (0,), "ans", ("zzz",))
    too_long = RankedList({f"d{i:04d}": float(i) for i in range(MAX_RANKING + 1)})
    with pytest.raises(ValueError, match="exceeds"):
        TurnResult("t_1", too_long, (0,), "ans", ())


# ---------------------------------------------------------------------------
# execute_run
# ---------------------------------------------------------------------------


def _two_topics():
    first = _mini_topic(3)
    second = Topic(
        topic_id="t2",
        ptkb=("I like pears.",),
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
                ptkb=("I grow apples.",),
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


def test_execute_spec_rejects_fewer_than_one_worker_before_set_up(tmp_path, monkeypatch):
    def load_resources(spec):
        raise AssertionError("set-up ran before the workers check")

    monkeypatch.setattr(pipeline, "load_resources", load_resources)
    spec = load_run_spec(CONFIG_DIR / "gpt4qr_bm25_qd1.json")
    with pytest.raises(ValueError, match=re.escape("workers must be >= 1")):
        execute_spec(spec, tmp_path / "out", workers=0)
    assert not (tmp_path / "out").exists()


def test_execute_spec_rejects_a_run_tag_with_a_lone_surrogate_before_the_run(tmp_path):
    # such a run tag used to pass set-up, run every turn and then fail in
    # write_run_file, leaving an empty output directory
    spec = load_run_spec(CONFIG_DIR / "gpt4qr_bm25_qd1.json")
    with pytest.raises(ValueError, match=re.escape("run_tag holds the lone surrogate '\\udcff'")):
        execute_spec(replace(spec, config=replace(spec.config, run_tag="x\udcff")), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _no_set_up(path):
    raise AssertionError("set-up read the corpus")


@pytest.mark.parametrize("below", ["", "sub", "sub/deeper"])
@pytest.mark.parametrize("key", ["out_dir", "cache_dir"])
def test_execute_spec_rejects_a_directory_it_cannot_make_before_set_up(
    tmp_path, monkeypatch, key, below
):
    # an out_dir under a regular file ran every turn, 18 transport calls, and only then
    # failed on NotADirectoryError (FileExistsError for the file itself); a recording
    # run's cache_dir there failed the same way after set-up, naming no key
    def load_resources(spec):
        raise AssertionError("set-up started")

    monkeypatch.setattr(pipeline, "load_resources", load_resources)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    blocked = blocker / below  # below "" it is the file itself
    dirs = {"out_dir": tmp_path / "out", "cache_dir": tmp_path / "cache", key: blocked}
    spec = load_run_spec(CONFIG_DIR / "gpt4qr_deberta.json")
    spec = replace(spec, paths=dict(spec.paths, cache_dir=dirs["cache_dir"]))
    transport = CountingTransport()
    message = f"{key} {blocked} cannot be made: {blocker} is not a directory"
    with pytest.raises(ValueError, match=re.escape(message)):
        execute_spec(spec, dirs["out_dir"], transport=transport)
    assert transport.calls == 0
    assert list(tmp_path.iterdir()) == [blocker]


def test_a_human_rewrite_run_needs_every_manual_rewrite_before_set_up(tmp_path, monkeypatch):
    # a topic file lacking one failed the run at turn 2_3, after set-up and 11 transport calls
    monkeypatch.setattr(pipeline, "read_corpus", _no_set_up)
    spec = load_run_spec(CONFIG_DIR / "humanqr_deberta.json")
    topics = json.loads(spec.paths["topics"].read_text(encoding="utf-8"))
    del topics[1]["turns"][2]["manual_rewrite"]
    topics_path = tmp_path / "topics.json"
    topics_path.write_text(json.dumps(topics), encoding="utf-8")
    spec.paths.update(topics=topics_path, cache_dir=tmp_path / "cache")
    transport = CountingTransport()
    message = f"topics {topics_path}: no manual_rewrite for topic 2 turn 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        execute_spec(spec, tmp_path / "out", transport=transport)
    assert transport.calls == 0
    assert list(tmp_path.iterdir()) == [topics_path]
    # a multi_query run reads no manual_rewrite, so the same topics set up
    multi_query = replace(spec, config=replace(spec.config, rewriter="multi_query", phi=1))
    with pytest.raises(AssertionError, match="set-up read the corpus"):
        execute_spec(multi_query, tmp_path / "out", transport=transport)


def test_load_resources_rejects_vectors_of_a_doc_the_corpus_lacks(tmp_path):
    # such a file used to build the index and fail only the first turn that
    # retrieved the document, after a record run had already called the model
    def transport(model_id, prompt):
        raise AssertionError("the model was called before set-up failed")

    spec = load_run_spec(CONFIG_DIR / "gpt4qr_deberta.json")
    text = spec.paths["sparse_vectors"].read_text(encoding="utf-8")
    entries = next(line for line in text.splitlines() if line.startswith("D001\t"))[4:]
    vectors = tmp_path / "sparse_vectors.tsv"
    # the first such doc_id in file order is named, not the first in sorted order
    vectors.write_text(f"{text}ghost-doc{entries}\nD999{entries}\n", encoding="utf-8")
    spec.paths["sparse_vectors"] = vectors
    spec.paths["cache_dir"] = tmp_path / "cache"
    message = f"sparse vectors {vectors}: doc_id 'ghost-doc' is not in the corpus"
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        execute_spec(spec, tmp_path / "out", transport=transport)
    assert raised.traceback[-1].name == "load_resources"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "case, problem",
    [("lone-surrogate", "turn 1 field 'utterance' holds the lone surrogate"),
     ("empty-ptkb", "field 'ptkb' must hold at least one statement")],
    ids=["lone-surrogate", "empty-ptkb"],
)
def test_load_resources_rejects_a_bad_topic_before_reading_the_corpus(tmp_path, case, problem):
    # each used to pass set-up, after the index was built, and fail the run's first
    # turn: a lone surrogate from a JSON "\ud800" escape with a codec error in the
    # cache key, an empty PTKB in classify_ptkb
    spec = load_run_spec(CONFIG_DIR / "gpt4qr_deberta.json")
    topics = json.loads(spec.paths["topics"].read_text(encoding="utf-8"))
    if case == "lone-surrogate":
        topics[0]["turns"][0]["utterance"] += " \ud800"
    else:
        topics[0]["ptkb"] = {}
    spec.paths["topics"] = tmp_path / "topics.json"
    spec.paths["topics"].write_text(json.dumps(topics), encoding="utf-8")
    spec.paths["corpus"] = tmp_path / "absent.tsv"
    message = f"topic '{topics[0]['number']}': {problem}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_resources(spec)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_record_run_resumes_when_re_run(tmp_path, workers):
    # the cache is the checkpoint: a re-run asks only for what the failed run
    # did not store, and writes what an uninterrupted run writes
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_ensemble.json")
    replayed = execute_spec(spec, tmp_path / "replay")
    spec.paths["cache_dir"] = tmp_path / "cache"
    failing = CountingTransport(fail_on=9)
    with pytest.raises(TurnExecutionError):
        execute_spec(spec, tmp_path / "out", transport=failing, workers=workers)
    assert not (tmp_path / "out").exists()
    working = CountingTransport()
    resumed = execute_spec(spec, tmp_path / "out", transport=working, workers=workers)
    cached = len(list((tmp_path / "cache").glob("*.json")))
    assert failing.calls + working.calls == cached + 1
    assert 9 <= failing.calls and 0 < working.calls
    for ours, reference in zip(resumed, replayed):
        assert ours.read_bytes() == reference.read_bytes()


class _FaultyTransport:
    """Scripted replies, but the ``fail_on``-th call it may fail raises or answers blank.

    Only a query-generation reply is parsed, so only such calls count for a blank one.
    """

    def __init__(self, kind, fail_on):
        self.kind, self.fail_on, self.counted = kind, fail_on, 0
        self._lock, self._scripted = threading.Lock(), ScriptedTransport()

    def __call__(self, model_id, prompt):
        with self._lock:
            self.counted += self.kind == "error" or "# Generated queries:" in prompt
            fails = self.counted == self.fail_on
            self.counted += fails  # fail once
        if fails and self.kind == "error":
            raise TransportError(f"injected failure on call {self.fail_on}")
        return "   \n" if fails else self._scripted(model_id, prompt)


_RESUMED = CONFIG_DIR / "mq4cs_qr_deberta.json"


@functools.cache
def _clean_record_run():
    """A clean record run's cache records, the replayed outputs, and its calls of each kind."""
    spec = load_run_spec(_RESUMED)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        replayed = [path.read_bytes() for path in execute_spec(spec, root / "replay")]
        spec = replace(spec, paths=dict(spec.paths, cache_dir=root / "cache"))
        execute_spec(spec, root / "out", transport=ScriptedTransport())
        records = {path.name: path.read_bytes() for path in (root / "cache").iterdir()}
    queries = sum(b"# Generated queries:" in record for record in records.values())
    return records, replayed, {"error": len(records), "blank": queries}


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["error", "blank"]), st.integers(1, 64), st.sampled_from([1, 2]))
@example("blank", 1, 1)  # a blank first query-generation reply was cached, failing every re-run
def test_record_mode_resumes_after_any_failed_call(kind, fail_on, workers):
    records, replayed, calls = _clean_record_run()
    fail_on = (fail_on - 1) % calls[kind] + 1
    spec = load_run_spec(_RESUMED)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        spec = replace(spec, paths=dict(spec.paths, cache_dir=root / "cache"))
        failing = _FaultyTransport(kind, fail_on)
        with pytest.raises(TurnExecutionError):
            execute_spec(spec, root / "out", transport=failing, workers=workers)
        assert not (root / "out").exists()
        resumed = execute_spec(spec, root / "out", transport=ScriptedTransport(), workers=workers)
        assert [path.read_bytes() for path in resumed] == replayed
        assert {path.name: path.read_bytes() for path in (root / "cache").iterdir()} == records


def test_a_run_replaces_its_two_outputs_as_a_pair(tmp_path, monkeypatch):
    spec = load_run_spec(CONFIG_DIR / "gpt4qr_bm25_qd1.json")
    replayed = [path.read_bytes() for path in execute_spec(spec, tmp_path / "replay")]
    out = tmp_path / "out"
    out.mkdir()
    earlier = {out / f"{spec.config.run_tag}.run": b"earlier run\n",
               out / f"{spec.config.run_tag}.responses.jsonl": b"earlier responses\n"}
    for path, data in earlier.items():
        path.write_bytes(data)
    # a failed turn (here a cache miss) leaves the earlier pair as it was
    (tmp_path / "empty").mkdir()
    empty = replace(spec, paths=dict(spec.paths, cache_dir=tmp_path / "empty"))
    with pytest.raises(TurnExecutionError, match="cache miss"):
        execute_spec(empty, out)
    assert {path: path.read_bytes() for path in earlier} == earlier
    # a failure between the two writes left a new run beside an earlier run's responses

    def fail(results, sink):
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "write_response_records", fail)
    with pytest.raises(OSError, match="disk full"):
        execute_spec(spec, out)
    run_path, responses_path = earlier
    assert run_path.read_bytes() == replayed[0]
    assert not responses_path.exists()


def test_run_config_default_depths_are_1000():
    # every stage ranks to the TREC submission depth
    assert MAX_RANKING == 1000


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _result(turn_id, pairs, labels=(1, 0), answer="ans"):
    ranking = RankedList(dict(pairs))
    return TurnResult(turn_id, ranking, tuple(labels), answer, tuple(d for d, _ in pairs[:5]))


def test_write_trec_run_line_format():
    sink = io.StringIO()
    write_trec_run([_result("t1_1", [("dA", 0.5)])], "runX", sink)
    assert sink.getvalue() == "t1_1 Q0 dA 1 0.500000 runX\n"


def test_write_trec_run_empty_ranking_writes_nothing():
    sink = io.StringIO()
    result = TurnResult("t1_1", RankedList({}), (0,), "ans", ())
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
        "mq4cs-qr-deberta": ("multi_query", "sparse", True, 1, 5),
        "mq4cs-qr-ensemble": ("multi_query", "sparse", True, 5, 5),
        "gpt4qr-deberta": ("multi_query", "sparse", False, 1, 1),
        "gpt4qr-bm25-qd1": ("multi_query", "bm25", False, 1, 1),
        "humanqr-deberta": ("human_rewrite", "sparse", False, 1, 5),
        "humanqr-ensemble": ("human_rewrite", "sparse", False, 5, 5),
    }
    seen = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        spec = load_run_spec(path)
        config = spec.config
        seen[config.run_tag] = (
            config.rewriter, config.retriever, config.pools, len(config.scorer_ids), config.phi,
        )
    assert seen == expected


def test_pooling_is_exactly_a_multi_query_run_of_several_queries(tmp_path, monkeypatch):
    # every shipped config states the shape it has, and at phi 1 pooling would change
    # no byte: the independent rewrite is queries[0]'s cache entry, and a one-list pool
    # is that list
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = load_run_spec(path).config
        fusion = json.loads(path.read_text(encoding="utf-8"))["fusion"]
        assert config.pools == (config.rewriter == "multi_query" and config.phi > 1)
        assert (fusion == "pool_then_rerank") == config.pools, path.name
    for name in ("gpt4qr_deberta", "gpt4qr_bm25_qd1"):
        spec = load_run_spec(CONFIG_DIR / f"{name}.json")
        assert not spec.config.pools
        outputs = [[p.read_bytes() for p in execute_spec(spec, tmp_path / "none")]]
        with monkeypatch.context() as patched:  # pool at phi 1 too
            patched.setattr(RunConfig, "pools", property(lambda c: c.rewriter == "multi_query"))
            assert spec.config.pools
            outputs.append([p.read_bytes() for p in execute_spec(spec, tmp_path / "pooled")])
        assert outputs[0] == outputs[1]


def _write_spec(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_from_dict_reads_every_field_and_defaults_the_rest(tmp_path):
    # load_run_spec is the one JSON reader of a run config
    data = {
        "run_tag": "x", "rewriter": "multi_query", "retriever": "sparse",
        "scorer_ids": ["a", "b"], "phi": 3, "scorer_endpoints": {"a": "http://h/a"},
    }
    assert set(data) == {f.name for f in fields(RunConfig)}
    expected = RunConfig(**dict(data, scorer_ids=("a", "b")))
    assert load_run_spec(_write_spec(tmp_path, data)).config == expected
    # the key the shipped specs keep reads iff it states the shape the run has
    stated = dict(data, fusion="pool_then_rerank")
    assert load_run_spec(_write_spec(tmp_path, stated)).config == expected
    bare = {"run_tag": "x", "rewriter": "multi_query", "phi": 1, "retriever": "bm25"}
    assert load_run_spec(_write_spec(tmp_path, bare)).config == RunConfig(**bare)


@pytest.mark.parametrize(
    "key, value, what",
    [
        ("scorer_ids", "deberta-v3", "field 'scorer_ids'"),
        ("scorer_ids", ["deberta-v3", 3], "field 'scorer_ids' item #2"),
        ("run_tag", 5, "field 'run_tag'"),
        ("rewriter", None, "field 'rewriter'"),
        ("phi", "5", "field 'phi'"),
        ("phi", 5.0, "field 'phi'"),
        ("phi", True, "field 'phi'"),
        ("retriever", ["bm25"], "field 'retriever'"),
        ("fusion", False, "field 'fusion'"),
        ("scorer_endpoints", {"a": 1}, "field 'scorer_endpoints' value of 'a'"),
    ],
    ids=["scorer_ids-deberta-v3", "scorer_ids-value1", "run_tag-5", "rewriter-None", "phi-5",
         "phi-5.0", "phi-True", "retriever-value7", "fusion-False", "scorer_endpoints-value9"],
)
def test_config_values_must_have_their_json_type(tmp_path, key, value, what):
    data = {"run_tag": "x", "rewriter": "multi_query", "phi": 1, "retriever": "bm25", key: value}
    with pytest.raises(ValueError, match=f"{what} must be"):
        load_run_spec(_write_spec(tmp_path, data))


def test_turn_ids_parse_back_into_topic_and_turn():
    turn_id = RunConfig.turn_id_template.format(topic="t_1", turn=3)
    assert _default_query_id_parser(turn_id) == ("t_1", 3)


def test_run_spec_rejects_unknown_keys(tmp_path):
    # a misspelt scorer_ids would otherwise run without reranking
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    data["scorer_id"] = data.pop("scorer_ids")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown keys ['scorer_id']")):
        load_run_spec(path)


def test_a_run_spec_with_a_byte_order_mark_loads_as_the_clean_spec(tmp_path):
    # load_run_spec read plain UTF-8, so such a spec failed with "Unexpected UTF-8 BOM"
    # while a corpus, topics, qrels or run file with one read as the clean file
    text = (CONFIG_DIR / "gpt4qr_deberta.json").read_bytes()
    (tmp_path / "clean.json").write_bytes(text)
    (tmp_path / "bom.json").write_bytes(codecs.BOM_UTF8 + text)
    assert load_run_spec(tmp_path / "bom.json") == load_run_spec(tmp_path / "clean.json")


@pytest.mark.parametrize(
    "key, value",
    [("rerank_depth", 1000), ("retrieval_depth", 1000), ("filtered_ptkb", False),
     ("reranker", "single"), ("llm_mode", "replay")],
)
def test_run_spec_rejects_the_retired_keys(tmp_path, key, value):
    # every stage ranks to MAX_RANKING, every prompt gets the whole PTKB, and a run
    # records iff it is given a transport; load_run_spec builds no index
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
    # a single rewrite is multi_query at phi 1, and a run pools its lists
    # rather than interleaving them; neither old spelling has an alias
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    path = tmp_path / "old.json"
    for key, value, problem in (
        ("rewriter", "single_rewrite", "unknown rewriter 'single_rewrite'"),
        ("fusion", "interleave", "field 'fusion' must be 'none', got 'interleave'"),
    ):
        path.write_text(json.dumps(dict(data, **{key: value})), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"run spec {path}: {problem}")):
            load_run_spec(path)


@pytest.mark.parametrize(
    "scorer_ids, message",
    [(["deberta-v3", "deberta-v3"], "scorer_id 'deberta-v3' is listed twice"),
     (["deberta-v3", "minilm", "deberta-v3"], "scorer_id 'deberta-v3' is listed twice"),
     (["deberta-v3", ""], "empty scorer_id"),
     (["deberta-v3\u200b"], "scorer_id holds the unprintable character '\\u200b'"),
     (["deberta v3"], "whitespace in scorer_id 'deberta v3'")],
    ids=["twice", "twice-apart", "empty", "zero-width", "whitespace"],
)
def test_run_spec_rejects_a_bad_or_repeated_scorer_id(tmp_path, scorer_ids, message):
    # each id seeds a stand-in scorer of its own: a repeated id was fused twice, and an
    # empty or zero-width-suffixed one ran a scorer that no listed name stands for
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(data, scorer_ids=scorer_ids)), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"run spec {path}: {message}")):
        load_run_spec(path)


def test_run_spec_names_a_missing_field_and_its_file(tmp_path):
    data = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    for name in ("run_tag", "rewriter", "retriever"):
        path = tmp_path / f"no_{name}.json"
        path.write_text(json.dumps({k: v for k, v in data.items() if k != name}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing fields ['{name}']")):
            load_run_spec(path)
    path = tmp_path / "paths_only.json"
    path.write_text(json.dumps({"paths": data["paths"]}), encoding="utf-8")
    message = f"{path}: missing fields ['run_tag', 'rewriter', 'retriever']"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_run_spec(path)


@pytest.mark.parametrize(
    "text, message",
    [("{", "Expecting property name"), ("5", "top-level value must be an object, got int"),
     ("[]", "top-level value must be an object, got list"), ("null", "got NoneType")],
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


@pytest.mark.parametrize("config", ["gpt4qr_bm25_qd1.json", "gpt4qr_deberta.json"])
def test_load_resources_rejects_a_repeated_corpus_doc_id(tmp_path, config):
    # a BM25 spec and a sparse one: the later passage must not replace the earlier
    spec = load_run_spec(CONFIG_DIR / config)
    corpus = tmp_path / "corpus.tsv"
    text = spec.paths["corpus"].read_text(encoding="utf-8")
    corpus.write_text(text + "D001\tanother passage\n", encoding="utf-8")
    spec.paths["corpus"] = corpus
    with pytest.raises(ValueError, match=re.escape("corpus line 51: duplicate doc_id 'D001'")):
        load_resources(spec)


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
    with pytest.raises(ValueError, match="field 'model_id' must be a string, got 4"):
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
    transport = CountingTransport()
    for path in sorted(CONFIG_DIR.glob("*.json")):
        spec = load_run_spec(path)
        shipped = spec.paths["cache_dir"]
        spec.paths["cache_dir"] = tmp_path / "cache"
        execute_spec(spec, tmp_path / "out", transport=transport)
    recorded = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
    assert recorded == {p.name: p.read_bytes() for p in shipped.iterdir()}
    assert len(recorded) == transport.calls == 47


def test_a_run_given_a_transport_records_and_one_given_none_replays(tmp_path):
    # the spec used to say replay, so a transport given to execute_spec went unused
    # and the first exchange failed as a cache miss
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    shipped, spec.paths["cache_dir"] = spec.paths["cache_dir"], tmp_path / "cache"
    transport = CountingTransport()
    recorded = execute_spec(spec, tmp_path / "a", transport=transport)
    recorded = [path.read_bytes() for path in recorded]
    # one record per call, each the shipped record of its name, and all that a replay reads
    records = {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()}
    assert records == {name: (shipped / name).read_bytes() for name in records}
    assert len(records) == transport.calls == 24
    replayed = execute_spec(spec, tmp_path / "b")
    assert [path.read_bytes() for path in replayed] == recorded
    golden = json.loads((TESTS_FIXTURE_DIR / "golden_outputs.json").read_text())
    assert [hashlib.sha256(data).hexdigest() for data in recorded] == [
        golden[path.name] for path in replayed
    ]


def test_fixture_topics_parse():
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    topics = parse_topics(spec.paths["topics"])
    assert len(topics) == 2
    assert sum(len(t.turns) for t in topics) == 6
    assert all(t.manual_rewrite for topic in topics for t in topic.turns)


def test_fixture_corpus_is_fifty_docs():
    spec = load_run_spec(CONFIG_DIR / "mq4cs_qr_deberta.json")
    assert len(list(read_corpus(spec.paths["corpus"]))) == 50
