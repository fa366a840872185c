"""End-to-end run orchestration and TREC-format output.

A run configuration names a rewriter (multi-aspect query generation, a
single LLM rewrite, or the human rewrite shipped with the topic file), a
first-stage retriever (bm25 or sparse), a fusion strategy, and a reranker
(one scorer, an ensemble, or none).  Three fusion strategies cover the
submitted-run shapes:

* ``pool_then_rerank`` - retrieve per generated query, pool the candidate
  union, then rerank the pool with an independent single rewrite.
* ``interleave``       - retrieve and rerank per query, then interleave
  the resulting lists round-robin.
* ``none``             - one query drives retrieval and reranking.

Each turn also produces PTKB relevance labels and a grounded answer from
the top five ranked passages.  Turns use gold-response history, so they
are mutually independent: a run may execute them in a bounded thread pool
and still assemble results in deterministic topic-then-turn order.  Runs
are atomic - the first failing turn aborts the run.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

from .conversation import Topic, parse_topics, ptkb_text, render_context
from .evaluation import write_run_file
from .fusion import (
    Scorer,
    interleave,
    pool_candidates,
    rerank,
    resolve_scorer,
)
from .index import (
    InvertedIndex,
    Passage,
    RankedList,
    _text,
    bm25_retrieve,
    build_index,
    build_sparse_index,
    load_index,
    load_sparse_vectors,
    read_corpus,
    sparse_retrieve,
    text_to_query_vector,
)
from .llm import LLMGateway, Transport

__all__ = [
    "MAX_RANKING",
    "RunConfig",
    "TurnResult",
    "TurnExecutionError",
    "RunSpec",
    "load_run_spec",
    "execute_turn",
    "execute_run",
    "execute_spec",
    "write_trec_run",
    "write_response_records",
]

# TREC submission depth; final rankings are capped here.
MAX_RANKING = 1000

_REWRITERS = ("multi_query", "single_rewrite", "human_rewrite")
_RETRIEVERS = ("bm25", "sparse")
_FUSIONS = ("pool_then_rerank", "interleave", "none")
_RERANKERS = ("single", "ensemble", "none")


@dataclass(frozen=True)
class RunConfig:
    """Seams and depths for one run."""

    run_tag: str
    rewriter: str
    retriever: str
    fusion: str = "none"
    reranker: str = "none"
    scorer_ids: tuple[str, ...] = ()
    phi: int = 5
    rerank_depth: int = 1000
    retrieval_depth: int = 1000
    turn_id_template: str = "{topic}_{turn}"
    filtered_ptkb: bool = False
    scorer_endpoints: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.run_tag:
            raise ValueError("run_tag must be non-empty")
        if self.rewriter not in _REWRITERS:
            raise ValueError(f"unknown rewriter '{self.rewriter}'")
        if self.retriever not in _RETRIEVERS:
            raise ValueError(f"unknown retriever '{self.retriever}'")
        if self.fusion not in _FUSIONS:
            raise ValueError(f"unknown fusion '{self.fusion}'")
        if self.reranker not in _RERANKERS:
            raise ValueError(f"unknown reranker '{self.reranker}'")
        if self.phi < 1:
            raise ValueError("phi must be >= 1")
        if self.rerank_depth < 1 or self.retrieval_depth < 1:
            raise ValueError("depths must be >= 1")
        if self.fusion in ("pool_then_rerank", "interleave") and self.rewriter != "multi_query":
            raise ValueError(f"fusion '{self.fusion}' requires the multi_query rewriter")
        if self.fusion == "pool_then_rerank" and self.reranker == "none":
            raise ValueError("pool_then_rerank requires a reranker")
        if self.rewriter == "multi_query" and self.phi > 1 and self.fusion == "none":
            raise ValueError("multi_query with phi > 1 requires a fusion strategy")
        if self.reranker == "none":
            if self.scorer_ids:
                raise ValueError("scorer_ids given but reranker is 'none'")
        else:
            if not self.scorer_ids:
                raise ValueError(f"reranker '{self.reranker}' requires scorer_ids")
            if self.reranker == "single" and len(self.scorer_ids) != 1:
                raise ValueError("reranker 'single' takes exactly one scorer id")

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        return cls(
            run_tag=data["run_tag"],
            rewriter=data["rewriter"],
            retriever=data["retriever"],
            fusion=data.get("fusion", "none"),
            reranker=data.get("reranker", "none"),
            scorer_ids=tuple(data.get("scorer_ids", ())),
            phi=int(data.get("phi", 5)),
            rerank_depth=int(data.get("rerank_depth", 1000)),
            retrieval_depth=int(data.get("retrieval_depth", 1000)),
            turn_id_template=data.get("turn_id_template", "{topic}_{turn}"),
            filtered_ptkb=bool(data.get("filtered_ptkb", False)),
            scorer_endpoints=dict(data.get("scorer_endpoints", {})),
        )


@dataclass(frozen=True)
class TurnResult:
    """Everything one turn produces: ranking, labels, grounded answer."""

    turn_id: str
    ranking: RankedList
    ptkb_labels: tuple[int, ...]
    answer: str
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.ranking) > MAX_RANKING:
            raise ValueError(f"ranking exceeds {MAX_RANKING} items")
        ranked_ids = set(self.ranking.doc_ids())
        for doc_id in self.provenance:
            if doc_id not in ranked_ids:
                raise ValueError(f"provenance doc '{doc_id}' not in ranking")


class TurnExecutionError(RuntimeError):
    """A turn failed; the message carries the turn id, the cause is chained."""


def _resolve_scorers(config: RunConfig, scorers: Mapping[str, Scorer] | None) -> list[Scorer]:
    if config.reranker == "none":
        return []
    resolved = []
    for scorer_id in config.scorer_ids:
        if scorers is not None and scorer_id in scorers:
            resolved.append(scorers[scorer_id])
        else:
            resolved.append(resolve_scorer(scorer_id, config.scorer_endpoints))
    return resolved


def _retrieve(
    config: RunConfig, index: InvertedIndex, query: str, query_id: str
) -> RankedList:
    if config.retriever == "bm25":
        return bm25_retrieve(index, query, config.retrieval_depth, query_id=query_id)
    vector = text_to_query_vector(query, index.analyzer)
    return sparse_retrieve(index, vector, config.retrieval_depth, query_id=query_id)


def _truncate(ranking: RankedList, depth: int) -> RankedList:
    if len(ranking) <= depth:
        return ranking
    return RankedList(ranking.query_id, ranking.items[:depth])


def execute_turn(
    config: RunConfig,
    topic: Topic,
    turn_number: int,
    index: InvertedIndex,
    llm: LLMGateway,
    scorers: Mapping[str, Scorer] | None = None,
    passages: Mapping[str, Passage] | None = None,
) -> TurnResult:
    """Run one conversational turn end to end.

    ``passages`` maps doc_id to passage text for reranking and answer
    grounding; it is required whenever the config reranks or whenever a
    turn retrieves anything (answers are grounded in retrieved passages).

    Raises:
        TurnExecutionError: wrapping any failure (LLM cache miss, unknown
            doc, missing manual rewrite, ...) with the turn id.
    """
    turn_id = config.turn_id_template.format(topic=topic.topic_id, turn=turn_number)
    try:
        return _execute_turn_inner(config, topic, turn_number, turn_id, index, llm, scorers, passages)
    except Exception as exc:
        raise TurnExecutionError(f"turn {turn_id}: {exc}") from exc


def _execute_turn_inner(
    config: RunConfig,
    topic: Topic,
    turn_number: int,
    turn_id: str,
    index: InvertedIndex,
    llm: LLMGateway,
    scorers: Mapping[str, Scorer] | None,
    passages: Mapping[str, Passage] | None,
) -> TurnResult:
    turn = topic.turns[turn_number - 1]
    ctx = render_context(topic, turn_number)
    labels = llm.classify_ptkb(ctx, topic.ptkb, turn.user_utterance)

    if config.filtered_ptkb:
        ptkb_string = "\n".join(
            f"{s.index}. {s.text}" for s, label in zip(topic.ptkb, labels) if label
        )
    else:
        ptkb_string = ptkb_text(topic)

    if config.rewriter == "multi_query":
        queries = list(
            llm.generate_queries(ctx, ptkb_string, turn.user_utterance, config.phi).queries
        )
    elif config.rewriter == "single_rewrite":
        queries = [llm.generate_rewrite(ctx, ptkb_string, turn.user_utterance)]
    else:
        if turn.manual_rewrite is None:
            raise ValueError(f"no manual_rewrite for topic {topic.topic_id} turn {turn_number}")
        queries = [turn.manual_rewrite]

    def get_passage(doc_id: str) -> Passage:
        if passages is None:
            raise KeyError(doc_id)
        return passages[doc_id]

    scorer_objs = _resolve_scorers(config, scorers)
    retrieved = [_retrieve(config, index, q, turn_id) for q in queries]

    if config.fusion == "pool_then_rerank":
        pooled = pool_candidates(retrieved, config.retrieval_depth)
        rerank_query = llm.generate_rewrite(ctx, ptkb_string, turn.user_utterance)
        ranking = rerank(
            scorer_objs, rerank_query, pooled, config.rerank_depth, get_passage, turn_id
        )
    elif config.fusion == "interleave":
        if config.reranker != "none":
            reranked = [
                rerank(scorer_objs, q, lst.doc_ids(), config.rerank_depth, get_passage, turn_id)
                for q, lst in zip(queries, retrieved)
            ]
        else:
            reranked = retrieved
        ranking = interleave(reranked)
    else:
        single = retrieved[0]
        if config.reranker != "none":
            ranking = rerank(
                scorer_objs, queries[0], single.doc_ids(), config.rerank_depth, get_passage, turn_id
            )
        else:
            ranking = single
    ranking = _truncate(ranking, MAX_RANKING)

    top_docs = [get_passage(doc_id) for doc_id in ranking.doc_ids()[:5]]
    answer, provenance = llm.generate_response(
        ctx, ptkb_string, turn.user_utterance, top_docs
    )
    return TurnResult(
        turn_id=turn_id,
        ranking=ranking,
        ptkb_labels=tuple(labels),
        answer=answer,
        provenance=tuple(provenance),
    )


def execute_run(
    config: RunConfig,
    topics: Sequence[Topic],
    index: InvertedIndex,
    llm: LLMGateway,
    scorers: Mapping[str, Scorer] | None = None,
    passages: Mapping[str, Passage] | None = None,
    workers: int = 1,
) -> list[TurnResult]:
    """Execute every turn of every topic, in topic order then turn order.

    Turns are independent (gold-response history), so ``workers > 1`` runs
    them in a thread pool; results are assembled in deterministic order
    either way.  The run is atomic: the first failing turn raises and no
    partial result list is returned.
    """
    jobs = [(topic, turn.turn_number) for topic in topics for turn in topic.turns]
    if workers <= 1:
        return [
            execute_turn(config, topic, turn_number, index, llm, scorers, passages)
            for topic, turn_number in jobs
        ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(
                lambda job: execute_turn(config, job[0], job[1], index, llm, scorers, passages),
                jobs,
            )
        )


def write_trec_run(results: Sequence[TurnResult], run_tag: str, sink: str | Path | IO[str]) -> int:
    """Write each turn's ranking under its turn_id with :func:`write_run_file`, in result order.

    Returns the number of lines written.
    """
    return write_run_file(((r.turn_id, r.ranking) for r in results), run_tag, sink)


def write_response_records(results: Sequence[TurnResult], sink: str | Path | IO[str]) -> int:
    """Write one JSON record per turn: turn_id, answer, provenance, labels."""
    lines = []
    for result in results:
        lines.append(
            json.dumps(
                {
                    "turn_id": result.turn_id,
                    "answer": result.answer,
                    "provenance": list(result.provenance),
                    "ptkb_labels": list(result.ptkb_labels),
                },
                ensure_ascii=False,
            )
        )
    with _text(sink, "w") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


@dataclass(frozen=True)
class RunSpec:
    """A run config plus the file paths and LLM settings needed to execute it."""

    config: RunConfig
    paths: dict[str, Path]
    model_id: str = "gpt-4"
    llm_mode: str = "replay"


def load_run_spec(path: str | Path) -> RunSpec:
    """Load a JSON run spec; relative paths resolve against the file's directory."""
    spec_path = Path(path)
    data = json.loads(spec_path.read_text(encoding="utf-8"))
    config = RunConfig.from_dict(data)
    base = spec_path.parent
    paths = {
        name: (base / value).resolve() if not Path(value).is_absolute() else Path(value)
        for name, value in data.get("paths", {}).items()
    }
    return RunSpec(
        config=config,
        paths=paths,
        model_id=data.get("model_id", "gpt-4"),
        llm_mode=data.get("llm_mode", "replay"),
    )


def load_resources(
    spec: RunSpec,
) -> tuple[InvertedIndex, list[Topic], dict[str, Passage]]:
    """Load the index, topics, and passage store a run spec points at."""
    paths = spec.paths
    passages = {p.doc_id: p for p in read_corpus(paths["corpus"])}
    if "index" in paths and Path(paths["index"]).exists():
        index = load_index(paths["index"])
        if index.mode != spec.config.retriever:
            raise ValueError(
                f"index mode '{index.mode}' does not match retriever '{spec.config.retriever}'"
            )
    elif spec.config.retriever == "sparse":
        index = build_sparse_index(load_sparse_vectors(paths["sparse_vectors"]))
    else:
        index = build_index(passages.values())
    topics = parse_topics(paths["topics"])
    return index, topics, passages


def execute_spec(
    spec: RunSpec,
    out_dir: str | Path,
    transport: Transport | None = None,
    llm_mode: str | None = None,
    workers: int = 1,
) -> tuple[Path, Path]:
    """Execute a run spec and write ``<run_tag>.run`` and ``<run_tag>.responses.jsonl``.

    ``llm_mode`` overrides the spec's mode (the record/replay CLI path).
    Returns the two output paths.
    """
    index, topics, passages = load_resources(spec)
    llm = LLMGateway(
        model_id=spec.model_id,
        cache_dir=spec.paths["cache_dir"],
        mode=llm_mode or spec.llm_mode,
        transport=transport,
    )
    results = execute_run(
        spec.config, topics, index, llm, passages=passages, workers=workers
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_path = out / f"{spec.config.run_tag}.run"
    responses_path = out / f"{spec.config.run_tag}.responses.jsonl"
    write_trec_run(results, spec.config.run_tag, run_path)
    write_response_records(results, responses_path)
    return run_path, responses_path
