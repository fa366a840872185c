"""End-to-end run orchestration and TREC-format output.

A run configuration names a rewriter (multi-aspect query generation of up
to ``phi`` queries, a single LLM rewrite at ``phi`` 1, or the human
rewrite shipped with the topic file, which is one query), a first-stage
retriever (bm25 or sparse), and the reranking scorers: a run reranks iff
``scorer_ids`` is non-empty, and several scorers are averaged.  Every stage
ranks to the TREC submission depth ``MAX_RANKING``, and every prompt gets
the topic's whole PTKB.  ``phi`` is the number of queries a turn retrieves
with, and it fixes the run's shape:

* a run that asks for several queries (``phi`` > 1, so ``multi_query``)
  pools their lists, then reranks the pool with an independent single rewrite;
* every other run has one query, which drives retrieval and reranking.

Each run has one spelling as a spec: it names its ``model_id``, and it
states ``phi`` iff its rewriter is ``multi_query``.

Interleaving per-query lists is not a run shape; it stays a way to fuse
finished run files (``convsearch fuse --method interleave``).  A run given a
chat transport records its LLM exchanges; one given none replays them.

Each turn also produces PTKB relevance labels and a grounded answer from
the top five ranked passages.  Turns use gold-response history, so they
are mutually independent: a run may execute them in a bounded thread pool
and still assemble results in deterministic topic-then-turn order.  Runs
are atomic - the first failing turn aborts the run.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import IO, ClassVar, Mapping, Sequence, get_origin, get_type_hints

from .conversation import Topic, parse_topics, ptkb_text, render_context
from .evaluation import write_run_file
from .fusion import pool_candidates, rerank, resolve_scorer
from .index import (
    InvertedIndex,
    Passage,
    RankedList,
    _id_problem,
    _json_value,
    _text,
    _write_text,
    bm25_retrieve,
    build_index,
    build_sparse_index,
    load_sparse_vectors,
    read_corpus,
    sparse_retrieve,
    text_to_query_vector,
)
from .llm import LLMGateway, Transport, _url_problem

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

# TREC submission depth: first-stage retrieval, pooling and reranking rank to it.
MAX_RANKING = 1000

_REWRITERS = ("multi_query", "human_rewrite")
_RETRIEVERS = ("bm25", "sparse")
# the files a run spec names: its two index sources, topics, qrels, the LLM cache
_PATH_NAMES = ("corpus", "sparse_vectors", "topics", "qrels", "cache_dir")


def _json_fields(cls: type, data: Mapping) -> dict:
    """The entries of ``data`` that name fields of dataclass ``cls``, checked by ``_json_value``.

    A ``str`` or ``int`` field takes that JSON type; a tuple field an array of
    strings, returned as a tuple, and a mapping field an object of strings.
    A bad item or value is named too: ``field 'scorer_ids' item #2 must be a
    string, got 3``, ``field 'paths' value of 'corpus' …``, ``field 'paths' key …``.
    """
    hints = get_type_hints(cls)
    values = {}
    for name in (f.name for f in fields(cls) if f.name in data):
        value, kind, what = data[name], get_origin(hints[name]) or hints[name], f"field '{name}'"
        if kind is tuple:
            items = enumerate(_json_value(value, list, what), 1)
            values[name] = tuple(_json_value(v, str, f"{what} item #{n}") for n, v in items)
        elif issubclass(kind, Mapping):
            values[name] = {
                _json_value(k, str, f"{what} key"): _json_value(v, str, f"{what} value of {k!r}")
                for k, v in _json_value(value, dict, what).items()
            }
        else:
            values[name] = _json_value(value, kind, what)
    return values


@dataclass(frozen=True)
class RunConfig:
    """The seams one run varies; turn ids are ``<topic>_<turn>``.

    ``run_tag`` names the output files, so it is an identifier holding no ``/`` or
    ``\\``.  ``phi`` is the number of queries a turn retrieves with: a human_rewrite run
    has one.  A run :attr:`pools` iff it asks for several (``phi`` > 1), and then needs
    ``scorer_ids`` to rerank the pool.  ``scorer_endpoints`` maps some of ``scorer_ids``
    to cross-encoder services, each an http(s) URL naming a host.
    """

    turn_id_template: ClassVar[str] = "{topic}_{turn}"
    run_tag: str
    rewriter: str
    retriever: str
    scorer_ids: tuple[str, ...] = ()
    phi: int = 1
    scorer_endpoints: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if problem := _id_problem("run_tag", [self.run_tag]):  # it names the output files
            raise ValueError(problem)
        if "/" in self.run_tag or "\\" in self.run_tag:
            raise ValueError(f"path separator in run_tag {self.run_tag!r}")
        if self.rewriter not in _REWRITERS:
            raise ValueError(f"unknown rewriter '{self.rewriter}'")
        if self.retriever not in _RETRIEVERS:
            raise ValueError(f"unknown retriever '{self.retriever}'")
        if self.phi < 1:
            raise ValueError("phi must be >= 1")
        if self.rewriter == "human_rewrite" and self.phi != 1:
            raise ValueError(f"a human_rewrite run has one query: phi must be 1, got {self.phi}")
        if problem := _id_problem("scorer_id", list(self.scorer_ids)):  # it seeds a scorer
            raise ValueError(problem)
        twice = [s for n, s in enumerate(self.scorer_ids) if s in self.scorer_ids[:n]]
        if twice:
            raise ValueError(f"scorer_id {twice[0]!r} is listed twice")
        unknown = sorted(set(self.scorer_endpoints) - set(self.scorer_ids))
        if unknown:
            raise ValueError(f"scorer_endpoints keys not in scorer_ids {unknown}")
        for scorer_id, url in self.scorer_endpoints.items():
            if problem := _url_problem(f"scorer_endpoints value of {scorer_id!r}", url):
                raise ValueError(problem)
        if self.pools and not self.scorer_ids:
            raise ValueError("pooling (multi_query at phi > 1) requires a reranker (scorer_ids)")

    @property
    def pools(self) -> bool:
        return self.phi > 1


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


def _retrieve(config: RunConfig, index: InvertedIndex, query: str) -> RankedList:
    if config.retriever == "bm25":
        return bm25_retrieve(index, query, MAX_RANKING)
    vector = text_to_query_vector(query, index.analyzer)
    return sparse_retrieve(index, vector, MAX_RANKING)


def execute_turn(
    config: RunConfig,
    topic: Topic,
    turn_number: int,
    index: InvertedIndex,
    llm: LLMGateway,
    passages: Mapping[str, Passage],
) -> TurnResult:
    """Run one conversational turn end to end.

    ``passages`` maps doc_id to passage for reranking and answer grounding.

    Raises:
        TurnExecutionError: wrapping any failure (LLM cache miss, unknown
            doc, missing manual rewrite, ...) with the turn id.
    """
    turn_id = config.turn_id_template.format(topic=topic.topic_id, turn=turn_number)
    try:
        turn = topic.turns[turn_number - 1]
        ctx = render_context(topic, turn_number)
        labels = llm.classify_ptkb(ctx, topic.ptkb, turn.user_utterance)
        ptkb_string = ptkb_text(topic)

        if config.rewriter == "multi_query":
            queries = list(
                llm.generate_queries(ctx, ptkb_string, turn.user_utterance, config.phi).queries
            )
        elif turn.manual_rewrite is None:
            raise ValueError(f"no manual_rewrite for topic {topic.topic_id} turn {turn_number}")
        else:
            queries = [turn.manual_rewrite]

        get_passage = passages.__getitem__
        scorers = [resolve_scorer(s, config.scorer_endpoints) for s in config.scorer_ids]
        retrieved = [_retrieve(config, index, q) for q in queries]

        if config.pools:  # a run that does not pool has exactly one query
            pooled = pool_candidates(retrieved, MAX_RANKING)
            rerank_query = llm.generate_rewrite(ctx, ptkb_string, turn.user_utterance)
            ranking = rerank(scorers, rerank_query, pooled, MAX_RANKING, get_passage)
        elif scorers:
            candidates = retrieved[0].doc_ids()
            ranking = rerank(scorers, queries[0], candidates, MAX_RANKING, get_passage)
        else:
            ranking = retrieved[0]

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
    except Exception as exc:
        raise TurnExecutionError(f"turn {turn_id}: {exc}") from exc


def execute_run(
    config: RunConfig,
    topics: Sequence[Topic],
    index: InvertedIndex,
    llm: LLMGateway,
    passages: Mapping[str, Passage],
    workers: int = 1,
) -> list[TurnResult]:
    """Execute every turn of every topic, in topic order then turn order.

    Turns are independent (gold-response history), so ``workers > 1`` runs
    them in a thread pool; results are assembled in deterministic order
    either way.  The run is atomic: the first failing turn raises and no
    partial result list is returned.

    Raises:
        ValueError: if ``workers`` is below 1.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = [(topic, turn.turn_number) for topic in topics for turn in topic.turns]
    if workers == 1:
        return [
            execute_turn(config, topic, turn_number, index, llm, passages)
            for topic, turn_number in jobs
        ]
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs load it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(
                lambda job: execute_turn(config, job[0], job[1], index, llm, passages),
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
    lines = [
        json.dumps({"turn_id": r.turn_id, "answer": r.answer, "provenance": list(r.provenance),
                    "ptkb_labels": list(r.ptkb_labels)}, ensure_ascii=False) + "\n"
        for r in results
    ]
    _write_text(sink, "".join(lines))
    return len(lines)


@dataclass(frozen=True)
class RunSpec:
    """What a run is: a run config, its file paths and the model id (an identifier) it
    asks, which every spec states; a run against another model is another spec, with
    its own ``run_tag``."""

    config: RunConfig
    paths: dict[str, Path]
    model_id: str

    def __post_init__(self) -> None:
        if problem := _id_problem("model_id", [_json_value(self.model_id, str, "model_id")]):
            raise ValueError(problem)


def load_run_spec(path: str | Path) -> RunSpec:
    """Load a JSON run spec; relative paths resolve against the file's directory.

    A spec has one spelling per run: it states ``model_id``, and ``phi`` iff its rewriter
    is ``multi_query`` (a human rewrite is one query).

    Raises:
        ValueError: starting ``run spec <path>: ``, then naming the key, for a key that is
            neither a :class:`RunConfig` field nor ``paths``, ``model_id`` or ``fusion`` (a
            retired key too); a ``phi`` in a ``human_rewrite`` spec (``field 'phi' applies
            only to rewriter 'multi_query'``); a ``fusion`` other than the run's shape
            (``pool_then_rerank`` iff it pools, else ``none``); a ``paths`` name other than
            ``corpus``, ``sparse_vectors``, ``topics``, ``qrels`` and ``cache_dir``, or an
            empty path (``field 'paths' value of 'cache_dir' is empty``); an absent field
            without a default, or an absent ``phi`` in a ``multi_query`` spec (``missing
            fields ['phi']``); a value that fails ``_json_value`` (see ``_json_fields``); an
            invalid config or ``model_id``; or a file whose top-level value is not an object.
    """
    spec_path = Path(path)
    with _text(spec_path, "run spec") as handle:
        data = _json_value(json.load(handle), dict, "top-level value")
        keys = [f for f in fields(RunConfig) + fields(RunSpec) if f.name not in ("config", "paths")]
        unknown = sorted(set(data) - {f.name for f in keys} - {"paths", "fusion"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        rewriter = data.get("rewriter")  # phi is stated iff the rewriter generates queries
        if "phi" in data and rewriter == "human_rewrite":
            raise ValueError("field 'phi' applies only to rewriter 'multi_query'")
        settings = _json_fields(RunSpec, data)
        paths = settings.get("paths", {})
        unknown = sorted(set(paths) - set(_PATH_NAMES))
        if unknown:
            raise ValueError(f"unknown paths {unknown}")
        if empty := next((name for name, value in paths.items() if not value), None):
            raise ValueError(f"field 'paths' value of {empty!r} is empty")  # '' reads as base
        base = spec_path.parent
        settings["paths"] = {
            name: (base / value).resolve() if not Path(value).is_absolute() else Path(value)
            for name, value in paths.items()
        }
        required = {"phi"} if rewriter == "multi_query" else set()
        missing = [
            f.name for f in keys if f.name not in data
            and (f.name in required or f.default is MISSING and f.default_factory is MISSING)
        ]
        if missing:
            raise ValueError(f"missing fields {missing}")
        config = RunConfig(**_json_fields(RunConfig, data))
        shape = "pool_then_rerank" if config.pools else "none"  # the shipped specs restate it
        if "fusion" in data and _json_value(data["fusion"], str, "field 'fusion'") != shape:
            raise ValueError(f"field 'fusion' must be {shape!r}, got {data['fusion']!r}")
        return RunSpec(config=config, **settings)


def _require_paths(spec: RunSpec, names: Sequence[str]) -> None:
    missing = [name for name in names if name not in spec.paths]
    if missing:
        raise ValueError(f"run spec '{spec.config.run_tag}' is missing paths {missing}")


def load_resources(
    spec: RunSpec,
) -> tuple[InvertedIndex, list[Topic], dict[str, Passage]]:
    """Load the topics and passage store a run spec points at, and build its index.

    The index is built at load time: from ``sparse_vectors`` for the sparse
    retriever, otherwise from the passages read from ``corpus``.

    Raises:
        ValueError: naming the paths the run needs that the spec lacks; for a
            ``human_rewrite`` run, naming the topics file and the first topic and turn
            with no ``manual_rewrite``; or naming the vectors file and its first doc_id,
            in file order, that the corpus lacks.
    """
    sparse = spec.config.retriever == "sparse"
    _require_paths(spec, ("corpus", "sparse_vectors", "topics") if sparse else ("corpus", "topics"))
    paths = spec.paths
    topics = parse_topics(paths["topics"])  # first: a bad topic fails before any index is built
    if spec.config.rewriter == "human_rewrite":  # else a turn with none fails after set-up
        for topic in topics:
            for turn in topic.turns:
                if turn.manual_rewrite is None:
                    raise ValueError(f"topics {paths['topics']}: no manual_rewrite for topic "
                                     f"{topic.topic_id} turn {turn.turn_number}")
    passages = {p.doc_id: p for p in read_corpus(paths["corpus"])}
    if sparse:
        vectors = load_sparse_vectors(paths["sparse_vectors"])
        # a doc_id no passage has would otherwise fail only the turn that retrieves it
        if ghost := next((doc_id for doc_id in vectors if doc_id not in passages), None):
            raise ValueError(
                f"sparse vectors {paths['sparse_vectors']}: doc_id {ghost!r} is not in the corpus"
            )
        index = build_sparse_index(vectors)
    else:
        index = build_index(passages.values())
    return index, topics, passages


def execute_spec(
    spec: RunSpec,
    out_dir: str | Path,
    transport: Transport | None = None,
    workers: int = 1,
) -> tuple[Path, Path]:
    """Execute a run spec and write ``<run_tag>.run`` and ``<run_tag>.responses.jsonl``.

    The spec says what the run is, its model included; the arguments say where and how
    it runs.  A run given a ``transport`` records (a cache miss goes to the transport);
    one given none replays ``cache_dir``.  Returns the two output paths, replaced as a
    pair: both earlier files go once every turn has succeeded, so a failed write leaves
    no earlier run's file beside a new one.

    Raises:
        ValueError: naming the paths the run needs that the spec lacks (``cache_dir``
            among them), if ``workers`` is below 1, if a replay's ``cache_dir`` is not
            a directory (it is not made), or if ``cache_dir`` or ``out_dir`` cannot be
            made because its nearest existing ancestor is not a directory; all before
            any index is built or any directory is made.
    """
    _require_paths(spec, ("cache_dir",))
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cache, out = Path(spec.paths["cache_dir"]), Path(out_dir)
    if transport is None and not cache.is_dir():  # a miss would name no dir
        raise ValueError(f"replay cache {cache} is not a directory")
    # cache_dir is made after set-up, out_dir once every turn has succeeded: so check now
    for name, path in (("cache_dir", cache), ("out_dir", out)):
        if not (ancestor := next(p for p in (path, *path.parents) if p.exists())).is_dir():
            raise ValueError(f"{name} {path} cannot be made: {ancestor} is not a directory")
    index, topics, passages = load_resources(spec)
    mode = "replay" if transport is None else "record"
    llm = LLMGateway(spec.model_id, cache, mode, transport)
    results = execute_run(
        spec.config, topics, index, llm, passages=passages, workers=workers
    )
    out.mkdir(parents=True, exist_ok=True)
    run_path = out / f"{spec.config.run_tag}.run"
    responses_path = out / f"{spec.config.run_tag}.responses.jsonl"
    for earlier in (run_path, responses_path):
        earlier.unlink(missing_ok=True)
    write_trec_run(results, spec.config.run_tag, run_path)
    write_response_records(results, responses_path)
    return run_path, responses_path
