"""Spans and counts recorded from outside the program.

:class:`Tracer` replaces public functions and methods of ``convsearch``
with timing wrappers, in every module namespace that holds them, so a
call is seen the way the calling module sees it (``pipeline`` binds
``bm25_retrieve``, ``rerank`` and friends at import).  Each span records
name, start, end, parent span and turn id; spans live in memory until
:meth:`Tracer.dump`.  Counts (postings scanned, cache hits, judgments
scanned, ...) are taken inside the same wrappers.  The tokenizer, called
thousands of times per turn, is counted and timed without a span.

:func:`per_layer` turns the spans and counts into the per-layer metrics
listed in ``PER_LAYER``, all but the ``FROM_PASSES`` ones.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import re
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable

SCORER_IDS = ("deberta-v2", "deberta-v3", "roberta", "albert", "electra", "minilm")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("index.read_corpus_s", "s", "lower"),
    ("index.load_sparse_vectors_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.retrieve_calls", "count", "lower"),
    ("index.retrieve_ms_p50", "ms", "lower"),
    ("index.retrieve_ms_p90", "ms", "lower"),
    ("index.postings_scanned", "count", "lower"),
    ("index.docs_returned", "count", "lower"),
    ("index.tokenize_calls", "count", "lower"),
    ("index.tokenize_s", "s", "lower"),
    ("conversation.parse_topics_s", "s", "lower"),
    ("conversation.render_context_s", "s", "lower"),
    ("prompts.render_calls", "count", "lower"),
    ("prompts.render_s", "s", "lower"),
    ("llm.complete_calls", "count", "lower"),
    ("llm.complete_s", "s", "lower"),
    ("llm.cache_hits", "count", "higher"),
    ("llm.cache_misses", "count", "lower"),
    ("llm.cache_hit_ratio", "ratio", "higher"),
    ("llm.cache_get_s", "s", "lower"),
    ("llm.cache_put_calls", "count", "lower"),
    ("llm.cache_put_s", "s", "lower"),
    ("llm.cache_bytes_written", "bytes", "lower"),
    ("offline.transport_calls", "count", "lower"),
    ("offline.transport_s", "s", "lower"),
    ("fusion.pool_s", "s", "lower"),
    ("fusion.pool_candidates", "count", "lower"),
    ("fusion.pool_useful_ratio", "ratio", "higher"),
    ("fusion.rerank_s", "s", "lower"),
    ("fusion.rerank_ms_p50", "ms", "lower"),
    ("fusion.rerank_scored", "count", "lower"),
    ("fusion.rerank_dropped", "count", "lower"),
    ("fusion.scorer_calls", "count", "lower"),
    *[(f"fusion.scorer_s.{sid}", "s", "lower") for sid in SCORER_IDS],
    ("fusion.tokenize_per_candidate", "ratio", "lower"),
    ("fusion.ensemble_fuse_s", "s", "lower"),
    ("fusion.interleave_s", "s", "lower"),
    ("pipeline.load_resources_s", "s", "lower"),
    ("pipeline.turn_self_ms_p50", "ms", "lower"),
    ("pipeline.write_s", "s", "lower"),
    ("pipeline.run_lines", "count", "higher"),
    ("pipeline.worker_utilisation", "ratio", "higher"),
    ("evaluation.parse_qrels_s", "s", "lower"),
    ("evaluation.read_run_file_s", "s", "lower"),
    ("evaluation.evaluate_rankings_s", "s", "lower"),
    ("evaluation.for_query_calls", "count", "lower"),
    ("evaluation.judgments_scanned", "count", "lower"),
    ("evaluation.qrels_lookup_useful_ratio", "ratio", "higher"),
    ("cli.fuse_s", "s", "lower"),
    # The entries below come from the run's untraced passes, not from spans:
    # whole-run timings, too unsteady on a shared host to gate (README.md).
    ("run.turns_per_s", "turns/s", "higher"),
    ("run.turn_ms_p50", "ms", "lower"),
    ("run.turn_ms_p90", "ms", "lower"),
    ("run.eval_s", "s", "lower"),
    ("run.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
FROM_PASSES = tuple(name for name, _, _ in PER_LAYER if name.startswith(("run.", "trace.")))

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.turn = ""
        self.in_scorer = 0


class Tracer:
    """Installs wrappers into ``convsearch`` and collects spans and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, turn, attrs)
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._counts: dict[str, float] = {}
        self._restore: list[tuple[Any, str, Any]] = []
        self._run_span = 0  # parent of turns that run on pool threads

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict, after=None, turn=None):
        state = self._local
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else self._run_span
        outer_turn = state.turn
        if turn is not None:
            state.turn = turn
        state.stack.append(span_id)
        start = time.perf_counter()
        attrs: dict = {}
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            state.stack.pop()
            span_turn = state.turn
            state.turn = outer_turn
            if "error" not in attrs and after is not None:
                attrs.update(after(args, kwargs, result) or {})
            self.spans.append((span_id, parent, name, start, end, span_turn, attrs))
        return result

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, after)

        return wrapper

    def _bound(self, fn: Callable, after: Callable) -> Callable:
        """Adapt ``after(named_args, result)`` to positional/keyword calls."""
        signature = inspect.signature(fn)

        def adapted(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return after(bound.arguments, result)

        return adapted

    def _turn(self, fn: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = signature.bind(*args, **kwargs).arguments
            template = a["config"].turn_id_template
            turn = template.format(topic=a["topic"].topic_id, turn=a["turn_number"])
            return tracer._call("pipeline.execute_turn", fn, args, kwargs, turn=turn)

        return wrapper

    def _run(self, fn: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = signature.bind(*args, **kwargs)
            a.apply_defaults()
            state = tracer._local
            outer = tracer._run_span
            tracer._run_span = next(tracer._ids)
            span_id, parent = tracer._run_span, (state.stack[-1] if state.stack else 0)
            state.stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                tracer._run_span = outer
                attrs = {"workers": a.arguments["workers"]}
                span = (span_id, parent, "pipeline.execute_run", start, end, "", attrs)
                tracer.spans.append(span)

        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        """Span over reading a generator function's whole output."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return iter(tracer._call(name, lambda: list(fn(*args, **kwargs)), (), {}))

        return wrapper

    def _tokenize(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(analyzer, text):
            start = time.perf_counter()
            result = fn(analyzer, text)
            elapsed = time.perf_counter() - start
            with tracer._lock:
                counts = tracer._counts
                counts["tokenize_calls"] = counts.get("tokenize_calls", 0.0) + 1
                counts["tokenize_s"] = counts.get("tokenize_s", 0.0) + elapsed
                if tracer._local.in_scorer:
                    counts["scorer_tokenize_calls"] = counts.get("scorer_tokenize_calls", 0.0) + 1
            return result

        return wrapper

    def _scorer(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(scorer, query, passages):
            state = tracer._local
            state.in_scorer += 1
            try:
                scorer_id = getattr(scorer, "name", type(scorer).__name__)
                return tracer._call(
                    "fusion.scorer", fn, (scorer, query, passages), {},
                    lambda a, k, r: {"scorer": scorer_id, "n": len(passages)},
                )
            finally:
                state.in_scorer -= 1

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, modules: list, fn: Callable, new: Callable) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, new)

    def install(self) -> None:
        import convsearch
        from convsearch import cli, conversation, evaluation, fusion, index
        from convsearch import llm, offline, pipeline, prompts

        modules = [convsearch, cli, conversation, evaluation, fusion, index, llm, offline,
                   pipeline, prompts]
        B = self._bound

        def retrieved(a, result):
            idx = a["index"]
            if "query_text" in a:
                terms = [t.lower() for t in _TOKEN_RE.findall(a["query_text"])]
            else:
                terms = list(a["query"].entries)
            postings = sum(idx.document_frequency(t) for t in terms)
            return {"postings": postings, "returned": len(result)}

        def pooled(a, result):
            longest = max((len(r) for r in a["lists"]), default=0)
            return {"longest": longest, "depth": a["per_list_depth"], "pooled": len(result)}

        def reranked(a, result):
            n = len(a["candidates"])
            return {"scored": min(n, a["depth"]), "dropped": max(0, n - a["depth"])}

        def cache_put(a, result):
            path = Path(a["self"].directory) / f"{a['key']}.json"
            return {"bytes": path.stat().st_size}

        def for_query(a, result):
            return {"scanned": len(a["self"].judgments), "returned": len(result)}

        read_corpus = self._generator("index.read_corpus", index.read_corpus)
        self._replace_function(modules, index.read_corpus, read_corpus)
        functions = [
            (index.load_sparse_vectors, "index.load_sparse_vectors", None),
            (index.build_index, "index.build", None),
            (index.build_sparse_index, "index.build", None),
            (index.bm25_retrieve, "index.retrieve", B(index.bm25_retrieve, retrieved)),
            (index.sparse_retrieve, "index.retrieve", B(index.sparse_retrieve, retrieved)),
            (conversation.parse_topics, "conversation.parse_topics", None),
            (conversation.render_context, "conversation.render_context", None),
            (prompts.render_prompt, "prompts.render", None),
            (fusion.pool_candidates, "fusion.pool", B(fusion.pool_candidates, pooled)),
            (fusion.rerank, "fusion.rerank", B(fusion.rerank, reranked)),
            (fusion.ensemble_fuse, "fusion.ensemble_fuse", None),
            (fusion.interleave, "fusion.interleave", None),
            (pipeline.load_resources, "pipeline.load_resources", None),
            (pipeline.write_trec_run, "pipeline.write", lambda a, k, r: {"lines": r}),
            (pipeline.write_response_records, "pipeline.write", None),
            (evaluation.parse_qrels, "evaluation.parse_qrels", None),
            (evaluation.read_run_file, "evaluation.read_run_file", None),
            (evaluation.evaluate_rankings, "evaluation.evaluate_rankings", None),
            (evaluation.evaluate_run, "evaluation.evaluate_run", None),
            (cli.main, "cli.main", None),
        ]
        for fn, name, after in functions:
            self._replace_function(modules, fn, self._span(name, fn, after))
        self._replace_function(modules, pipeline.execute_turn, self._turn(pipeline.execute_turn))
        self._replace_function(modules, pipeline.execute_run, self._run(pipeline.execute_run))

        methods = [
            (llm.LLMGateway, "complete", "llm.complete", None),
            (llm.LLMCache, "get", "llm.cache_get", lambda a, k, r: {"hit": r is not None}),
            (llm.LLMCache, "put", "llm.cache_put", B(llm.LLMCache.put, cache_put)),
            (offline.ScriptedTransport, "__call__", "offline.transport", None),
            (evaluation.Qrels, "for_query", "evaluation.for_query",
             B(evaluation.Qrels.for_query, for_query)),
        ]
        for owner, attr, name, after in methods:
            self._replace(owner, attr, self._span(name, owner.__dict__[attr], after))
        for owner in (fusion.PseudoCrossEncoder, fusion.LexicalOverlapScorer,
                      fusion.NumericSuffixScorer):
            self._replace(owner, "score", self._scorer(owner.__dict__["score"]))
        tokenize = self._tokenize(index.AnalyzerConfig.__dict__["tokenize"])
        self._replace(index.AnalyzerConfig, "tokenize", tokenize)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def dump(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as sink:
            for span_id, parent, name, start, end, turn, attrs in self.spans:
                sink.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start,
                         "end": end, "turn": turn, **attrs}
                    )
                    + "\n"
                )

    def counts(self) -> dict[str, float]:
        return dict(self._counts)


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Aggregate spans and counts into the ``PER_LAYER`` metrics."""
    by_name: dict[str, list[tuple]] = {}
    child_time: dict[int, float] = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    for span_id, parent, name, start, end, turn, attrs in tracer.spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def spans(name: str) -> list[tuple]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in spans(name))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s[6].get(key, 0) for s in spans(name)))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = tracer.counts()
    retrieve_ms = [(s[4] - s[3]) * 1e3 for s in spans("index.retrieve")]
    reranks = spans("fusion.rerank")
    rerank_ids = {s[0] for s in reranks}
    scorers = [s for s in spans("fusion.scorer") if s[1] in rerank_ids]
    hits = sum(1 for s in spans("llm.cache_get") if s[6].get("hit"))
    gets = len(spans("llm.cache_get"))
    turns = spans("pipeline.execute_turn")
    runs = spans("pipeline.execute_run")
    return {
        "index.read_corpus_s": total("index.read_corpus"),
        "index.load_sparse_vectors_s": total("index.load_sparse_vectors"),
        "index.build_s": total("index.build"),
        "index.retrieve_calls": float(len(retrieve_ms)),
        "index.retrieve_ms_p50": _pct(retrieve_ms, 50),
        "index.retrieve_ms_p90": _pct(retrieve_ms, 90),
        "index.postings_scanned": attr_sum("index.retrieve", "postings"),
        "index.docs_returned": attr_sum("index.retrieve", "returned"),
        "index.tokenize_calls": counts.get("tokenize_calls", 0.0),
        "index.tokenize_s": counts.get("tokenize_s", 0.0),
        "conversation.parse_topics_s": total("conversation.parse_topics"),
        "conversation.render_context_s": total("conversation.render_context"),
        "prompts.render_calls": float(len(spans("prompts.render"))),
        "prompts.render_s": total("prompts.render"),
        "llm.complete_calls": float(len(spans("llm.complete"))),
        "llm.complete_s": total("llm.complete"),
        "llm.cache_hits": float(hits),
        "llm.cache_misses": float(gets - hits),
        "llm.cache_hit_ratio": ratio(hits, gets),
        "llm.cache_get_s": total("llm.cache_get"),
        "llm.cache_put_calls": float(len(spans("llm.cache_put"))),
        "llm.cache_put_s": total("llm.cache_put"),
        "llm.cache_bytes_written": attr_sum("llm.cache_put", "bytes"),
        "offline.transport_calls": float(len(spans("offline.transport"))),
        "offline.transport_s": total("offline.transport"),
        "fusion.pool_s": total("fusion.pool"),
        "fusion.pool_candidates": attr_sum("fusion.pool", "pooled"),
        "fusion.pool_useful_ratio": ratio(
            attr_sum("fusion.pool", "longest"), attr_sum("fusion.pool", "depth")
        ),
        "fusion.rerank_s": total("fusion.rerank"),
        "fusion.rerank_ms_p50": _pct([(s[4] - s[3]) * 1e3 for s in reranks], 50),
        "fusion.rerank_scored": attr_sum("fusion.rerank", "scored"),
        "fusion.rerank_dropped": attr_sum("fusion.rerank", "dropped"),
        "fusion.scorer_calls": float(len(scorers)),
        **{
            f"fusion.scorer_s.{sid}": sum(s[4] - s[3] for s in scorers if s[6].get("scorer") == sid)
            for sid in SCORER_IDS
        },
        "fusion.tokenize_per_candidate": ratio(
            counts.get("scorer_tokenize_calls", 0.0), attr_sum("fusion.rerank", "scored")
        ),
        "fusion.ensemble_fuse_s": total("fusion.ensemble_fuse"),
        "fusion.interleave_s": total("fusion.interleave"),
        "pipeline.load_resources_s": total("pipeline.load_resources"),
        "pipeline.turn_self_ms_p50": _pct(
            [(s[4] - s[3] - child_time.get(s[0], 0.0)) * 1e3 for s in turns], 50
        ),
        "pipeline.write_s": total("pipeline.write"),
        "pipeline.run_lines": attr_sum("pipeline.write", "lines"),
        "pipeline.worker_utilisation": ratio(
            sum(s[4] - s[3] for s in turns), sum((s[4] - s[3]) * s[6]["workers"] for s in runs)
        ),
        "evaluation.parse_qrels_s": total("evaluation.parse_qrels"),
        "evaluation.read_run_file_s": total("evaluation.read_run_file"),
        "evaluation.evaluate_rankings_s": total("evaluation.evaluate_rankings"),
        "evaluation.for_query_calls": float(len(spans("evaluation.for_query"))),
        "evaluation.judgments_scanned": attr_sum("evaluation.for_query", "scanned"),
        "evaluation.qrels_lookup_useful_ratio": ratio(
            attr_sum("evaluation.for_query", "returned"),
            attr_sum("evaluation.for_query", "scanned"),
        ),
        "cli.fuse_s": total("cli.main"),
    }
