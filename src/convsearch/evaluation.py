"""TREC-style evaluation: qrels and run files, ranking metrics, sliced reports.

Metrics follow the trec_eval conventions used by the conversational
benchmark this package targets: nDCG with linear gain, each rank adding
``rel / log2(rank + 1)``, and a binary relevance threshold (``rel >= t``
for a ``t`` of at least 1, default 1) for MRR, precision, recall, and
average precision.  Each metric takes a query's ranking and judgments
(doc_id -> grade, as :meth:`Qrels.for_query` returns) and reads one stream of
grades in rank order (0 when unjudged), cut at its ``k`` before any grade is
looked up.  Qrels and run files are read by one loop over whitespace-separated
records, whose query id and doc_id are identifiers.

A report scores one suite, ``_METRICS``: nDCG@5, nDCG, MRR, Recall@100, P@20
and mAP, at the default threshold of 1; a caller who needs another cut-off or
threshold calls the metric functions directly.  Queries present in the run but
absent from the qrels are excluded from aggregation and listed; queries judged
but with no relevant document score 0 and are flagged, so aggregates stay
stable across runs.  Every report is sliced: per-query means grouped by turn
depth (turn number) and by topic, with query ids parsed as ``<topic>_<turn>``,
the form the pipeline writes turn ids in; :func:`format_report` prints each
non-empty slice under the aggregate.

Ties: equal scores rank by ascending doc_id.  A run file prints each score to 6
decimals, so two scores less than 1e-6 apart can print equal, and
:func:`read_run_file`, which ``convsearch evaluate`` and ``convsearch fuse`` read
through, then orders them by doc_id, not by the rank column.  trec_eval breaks
ties by descending docno instead (Lin & Yang, SIGIR 2019).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from .index import RankedList, _ascii_int, _id_problem, _text, _write_text

_Judged = Mapping[str, int]  # one query's judgments: doc_id -> grade

__all__ = [
    "Qrels",
    "MetricReport",
    "parse_qrels",
    "ndcg_at_k",
    "reciprocal_rank",
    "precision_at_k",
    "recall_at_k",
    "average_precision",
    "read_run_file",
    "write_run_file",
    "evaluate_run",
    "evaluate_rankings",
    "format_report",
]


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id), grouped by query once."""

    judgments: dict[tuple[str, str], int] = field(default_factory=dict)
    _by_query: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_query: dict[str, dict[str, int]] = {}
        for (qid, doc_id), rel in self.judgments.items():
            by_query.setdefault(qid, {})[doc_id] = rel
        object.__setattr__(self, "_by_query", by_query)

    def for_query(self, query_id: str) -> dict[str, int]:
        return dict(self._by_query.get(query_id, {}))

    def query_ids(self) -> set[str]:
        return set(self._by_query)


def _records(handle: IO[str], kind: str, width: int) -> Iterator[tuple[int, list]]:
    """``(lineno, fields)`` of each non-blank line, split on whitespace into ``width`` fields."""
    for lineno, line in enumerate(handle, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != width:
            raise ValueError(f"{kind} line {lineno}: expected {width} fields, got {len(parts)}")
        if not (parts[0] + parts[2] + parts[-1]).isprintable():  # query id, doc_id, a run's tag
            problem = _id_problem("query_id", parts[:1]) or _id_problem("doc_id", parts[2:3])
            if problem := problem or _id_problem("run_tag", parts[5:]):  # else a qrels grade
                raise ValueError(f"{kind} line {lineno}: {problem}")
        yield lineno, parts


def parse_qrels(source: str | Path | IO[str]) -> Qrels:
    """Parse ``<query_id> <iter> <doc_id> <rel>`` lines (whitespace-separated).

    A grade is ASCII digits with an optional leading ``-``.

    Raises:
        ValueError: with the line number, after the path for a path, for malformed
            lines, identifiers or grades, negative grades, or duplicate (query_id, doc_id) pairs.
    """
    judgments: dict[tuple[str, str], int] = {}
    with _text(source) as handle:
        for lineno, (query_id, _, doc_id, rel_text) in _records(handle, "qrels", 4):
            rel = _ascii_int(rel_text.removeprefix("-"))
            if rel is None:
                raise ValueError(f"qrels line {lineno}: non-integer relevance '{rel_text}'")
            if rel and rel_text.startswith("-"):
                raise ValueError(f"qrels line {lineno}: negative relevance -{rel}")
            pair = (query_id, doc_id)
            if pair in judgments:
                raise ValueError(f"qrels line {lineno}: duplicate pair {pair}")
            judgments[pair] = rel
    return Qrels(judgments)


def _gains(
    ranking: RankedList, judged: _Judged, k: int | None = None, threshold: int = 1
) -> Iterator[int]:
    """The lazy grades (0 if unjudged) of the ranking's top ``k`` or all ranks.

    A cut-off ``k`` (None: all ranks) and a relevance threshold are each >= 1.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    if threshold < 1:  # below 1, every unjudged document would count as relevant
        raise ValueError("threshold must be >= 1")
    return map(judged.get, map(itemgetter(0), ranking.items[:k]), repeat(0))


def _dcg(grades: Iterable[int]) -> float:
    return sum(rel / math.log2(position + 1) for position, rel in enumerate(grades, start=1))


def _relevant(grades: Iterable[int], threshold: int) -> int:
    return sum(rel >= threshold for rel in grades)


def ndcg_at_k(ranking: RankedList, judged: _Judged, k: int | None = None) -> float:
    """Normalized discounted cumulative gain at cutoff ``k`` (None = full, else >= 1).

    DCG sums ``rel_i / log2(i + 1)`` over ranks ``i <= k``; the ideal DCG comes
    from the relevance-sorted documents in ``judged``.  A query with no
    positively judged document scores 0 (callers flag it).
    """
    grades = _gains(ranking, judged, k)
    idcg = _dcg(sorted((rel for rel in judged.values() if rel > 0), reverse=True)[:k])
    return _dcg(grades) / idcg if idcg else 0.0


def reciprocal_rank(ranking: RankedList, judged: _Judged, threshold: int = 1) -> float:
    """1/rank of the first document whose grade in ``judged`` is ``>= threshold``, else 0."""
    grades = _gains(ranking, judged, None, threshold)
    hits = (1.0 / position for position, rel in enumerate(grades, start=1) if rel >= threshold)
    return next(hits, 0.0)


def precision_at_k(ranking: RankedList, judged: _Judged, k: int, threshold: int = 1) -> float:
    """Documents in the top k graded ``>= threshold`` in ``judged``, divided by k (fixed)."""
    grades = _gains(ranking, judged, k, threshold)
    return _relevant(grades, threshold) / k


def recall_at_k(ranking: RankedList, judged: _Judged, k: int, threshold: int = 1) -> float:
    """Relevant documents in the top k divided by all relevant in ``judged``.

    Zero relevant documents in ``judged`` yields 0 (callers flag it).
    """
    grades = _gains(ranking, judged, k, threshold)
    total_relevant = _relevant(judged.values(), threshold)
    return _relevant(grades, threshold) / total_relevant if total_relevant else 0.0


def average_precision(ranking: RankedList, judged: _Judged, threshold: int = 1) -> float:
    """Sum of P@i over relevant ranks i, divided by the relevant count in ``judged``."""
    grades = _gains(ranking, judged, None, threshold)
    total_relevant = _relevant(judged.values(), threshold)
    if total_relevant == 0:
        return 0.0
    hits, precision_sum = 0, 0.0
    for position, rel in enumerate(grades, start=1):
        if rel >= threshold:
            hits += 1
            precision_sum += hits / position
    return precision_sum / total_relevant


@dataclass
class MetricReport:
    """Per-query metric values plus aggregate and per-depth/per-topic slices."""

    metrics: list[str]
    aggregate: dict[str, float]
    per_query: dict[str, dict[str, float]]
    per_depth: dict[int, dict[str, float]]
    per_topic: dict[str, dict[str, float]]
    excluded: list[str] = field(default_factory=list)
    zero_relevant: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)  # json.dumps writes the int per_depth keys as strings

    def write_json(self, path: str | Path) -> None:
        _write_text(path, json.dumps(self.to_dict(), indent=2))


def _default_query_id_parser(query_id: str) -> tuple[str, int]:
    """Split ``<topic>_<turn>`` on the last underscore; a turn is ASCII digits."""
    topic, _, turn_text = query_id.rpartition("_")
    turn = _ascii_int(turn_text)
    if not topic or turn is None:
        raise ValueError(f"query_id '{query_id}' is not of the form <topic>_<turn>")
    return topic, turn


def read_run_file(source: str | Path | IO[str]) -> dict[str, RankedList]:
    """Read a TREC run file into per-query ranked lists.

    Each query's doc_id -> score mapping becomes a :class:`RankedList`,
    which orders it by descending score then ascending doc_id, so a run
    produced elsewhere with a different tie policy evaluates consistently.
    A score is an ASCII decimal without ``_`` that reads as a finite number.

    Raises:
        ValueError: with the line number, after the path for a path, for malformed
            lines or identifiers (the run tag's too), scores that are not numbers or
            not finite, or a doc listed twice for a query.
    """
    per_query: dict[str, dict[str, float]] = {}
    with _text(source) as handle:
        for lineno, (query_id, _, doc_id, _, score_text, _) in _records(handle, "run", 6):
            try:
                if not score_text.isascii() or "_" in score_text:
                    raise ValueError
                score = float(score_text)
            except ValueError:
                raise ValueError(f"run line {lineno}: non-numeric score '{score_text}'")
            if not math.isfinite(score):
                raise ValueError(f"run line {lineno}: non-finite score '{score_text}'")
            bucket = per_query.setdefault(query_id, {})
            if doc_id in bucket:
                raise ValueError(f"run line {lineno}: duplicate doc '{doc_id}' for '{query_id}'")
            bucket[doc_id] = score
    return {qid: RankedList(scores) for qid, scores in per_query.items()}


def write_run_file(
    rankings: Iterable[tuple[str, RankedList]], run_tag: str, sink: str | Path | IO[str]
) -> int:
    """Write ``(query_id, ranking)`` pairs in TREC run format, one block per pair in order.

    Lines are ``<query_id> Q0 <doc_id> <rank> <score> <run_tag>`` with rank
    starting at 1 and scores rendered to 6 decimal places.  Returns the
    number of lines written; raises ValueError, writing nothing, for a
    ``run_tag`` that is empty, holds whitespace or an unprintable character.
    """
    if problem := _id_problem("run_tag", [run_tag]):
        raise ValueError(problem)
    lines = [
        f"{query_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}\n"
        for query_id, ranking in rankings
        for rank, (doc_id, score) in enumerate(ranking.items, start=1)
    ]
    _write_text(sink, "".join(lines))
    return len(lines)


_METRICS = ("nDCG@5", "nDCG", "MRR", "Recall@100", "P@20", "mAP")


def _compute_metrics(ranking: RankedList, judged: _Judged) -> dict[str, float]:
    values = (
        ndcg_at_k(ranking, judged, 5),
        ndcg_at_k(ranking, judged),
        reciprocal_rank(ranking, judged),
        recall_at_k(ranking, judged, 100),
        precision_at_k(ranking, judged, 20),
        average_precision(ranking, judged),
    )
    return dict(zip(_METRICS, values))


def _mean_by_group(
    per_query: dict[str, dict[str, float]],
    metrics: Sequence[str],
    group_of: Callable[[str], object],
) -> dict:
    groups: dict = {}
    for query_id, values in per_query.items():
        groups.setdefault(group_of(query_id), []).append(values)
    # keys are homogeneous per call (all ints for depth, all strs for topic)
    return {
        group: {m: sum(v[m] for v in members) / len(members) for m in metrics}
        for group, members in sorted(groups.items(), key=lambda kv: kv[0])
    }


def evaluate_rankings(rankings: dict[str, RankedList], qrels: Qrels) -> MetricReport:
    """Score rankings keyed by query id on the report suite and assemble the sliced report.

    Each ranking is scored against the judgments of its key, read once.  Run
    queries absent from the qrels are excluded from every mean and listed in
    ``excluded``; judged queries with no relevant document score 0 and are
    listed in ``zero_relevant``.

    Raises:
        ValueError: when a query_id cannot be parsed into (topic, turn).
    """
    metrics = list(_METRICS)
    parsed = {query_id: _default_query_id_parser(query_id) for query_id in rankings}
    judged_queries = qrels.query_ids()
    excluded = sorted(qid for qid in rankings if qid not in judged_queries)
    judged = {qid: qrels.for_query(qid) for qid in sorted(judged_queries.intersection(rankings))}
    per_query = {qid: _compute_metrics(rankings[qid], judged[qid]) for qid in judged}
    zero_relevant = [qid for qid, grades in judged.items() if max(grades.values()) <= 0]
    # the aggregate is the mean over one group of every query; zeros when none is judged
    everything = _mean_by_group(per_query, metrics, lambda qid: "all")
    aggregate = everything.get("all", dict.fromkeys(metrics, 0.0))
    per_depth = _mean_by_group(per_query, metrics, lambda qid: parsed[qid][1])
    per_topic = _mean_by_group(per_query, metrics, lambda qid: parsed[qid][0])
    return MetricReport(
        metrics, aggregate, per_query, per_depth, per_topic, excluded, zero_relevant
    )


def evaluate_run(run_source: str | Path | IO[str], qrels: Qrels) -> MetricReport:
    """Evaluate a TREC run file against qrels; a ValueError follows a path, as a reader's does."""
    with _text(run_source) as handle:  # a query id is parsed after the read
        return evaluate_rankings(read_run_file(handle), qrels)


def _format_row(label: str, values: dict[str, float], metrics: Sequence[str], width: int) -> str:
    cells = "".join(f"{values[m]:>12.4f}" for m in metrics)
    return f"{label:<{width}}{cells}"


def format_report(report: MetricReport) -> str:
    """Render the report as an aligned text table, then each non-empty slice."""
    width = 16
    header = f"{'':<{width}}" + "".join(f"{m:>12}" for m in report.metrics)
    lines = [header, _format_row("all", report.aggregate, report.metrics, width)]
    slices = (
        ("per depth (turn number):", "depth", report.per_depth),
        ("per topic:", "topic", report.per_topic),
    )
    for title, label, groups in slices:
        if groups:
            lines += ["", title]
            lines += (_format_row(f"  {label} {key}", values, report.metrics, width)
                      for key, values in groups.items())
    if report.excluded:
        lines += ["", f"excluded (not in qrels): {', '.join(report.excluded)}"]
    if report.zero_relevant:
        lines.append(f"flagged (no relevant docs): {', '.join(report.zero_relevant)}")
    return "\n".join(lines)
