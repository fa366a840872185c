"""TREC-style evaluation: qrels and run files, ranking metrics, sliced reports.

Metrics follow the trec_eval conventions used by the conversational
benchmark this package targets: nDCG with linear gain, each rank adding
``rel / log2(rank + 1)``, and a binary relevance threshold (``rel >= t``
for a ``t`` of at least 1, default 1) for MRR, precision, recall, and
average precision.  Each metric reads one stream of grades in rank order
(0 when unjudged), cut at its ``k`` before any grade is looked up.  Qrels
and run files are read by one loop over whitespace-separated records.

Queries present in the run but absent from the qrels are excluded from
aggregation and listed; queries judged but with no relevant document score
0 and are flagged, so aggregates stay stable across runs.  Report slices
group per-query means by turn depth (turn number) and by topic, with
query ids parsed as ``<topic>_<turn>`` by :func:`default_query_id_parser`,
the form the pipeline writes turn ids in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .index import RankedList, _ascii_int, _id_problem, _text

__all__ = [
    "Qrels",
    "EvalCutoffs",
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
    "default_query_id_parser",
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


def _records(source: str | Path | IO[str], kind: str, width: int) -> Iterator[tuple[int, list]]:
    """``(lineno, fields)`` of each non-blank line, split on whitespace into ``width`` fields."""
    with _text(source) as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != width:
                raise ValueError(f"{kind} line {lineno}: expected {width} fields, got {len(parts)}")
            yield lineno, parts


def parse_qrels(source: str | Path | IO[str]) -> Qrels:
    """Parse ``<query_id> <iter> <doc_id> <rel>`` lines (whitespace-separated).

    A grade is ASCII digits with an optional leading ``-``.

    Raises:
        ValueError: with the line number for malformed lines or grades,
            negative grades, or duplicate (query_id, doc_id) pairs.
    """
    judgments: dict[tuple[str, str], int] = {}
    for lineno, (query_id, _, doc_id, rel_text) in _records(source, "qrels", 4):
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


def _check_cutoffs(k: int | None, threshold: int) -> None:
    """A cut-off ``k`` (None: all ranks) and a relevance threshold are each >= 1."""
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    if threshold < 1:  # below 1, every unjudged document would count as relevant
        raise ValueError("threshold must be >= 1")


def _gains(
    ranking: RankedList, qrels: Qrels, k: int | None = None, threshold: int = 1
) -> tuple[dict[str, int], Iterator[int]]:
    """The query's judgments, and the lazy grades (0 if unjudged) of its top ``k`` or all ranks."""
    _check_cutoffs(k, threshold)
    judged = qrels.for_query(ranking.query_id)
    return judged, map(judged.get, map(itemgetter(0), ranking.items[:k]), repeat(0))


def _dcg(grades: Iterable[int]) -> float:
    return sum(rel / math.log2(position + 1) for position, rel in enumerate(grades, start=1))


def _relevant(grades: Iterable[int], threshold: int) -> int:
    return sum(rel >= threshold for rel in grades)


def ndcg_at_k(ranking: RankedList, qrels: Qrels, k: int | None = None) -> float:
    """Normalized discounted cumulative gain at cutoff ``k`` (None = full, else >= 1).

    DCG sums ``rel_i / log2(i + 1)`` over ranks ``i <= k``; the ideal
    DCG comes from the relevance-sorted judged documents.  A query with no
    positively judged document scores 0 (callers flag it).
    """
    judged, grades = _gains(ranking, qrels, k)
    idcg = _dcg(sorted((rel for rel in judged.values() if rel > 0), reverse=True)[:k])
    return _dcg(grades) / idcg if idcg else 0.0


def reciprocal_rank(ranking: RankedList, qrels: Qrels, threshold: int = 1) -> float:
    """1/rank of the first document with ``rel >= threshold``, else 0."""
    _, grades = _gains(ranking, qrels, None, threshold)
    hits = (1.0 / position for position, rel in enumerate(grades, start=1) if rel >= threshold)
    return next(hits, 0.0)


def precision_at_k(ranking: RankedList, qrels: Qrels, k: int, threshold: int = 1) -> float:
    """Relevant documents in the top k divided by k (fixed denominator)."""
    _, grades = _gains(ranking, qrels, k, threshold)
    return _relevant(grades, threshold) / k


def recall_at_k(ranking: RankedList, qrels: Qrels, k: int, threshold: int = 1) -> float:
    """Relevant documents in the top k divided by all relevant in the qrels.

    Zero relevant documents in the qrels yields 0 (callers flag it).
    """
    judged, grades = _gains(ranking, qrels, k, threshold)
    total_relevant = _relevant(judged.values(), threshold)
    return _relevant(grades, threshold) / total_relevant if total_relevant else 0.0


def average_precision(ranking: RankedList, qrels: Qrels, threshold: int = 1) -> float:
    """Mean of P@i over relevant ranks i, divided by total relevant count."""
    judged, grades = _gains(ranking, qrels, None, threshold)
    total_relevant = _relevant(judged.values(), threshold)
    if total_relevant == 0:
        return 0.0
    hits, precision_sum = 0, 0.0
    for position, rel in enumerate(grades, start=1):
        if rel >= threshold:
            hits += 1
            precision_sum += hits / position
    return precision_sum / total_relevant


@dataclass(frozen=True)
class EvalCutoffs:
    """Metric cutoffs and binary threshold (>= 1); defaults mirror the report suite."""

    ndcg_cutoff: int = 5
    precision_cutoff: int = 20
    recall_cutoff: int = 100
    threshold: int = 1

    def __post_init__(self) -> None:
        for k in (self.ndcg_cutoff, self.precision_cutoff, self.recall_cutoff):
            _check_cutoffs(k, self.threshold)

    def metric_columns(self) -> list[str]:
        ndcg, recall, precision = self.ndcg_cutoff, self.recall_cutoff, self.precision_cutoff
        return [f"nDCG@{ndcg}", "nDCG", "MRR", f"Recall@{recall}", f"P@{precision}", "mAP"]


@dataclass
class MetricReport:
    """Per-query metric values plus aggregate and per-depth/per-topic slices."""

    metrics: list[str]
    per_query: dict[str, dict[str, float]]
    aggregate: dict[str, float]
    per_depth: dict[int, dict[str, float]]
    per_topic: dict[str, dict[str, float]]
    excluded: list[str] = field(default_factory=list)
    zero_relevant: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics,
            "aggregate": self.aggregate,
            "per_query": self.per_query,
            "per_depth": {str(depth): values for depth, values in self.per_depth.items()},
            "per_topic": self.per_topic,
            "excluded": self.excluded,
            "zero_relevant": self.zero_relevant,
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")


def default_query_id_parser(query_id: str) -> tuple[str, int]:
    """Split ``<topic>_<turn>`` on the last underscore; a turn is ASCII digits."""
    topic, _, turn_text = query_id.rpartition("_")
    turn = _ascii_int(turn_text)
    if not topic or turn is None:
        raise ValueError(f"query_id '{query_id}' is not of the form <topic>_<turn>")
    return topic, turn


def read_run_file(source: str | Path | IO[str]) -> dict[str, RankedList]:
    """Read a TREC run file into per-query ranked lists.

    Documents are reordered by (descending score, ascending doc_id), so a
    run produced elsewhere with a different tie policy evaluates
    consistently.  A score is an ASCII decimal without ``_`` that reads as
    a finite number.

    Raises:
        ValueError: with the line number for malformed lines, scores that
            are not numbers or not finite, or a doc listed twice for a query.
    """
    per_query: dict[str, dict[str, float]] = {}
    for lineno, (query_id, _, doc_id, _, score_text, _) in _records(source, "run", 6):
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
    return {qid: RankedList.from_scores(qid, scores) for qid, scores in per_query.items()}


def write_run_file(
    rankings: Iterable[tuple[str, RankedList]], run_tag: str, sink: str | Path | IO[str]
) -> int:
    """Write ``(query_id, ranking)`` pairs in TREC run format, one block per pair in order.

    Lines are ``<query_id> Q0 <doc_id> <rank> <score> <run_tag>`` with rank
    starting at 1 and scores rendered to 6 decimal places.  Returns the
    number of lines written; raises ValueError, writing nothing, for a
    ``run_tag`` that is empty or holds whitespace.
    """
    if problem := _id_problem("run_tag", [run_tag]):
        raise ValueError(problem)
    lines = [
        f"{query_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}"
        for query_id, ranking in rankings
        for rank, (doc_id, score) in enumerate(ranking.items, start=1)
    ]
    with _text(sink, "w") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def _compute_metrics(ranking: RankedList, qrels: Qrels, cutoffs: EvalCutoffs) -> dict[str, float]:
    threshold = cutoffs.threshold
    values = (
        ndcg_at_k(ranking, qrels, cutoffs.ndcg_cutoff),
        ndcg_at_k(ranking, qrels),
        reciprocal_rank(ranking, qrels, threshold),
        recall_at_k(ranking, qrels, cutoffs.recall_cutoff, threshold),
        precision_at_k(ranking, qrels, cutoffs.precision_cutoff, threshold),
        average_precision(ranking, qrels, threshold),
    )
    return dict(zip(cutoffs.metric_columns(), values))


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


def evaluate_rankings(
    rankings: dict[str, RankedList],
    qrels: Qrels,
    cutoffs: EvalCutoffs = EvalCutoffs(),
) -> MetricReport:
    """Evaluate per-query rankings and assemble the sliced report.

    Run queries absent from the qrels are excluded from every mean and
    listed in ``excluded``; judged queries with no relevant document score
    0 and are listed in ``zero_relevant``.

    Raises:
        ValueError: when a query_id cannot be parsed into (topic, turn).
    """
    metrics = cutoffs.metric_columns()
    parsed = {query_id: default_query_id_parser(query_id) for query_id in rankings}
    judged_queries = qrels.query_ids()
    excluded = sorted(qid for qid in rankings if qid not in judged_queries)
    per_query = {
        qid: _compute_metrics(rankings[qid], qrels, cutoffs)
        for qid in sorted(judged_queries.intersection(rankings))
    }
    zero_relevant = [
        qid for qid in per_query if not any(rel > 0 for rel in qrels.for_query(qid).values())
    ]
    # the aggregate is the mean over one group of every query; zeros when none is judged
    everything = _mean_by_group(per_query, metrics, lambda qid: "all")
    aggregate = everything.get("all", dict.fromkeys(metrics, 0.0))
    per_depth = _mean_by_group(per_query, metrics, lambda qid: parsed[qid][1])
    per_topic = _mean_by_group(per_query, metrics, lambda qid: parsed[qid][0])
    return MetricReport(
        metrics, per_query, aggregate, per_depth, per_topic, excluded, zero_relevant
    )


def evaluate_run(
    run_source: str | Path | IO[str],
    qrels: Qrels,
    cutoffs: EvalCutoffs = EvalCutoffs(),
) -> MetricReport:
    """Evaluate a TREC run file against qrels."""
    return evaluate_rankings(read_run_file(run_source), qrels, cutoffs)


def _format_row(label: str, values: dict[str, float], metrics: Sequence[str], width: int) -> str:
    cells = "".join(f"{values[m]:>12.4f}" for m in metrics)
    return f"{label:<{width}}{cells}"


def format_report(
    report: MetricReport,
    per_depth: bool = False,
    per_topic: bool = False,
) -> str:
    """Render the report as an aligned text table."""
    width = 16
    header = f"{'':<{width}}" + "".join(f"{m:>12}" for m in report.metrics)
    lines = [header, _format_row("all", report.aggregate, report.metrics, width)]
    slices = (
        (per_depth, "per depth (turn number):", "depth", report.per_depth),
        (per_topic, "per topic:", "topic", report.per_topic),
    )
    for wanted, title, label, groups in slices:
        if wanted and groups:
            lines += ["", title]
            lines += (_format_row(f"  {label} {key}", values, report.metrics, width)
                      for key, values in groups.items())
    if report.excluded:
        lines += ["", f"excluded (not in qrels): {', '.join(report.excluded)}"]
    if report.zero_relevant:
        lines.append(f"flagged (no relevant docs): {', '.join(report.zero_relevant)}")
    return "\n".join(lines)
