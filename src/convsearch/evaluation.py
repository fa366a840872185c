"""TREC-style evaluation: qrels and run files, ranking metrics, sliced reports.

Metrics follow the trec_eval conventions used by the conversational
benchmark this package targets: nDCG with linear gain, each rank adding
``rel / log2(rank + 1)``, and a binary relevance threshold (default
``rel >= 1``) for MRR, precision, recall, and average precision.

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
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

from .index import RankedList, _text

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


def parse_qrels(source: str | Path | IO[str]) -> Qrels:
    """Parse ``<query_id> <iter> <doc_id> <rel>`` lines (whitespace-separated).

    A grade is ASCII digits with an optional leading ``-``.

    Raises:
        ValueError: with the line number for malformed lines or grades,
            negative grades, or duplicate (query_id, doc_id) pairs.
    """
    judgments: dict[tuple[str, str], int] = {}
    with _text(source) as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"qrels line {lineno}: expected 4 fields, got {len(parts)}")
            query_id, _, doc_id, rel_text = parts
            digits = rel_text.removeprefix("-")
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                rel = int(rel_text)
            except ValueError:
                raise ValueError(f"qrels line {lineno}: non-integer relevance '{rel_text}'")
            if rel < 0:
                raise ValueError(f"qrels line {lineno}: negative relevance {rel}")
            pair = (query_id, doc_id)
            if pair in judgments:
                raise ValueError(f"qrels line {lineno}: duplicate pair {pair}")
            judgments[pair] = rel
    return Qrels(judgments)


def ndcg_at_k(ranking: RankedList, qrels: Qrels, k: int | None = None) -> float:
    """Normalized discounted cumulative gain at cutoff ``k`` (None = full).

    DCG sums ``rel_i / log2(i + 1)`` over ranks ``i <= k``; the ideal
    DCG comes from the relevance-sorted judged documents.  A query with no
    positively judged document scores 0 (callers flag it).
    """
    judged = qrels.for_query(ranking.query_id)
    ideal_gains = sorted((rel for rel in judged.values() if rel > 0), reverse=True)
    if k is not None:
        ideal_gains = ideal_gains[:k]
    idcg = sum(
        rel / math.log2(position + 1) for position, rel in enumerate(ideal_gains, start=1)
    )
    if idcg == 0.0:
        return 0.0
    docs = ranking.doc_ids()
    if k is not None:
        docs = docs[:k]
    dcg = sum(
        judged.get(doc_id, 0) / math.log2(position + 1)
        for position, doc_id in enumerate(docs, start=1)
    )
    return dcg / idcg


def reciprocal_rank(ranking: RankedList, qrels: Qrels, threshold: int = 1) -> float:
    """1/rank of the first document with ``rel >= threshold``, else 0."""
    judged = qrels.for_query(ranking.query_id)
    for position, doc_id in enumerate(ranking.doc_ids(), start=1):
        if judged.get(doc_id, 0) >= threshold:
            return 1.0 / position
    return 0.0


def precision_at_k(ranking: RankedList, qrels: Qrels, k: int, threshold: int = 1) -> float:
    """Relevant documents in the top k divided by k (fixed denominator)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    judged = qrels.for_query(ranking.query_id)
    hits = sum(1 for doc_id in ranking.doc_ids()[:k] if judged.get(doc_id, 0) >= threshold)
    return hits / k


def recall_at_k(ranking: RankedList, qrels: Qrels, k: int, threshold: int = 1) -> float:
    """Relevant documents in the top k divided by all relevant in the qrels.

    Zero relevant documents in the qrels yields 0 (callers flag it).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    judged = qrels.for_query(ranking.query_id)
    total_relevant = sum(1 for rel in judged.values() if rel >= threshold)
    if total_relevant == 0:
        return 0.0
    hits = sum(1 for doc_id in ranking.doc_ids()[:k] if judged.get(doc_id, 0) >= threshold)
    return hits / total_relevant


def average_precision(ranking: RankedList, qrels: Qrels, threshold: int = 1) -> float:
    """Mean of P@i over relevant ranks i, divided by total relevant count."""
    judged = qrels.for_query(ranking.query_id)
    total_relevant = sum(1 for rel in judged.values() if rel >= threshold)
    if total_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for position, doc_id in enumerate(ranking.doc_ids(), start=1):
        if judged.get(doc_id, 0) >= threshold:
            hits += 1
            precision_sum += hits / position
    return precision_sum / total_relevant


@dataclass(frozen=True)
class EvalCutoffs:
    """Metric cutoffs and binary threshold; defaults mirror the report suite."""

    ndcg_cutoff: int = 5
    precision_cutoff: int = 20
    recall_cutoff: int = 100
    threshold: int = 1

    def metric_columns(self) -> list[str]:
        return [
            f"nDCG@{self.ndcg_cutoff}",
            "nDCG",
            "MRR",
            f"Recall@{self.recall_cutoff}",
            f"P@{self.precision_cutoff}",
            "mAP",
        ]


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
    topic, _, turn = query_id.rpartition("_")
    try:
        if topic and turn.isascii() and turn.isdigit():
            return topic, int(turn)
    except ValueError:  # int() refuses a string of more than 4,300 digits
        pass
    raise ValueError(f"query_id '{query_id}' is not of the form <topic>_<turn>")


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
    with _text(source) as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"run line {lineno}: expected 6 fields, got {len(parts)}")
            query_id, _, doc_id, _, score_text, _ = parts
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
    number of lines written.
    """
    lines = [
        f"{query_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}"
        for query_id, ranking in rankings
        for rank, (doc_id, score) in enumerate(ranking.items, start=1)
    ]
    with _text(sink, "w") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def _compute_metrics(ranking: RankedList, qrels: Qrels, cutoffs: EvalCutoffs) -> dict[str, float]:
    return {
        f"nDCG@{cutoffs.ndcg_cutoff}": ndcg_at_k(ranking, qrels, cutoffs.ndcg_cutoff),
        "nDCG": ndcg_at_k(ranking, qrels),
        "MRR": reciprocal_rank(ranking, qrels, cutoffs.threshold),
        f"Recall@{cutoffs.recall_cutoff}": recall_at_k(
            ranking, qrels, cutoffs.recall_cutoff, cutoffs.threshold
        ),
        f"P@{cutoffs.precision_cutoff}": precision_at_k(
            ranking, qrels, cutoffs.precision_cutoff, cutoffs.threshold
        ),
        "mAP": average_precision(ranking, qrels, cutoffs.threshold),
    }


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
    per_query: dict[str, dict[str, float]] = {}
    zero_relevant: list[str] = []
    for query_id in sorted(qid for qid in rankings if qid in judged_queries):
        ranking = rankings[query_id]
        values = _compute_metrics(ranking, qrels, cutoffs)
        per_query[query_id] = values
        if not any(rel > 0 for rel in qrels.for_query(query_id).values()):
            zero_relevant.append(query_id)
    if per_query:
        aggregate = {
            m: sum(values[m] for values in per_query.values()) / len(per_query)
            for m in metrics
        }
    else:
        aggregate = {m: 0.0 for m in metrics}
    per_depth = _mean_by_group(per_query, metrics, lambda qid: parsed[qid][1])
    per_topic = _mean_by_group(per_query, metrics, lambda qid: parsed[qid][0])
    return MetricReport(
        metrics=metrics,
        per_query=per_query,
        aggregate=aggregate,
        per_depth=per_depth,
        per_topic=per_topic,
        excluded=excluded,
        zero_relevant=zero_relevant,
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
    if per_depth and report.per_depth:
        lines.append("")
        lines.append("per depth (turn number):")
        for depth, values in report.per_depth.items():
            lines.append(_format_row(f"  depth {depth}", values, report.metrics, width))
    if per_topic and report.per_topic:
        lines.append("")
        lines.append("per topic:")
        for topic, values in report.per_topic.items():
            lines.append(_format_row(f"  topic {topic}", values, report.metrics, width))
    if report.excluded:
        lines.append("")
        lines.append(f"excluded (not in qrels): {', '.join(report.excluded)}")
    if report.zero_relevant:
        lines.append(f"flagged (no relevant docs): {', '.join(report.zero_relevant)}")
    return "\n".join(lines)
