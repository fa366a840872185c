"""Rank fusion and reranking: min-max ensembling, interleaving, pooling.

Fusion operates on :class:`~convsearch.index.RankedList` values of one
query, which the caller keys by its id, and builds each result from a
doc_id -> score mapping that the list orders on construction.  Ensemble
fusion (of one list: min-max normalization) and reranking rank through one
kernel: a float row per input list or scorer (min-max normalized, except a
lone scorer's; 0 where a list lacks a document), averaged into one ranked
list.  Interleaving merges orderings round-robin with global deduplication
and synthetic 1/rank scores; pooling takes the deduplicated union of
per-list prefixes for a later reranking pass.

Rerankers are pluggable scorers: anything with
``score(query, passages) -> list[float]`` aligned with its input.  Scorers
must be pure in (query, passage) and safe for concurrent batch calls.
Cross-encoder services plug in through :class:`RemoteScorer`, which posts
through the chat transport's JSON POST helper in :mod:`convsearch.llm`;
any other scorer id gets a deterministic :class:`PseudoCrossEncoder`
stand-in, which backs demos and the shipped fixture configs offline.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import zip_longest
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .index import AnalyzerConfig, Passage, RankedList
from .llm import _post_json

__all__ = [
    "Scorer",
    "PseudoCrossEncoder",
    "RemoteScorer",
    "resolve_scorer",
    "ensemble_fuse",
    "interleave",
    "pool_candidates",
    "rerank",
]


class Scorer(Protocol):
    """Relevance scorer over (query, passage) pairs, order-preserving."""

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]: ...


class NumericSuffixScorer:
    """Test stub, not exported: score equals the trailing digits of the doc_id (0 if none)."""

    _SUFFIX_RE = re.compile(r"(\d+)$")

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]:
        scores = []
        for passage in passages:
            match = self._SUFFIX_RE.search(passage.doc_id)
            scores.append(float(match.group(1)) if match else 0.0)
        return scores


# function words carry no relevance signal for the offline scorers
_SCORER_STOPWORDS = frozenset(
    "a about above after again against all also am an and any are as at be because "
    "been before being below between both but by can could did do does doing down "
    "during each few for from further get had has have here how i if in into is it "
    "its just me more most my no not now of off on once only or other our out over "
    "own same she should so some such than that the their them then there these "
    "they this through to too under until up us very was we were what when where "
    "which while who why will with would you your".split()
)


class LexicalOverlapScorer:
    """Fraction of distinct content-word query tokens that occur in the passage."""

    analyzer = AnalyzerConfig()

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]:
        query_terms = set(self.analyzer.tokenize(query)) - _SCORER_STOPWORDS
        if not query_terms:
            return [0.0 for _ in passages]
        # query_terms holds no stopword, so the passage's need not be removed
        tokenize, size = self.analyzer.tokenize, len(query_terms)
        return [len(query_terms.intersection(tokenize(p.text))) / size for p in passages]


class PseudoCrossEncoder:
    """Deterministic offline stand-in for a named cross-encoder.

    Lexical overlap dominates the score; a stable content hash seeded by
    the scorer name adds a perturbation of up to ``JITTER`` so distinct
    names produce distinct but plausible rankings.  Pure and
    platform-stable.
    """

    JITTER = 0.25

    def __init__(self, name: str):
        self.name = name
        self._overlap = LexicalOverlapScorer()

    def _unit_hash(self, query: str, text: str) -> float:
        digest = hashlib.sha256(f"{self.name}\x00{query}\x00{text}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]:
        overlaps = self._overlap.score(query, passages)
        return [
            overlap + self.JITTER * self._unit_hash(query, passage.text)
            for overlap, passage in zip(overlaps, passages)
        ]


class RemoteScorer:
    """Adapter for a cross-encoder service.

    POSTs ``{"query": ..., "passages": [{"doc_id", "text"}, ...]}`` and
    expects ``{"scores": [...]}`` of finite JSON numbers, one per passage.
    Every failure raises a :class:`RuntimeError` naming the endpoint: a
    request that fails, or outlasts ``llm.TIMEOUT`` seconds, raises
    :class:`~convsearch.llm.TransportError`, and any other reply
    "malformed scorer reply".
    """

    def __init__(self, endpoint_url: str):
        self.endpoint_url = endpoint_url

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]:
        payload = {
            "query": query,
            "passages": [{"doc_id": p.doc_id, "text": p.text} for p in passages],
        }
        body = _post_json(self.endpoint_url, payload)
        try:
            raw = json.loads(body.decode("utf-8"))["scores"]
            scores = [float(s) for s in raw]  # an int past the float range overflows
            if any(type(s) not in (int, float) for s in raw) or not np.isfinite(scores).all():
                raise ValueError("scores must be finite JSON numbers")
            if len(scores) != len(passages):
                raise ValueError(f"{len(scores)} scores for {len(passages)} passages")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RuntimeError(f"malformed scorer reply: {exc!r} from {self.endpoint_url}") from exc
        return scores


def resolve_scorer(scorer_id: str, endpoints: Mapping[str, str] | None = None) -> Scorer:
    """Map a scorer id to a scorer instance.

    Ids present in ``endpoints`` become :class:`RemoteScorer` clients; any
    other id becomes a :class:`PseudoCrossEncoder` stand-in seeded by the
    id, so named cross-encoder configurations stay runnable without model
    hosting.
    """
    if endpoints and scorer_id in endpoints:
        return RemoteScorer(endpoints[scorer_id])
    return PseudoCrossEncoder(scorer_id)


def _min_max(scores: np.ndarray) -> np.ndarray:
    """Rescale to [0, 1], never -0.0; a degenerate range (max == min) maps every score to 1.0."""
    low, high = float(scores.min()), float(scores.max())
    if high == low:
        return np.ones_like(scores)
    if not np.isfinite(high - low):  # Python floats overflow to inf without a warning
        scores, low, high = scores / 2, low / 2, high / 2
    return (scores - low) / (high - low) + 0.0  # -0.0 minus a +0.0 minimum leaves -0.0


def _fuse(doc_ids: Sequence[str], rows: Sequence[np.ndarray]) -> RankedList:
    """Rank ``doc_ids`` by the mean of ``rows``, summed in order as ``rows[0] + rows[1] + ...``."""
    fused = sum(rows[1:], rows[0]) / len(rows)
    return RankedList(dict(zip(doc_ids, fused.tolist())))


def ensemble_fuse(lists: Sequence[RankedList]) -> RankedList:
    """Fuse lists by the arithmetic mean of min-max-normalized scores.

    A document absent from a list scores 0 in that list's row, and one list
    fuses to its min-max normalization (a degenerate range gives 1.0).
    Output is sorted by descending fused score, ties by ascending doc_id.

    Raises:
        ValueError: for no lists.
    """
    if not lists:
        raise ValueError("at least one ranked list required")
    doc_ids = list(dict.fromkeys(doc_id for ranked in lists for doc_id, _ in ranked.items))
    column = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    rows = np.zeros((len(lists), len(doc_ids)))
    for row, ranked in zip(rows, lists):
        if ranked.items:
            ids, scores = zip(*ranked.items)
            row[[column[doc_id] for doc_id in ids]] = _min_max(np.array(scores))
    return _fuse(doc_ids, rows)


def interleave(lists: Sequence[RankedList]) -> RankedList:
    """Merge lists round-robin with global deduplication.

    On each list's turn it contributes its next document not yet emitted;
    a list that runs out drops out of the rounds.  Output scores are
    synthetic 1/rank values, which fall with each rank, so the ranked list
    keeps the merge order.

    Raises:
        ValueError: for no lists.
    """
    if not lists:
        raise ValueError("at least one ranked list required")
    iterators = [iter(ranked.doc_ids()) for ranked in lists]
    merged: dict[str, float] = {}
    while iterators:
        for iterator in tuple(iterators):
            for doc_id in iterator:
                if doc_id not in merged:
                    merged[doc_id] = 1.0 / (len(merged) + 1)
                    break
            else:  # the list ran out
                iterators.remove(iterator)
    return RankedList(merged)


def pool_candidates(lists: Sequence[RankedList], per_list_depth: int) -> list[str]:
    """Deduplicated union of each list's top ``per_list_depth`` documents.

    Order is first appearance scanning the list prefixes round-robin
    (rank 1 of every list, then rank 2, ...), which is deterministic.
    """
    if per_list_depth < 1:
        raise ValueError("per_list_depth must be >= 1")
    ranks = zip_longest(*(ranked.doc_ids()[:per_list_depth] for ranked in lists))
    return list(dict.fromkeys(d for rank in ranks for d in rank if d is not None))


def rerank(
    scorers: Sequence[Scorer],
    query: str,
    candidates: Sequence[str],
    depth: int,
    get_passage: Callable[[str], Passage],
) -> RankedList:
    """Score the first ``min(depth, len(candidates))`` candidates.

    Candidates beyond ``depth`` are dropped; the output is a permutation
    of the scored prefix sorted by descending score (ties by doc_id).
    One scorer's scores rank the candidates as they are; several, one
    array row each, are min-max normalized and averaged by the same rule
    as :func:`ensemble_fuse`.  Only the result is built as a ranked list.

    Raises:
        ValueError: for no scorers, depth < 1, duplicate candidates, an
            unknown doc_id or a non-finite score (both named in the
            message), or a scorer giving the wrong number of scores.
    """
    if not scorers:
        raise ValueError("rerank requires at least one scorer")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidates must be deduplicated")
    scored_ids = list(candidates[:depth])
    passages = []
    for doc_id in scored_ids:
        try:
            passages.append(get_passage(doc_id))
        except KeyError as exc:
            raise ValueError(f"unknown doc_id '{doc_id}'") from exc
    if not scored_ids:
        return RankedList({})
    rows = []
    for scorer in scorers:
        row = np.array(scorer.score(query, passages), dtype=float)
        if row.shape != (len(passages),):
            raise ValueError("scorer returned misaligned scores")
        finite = np.isfinite(row)
        if not finite.all():
            bad = int(finite.argmin())
            raise ValueError(f"non-finite score {row[bad]} for doc_id '{scored_ids[bad]}'")
        rows.append(row)
    return _fuse(scored_ids, rows if len(rows) == 1 else [_min_max(r) for r in rows])
