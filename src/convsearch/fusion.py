"""Rank fusion and reranking: min-max ensembling, interleaving, pooling.

Fusion operates on :class:`~convsearch.index.RankedList` values sharing a
query id.  The ensemble path min-max normalizes each input list and
averages per document (a document missing from a list contributes 0 for
that list); the interleave path merges orderings round-robin with global
deduplication and synthetic 1/rank scores; pooling takes the deduplicated
union of per-list prefixes for a later reranking pass.

Rerankers are pluggable scorers: anything with
``score(query, passages) -> list[float]`` aligned with its input.  Scorers
must be pure in (query, passage) and safe for concurrent batch calls.
Cross-encoder services plug in through :class:`RemoteScorer`; offline
deterministic scorers back tests, demos, and the shipped fixture configs.
"""

from __future__ import annotations

import hashlib
import json
import re
import urllib.error
import urllib.request
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .index import AnalyzerConfig, Passage, RankedList

__all__ = [
    "Scorer",
    "NumericSuffixScorer",
    "LexicalOverlapScorer",
    "PseudoCrossEncoder",
    "RemoteScorer",
    "resolve_scorer",
    "min_max_normalize",
    "ensemble_fuse",
    "interleave",
    "pool_candidates",
    "rerank",
]


class Scorer(Protocol):
    """Relevance scorer over (query, passage) pairs, order-preserving."""

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]: ...


class NumericSuffixScorer:
    """Test stub: score equals the trailing digits of the doc_id (0 if none)."""

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

    def __init__(self, analyzer: AnalyzerConfig | None = None):
        self.analyzer = analyzer or AnalyzerConfig(stopwords=_SCORER_STOPWORDS)

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]:
        query_terms = set(self.analyzer.tokenize(query))
        if not query_terms:
            return [0.0 for _ in passages]
        scores = []
        for passage in passages:
            doc_terms = set(self.analyzer.tokenize(passage.text))
            scores.append(len(query_terms & doc_terms) / len(query_terms))
        return scores


class PseudoCrossEncoder:
    """Deterministic offline stand-in for a named cross-encoder.

    Lexical overlap dominates the score; a stable content hash seeded by
    the scorer name adds a small per-model perturbation so distinct names
    produce distinct but plausible rankings.  Pure and platform-stable.
    """

    def __init__(self, name: str, jitter: float = 0.25):
        self.name = name
        self.jitter = jitter
        self._overlap = LexicalOverlapScorer()

    def _unit_hash(self, query: str, text: str) -> float:
        digest = hashlib.sha256(f"{self.name}\x00{query}\x00{text}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]:
        overlaps = self._overlap.score(query, passages)
        return [
            overlap + self.jitter * self._unit_hash(query, passage.text)
            for overlap, passage in zip(overlaps, passages)
        ]


class RemoteScorer:
    """Adapter for a cross-encoder service.

    POSTs ``{"query": ..., "passages": [{"doc_id", "text"}, ...]}`` and
    expects ``{"scores": [...]}`` aligned with the input.
    """

    def __init__(self, endpoint_url: str, timeout: float = 60.0):
        self.endpoint_url = endpoint_url
        self.timeout = timeout

    def score(self, query: str, passages: Sequence[Passage]) -> list[float]:
        payload = {
            "query": query,
            "passages": [{"doc_id": p.doc_id, "text": p.text} for p in passages],
        }
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint_url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                data = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise RuntimeError(f"scorer request failed: {exc}") from exc
        try:
            scores = [float(s) for s in data["scores"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise RuntimeError(f"malformed scorer reply: {exc!r}") from exc
        if len(scores) != len(passages):
            raise RuntimeError(
                f"scorer returned {len(scores)} scores for {len(passages)} passages"
            )
        return scores


def resolve_scorer(scorer_id: str, endpoints: Mapping[str, str] | None = None) -> Scorer:
    """Map a scorer id to a scorer instance.

    Ids present in ``endpoints`` become :class:`RemoteScorer` clients; the
    builtin ids ``stub-suffix`` and ``lexical-overlap`` map to the offline
    scorers; any other id becomes a :class:`PseudoCrossEncoder` stand-in
    seeded by the id, so named cross-encoder configurations stay runnable
    without model hosting.
    """
    if endpoints and scorer_id in endpoints:
        return RemoteScorer(endpoints[scorer_id])
    if scorer_id == "stub-suffix":
        return NumericSuffixScorer()
    if scorer_id == "lexical-overlap":
        return LexicalOverlapScorer()
    return PseudoCrossEncoder(scorer_id)


def min_max_normalize(ranked: RankedList) -> RankedList:
    """Rescale scores to [0, 1] keeping ordering and documents unchanged.

    A degenerate range (max == min, including singletons) maps every score
    to 1.0.  Empty lists pass through.
    """
    if not ranked.items:
        return ranked
    scores = np.array([s for _, s in ranked.items], dtype=float)
    low, high = float(scores.min()), float(scores.max())
    if high == low:
        normalized = np.ones_like(scores)
    else:
        normalized = (scores - low) / (high - low)
    items = tuple((doc_id, float(s)) for (doc_id, _), s in zip(ranked.items, normalized))
    return RankedList(ranked.query_id, items)


def _require_shared_query_id(lists: Sequence[RankedList]) -> str:
    if not lists:
        raise ValueError("at least one ranked list required")
    query_id = lists[0].query_id
    for ranked in lists[1:]:
        if ranked.query_id != query_id:
            raise ValueError(
                f"mismatched query_ids: '{query_id}' vs '{ranked.query_id}'"
            )
    return query_id


def ensemble_fuse(lists: Sequence[RankedList]) -> RankedList:
    """Fuse lists by the arithmetic mean of min-max-normalized scores.

    A document absent from a list contributes 0 for that list.  Output is
    sorted by descending fused score, ties broken by ascending doc_id.

    Raises:
        ValueError: when the lists do not share one query_id.
    """
    query_id = _require_shared_query_id(lists)
    normalized = [min_max_normalize(ranked) for ranked in lists]
    totals: dict[str, float] = {}
    for ranked in normalized:
        for doc_id, score in ranked.items:
            totals[doc_id] = totals.get(doc_id, 0.0) + score
    count = len(lists)
    fused = {doc_id: total / count for doc_id, total in totals.items()}
    return RankedList.from_scores(query_id, fused)


def interleave(lists: Sequence[RankedList]) -> RankedList:
    """Merge lists round-robin with global deduplication.

    On each list's turn its cursor advances past already-emitted documents
    and contributes at most one new document.  Output scores are synthetic
    1/rank values, preserving the ranked-list invariant.

    Raises:
        ValueError: when the lists do not share one query_id.
    """
    query_id = _require_shared_query_id(lists)
    cursors = [0] * len(lists)
    seen: set[str] = set()
    merged: list[str] = []
    remaining = True
    while remaining:
        remaining = False
        for position, ranked in enumerate(lists):
            cursor = cursors[position]
            while cursor < len(ranked.items) and ranked.items[cursor][0] in seen:
                cursor += 1
            if cursor < len(ranked.items):
                doc_id = ranked.items[cursor][0]
                seen.add(doc_id)
                merged.append(doc_id)
                cursors[position] = cursor + 1
                remaining = True
            else:
                cursors[position] = cursor
    items = tuple((doc_id, 1.0 / rank) for rank, doc_id in enumerate(merged, start=1))
    return RankedList(query_id, items)


def pool_candidates(lists: Sequence[RankedList], per_list_depth: int) -> list[str]:
    """Deduplicated union of each list's top ``per_list_depth`` documents.

    Order is first appearance scanning the list prefixes round-robin
    (rank 1 of every list, then rank 2, ...), which is deterministic.
    """
    if per_list_depth < 1:
        raise ValueError("per_list_depth must be >= 1")
    seen: set[str] = set()
    pooled: list[str] = []
    for rank in range(min(per_list_depth, max((len(r) for r in lists), default=0))):
        for ranked in lists:
            if rank < len(ranked.items):
                doc_id = ranked.items[rank][0]
                if doc_id not in seen:
                    seen.add(doc_id)
                    pooled.append(doc_id)
    return pooled


def rerank(
    scorers: Sequence[Scorer],
    query: str,
    candidates: Sequence[str],
    depth: int,
    get_passage: Callable[[str], Passage],
    query_id: str = "",
) -> RankedList:
    """Score the first ``min(depth, len(candidates))`` candidates.

    Candidates beyond ``depth`` are dropped; the output is a permutation
    of the scored prefix sorted by descending score (ties by doc_id).
    One scorer's scores rank the candidates as they are; with several,
    each scorer's scores over the same candidates are min-max normalized
    and averaged.

    Raises:
        ValueError: for no scorers, depth < 1, duplicate candidates, or an
            unknown doc_id (named in the message).
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
        return RankedList(query_id, ())
    per_scorer_lists = []
    for scorer in scorers:
        scores = scorer.score(query, passages)
        if len(scores) != len(passages):
            raise ValueError("scorer returned misaligned scores")
        per_scorer_lists.append(
            RankedList.from_scores(query_id, dict(zip(scored_ids, scores)))
        )
    if len(per_scorer_lists) == 1:
        return per_scorer_lists[0]
    return ensemble_fuse(per_scorer_lists)
