"""Reference computations, written apart from the program under test.

Nothing here imports ``convsearch``.  The functions re-derive, from the
generator's raw material or from the program's output files, every number
the benchmark checks:

* first-stage scores: every document is scored (no index, no pruning)
  from the raw token counts (BM25, k1=0.9, b=0.4, non-negative IDF, one
  clause per query-token occurrence) or the raw sparse vectors (dot
  product with a term-count query vector);
* reranking: lexical overlap of distinct content words plus 0.25 times a
  sha256-derived jitter per named scorer, and for an ensemble the mean of
  the min-max-normalized per-scorer scores;
* pooling and interleaving, as documented in ``convsearch.fusion``;
* trec_eval-style metrics (linear-gain nDCG, MRR, Recall, P, AP).

Float operations are done in the same order as the documented formulas,
so results agree with the program bit for bit; rankings break ties by
ascending doc id.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Iterable, Sequence

import numpy as np

from gen import STOPWORDS, Collection

K1 = 0.9
B = 0.4
JITTER = 0.25
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

Ranking = list[tuple[str, float]]


def tokenize(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def ordered(scores: dict[str, float]) -> Ranking:
    """Descending score, ties by ascending doc id."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


class Reference:
    """Scores documents of one generated collection exhaustively."""

    def __init__(self, col: Collection):
        self.col = col
        self.n = len(col.doc_ids)
        self.word_id = {w: i for i, w in enumerate(col.words)}
        self.doc_index = {d: i for i, d in enumerate(col.doc_ids)}
        self.avgdl = int(col.doc_lengths.sum()) / self.n if self.n else 0.0
        # doc-major distinct terms, for overlap counts
        order = np.lexsort((col.pair_terms, col.pair_docs))
        self.doc_terms = col.pair_terms[order]
        per_doc = np.bincount(col.pair_docs, minlength=self.n)
        self.doc_starts = np.concatenate([[0], np.cumsum(per_doc)])

    def _top(self, acc: np.ndarray, k: int) -> Ranking:
        idx = np.flatnonzero(acc > 0.0)
        order = np.lexsort((idx, -acc[idx]))[:k]
        ids = self.col.doc_ids
        return [(ids[i], s) for i, s in zip(idx[order].tolist(), acc[idx[order]].tolist())]

    def sparse(self, query: str, k: int) -> Ranking:
        """Dot product of the term-count query vector with every document."""
        counts: dict[str, float] = {}
        for token in tokenize(query):
            counts[token] = counts.get(token, 0.0) + 1.0
        acc = np.zeros(self.n)
        for term, weight in counts.items():
            tid = self.word_id.get(term)
            if tid is None:
                continue
            col = self.col.column(tid)
            acc[self.col.pair_docs[col]] += weight * self.col.pair_weights[col]
        return self._top(acc, k)

    def bm25(self, query: str, k: int) -> Ranking:
        acc = np.zeros(self.n)
        avgdl = self.avgdl or 1.0
        for token in tokenize(query):
            tid = self.word_id.get(token)
            if tid is None:
                continue
            col = self.col.column(tid)
            df = col.stop - col.start
            if df == 0:
                continue
            idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
            docs = self.col.pair_docs[col]
            tf = self.col.pair_counts[col].astype(float)
            norm = 1.0 - B + B * (self.col.doc_lengths[docs] / avgdl)
            acc[docs] += idf * (tf * (K1 + 1.0)) / (tf + K1 * norm)
        return self._top(acc, k)

    def overlap(self, query: str, doc_ids: Sequence[str]) -> list[float]:
        """Share of the query's distinct content words found in each passage."""
        terms = {t for t in tokenize(query) if t not in STOPWORDS}
        if not terms:
            return [0.0] * len(doc_ids)
        mark = np.zeros(len(self.col.words), dtype=np.int64)
        mark[[self.word_id[t] for t in terms if t in self.word_id]] = 1
        idx = np.array([self.doc_index[d] for d in doc_ids], dtype=np.int64)
        starts = self.doc_starts[idx]
        lens = self.doc_starts[idx + 1] - starts
        ends = np.cumsum(lens)
        gather = np.repeat(starts - ends + lens, lens) + np.arange(int(ends[-1]))
        hits = np.add.reduceat(mark[self.doc_terms[gather]], ends - lens)
        return (hits / len(terms)).tolist()

    def rerank(
        self, scorer_ids: Sequence[str], query: str, candidates: Sequence[str], depth: int
    ) -> Ranking:
        """Cross-encoder stand-in scores of the first ``depth`` candidates."""
        scored = list(candidates[:depth])
        if not scored:
            return []
        overlaps = self.overlap(query, scored)
        texts = [self.col.texts[self.doc_index[d]] for d in scored]
        lists = [
            ordered(
                {d: o + JITTER * unit_hash(s, query, t) for d, o, t in zip(scored, overlaps, texts)}
            )
            for s in scorer_ids
        ]
        return lists[0] if len(lists) == 1 else ensemble(lists)


def unit_hash(name: str, query: str, text: str) -> float:
    digest = hashlib.sha256(f"{name}\x00{query}\x00{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def ensemble(lists: Sequence[Ranking]) -> Ranking:
    """Mean of min-max-normalized scores; a missing document counts 0."""
    totals: dict[str, float] = {}
    for ranking in lists:
        scores = [s for _, s in ranking]
        low, high = (min(scores), max(scores)) if scores else (0.0, 0.0)
        for doc, score in ranking:
            value = 1.0 if high == low else (score - low) / (high - low)
            totals[doc] = totals.get(doc, 0.0) + value
    return ordered({doc: total / len(lists) for doc, total in totals.items()})


def interleave(lists: Sequence[Ranking]) -> Ranking:
    """Round-robin merge, each list adding its next unseen document per round."""
    cursors = [0] * len(lists)
    seen: set[str] = set()
    merged: list[str] = []
    progress = True
    while progress:
        progress = False
        for i, ranking in enumerate(lists):
            while cursors[i] < len(ranking) and ranking[cursors[i]][0] in seen:
                cursors[i] += 1
            if cursors[i] < len(ranking):
                doc = ranking[cursors[i]][0]
                seen.add(doc)
                merged.append(doc)
                cursors[i] += 1
                progress = True
    return [(doc, 1.0 / rank) for rank, doc in enumerate(merged, start=1)]


def pool(lists: Sequence[Ranking], depth: int) -> list[str]:
    """Deduplicated union of the list prefixes, scanned rank by rank."""
    seen: set[str] = set()
    out: list[str] = []
    for rank in range(min(depth, max((len(r) for r in lists), default=0))):
        for ranking in lists:
            if rank < len(ranking) and ranking[rank][0] not in seen:
                seen.add(ranking[rank][0])
                out.append(ranking[rank][0])
    return out


# --- evaluation ------------------------------------------------------------


def trec_metrics(docs: Sequence[str], judged: dict[str, int]) -> dict[str, float]:
    """nDCG@5, nDCG, MRR, Recall@100, P@20 and AP for one ranked doc list."""
    rels = [judged.get(d, 0) for d in docs]
    relevant = sum(1 for r in judged.values() if r >= 1)

    def dcg(gains: Iterable[int]) -> float:
        return sum(g / math.log2(i + 1) for i, g in enumerate(gains, start=1))

    ideal = sorted((r for r in judged.values() if r > 0), reverse=True)

    def ndcg(k: int | None) -> float:
        idcg = dcg(ideal[:k] if k else ideal)
        return dcg(rels[:k] if k else rels) / idcg if idcg else 0.0

    first = next((i for i, r in enumerate(rels, start=1) if r >= 1), None)
    hits, precision_sum = 0, 0.0
    for i, r in enumerate(rels, start=1):
        if r >= 1:
            hits += 1
            precision_sum += hits / i
    return {
        "nDCG@5": ndcg(5),
        "nDCG": ndcg(None),
        "MRR": 1.0 / first if first else 0.0,
        "Recall@100": sum(1 for r in rels[:100] if r >= 1) / relevant if relevant else 0.0,
        "P@20": sum(1 for r in rels[:20] if r >= 1) / 20,
        "mAP": precision_sum / relevant if relevant else 0.0,
    }


def read_run(text: str) -> dict[str, Ranking]:
    """Parse TREC run lines into rankings re-sorted by (score desc, doc id)."""
    runs: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if line.strip():
            qid, _, doc, _, score, _ = line.split()
            runs.setdefault(qid, {})[doc] = float(score)
    return {qid: ordered(scores) for qid, scores in runs.items()}


def trec_lines(qid: str, ranking: Ranking, tag: str) -> list[str]:
    return [
        f"{qid} Q0 {doc} {rank} {score:.6f} {tag}"
        for rank, (doc, score) in enumerate(ranking, start=1)
    ]


def cache_file_name(model_id: str, prompt: str) -> str:
    return hashlib.sha256(f"{model_id}\x00{prompt}".encode("utf-8")).hexdigest() + ".json"
