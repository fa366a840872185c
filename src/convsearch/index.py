"""Inverted index over a passage collection with BM25 and sparse-vector retrieval.

Both scoring modes share one posting layout and one score-at-a-time kernel.
Postings are CSR arrays holding, per term, int32 doc indices in ascending
doc_id order, the raw payload and the scoring weight:

* ``bm25`` mode: the payload is the term frequency and the weight is its
  BM25 impact ``idf * (tf * (K1 + 1.0)) / (tf + K1 * norm)``, computed once
  at build time, with ``norm = 1.0 - B + B * (dl / avgdl)`` (``avgdl`` is
  1.0 if every document is empty), the non-negative
  ``idf = ln(1.0 + (N - df + 0.5) / (df + 0.5))`` and the common
  TREC-toolkit defaults ``K1 = 0.9``, ``B = 0.4``.
* ``sparse`` mode: the payload is an externally computed term weight (e.g.
  a learned sparse encoder's), and it is also the scoring weight.

A query is a sequence of ``(term, query_weight)`` clauses: one ``(token,
1.0)`` per BM25 query token occurrence in query order (repeated terms
boost), or a sparse query vector's entries in insertion order.  Clause by
clause, each posting document's score becomes ``score + query_weight *
weight``, from 0.0.  Positive scores rank descending, ties by ascending
doc_id.  Indexes are immutable (read-only arrays) and safe for concurrent
readers; retrieval is deterministic bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "AnalyzerConfig",
    "Passage",
    "SparseVector",
    "RankedList",
    "InvertedIndex",
    "read_corpus",
    "build_index",
    "build_sparse_index",
    "load_sparse_vectors",
    "bm25_retrieve",
    "sparse_retrieve",
    "text_to_query_vector",
    "save_index",
    "load_index",
]

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

# BM25 saturation and length normalisation, applied when the index is built
K1 = 0.9
B = 0.4


@dataclass(frozen=True)
class AnalyzerConfig:
    """Text analysis settings shared by indexing and query parsing.

    Defaults: lowercase, split on non-alphanumeric runs, no stemming,
    no stopwords.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()

    def tokenize(self, text: str) -> list[str]:
        tokens = _TOKEN_RE.findall(text)
        if self.lowercase:
            tokens = [t.lower() for t in tokens]
        if self.stopwords:
            tokens = [t for t in tokens if t not in self.stopwords]
        return tokens

    def to_dict(self) -> dict:
        return {"lowercase": self.lowercase, "stopwords": sorted(self.stopwords)}

    @classmethod
    def from_dict(cls, data: dict) -> "AnalyzerConfig":
        return cls(
            lowercase=bool(data.get("lowercase", True)),
            stopwords=frozenset(data.get("stopwords", ())),
        )


@dataclass(frozen=True)
class Passage:
    """One retrievable unit of the collection."""

    doc_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("passage doc_id must be non-empty")


@dataclass(frozen=True)
class SparseVector:
    """Term-to-weight mapping with strictly positive weights.

    Zero-weight entries are dropped on construction; negative weights are
    rejected.  Represents learned-sparse document/query expansions as well
    as plain term-count query vectors.
    """

    entries: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for term, weight in self.entries.items():
            w = float(weight)
            if w < 0:
                raise ValueError(f"negative weight {w} for term '{term}'")
            if w > 0:
                cleaned[term] = w
        object.__setattr__(self, "entries", cleaned)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RankedList:
    """Scored documents for one query, best first.

    Invariants enforced on construction: scores finite and non-increasing,
    doc_ids distinct, and equal scores ordered by ascending doc_id.
    """

    query_id: str
    items: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple((d, float(s)) for d, s in self.items))
        seen: set[str] = set()
        prev: tuple[str, float] | None = None
        for doc_id, score in self.items:
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id '{doc_id}' in ranked list")
            seen.add(doc_id)
            if not math.isfinite(score):
                raise ValueError(f"non-finite score {score} for doc_id '{doc_id}'")
            if prev is not None:
                if score > prev[1]:
                    raise ValueError("ranked list scores must be non-increasing")
                if score == prev[1] and doc_id < prev[0]:
                    raise ValueError("tied scores must be ordered by ascending doc_id")
            prev = (doc_id, score)

    @classmethod
    def from_scores(cls, query_id: str, scores: dict[str, float]) -> "RankedList":
        """Build a ranked list from a doc_id -> score mapping."""
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(query_id, tuple(ordered))

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.items]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class InvertedIndex:
    """CSR postings plus corpus statistics; raw payloads are read with :meth:`posting`.

    ``doc_ids`` lists the documents in ascending order (posting doc indices
    point into it), ``doc_lengths`` in insertion order.  ``avg_doc_length``
    is the mean length, 0.0 for an empty index.
    """

    mode: str
    analyzer: AnalyzerConfig
    doc_ids: tuple[str, ...]
    doc_lengths: dict[str, int]
    avg_doc_length: float
    _term_ids: dict[str, int] = field(repr=False)
    _offsets: np.ndarray = field(repr=False)
    _docs: np.ndarray = field(repr=False)
    _payloads: np.ndarray = field(repr=False)
    _weights: np.ndarray = field(repr=False)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def terms(self) -> tuple[str, ...]:
        """Every indexed term, in first-seen order."""
        return tuple(self._term_ids)

    def document_frequency(self, term: str) -> int:
        tid = self._term_ids.get(term)
        return 0 if tid is None else int(self._offsets[tid + 1] - self._offsets[tid])

    def posting(self, term: str) -> tuple[tuple[str, float], ...]:
        """``(doc_id, payload)`` pairs for ``term`` in ascending doc_id order."""
        tid = self._term_ids.get(term)
        if tid is None:
            return ()
        start, end = self._offsets[tid], self._offsets[tid + 1]
        ids = self.doc_ids
        docs = [ids[i] for i in self._docs[start:end].tolist()]
        return tuple(zip(docs, self._payloads[start:end].tolist()))


def _tab_rows(source: str | Path | IO[str], kind: str, rest: str) -> Iterator[tuple]:
    """``(lineno, doc_id, rest)`` of each non-blank ``<doc_id><TAB><rest>`` line.

    ``source`` is a UTF-8 file path or an open text handle.
    """
    handle = open(source, encoding="utf-8") if isinstance(source, (str, Path)) else source
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{kind} line {lineno}: expected '<doc_id>\\t<{rest}>'")
            doc_id, text = line.split("\t", 1)
            if not doc_id:
                raise ValueError(f"{kind} line {lineno}: empty doc_id")
            yield lineno, doc_id, text
    finally:
        if handle is not source:
            handle.close()


def read_corpus(source: str | Path | IO[str]) -> Iterator[Passage]:
    """Yield passages from a ``<doc_id><TAB><text>`` file (UTF-8, one per line).

    Raises ValueError with the line number for lines without a tab.
    Blank lines are skipped.
    """
    for _, doc_id, text in _tab_rows(source, "corpus", "text"):
        yield Passage(doc_id=doc_id, text=text)


def _build(
    mode: str,
    rows: Iterable[tuple[str, int, Mapping[str, float]]],
    analyzer: AnalyzerConfig,
) -> InvertedIndex:
    """Pack ``(doc_id, length, {term: payload})`` rows; raises ValueError on a duplicate doc_id.

    Rows stream into flat buffers, then documents are renumbered by doc_id
    rank and postings grouped by term.
    """
    if mode not in ("bm25", "sparse"):
        raise ValueError(f"unknown index mode '{mode}'")
    doc_lengths: dict[str, int] = {}
    term_ids: dict[str, int] = {}
    row_sizes, row_terms, row_payloads = array("i"), array("i"), array("d")
    for doc_id, length, entries in rows:
        if doc_id in doc_lengths:
            raise ValueError(f"duplicate doc_id '{doc_id}'")
        doc_lengths[doc_id] = length
        row_sizes.append(len(entries))
        row_terms.extend([term_ids.setdefault(t, len(term_ids)) for t in entries])
        row_payloads.extend(entries.values())
    doc_ids = tuple(sorted(doc_lengths))
    n = len(doc_ids)
    rank_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    ranks = np.array([rank_of[d] for d in doc_lengths], dtype=np.int32)
    terms = np.array(row_terms, dtype=np.int32)
    docs = np.repeat(ranks, np.array(row_sizes, dtype=np.int32))
    order = np.lexsort((docs, terms))
    docs = docs[order]
    payloads = np.array(row_payloads, dtype=np.float64)[order]
    df = np.bincount(terms, minlength=len(term_ids))
    offsets = np.concatenate(([0], np.cumsum(df))).astype(np.int64)
    avg = sum(doc_lengths.values()) / n if n else 0.0
    if mode == "bm25":
        idf = [math.log(1.0 + (n - f + 0.5) / (f + 0.5)) for f in df.tolist()]
        lengths = np.array([doc_lengths[d] for d in doc_ids], dtype=np.float64)
        norm = 1.0 - B + B * (lengths[docs] / (avg or 1.0))
        tf = payloads
        weights = np.repeat(idf, df) * (tf * (K1 + 1.0)) / (tf + K1 * norm)
    else:
        weights = payloads
    for arr in (offsets, docs, payloads, weights):
        arr.flags.writeable = False
    return InvertedIndex(
        mode, analyzer, doc_ids, doc_lengths, avg, term_ids, offsets, docs, payloads, weights
    )


def build_index(
    corpus: Iterable[Passage],
    analyzer: AnalyzerConfig | None = None,
    allow_empty_text: bool = False,
) -> InvertedIndex:
    """Build a BM25-mode index from a passage stream.

    Deterministic given identical corpus order and analyzer config.

    Raises:
        ValueError: on a duplicate doc_id (naming it), or on an empty
            passage text unless ``allow_empty_text`` is set.
    """
    analyzer = analyzer or AnalyzerConfig()

    def rows() -> Iterator[tuple[str, int, Counter]]:
        for passage in corpus:
            if not passage.text and not allow_empty_text:
                raise ValueError(
                    f"empty text for doc_id '{passage.doc_id}' (allow_empty_text=False)"
                )
            tokens = analyzer.tokenize(passage.text)
            yield passage.doc_id, len(tokens), Counter(tokens)

    return _build("bm25", rows(), analyzer)


def build_sparse_index(
    vectors: dict[str, SparseVector],
    analyzer: AnalyzerConfig | None = None,
) -> InvertedIndex:
    """Build a sparse-mode index from precomputed document vectors.

    Document length is the number of stored (non-zero) terms; it is kept
    for corpus statistics only and plays no role in dot-product scoring.
    """
    rows = ((doc_id, len(vector), vector.entries) for doc_id, vector in vectors.items())
    return _build("sparse", rows, analyzer or AnalyzerConfig())


_VECTOR_ENTRY_RE = re.compile(r"^(?P<term>.+):(?P<weight>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)$")


def load_sparse_vectors(source: str | Path | IO[str]) -> dict[str, SparseVector]:
    """Parse a ``<doc_id><TAB><term>:<weight>( <term>:<weight>)*`` file.

    Weights must be non-negative decimals; zero weights are dropped per the
    sparse-vector invariant.  A doc_id may appear on one line only.

    Raises:
        ValueError: naming the line number, for malformed lines, negative
            weights, or duplicate doc_ids.
    """
    vectors: dict[str, SparseVector] = {}
    for lineno, doc_id, payload in _tab_rows(source, "sparse-vector", "entries"):
        if doc_id in vectors:
            raise ValueError(f"sparse-vector line {lineno}: duplicate doc_id '{doc_id}'")
        entries: dict[str, float] = {}
        for part in payload.split(" "):
            if not part:
                continue
            match = _VECTOR_ENTRY_RE.match(part)
            if match is None:
                raise ValueError(f"sparse-vector line {lineno}: malformed entry '{part}'")
            weight = float(match.group("weight"))
            if weight < 0:
                raise ValueError(f"sparse-vector line {lineno}: negative weight in '{part}'")
            entries[match.group("term")] = weight
        vectors[doc_id] = SparseVector(entries)
    return vectors


def _score_at_a_time(
    mode: str, index: InvertedIndex, clauses: Iterable[tuple[str, float]], k: int, query_id: str
) -> RankedList:
    """Top-k positive accumulator totals over ``(term, query_weight)`` clauses."""
    if index.mode != mode:
        raise ValueError(f"{mode}_retrieve requires a {mode}-mode index, got '{index.mode}'")
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = np.zeros(index.doc_count)
    term_ids, offsets, docs, weights = index._term_ids, index._offsets, index._docs, index._weights
    for term, query_weight in clauses:
        tid = term_ids.get(term)
        if tid is None:
            continue
        start, end = offsets[tid], offsets[tid + 1]
        acc[docs[start:end]] += query_weight * weights[start:end]
    hits = np.flatnonzero(acc > 0.0)
    scores = acc[hits]
    top = np.lexsort((hits, -scores))[:k]
    ids = index.doc_ids
    return RankedList(
        query_id, tuple(zip([ids[i] for i in hits[top].tolist()], scores[top].tolist()))
    )


def bm25_retrieve(
    index: InvertedIndex, query_text: str, k: int, query_id: str = ""
) -> RankedList:
    """Top-k documents for a text query under BM25.

    Only documents with a positive score are returned, ordered by
    descending score then ascending doc_id.  A query that tokenizes to
    nothing yields an empty list.

    Raises:
        ValueError: if ``k`` < 1 or the index is not in bm25 mode.
    """
    clauses = [(token, 1.0) for token in index.analyzer.tokenize(query_text)]
    return _score_at_a_time("bm25", index, clauses, k, query_id)


def sparse_retrieve(
    index: InvertedIndex, query: SparseVector, k: int, query_id: str = ""
) -> RankedList:
    """Top-k documents by dot product between query and stored weights.

    Zero-score documents are excluded; an empty query vector yields an
    empty list.

    Raises:
        ValueError: if ``k`` < 1 or the index is not in sparse mode.
    """
    return _score_at_a_time("sparse", index, query.entries.items(), k, query_id)


def text_to_query_vector(text: str, analyzer: AnalyzerConfig | None = None) -> SparseVector:
    """Encode query text as a term-count sparse vector.

    This is the default query-side encoder for sparse retrieval when no
    learned encoder output is available: each analyzed token contributes
    weight 1 per occurrence.
    """
    return SparseVector(Counter((analyzer or AnalyzerConfig()).tokenize(text)))


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Serialize an index to a JSON file at exactly ``path``."""
    payload = {
        "mode": index.mode,
        "analyzer": index.analyzer.to_dict(),
        "doc_lengths": index.doc_lengths,
        "doc_count": index.doc_count,
        "avg_doc_length": index.avg_doc_length,
        "postings": {t: [list(pair) for pair in index.posting(t)] for t in index.terms},
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_index(path: str | Path) -> InvertedIndex:
    """Load an index saved by :func:`save_index`; BM25 impacts are recomputed."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    rows: dict[str, dict[str, float]] = {doc_id: {} for doc_id in payload["doc_lengths"]}
    for term, posting in payload["postings"].items():
        for doc_id, value in posting:
            rows[doc_id][term] = float(value)
    return _build(
        payload["mode"],
        ((doc_id, int(n), rows[doc_id]) for doc_id, n in payload["doc_lengths"].items()),
        AnalyzerConfig.from_dict(payload.get("analyzer", {})),
    )
