"""Inverted index over a passage collection with BM25 and sparse-vector retrieval.

Both scoring modes share one CSR layout and one score-at-a-time kernel.
Postings are CSR arrays holding, per term, int32 doc indices in ascending
doc_id order and, for each, the scoring weight (its impact):

* ``bm25`` mode: the weight is the BM25 impact
  ``idf * (tf * (K1 + 1.0)) / (tf + K1 * norm)`` of the term frequency
  ``tf``, computed once at build time, with ``norm = 1.0 - B + B * (dl /
  avgdl)`` (``avgdl`` is 1.0 if every document is empty), the non-negative
  ``idf = ln(1.0 + (N - df + 0.5) / (df + 0.5))`` and the common
  TREC-toolkit defaults ``K1 = 0.9``, ``B = 0.4``.  Neither ``tf`` nor
  ``dl`` is kept once the weights are made.
* ``sparse`` mode: the weight is an externally computed term weight (e.g.
  a learned sparse encoder's).

A query is a sequence of ``(term, query_weight)`` clauses: one ``(token,
1.0)`` per BM25 query token occurrence in query order (repeated terms
boost), or a sparse query vector's entries in insertion order.  Clause by
clause, the score of each document in the term's postings becomes
``score + query_weight * weight``, from 0.0.  The k best positive
totals, by descending score then ascending doc_id, come back as the
:class:`RankedList` of their doc_id -> score mapping, which it orders by
the same key.  Indexes are immutable (read-only arrays) and safe for
concurrent readers; retrieval is deterministic bit for bit.

An index lives in memory only: :func:`build_index` makes one from a passage
stream and :func:`build_sparse_index` from ingested document vectors, so a
run builds its index from its sources at load time.  Documents stream into
flat columns (per entry a term id and a payload, per document its row end)
that one packer turns into the CSR arrays with one sort of ``(term, doc)``
keys.  A BM25 row holds one entry per token, repeats included, and no
payloads: the packer counts the repeats into term frequencies and a row's
entries into its document length.  A sparse row holds distinct terms with
their weights; :func:`load_sparse_vectors` writes a vector file straight
into such rows, a block of lines at a time.
"""

from __future__ import annotations

import math
import os
import re
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from itertools import compress, islice, repeat
from pathlib import Path
from typing import IO, ClassVar, Iterable, Iterator, Mapping

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
]

# UTF-8 bytes: ASCII letters to lower case, digits kept, every other byte a
# space.  Every byte of a non-ASCII character's UTF-8 form is 0x80 or above,
# so non-ASCII characters only separate tokens.
_TOKEN_TABLE = bytes(
    ord(chr(b).lower()) if b < 128 and chr(b).isalnum() else ord(" ") for b in range(256)
)

# BM25 saturation and length normalisation, applied when the index is built
K1 = 0.9
B = 0.4


@dataclass(frozen=True)
class AnalyzerConfig:
    """Text analysis shared by indexing and query parsing.

    Tokens are the ASCII alphanumeric runs, each lowercased, without
    stemming or stopwords.
    """

    def tokenize(self, text: str) -> list[str]:
        # surrogatepass: JSON-decoded text can hold lone surrogates
        raw = text.encode("utf-8", "surrogatepass").translate(_TOKEN_TABLE)
        return raw.decode("ascii").split()


@dataclass(frozen=True)
class Passage:
    """One retrievable unit of the collection; ``doc_id`` is an identifier (see _id_problem)."""

    doc_id: str
    text: str

    def __post_init__(self) -> None:
        # _id_problem's rule, as fast as one split: only " " of the whitespace is printable
        if " " in self.doc_id or not (self.doc_id and self.doc_id.isprintable()):
            raise ValueError(_id_problem("doc_id", [self.doc_id]))


@dataclass(frozen=True)
class SparseVector:
    """Term-to-weight mapping with strictly positive, finite weights.

    Zero-weight entries are dropped on construction; negative and
    non-finite (NaN, infinite) weights are rejected.  Represents
    learned-sparse document/query expansions as well as plain term-count
    query vectors.
    """

    entries: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for term, weight in self.entries.items():
            w = float(weight)
            if w < 0:
                raise ValueError(f"negative weight {w} for term '{term}'")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w} for term '{term}'")
            if w > 0:
                cleaned[term] = w
        object.__setattr__(self, "entries", cleaned)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RankedList:
    """One query's scored documents, made from a doc_id -> score mapping.

    A ranking is stored under its query id (a turn result's ``turn_id``, a
    run file's query id) and does not hold it.  ``items`` holds the mapping's
    pairs best first: by descending score, equal scores by ascending doc_id.
    A score that is not finite is rejected, naming its doc_id.
    """

    scores: InitVar[Mapping[str, float]]
    items: tuple[tuple[str, float], ...] = field(init=False)

    def __post_init__(self, scores: Mapping[str, float]) -> None:
        if not all(map(math.isfinite, scores.values())):
            doc_id, score = next((d, s) for d, s in scores.items() if not math.isfinite(s))
            raise ValueError(f"non-finite score {score} for doc_id '{doc_id}'")
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        object.__setattr__(self, "items", tuple(ordered))

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.items]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class InvertedIndex:
    """CSR postings: per term, its documents' indices and their scoring weights.

    ``doc_ids`` lists the documents in ascending order (the postings' doc
    indices point into it).  Every index analyzes text with the default
    :class:`AnalyzerConfig`, read as ``index.analyzer``.
    """

    analyzer: ClassVar[AnalyzerConfig] = AnalyzerConfig()
    mode: str
    doc_ids: tuple[str, ...]
    _term_ids: dict[str, int] = field(repr=False)
    _offsets: np.ndarray = field(repr=False)
    _docs: np.ndarray = field(repr=False)
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


@contextmanager
def _text(source: str | Path | IO[str], kind: str = "") -> Iterator[IO[str]]:
    """A path opened as UTF-8 text to read, closed after the ``with``; an open handle as is.

    The one reader of a path.  It skips a leading byte-order mark (BOM), so
    that a file with one reads as the same file without it.  A ValueError in the
    ``with``, a non-UTF-8 byte's too, is raised again as ``<kind> <path>: <message>``
    (``<path>: <message>`` with no ``kind``); from an open handle it passes as it is.
    """
    if not isinstance(source, (str, Path)):
        yield source  # the caller's handle stays open
        return
    with open(source, encoding="utf-8-sig") as handle:
        try:
            yield handle
        except ValueError as exc:
            raise ValueError(f"{kind} {source}: {exc}" if kind else f"{source}: {exc}") from exc


def _write_text(sink: str | Path | IO[str], text: str) -> None:
    """Write ``text`` to an open handle, or replace the file at a path with it whole.

    The one writer of a path, in UTF-8 with no BOM: a sibling temp file of its own
    (``"x"`` applies the umask, unlike mkstemp's 0600) is renamed over the path, so
    a failed write leaves the path's earlier bytes and no temp file.  An ``OSError``
    names the path, not its temp file.
    """
    if not isinstance(sink, (str, Path)):
        sink.write(text)
        return
    tmp = Path(f"{sink}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, sink)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:  # it names the temp file
            raise OSError(exc.errno, exc.strerror, str(sink)) from exc
        raise


def _ascii_int(text: str) -> int | None:
    """``text`` as an int if it is ASCII digits, else None."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # int() refuses a string of more than 4,300 digits
        pass
    return None


def _id_problem(what: str, values: list[str]) -> str | None:
    """None if each of ``values`` is an identifier, else why the first that is not fails.

    An identifier (doc_id, topic number, run tag) is non-empty and printable
    (``str.isprintable``: no control or invisible character, no lone surrogate)
    with no whitespace, so the ``split()`` reading a run or qrels line keeps it whole.
    """
    joined = " ".join(values)
    if joined.split() == values and joined.isprintable():
        return None
    bad = next(value for value in values if value.split() != [value] or not value.isprintable())
    if bad.split() != [bad]:
        return f"whitespace in {what} {bad!r}" if bad else f"empty {what}"
    if problem := _surrogate_problem(bad):
        return f"{what} {problem}"
    return f"{what} holds the unprintable character {next(c for c in bad if not c.isprintable())!r}"


# what a lone JSON "\ud800" escape reads as, or a non-UTF-8 byte in a command-line argument
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


def _surrogate_problem(text: str) -> str | None:
    """None if UTF-8 encodes ``text``, else which lone surrogate it holds."""
    if text.isascii() or not (match := _SURROGATE_RE.search(text)):
        return None
    return f"holds the lone surrogate {match.group()!r}"


_JSON_KINDS = {str: "a string", int: "an integer", list: "an array", dict: "an object"}


def _json_value(value: object, kind: type, what: str):
    """``value`` if its JSON type is ``kind`` (str, int, list or dict; a bool is no int).

    The one check of a JSON value; a string must also hold no lone surrogate.  It raises
    ValueError ``<what> must be a string, got 5`` (the value for str and int, else its
    type name: ``got dict``) or ``<what> holds the lone surrogate '\\ud800'``.
    """
    if type(value) is not kind:
        got = repr(value) if kind in (str, int) else type(value).__name__
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {got}")
    if kind is str and (problem := _surrogate_problem(value)):
        raise ValueError(f"{what} {problem}")
    return value


def _tab_rows(lines: Iterable[str], kind: str, rest: str, start: int = 1) -> Iterator[tuple]:
    """``(lineno, [doc_id, rest])`` per non-empty ``<doc_id><TAB><rest>`` line, from ``start``."""
    for lineno, raw in enumerate(lines, start=start):
        line = raw.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{kind} line {lineno}: expected '<doc_id>\\t<{rest}>'")
        yield lineno, line.split("\t", 1)


def read_corpus(source: str | Path | IO[str]) -> Iterator[Passage]:
    """Yield passages from a ``<doc_id><TAB><text>`` file (UTF-8, one per line).

    Raises ValueError with the line number, after the path for a path, for a line
    without a tab, a doc_id that is not an identifier or repeats, or a text that is
    empty or only whitespace (``empty text for doc_id '<doc_id>'``); skips blank lines.
    """
    seen: set[str] = set()
    with _text(source) as handle:
        for lineno, (doc_id, text) in _tab_rows(handle, "corpus", "text"):
            if doc_id in seen:
                raise ValueError(f"corpus line {lineno}: duplicate doc_id '{doc_id}'")
            seen.add(doc_id)
            try:
                passage = Passage(doc_id, text)  # positional: keywords cost as much as a check
            except ValueError as exc:
                raise ValueError(f"corpus line {lineno}: {exc}") from None
            if not text or text.isspace():
                raise ValueError(f"corpus line {lineno}: empty text for doc_id '{doc_id}'")
            yield passage


class _TermIds(dict):
    """Term to id, numbering a term not seen before with the next id."""

    def __missing__(self, term: str) -> int:
        self[term] = tid = len(self)
        return tid


class _Columns(Mapping[str, SparseVector]):
    """Documents as flat columns, the rows :func:`_build` packs into postings.

    Per entry a term id (terms numbered as first seen) and, in a sparse
    row, a payload; per row its doc_id and end offset.  A BM25 row
    holds one entry per token, repeats included, and no payloads;
    :func:`_build` counts the repeats.  A sparse row holds distinct terms,
    and read as a mapping it is the :class:`SparseVector` of its entries,
    made on access.
    """

    def __init__(self) -> None:
        self.rows: dict[str, int] = {}
        self.ends = array("q")
        self.term_ids = _TermIds()
        self.terms = array("i")
        self.payloads = array("d")
        self._names: list[str] = []  # term_ids' keys, listed again when it has grown

    def append(self, doc_id: str, terms: Iterable[str], payloads: Iterable[float] = ()) -> None:
        """Add a row; raises ValueError on a duplicate doc_id."""
        if doc_id in self.rows:
            raise ValueError(f"duplicate doc_id '{doc_id}'")
        self.rows[doc_id] = len(self.rows)
        self.terms.fromlist(list(map(self.term_ids.__getitem__, terms)))
        self.payloads.extend(payloads)
        self.ends.append(len(self.terms))

    def extend(
        self, doc_ids: Iterable[str], counts: np.ndarray, terms: np.ndarray, payloads: np.ndarray
    ) -> None:
        """Add rows of new, distinct doc_ids.

        Per row its entry count; per entry an int32 term id and a float64 payload.
        """
        self.rows.update(zip(doc_ids, range(len(self.rows), len(self.rows) + len(counts))))
        self.ends.frombytes((np.cumsum(counts, dtype=np.int64) + len(self.terms)).tobytes())
        self.terms.frombytes(terms.tobytes())
        self.payloads.frombytes(payloads.tobytes())

    def __getitem__(self, doc_id: str) -> SparseVector:
        row = self.rows[doc_id]
        start, end = self.ends[row - 1] if row else 0, self.ends[row]
        if len(self._names) != len(self.term_ids):
            self._names = list(self.term_ids)
        names = self._names
        return SparseVector(
            dict(zip([names[t] for t in self.terms[start:end]], self.payloads[start:end]))
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _build(mode: str, columns: _Columns) -> InvertedIndex:
    """Pack the rows of ``columns`` into CSR postings.

    Documents are renumbered by doc_id rank and postings grouped by term,
    both with one sort of the entries' ``term * N + rank`` keys.  In
    ``bm25`` mode equal keys are one term's repeats in one document, and
    their count is its term frequency; a row's entry count is its
    document length.
    """
    term_ids = dict(columns.term_ids)
    doc_ids = tuple(sorted(columns.rows))
    n = len(doc_ids)
    rank_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    ranks = np.array([rank_of[d] for d in columns.rows], dtype=np.int64)
    row_sizes = np.diff(np.array(columns.ends, dtype=np.int64), prepend=0)
    keys = np.array(columns.terms, dtype=np.int64) * n + np.repeat(ranks, row_sizes)
    if mode == "bm25":
        keys, tf = np.unique(keys, return_counts=True)
        tf = tf.astype(np.float64)
    else:
        order = np.argsort(keys)  # a sparse row's terms are distinct, so keys are too
        keys = keys[order]
        weights = np.array(columns.payloads, dtype=np.float64)[order]
    terms, docs = np.divmod(keys, n or 1)
    docs = docs.astype(np.int32)
    df = np.bincount(terms, minlength=len(term_ids))
    offsets = np.concatenate(([0], np.cumsum(df))).astype(np.int64)
    if mode == "bm25":
        idf = [math.log(1.0 + (n - f + 0.5) / (f + 0.5)) for f in df.tolist()]
        lengths = np.empty(n)
        lengths[ranks] = row_sizes
        avg = len(columns.terms) / n if n else 0.0
        norm = 1.0 - B + B * (lengths[docs] / (avg or 1.0))
        weights = np.repeat(idf, df) * (tf * (K1 + 1.0)) / (tf + K1 * norm)
    for arr in (offsets, docs, weights):
        arr.flags.writeable = False
    return InvertedIndex(mode, doc_ids, term_ids, offsets, docs, weights)


def build_index(corpus: Iterable[Passage]) -> InvertedIndex:
    """Build a BM25-mode index from a passage stream.

    Deterministic given identical corpus order.

    Raises:
        ValueError: on a duplicate doc_id, naming it.
    """
    columns = _Columns()
    for passage in corpus:
        tokens = InvertedIndex.analyzer.tokenize(passage.text)
        columns.append(passage.doc_id, tokens)
    return _build("bm25", columns)


def build_sparse_index(vectors: Mapping[str, SparseVector]) -> InvertedIndex:
    """Build a sparse-mode index from precomputed document vectors.

    Vectors from :func:`load_sparse_vectors` are packed from the columns
    they already are; any other mapping is first copied into such columns,
    row by row in its order.
    """
    columns = vectors
    if not isinstance(columns, _Columns):
        columns = _Columns()
        for doc_id, vector in vectors.items():
            columns.append(doc_id, vector.entries, vector.entries.values())
    return _build("sparse", columns)


_VECTOR_ENTRY_RE = re.compile(
    r"^(?P<term>.+):(?P<weight>-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)$"
)
_BLOCK_LINES = 256  # lines of a vector file read and checked together
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b": ")
_FOLD_EXPONENT = bytes.maketrans(b"E+", b"e-")  # 1E+5 is checked as 1e-5 is


def load_sparse_vectors(source: str | Path | IO[str]) -> Mapping[str, SparseVector]:
    """Parse a ``<doc_id><TAB><term>:<weight>( <term>:<weight>)*`` file.

    Weights must be non-negative, finite ASCII decimals (``1e999``
    overflows and is rejected); zero weights are dropped per the
    sparse-vector invariant, and a term repeated within a line keeps its
    first position and its last weight.  A doc_id is an identifier (see
    :func:`_id_problem`) and may appear on one line only.

    The file streams in blocks of lines into flat columns (term ids,
    weights, row ends) that :func:`build_sparse_index` packs without
    another pass; the returned read-only mapping makes a document's
    :class:`SparseVector` only when it is looked up.  A block whose lines
    are all plain is split and converted whole: each line has a tab, a
    new doc_id and distinct terms, entries with one colon each, non-empty
    terms, and finite weights with no sign in front.  A block with any
    other line is read line by line, each parsed entry by entry under the
    same grammar, so an error names the first bad line.

    Raises:
        ValueError: naming the first bad line's number, after the path for a path, for
            malformed lines, negative or non-finite weights, or bad or duplicate doc_ids.
    """
    columns = _Columns()
    with _text(source) as handle:
        lineno = 1
        while block := list(islice(handle, _BLOCK_LINES)):
            if not _append_plain(columns, block):
                for offset, line in enumerate(block):
                    _append_entries(columns, line, lineno + offset)
            lineno += len(block)
    return columns


def _append_entries(columns: _Columns, line: str, lineno: int) -> None:
    """Append one line parsed entry by entry: the source of every error the loader raises."""
    for lineno, (doc_id, payload) in _tab_rows([line], "sparse-vector", "entries", lineno):
        if problem := _id_problem("doc_id", [doc_id]):
            raise ValueError(f"sparse-vector line {lineno}: {problem}")
        if doc_id in columns.rows:
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
            if not math.isfinite(weight):
                raise ValueError(f"sparse-vector line {lineno}: non-finite weight in '{part}'")
            entries[match.group("term")] = weight
        entries = SparseVector(entries).entries
        columns.append(doc_id, entries, entries.values())


def _append_plain(columns: _Columns, lines: list[str]) -> bool:
    """Append ``lines`` whole and return True if every one is plain; else append nothing."""
    doc_ids, tabs, payloads = zip(*map(str.partition, lines, repeat("\t")))
    new = len(set(doc_ids)) == len(lines) and columns.rows.keys().isdisjoint(doc_ids)
    if "" in tabs or not new or _id_problem("doc_id", list(doc_ids)):
        return False
    text = " ".join(payloads).replace("\n", "")
    while "  " in text:  # a run of spaces separates entries as one space does
        text = text.replace("  ", " ")
    text = text.strip(" ")
    # across the block, fields alternate: term ':' weight ' ' term ...
    separators = text.encode("ascii", "replace").translate(None, _NOT_SEPARATOR)
    if separators != b": " * (len(separators) // 2) + b":":
        return False
    fields = text.replace(":", " ").split(" ")
    terms, texts = fields[0::2], fields[1::2]
    # an ASCII decimal float() reads is in the grammar, [0-9]+(.[0-9]+)?([eE][-+]?[0-9]+)?,
    # if it has no sign in front, no '.' at either end and a sign only after e or E
    spaced = f" {' '.join(texts)} ".encode("ascii", "replace").translate(_FOLD_EXPONENT)
    if not all(terms) or spaced.translate(None, b"0123456789.e- ") or b" ." in spaced:
        return False
    if b". " in spaced or b".e" in spaced or spaced.count(b"-") != spaced.count(b"e-"):
        return False
    try:
        weights = np.array(texts, dtype=np.float64)
    except ValueError:  # such as '1e5e5'
        return False
    if not np.isfinite(weights).all():
        return False
    keep = weights != 0.0
    term_ids = columns.term_ids
    seen = len(term_ids)
    ids = np.fromiter(map(term_ids.__getitem__, terms), np.int32, len(terms))
    rows = np.repeat(np.arange(len(lines)), list(map(str.count, payloads, repeat(":"))))
    keys = np.sort(rows * len(term_ids) + ids)
    repeated = (keys[1:] == keys[:-1]).any()
    if repeated or (ids[~keep] >= seen).any():
        # a term repeated in its row sends the block on; a term seen only at
        # weight 0 must not keep the id it just took, so number the block again
        while len(term_ids) > seen:
            term_ids.popitem()
        if repeated:
            return False
        ids = np.fromiter(map(term_ids.__getitem__, compress(terms, keep.tolist())), np.int32)
    else:
        ids = ids[keep]
    columns.extend(doc_ids, np.bincount(rows[keep], minlength=len(lines)), ids, weights[keep])
    return True


def _score_at_a_time(
    mode: str, index: InvertedIndex, clauses: Iterable[tuple[str, float]], k: int
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
    ids = [index.doc_ids[i] for i in hits[top].tolist()]
    return RankedList(dict(zip(ids, scores[top].tolist())))


def bm25_retrieve(index: InvertedIndex, query_text: str, k: int) -> RankedList:
    """Top-k documents for a text query under BM25.

    Only documents with a positive score are returned, ordered by
    descending score then ascending doc_id.  A query that tokenizes to
    nothing yields an empty list.

    Raises:
        ValueError: if ``k`` < 1 or the index is not in bm25 mode.
    """
    clauses = [(token, 1.0) for token in index.analyzer.tokenize(query_text)]
    return _score_at_a_time("bm25", index, clauses, k)


def sparse_retrieve(index: InvertedIndex, query: SparseVector, k: int) -> RankedList:
    """Top-k documents by dot product between query and stored weights.

    Zero-score documents are excluded; an empty query vector yields an
    empty list.

    Raises:
        ValueError: if ``k`` < 1 or the index is not in sparse mode.
    """
    return _score_at_a_time("sparse", index, query.entries.items(), k)


def text_to_query_vector(text: str, analyzer: AnalyzerConfig | None = None) -> SparseVector:
    """Encode query text as a term-count sparse vector.

    This is the default query-side encoder for sparse retrieval when no
    learned encoder output is available: each analyzed token contributes
    weight 1 per occurrence.
    """
    return SparseVector(Counter((analyzer or AnalyzerConfig()).tokenize(text)))
