"""Seeded synthetic collections for the benchmark.

Everything here is a pure function of ``(seed, size)``.  A collection is a
set of passages whose tokens follow a Zipf(1.2) law over a fixed 50k-word
vocabulary of pronounceable pseudo-words, plus 13 conversational topics
(103 turns) with persona statements (PTKB), gold responses, manual
rewrites, and dense graded qrels.  Relevance is planted: each turn's
relevant passages get the turn's content words written into them, and
each turn also judges a random sample of other passages as non-relevant,
as a pooled TREC assessment would.

Learned-sparse document vectors follow the ``scripts/make_fixture.py``
recipe: term count times ``ln(1 + N / df)``, rounded to 3 decimals.

The generator keeps the raw material (token ids, per-term columns) so the
oracles can score documents without reading anything the program wrote.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOCAB_SIZE = 50_000
ZIPF_EXPONENT = 1.2
DOC_LEN_RANGE = (20, 40)  # tokens per passage, inclusive
TURNS_PER_TOPIC = [8] * 12 + [7]  # 13 topics, 103 turns
TOPIC_WORD_RANKS = (50, 2000)  # content words: Zipf rank range, sampled log-uniformly
STRATUM_SIZE = 4  # topic words per stratum: frequent, middle and rare thirds of the range
PTKB_STATEMENTS = 5
RELEVANT_PER_TURN = 24  # the first third graded 2, the rest 1
JUDGED_PER_TURN = 100  # relevant plus sampled non-relevant

# Function words of both offline scorers and of the scripted model; the
# pseudo-word vocabulary must not contain them, or a passage word would
# silently stop counting as content.
STOPWORDS = frozenset(
    "a about above after again against all also am an and any are as at be because "
    "been before being below between both but by can could did do does doing down "
    "during each few for from further get had has have here how i if in into is it "
    "its just me more most my no not now of off on once only or other our out over "
    "own same she should so some such than that the their them then there these "
    "they this through to too under until up us very was we were what when where "
    "which while who why will with would you your".split()
)

_UTTERANCE_FRAMES = (
    "what about {0} and {1} {2}",
    "how does {0} compare with {1} for {2}",
    "tell me more about {0} {1} {2}",
    "which {0} is best for {1} and {2}",
    "why is {0} {1} so {2}",
    "can you explain {0} {1} {2}",
)
_RESPONSE_FRAME = "you could look at {0} {1} and also {2}"
_PTKB_FRAMES = ("I enjoy {0} {1}.", "I avoid {0}.", "I often use {0} with {1}.", "I own a {0}.")


def vocabulary() -> list[str]:
    """The fixed 50k-word vocabulary: three consonant-vowel syllables each."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    frame_words = {w for frame in _UTTERANCE_FRAMES + (_RESPONSE_FRAME,) for w in frame.split()}
    words = []
    for parts in itertools.product(syllables, repeat=3):
        word = "".join(parts)
        if word not in STOPWORDS and word not in frame_words:
            words.append(word)
        if len(words) == VOCAB_SIZE:
            return words
    raise AssertionError("syllable space too small")


@dataclass
class Collection:
    """Generated inputs plus the raw material the oracles score from."""

    words: list[str]
    doc_ids: list[str]
    texts: list[str]
    doc_lengths: np.ndarray  # tokens per passage
    # one entry per distinct (term, doc) pair, sorted by term then doc index
    pair_terms: np.ndarray
    pair_docs: np.ndarray
    pair_counts: np.ndarray
    pair_weights: np.ndarray  # learned-sparse weight of the pair
    term_starts: np.ndarray  # pairs of term t are [term_starts[t], term_starts[t+1])
    topics: list[dict]
    qrels: list[tuple[str, str, int]]

    def column(self, term: int) -> slice:
        return slice(int(self.term_starts[term]), int(self.term_starts[term + 1]))

    def write(self, directory: Path) -> dict[str, Path]:
        """Write corpus, sparse vectors, topics and qrels; return their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "corpus": directory / "corpus.tsv",
            "sparse_vectors": directory / "sparse_vectors.tsv",
            "topics": directory / "topics.json",
            "qrels": directory / "qrels.txt",
        }
        paths["corpus"].write_text(
            "".join(f"{d}\t{t}\n" for d, t in zip(self.doc_ids, self.texts)), encoding="utf-8"
        )
        # pairs are term-major; regroup doc-major for one line per passage
        order = np.lexsort((self.pair_terms, self.pair_docs))
        docs = self.pair_docs[order].tolist()
        terms = self.pair_terms[order].tolist()
        weights = self.pair_weights[order].tolist()
        entries: list[list[str]] = [[] for _ in self.doc_ids]
        words = self.words
        for d, t, w in zip(docs, terms, weights):
            entries[d].append(f"{words[t]}:{w}")
        paths["sparse_vectors"].write_text(
            "".join(f"{d}\t{' '.join(e)}\n" for d, e in zip(self.doc_ids, entries)),
            encoding="utf-8",
        )
        paths["topics"].write_text(json.dumps(self.topics, indent=1), encoding="utf-8")
        paths["qrels"].write_text(
            "".join(f"{q} 0 {d} {r}\n" for q, d, r in self.qrels), encoding="utf-8"
        )
        return paths


def _zipf_ranks(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Zipf ranks in ``1..VOCAB_SIZE`` (draws beyond it are redrawn)."""
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        draw = rng.zipf(ZIPF_EXPONENT, size=int((count - len(out)) * 1.2) + 16)
        out = np.concatenate([out, draw[draw <= VOCAB_SIZE]])
    return out[:count]


def generate(seed: int, n_docs: int) -> Collection:
    """Build one collection of ``n_docs`` passages from ``seed``."""
    rng = np.random.default_rng(seed)
    words = vocabulary()
    word_id = {w: i for i, w in enumerate(words)}
    rank_to_word = rng.permutation(VOCAB_SIZE)  # rank r (1-based) is word rank_to_word[r-1]

    lengths = rng.integers(DOC_LEN_RANGE[0], DOC_LEN_RANGE[1] + 1, size=n_docs)
    flat = rank_to_word[_zipf_ranks(rng, int(lengths.sum())) - 1]
    starts = np.concatenate([[0], np.cumsum(lengths)])
    tokens = [flat[starts[i] : starts[i + 1]] for i in range(n_docs)]

    # Every topic draws its words from each third of the rank range alike, and
    # every utterance takes one word per third, so the cost of a turn varies
    # little from seed to seed while the words themselves change.
    low, high = np.log(TOPIC_WORD_RANKS[0]), np.log(TOPIC_WORD_RANKS[1])
    pool_size = 3 * STRATUM_SIZE
    topics: list[dict] = []
    qrels: list[tuple[str, str, int]] = []
    doc_ids = [f"d{i:07d}" for i in range(n_docs)]
    for topic_no, n_turns in enumerate(TURNS_PER_TOPIC, start=1):
        slots = (np.arange(pool_size) + rng.uniform(size=pool_size)) / pool_size
        ranks = np.exp(low + slots * (high - low)).astype(np.int64)
        strata = [
            [words[w] for w in rank_to_word[ranks[i : i + STRATUM_SIZE] - 1]]
            for i in range(0, pool_size, STRATUM_SIZE)
        ]

        def one_per_stratum() -> list[str]:
            return [str(rng.choice(stratum)) for stratum in strata]

        ptkb = {}
        for i in range(PTKB_STATEMENTS):
            picked = one_per_stratum()
            frame = _PTKB_FRAMES[i % len(_PTKB_FRAMES)]
            ptkb[str(i + 1)] = frame.format(*picked[i % 3 :], *picked[: i % 3])
        turns = []
        for turn_no in range(1, n_turns + 1):
            frame = _UTTERANCE_FRAMES[int(rng.integers(len(_UTTERANCE_FRAMES)))]
            content = one_per_stratum()
            utterance = frame.format(*content)
            reply = _RESPONSE_FRAME.format(*one_per_stratum())
            turns.append(
                {
                    "turn_number": turn_no,
                    "utterance": utterance,
                    "response": reply,
                    "manual_rewrite": f"{utterance} {strata[0][0]}",
                }
            )
            # plant relevance: write the turn's content words into its relevant passages
            judged = rng.choice(n_docs, size=JUDGED_PER_TURN, replace=False)
            relevant = judged[:RELEVANT_PER_TURN]
            content_ids = [word_id[w] for w in content]
            for position, doc in enumerate(relevant):
                n_words = 3 if position < RELEVANT_PER_TURN // 3 else 2  # grade 2 gets all three
                slots = rng.choice(len(tokens[doc]), size=n_words, replace=False)
                tokens[doc][slots] = rng.choice(content_ids, size=n_words, replace=False)
            qid = f"t{topic_no:02d}_{turn_no}"
            for position, doc in enumerate(judged):
                grade = 0
                if position < RELEVANT_PER_TURN:
                    grade = 2 if position < RELEVANT_PER_TURN // 3 else 1
                qrels.append((qid, doc_ids[doc], grade))
        title = f"topic about {strata[0][0]}"
        topics.append({"number": f"t{topic_no:02d}", "title": title, "ptkb": ptkb, "turns": turns})

    return assemble(words, doc_ids, tokens, topics, qrels)


def assemble(
    words: list[str],
    doc_ids: list[str],
    tokens: list[np.ndarray],
    topics: list[dict],
    qrels: list[tuple[str, str, int]],
) -> Collection:
    """Collection from per-passage word-id arrays (texts are the words joined)."""
    n_docs = len(doc_ids)
    lengths = np.array([len(t) for t in tokens], dtype=np.int64)
    flat = np.concatenate(tokens).astype(np.int64)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    keys, counts = np.unique(flat * n_docs + doc_of, return_counts=True)
    pair_terms, pair_docs = keys // n_docs, keys % n_docs
    df = np.bincount(pair_terms, minlength=len(words))
    weights = np.round(counts * np.log1p(n_docs / np.maximum(df, 1))[pair_terms], 3)
    return Collection(
        words=words,
        doc_ids=doc_ids,
        texts=[" ".join(words[t] for t in toks.tolist()) for toks in tokens],
        doc_lengths=lengths,
        pair_terms=pair_terms,
        pair_docs=pair_docs,
        pair_counts=counts.astype(np.int64),
        pair_weights=weights,
        term_starts=np.concatenate([[0], np.cumsum(df)]),
        topics=topics,
        qrels=qrels,
    )
