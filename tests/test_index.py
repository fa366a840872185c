"""Index construction and retrieval, checked against full-scan oracles."""

import io
import math
import re
import sys
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, REPO
from convsearch.index import (
    _BLOCK_LINES,
    _append_plain,
    _Columns,
    B,
    K1,
    AnalyzerConfig,
    InvertedIndex,
    Passage,
    RankedList,
    SparseVector,
    bm25_retrieve,
    build_index,
    build_sparse_index,
    load_sparse_vectors,
    read_corpus,
    sparse_retrieve,
    text_to_query_vector,
)

# ---------------------------------------------------------------------------
# independent oracles: direct-definition scoring over every document
# ---------------------------------------------------------------------------


def oracle_bm25_scores(
    docs: dict[str, str], query: str, k1: float = 0.9, b: float = 0.4
) -> dict[str, float]:
    """BM25 over all docs, written straight from the formula."""
    analyzer = AnalyzerConfig()
    tokenized = {doc_id: analyzer.tokenize(text) for doc_id, text in docs.items()}
    n_docs = len(docs)
    avgdl = sum(len(t) for t in tokenized.values()) / n_docs if n_docs else 0.0
    df: dict[str, int] = {}
    for tokens in tokenized.values():
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    scores = {}
    for doc_id, tokens in tokenized.items():
        total = 0.0
        for term in analyzer.tokenize(query):
            tf = tokens.count(term)
            if tf == 0:
                continue
            idf = math.log(1 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            norm = 1 - b + b * len(tokens) / (avgdl or 1.0)
            total += idf * (tf * (k1 + 1)) / (tf + k1 * norm)
        if total > 0:
            scores[doc_id] = total
    return scores


def oracle_dot_scores(
    vectors: dict[str, dict[str, float]], query: dict[str, float]
) -> dict[str, float]:
    """Dot product against every document vector."""
    scores = {}
    for doc_id, vector in vectors.items():
        total = sum(weight * vector[term] for term, weight in query.items() if term in vector)
        if total > 0:
            scores[doc_id] = total
    return scores


def oracle_top_k(scores: dict[str, float], k: int) -> list[tuple[str, float]]:
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------


def _assert_postings_point_into_the_index(index: InvertedIndex) -> None:
    """Every doc index names a document of the index, and the three arrays are read-only."""
    assert ((index._docs >= 0) & (index._docs < index.doc_count)).all()
    for arr in (index._offsets, index._docs, index._weights):
        assert not arr.flags.writeable


def test_build_index_empty_corpus():
    index = build_index([])
    assert index.doc_count == 0
    assert index.terms == ()
    _assert_postings_point_into_the_index(index)


def test_build_index_hand_counts():
    index = build_index([Passage("d1", "apple banana"), Passage("d2", "banana")])
    assert set(bm25_retrieve(index, "apple", 10).doc_ids()) == {"d1"}
    assert set(bm25_retrieve(index, "banana", 10).doc_ids()) == {"d1", "d2"}
    assert bm25_retrieve(index, "cherry", 10).items == ()
    assert index.document_frequency("cherry") == 0
    assert index.doc_count == 2
    # avgdl is (2 + 1) / 2 = 1.5: d1's "apple" has tf 1, dl 2 and idf ln(1 + 1.5 / 1.5)
    norm = 1 - 0.4 + 0.4 * 2 / 1.5
    apple = math.log(2.0) * (1 * (0.9 + 1)) / (1 + 0.9 * norm)
    assert bm25_retrieve(index, "apple", 10).items == (("d1", pytest.approx(apple, rel=1e-12)),)


def test_build_index_rejects_duplicate_doc_id():
    with pytest.raises(ValueError, match="d1"):
        build_index([Passage("d1", "a"), Passage("d1", "b")])


def test_read_corpus_empty_text_policy(tmp_path):
    # "d2<TAB>" passed the reader and failed the build naming no file or line, while
    # "d2<TAB>   " passed both: the reader now holds the one rule, for both texts
    path = tmp_path / "corpus.tsv"
    for text in ("", "   "):
        path.write_text(f"d1\ta\nd2\t{text}\nd3\tb\n", encoding="utf-8")
        message = f"{path}: corpus line 2: empty text for doc_id 'd2'"
        with pytest.raises(ValueError, match=re.escape(message)):
            list(read_corpus(path))
        with pytest.raises(ValueError, match="^corpus line 2: empty text for doc_id 'd2'$"):
            list(read_corpus(io.StringIO(path.read_text(encoding="utf-8"))))
    # a passage given directly is indexed whatever its tokens, as a text of spaces was
    assert build_index([Passage("d0", "a"), Passage("d1", "")]).doc_ids == ("d0", "d1")


def test_build_index_token_accounting_matches_direct_count():
    # 1,000 random two-word docs; oracle is a direct token-counting pass
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]
    passages = [
        Passage(f"d{i:04d}", f"{vocab[rng.integers(len(vocab))]} {vocab[rng.integers(len(vocab))]}")
        for i in range(1000)
    ]
    index = build_index(passages)
    analyzer = AnalyzerConfig()
    rows = []
    for p in passages:
        tokens = analyzer.tokenize(p.text)
        rows.append((p.doc_id, len(tokens), dict(Counter(tokens))))
    # the reference counts each tf and dl directly; both enter the bit-compared weights
    _assert_same_index(index, reference_pack("bm25", rows))
    distinct_pairs = sum(len(set(analyzer.tokenize(p.text))) for p in passages)
    assert int(index._offsets[-1]) == distinct_pairs


def test_index_invariants_hold():
    passages = [Passage(f"d{i}", "alpha beta gamma"[: 5 + i]) for i in range(5)]
    index = build_index(passages)
    assert index.doc_ids == tuple(sorted(p.doc_id for p in passages))
    sparse = build_sparse_index({"d1": SparseVector({"a": 1.0})})
    for built in (index, sparse):
        _assert_postings_point_into_the_index(built)


# ---------------------------------------------------------------------------
# bm25_retrieve
# ---------------------------------------------------------------------------


def test_bm25_no_matching_term():
    index = build_index([Passage("d1", "apple")])
    assert bm25_retrieve(index, "zebra", 10).items == ()


def test_bm25_single_doc_match():
    index = build_index([Passage("d1", "apple")])
    result = bm25_retrieve(index, "apple", 10)
    assert result.doc_ids() == ["d1"]
    assert result.items[0][1] > 0


def test_bm25_three_doc_fixture_frozen_scores():
    # frozen from the standalone formula evaluation (k1=0.9, b=0.4)
    docs = {"d1": "a a b", "d2": "a c", "d3": "c c"}
    index = build_index([Passage(d, t) for d, t in docs.items()])
    result = bm25_retrieve(index, "a c", 10)
    got = dict(result.items)
    expected = {
        "d1": 0.5947714813480764,
        "d2": 0.9661589287431659,
        "d3": 0.626985784249577,
    }
    assert set(got) == set(expected)
    for doc_id, score in expected.items():
        assert got[doc_id] == pytest.approx(score, abs=1e-6)
    assert oracle_top_k(oracle_bm25_scores(docs, "a c"), 10) == list(result.items)


def test_bm25_rejects_k_zero():
    index = build_index([Passage("d1", "apple")])
    with pytest.raises(ValueError):
        bm25_retrieve(index, "apple", 0)


def test_bm25_empty_query_tokens():
    index = build_index([Passage("d1", "apple")])
    assert bm25_retrieve(index, "!!! ???", 5).items == ()


def test_bm25_requires_bm25_mode():
    index = build_sparse_index({"d1": SparseVector({"a": 1.0})})
    with pytest.raises(ValueError, match="bm25"):
        bm25_retrieve(index, "a", 5)


def test_bm25_repeated_query_terms_boost():
    docs = {"d1": "a b", "d2": "a a"}
    index = build_index([Passage(d, t) for d, t in docs.items()])
    single = dict(bm25_retrieve(index, "a", 10).items)
    double = dict(bm25_retrieve(index, "a a", 10).items)
    for doc_id in single:
        assert double[doc_id] == pytest.approx(2 * single[doc_id])


# ---------------------------------------------------------------------------
# sparse_retrieve
# ---------------------------------------------------------------------------


def test_sparse_empty_query():
    index = build_sparse_index({"d1": SparseVector({"a": 1.0})})
    assert sparse_retrieve(index, SparseVector({}), 5).items == ()


def test_sparse_hand_dot_products():
    index = build_sparse_index(
        {"d1": SparseVector({"a": 1.5}), "d2": SparseVector({"a": 0.5, "b": 7.0})}
    )
    result = sparse_retrieve(index, SparseVector({"a": 2.0}), 5)
    assert list(result.items) == [("d1", 3.0), ("d2", 1.0)]


def test_sparse_rejects_k_zero():
    index = build_sparse_index({"d1": SparseVector({"a": 1.0})})
    with pytest.raises(ValueError):
        sparse_retrieve(index, SparseVector({"a": 1.0}), 0)


def naive_top_k(
    postings: dict[str, list[tuple[str, float]]], clauses, k: int
) -> list[tuple[str, float]]:
    """Dict accumulation in the documented order: clause by clause, acc + qw * weight."""
    acc: dict[str, float] = {}
    for term, query_weight in clauses:
        for doc_id, weight in postings.get(term, ()):
            acc[doc_id] = acc.get(doc_id, 0.0) + query_weight * weight
    return oracle_top_k({d: s for d, s in acc.items() if s > 0.0}, k)


def test_sparse_random_docs_match_brute_force():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(40)]
    vectors = {}
    for i in range(50):
        terms = rng.choice(len(vocab), size=rng.integers(1, 8), replace=False)
        vectors[f"d{i:02d}"] = {vocab[t]: float(rng.uniform(0.1, 5.0)) for t in terms}
    index = build_sparse_index({d: SparseVector(v) for d, v in vectors.items()})
    for _ in range(20):
        q_terms = rng.choice(len(vocab), size=rng.integers(1, 6), replace=False)
        query = {vocab[t]: float(rng.uniform(0.1, 3.0)) for t in q_terms}
        got = sparse_retrieve(index, SparseVector(query), 50)
        assert list(got.items) == oracle_top_k(oracle_dot_scores(vectors, query), 50)

    # doc ids inserted out of sorted order, exact ties (a twin with a smaller
    # id inserted after its source), and SPLADE-sized queries of 64+ terms
    wide = [f"x{i}" for i in range(300)]
    shuffled: dict[str, dict[str, float]] = {}
    for i in rng.permutation(120):
        terms = rng.choice(len(wide), size=rng.integers(1, 40), replace=False)
        shuffled[f"e{i:03d}"] = {wide[t]: float(rng.uniform(0.1, 5.0)) for t in terms}
    twins = ("ae005", "ae060", "ae119")
    for twin in twins:
        shuffled[twin] = dict(shuffled[twin[1:]])
    assert list(shuffled) != sorted(shuffled)
    index = build_sparse_index({d: SparseVector(v) for d, v in shuffled.items()})
    postings: dict[str, list[tuple[str, float]]] = {}
    for doc_id, vector in shuffled.items():
        for term, weight in vector.items():
            postings.setdefault(term, []).append((doc_id, weight))
    ties = 0
    for _ in range(20):
        q_terms = rng.choice(len(wide), size=rng.integers(64, 121), replace=False)
        query = {wide[t]: float(rng.uniform(0.1, 3.0)) for t in q_terms}
        got = sparse_retrieve(index, SparseVector(query), 1000)
        assert list(got.items) == naive_top_k(postings, query.items(), 1000)
        ties += len(set(twins) & set(got.doc_ids()))
    assert ties > 0

    # the BM25 front over the same shapes, with repeated query tokens; the
    # impacts are written from the formula in the module docstring
    texts = {}
    for i in rng.permutation(120):
        tokens = rng.integers(0, 80, size=rng.integers(1, 30))
        texts[f"e{i:03d}"] = " ".join(wide[t] for t in tokens)
    for twin in twins:
        texts[twin] = texts[twin[1:]]
    index = build_index([Passage(d, t) for d, t in texts.items()])
    tokenized = {d: AnalyzerConfig().tokenize(t) for d, t in texts.items()}
    n_docs = len(tokenized)
    avgdl = sum(len(tokens) for tokens in tokenized.values()) / n_docs
    df = Counter(term for tokens in tokenized.values() for term in set(tokens))
    impacts: dict[str, list[tuple[str, float]]] = {}
    for doc_id, tokens in tokenized.items():
        norm = 1.0 - B + B * (len(tokens) / avgdl)
        for term, count in Counter(tokens).items():
            tf = float(count)
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            impact = idf * (tf * (K1 + 1.0)) / (tf + K1 * norm)
            impacts.setdefault(term, []).append((doc_id, impact))
    for _ in range(20):
        tokens = [wide[t] for t in rng.integers(0, 90, size=rng.integers(1, 80))]
        tokens += tokens[:3]
        got = bm25_retrieve(index, " ".join(tokens), 1000)
        assert list(got.items) == naive_top_k(impacts, [(t, 1.0) for t in tokens], 1000)


# ---------------------------------------------------------------------------
# retrieval properties
# ---------------------------------------------------------------------------


def _random_corpus(rng, max_docs=200) -> dict[str, str]:
    vocab = [f"v{i}" for i in range(25)]
    n_docs = int(rng.integers(1, max_docs + 1))
    return {
        f"d{i:03d}": " ".join(
            vocab[int(t)] for t in rng.integers(0, len(vocab), size=rng.integers(1, 12))
        )
        for i in range(n_docs)
    }


def test_retrieval_determinism_bit_for_bit():
    rng = np.random.default_rng(3)
    docs = _random_corpus(rng)
    index = build_index([Passage(d, t) for d, t in docs.items()])
    first = bm25_retrieve(index, "v1 v2 v3", 20)
    second = bm25_retrieve(index, "v1 v2 v3", 20)
    assert first.items == second.items  # exact float equality


def test_retrieval_monotone_k_prefix():
    rng = np.random.default_rng(5)
    docs = _random_corpus(rng, max_docs=80)
    index = build_index([Passage(d, t) for d, t in docs.items()])
    for k in range(1, 15):
        smaller = bm25_retrieve(index, "v0 v5 v9", k).items
        larger = bm25_retrieve(index, "v0 v5 v9", k + 1).items
        assert larger[: len(smaller)] == smaller


_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308]),  # ties, signed zeros and the extremes
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=3), _SCORES, max_size=30), st.data())
def test_ranked_list_orders_any_mapping_best_first(scores, data):
    # brute force: repeatedly take the pair no other remaining pair beats
    rest, expected = list(scores.items()), []
    while rest:
        best = next(
            p for p in rest
            if all(p[1] > q[1] or (p[1] == q[1] and p[0] <= q[0]) for q in rest)
        )
        rest.remove(best)
        expected.append(best)
    shuffled = dict(data.draw(st.permutations(list(scores.items()))))
    for mapping in (scores, shuffled):
        ranked = RankedList(mapping)
        assert [(d, repr(s)) for d, s in ranked.items] == [(d, repr(s)) for d, s in expected]
        assert isinstance(ranked.items, tuple) and all(type(i) is tuple for i in ranked.items)

    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    pairs = list(scores.items())
    pairs.insert(data.draw(st.integers(0, len(pairs))), ("bad-doc", bad))  # no drawn id is as long
    with pytest.raises(ValueError, match=re.escape(f"non-finite score {bad} for doc_id 'bad-doc'")):
        RankedList(dict(pairs))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ranked_list_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="'b'"):
        RankedList({"a": 1.0, "b": bad, "c": 3.0})
    with pytest.raises(ValueError, match="'b'"):
        RankedList({"b": bad})


# ---------------------------------------------------------------------------
# sparse-vector file + corpus file
# ---------------------------------------------------------------------------


def test_load_sparse_vectors_empty_file():
    assert load_sparse_vectors(io.StringIO("")) == {}


def test_load_sparse_vectors_line_format():
    vectors = load_sparse_vectors(io.StringIO("d1\tapple:1.5 banana:0.25\n"))
    assert vectors == {"d1": SparseVector({"apple": 1.5, "banana": 0.25})}


def test_load_sparse_vectors_rejects_negative_weight():
    with pytest.raises(ValueError, match="line 2"):
        load_sparse_vectors(io.StringIO("d1\ta:1.0\nd2\tx:-1\n"))


def test_load_sparse_vectors_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        load_sparse_vectors(io.StringIO("d1\tapple=1.5\n"))
    with pytest.raises(ValueError, match="line 1"):
        load_sparse_vectors(io.StringIO("no-tab-here\n"))


def test_load_sparse_vectors_rejects_duplicate_doc():
    with pytest.raises(ValueError, match="duplicate"):
        load_sparse_vectors(io.StringIO("d1\ta:1\nd1\tb:2\n"))


def test_load_sparse_vectors_drops_zero_weights():
    vectors = load_sparse_vectors(io.StringIO("d1\ta:0 b:2.0\n"))
    assert vectors["d1"].entries == {"b": 2.0}


# the per-entry parser the loader had before it streamed into columns, kept
# as the reference: every line, one regex match per entry into a dict
_ORACLE_ENTRY_RE = re.compile(
    r"^(?P<term>.+):(?P<weight>-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)$"
)


def oracle_sparse_vectors(text: str) -> dict[str, list[tuple[str, float]]]:
    """``{doc_id: [(term, weight), ...]}`` in file and entry order, or the loader's ValueError."""
    vectors: dict[str, list[tuple[str, float]]] = {}
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"sparse-vector line {lineno}: expected '<doc_id>\\t<entries>'")
        doc_id, payload = line.split("\t", 1)
        if not doc_id:
            raise ValueError(f"sparse-vector line {lineno}: empty doc_id")
        if doc_id in vectors:
            raise ValueError(f"sparse-vector line {lineno}: duplicate doc_id '{doc_id}'")
        entries: dict[str, float] = {}
        for part in payload.split(" "):
            if not part:
                continue
            match = _ORACLE_ENTRY_RE.match(part)
            if match is None:
                raise ValueError(f"sparse-vector line {lineno}: malformed entry '{part}'")
            weight = float(match.group("weight"))
            if weight < 0:
                raise ValueError(f"sparse-vector line {lineno}: negative weight in '{part}'")
            if not math.isfinite(weight):
                raise ValueError(f"sparse-vector line {lineno}: non-finite weight in '{part}'")
            entries[match.group("term")] = weight
        vectors[doc_id] = [(t, w) for t, w in entries.items() if w > 0]
    return vectors


def _assert_same_index(got: InvertedIndex, want: InvertedIndex) -> None:
    """Same documents, terms in the same order, and equal read-only CSR arrays."""
    assert got.doc_ids == want.doc_ids and got.terms == want.terms
    for name in ("_offsets", "_docs", "_weights"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype and np.array_equal(got_array, want_array)
        assert not got_array.flags.writeable and not want_array.flags.writeable


def _loaded(text: str) -> dict[str, list[tuple[str, float]]]:
    vectors = load_sparse_vectors(io.StringIO(text))
    return {doc_id: list(vectors[doc_id].entries.items()) for doc_id in vectors}


_ALPHABET = ":-.eE+_ \t0123456789\u0663"  # U+0663 ARABIC-INDIC DIGIT THREE


def _decimal(digits: str, signs: str) -> st.SearchStrategy[str]:
    """``[sign]digits[.digits][(e|E)[sign]digits]`` over the given digit and sign characters."""
    run = st.text(digits, min_size=1, max_size=3)
    sign = st.sampled_from(["", *signs])
    return st.builds(
        "{}{}{}{}".format,
        sign,
        run,
        st.one_of(st.just(""), run.map(".{}".format)),
        st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"), sign, run)),
    )


_entry = st.builds(
    "{}:{}".format,
    st.text(_ALPHABET.replace(" ", ""), min_size=1, max_size=3),
    st.one_of(
        _decimal("0123456789", ""),
        _decimal("0123456789\u0663", "-+"),
        st.text(_ALPHABET, max_size=4),
    ),
)
# mostly lines of well-formed entries, some of them broken by a stray string
_entries = st.one_of(
    st.lists(
        st.builds(
            "{}:{}".format, st.text("eE_+-.:", min_size=1, max_size=3), _decimal("0123456789", "")
        ),
        max_size=8,
    ).map(" ".join),
    st.lists(st.one_of(_entry, _entry, st.text(_ALPHABET, max_size=6)), max_size=8).map(" ".join),
    st.text(_ALPHABET, max_size=30),
)


@settings(max_examples=400, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(["d1", "d2", "d3", "d4"]), _entries), max_size=5))
def test_load_sparse_vectors_agrees_with_the_per_entry_parser(lines):
    text = "".join(f"{doc_id}\t{payload}\n" for doc_id, payload in lines)
    try:
        expected = oracle_sparse_vectors(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            load_sparse_vectors(io.StringIO(text))
        assert str(raised.value) == str(exc)
    else:
        assert _loaded(text) == expected
        _assert_same_index(
            build_sparse_index(load_sparse_vectors(io.StringIO(text))),
            build_sparse_index({d: SparseVector(dict(v)) for d, v in expected.items()}),
        )


@pytest.mark.parametrize(
    "payload, entries",
    [
        ("a:b:1.5 c:2", [("a:b", 1.5), ("c", 2.0)]),  # a colon inside a term
        ("a:1 b:2 a:3", [("a", 3.0), ("b", 2.0)]),  # first position, last weight
        ("a:1 b:2 a:0", [("b", 2.0)]),
        ("a:0 b:-0 c:0.0e5 d:-0.0 e:1", [("e", 1.0)]),  # zero weights dropped
        ("a:1e-3 b:2E+1 c:1.5e2", [("a", 0.001), ("b", 20.0), ("c", 150.0)]),
        ("a:1e-400 b:2", [("b", 2.0)]),  # a weight that underflows to zero
        ("  a:1  b:2 ", [("a", 1.0), ("b", 2.0)]),  # runs of spaces
        ("a\tb:1", [("a\tb", 1.0)]),  # a tab inside a term
        ("", []),
    ],
)
def test_load_sparse_vectors_rare_legal_forms(payload, entries):
    text = f"d1\t{payload}\n"
    assert oracle_sparse_vectors(text) == {"d1": entries}
    assert _loaded(text) == {"d1": entries}


@pytest.mark.parametrize(
    "payload, message",
    [
        ("a:1 b", "malformed entry 'b'"),
        ("a:1:", "malformed entry 'a:1:'"),
        (":1", "malformed entry ':1'"),
        ("a:.5", "malformed entry 'a:.5'"),
        ("a:5.", "malformed entry 'a:5.'"),
        ("a:1.e5", "malformed entry 'a:1.e5'"),
        ("a:1.2.3", "malformed entry 'a:1.2.3'"),
        ("a:inf", "malformed entry 'a:inf'"),
        ("a:1_0", "malformed entry 'a:1_0'"),
        ("a:1\t", "malformed entry 'a:1\t'"),
        ("a 1:b:2", "malformed entry 'a'"),
        # float() reads any Unicode decimal digit; the file grammar takes ASCII only
        ("a:\u0661 b:1", "malformed entry 'a:\u0661'"),  # ARABIC-INDIC DIGIT ONE
        ("a:\U0001d7d0", "malformed entry 'a:\U0001d7d0'"),  # MATHEMATICAL BOLD DIGIT TWO
        ("a:\u0663.\u0665", "malformed entry 'a:\u0663.\u0665'"),
        ("a:\u0663 b:1.\u0663", "malformed entry 'a:\u0663'"),
        ("a:2 b:-1e-3", "negative weight in 'b:-1e-3'"),
        ("a:2 b:1e999", "non-finite weight in 'b:1e999'"),  # a line the fast path splits
        ("a:1e999 a:2", "non-finite weight in 'a:1e999'"),  # a later weight does not hide it
        ("a:1.5e400 b:-1e999", "non-finite weight in 'a:1.5e400'"),  # in entry order
        ("a:-1e999 b:1e999", "negative weight in 'a:-1e999'"),
    ],
)
def test_load_sparse_vectors_names_the_bad_entry(payload, message):
    text = f"d0\tz:1\nd1\t{payload}\n"
    with pytest.raises(ValueError) as raised:
        load_sparse_vectors(io.StringIO(text))
    assert str(raised.value) == f"sparse-vector line 2: {message}"
    with pytest.raises(ValueError, match=re.escape(str(raised.value))):
        oracle_sparse_vectors(text)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_sparse_vector_rejects_non_finite_weights(weight):
    kind = "negative" if weight < 0 else "non-finite"
    with pytest.raises(ValueError, match=re.escape(f"{kind} weight {weight} for term 'b'")):
        SparseVector({"a": 1.0, "b": weight})


def test_loaded_vectors_are_a_read_only_mapping():
    vectors = load_sparse_vectors(io.StringIO("d2\tz:1 a:0\nd1\ta:2 z:3\n"))
    assert list(vectors) == ["d2", "d1"] and len(vectors) == 2 and "d1" in vectors
    assert vectors == {"d2": SparseVector({"z": 1.0}), "d1": SparseVector({"a": 2.0, "z": 3.0})}
    with pytest.raises(KeyError):
        vectors["d3"]
    with pytest.raises(TypeError):
        vectors["d3"] = SparseVector({"a": 1.0})
    # a term first seen with a zero weight is first indexed where it is non-zero
    assert build_sparse_index(vectors).terms == ("z", "a")


def test_index_from_a_file_equals_index_from_the_dict():
    rng = np.random.default_rng(23)
    vectors: dict[str, dict[str, float]] = {}
    lines = []
    for n, i in enumerate(rng.permutation(400)):
        terms = [f"t{t}" for t in rng.choice(600, size=rng.integers(1, 50), replace=False)]
        weights = np.round(rng.uniform(0.001, 9.0, size=len(terms)), 3).tolist()
        doc_id = f"d{i:04d}"
        vectors[doc_id] = dict(zip(terms, weights))
        entries = [f"{t}:{w!r}" for t, w in zip(terms, weights)]
        # every fifth line differs from the dict's entries: a zero weight, a
        # repeated term, an exponent or a run of spaces the dict does not show
        kind = n % 20
        if kind == 5:
            entries.insert(0, "tzero:0.0")
        elif kind == 10:
            entries.insert(0, f"{terms[0]}:1.5")
        elif kind == 15:
            entries[-1] = f"{terms[-1]}:{round(weights[-1] * 1000)}e-3"
        elif kind == 0:
            entries.append("")
        lines.append(f"{doc_id}\t{' '.join(entries)}\n")
    from_file = build_sparse_index(load_sparse_vectors(io.StringIO("".join(lines))))
    from_dict = build_sparse_index({d: SparseVector(v) for d, v in vectors.items()})
    _assert_same_index(from_file, from_dict)
    assert "tzero" not in from_file.terms


def _plain_lines(count: int) -> list[str]:
    """``count`` plain lines whose vocabulary grows all through the file."""
    rng = np.random.default_rng(29)
    lines = []
    for i in range(count):
        terms = rng.choice(20 + i, size=rng.integers(1, 12), replace=False)
        entries = " ".join(f"w{t}:{rng.uniform(0.001, 9.0):.3f}" for t in terms)
        lines.append(f"d{i:04d}\t{entries}\n")
    return lines


_PLAIN_LINES = _plain_lines(3 * _BLOCK_LINES)


# legal variations of a plain line (doc_id, entries): some are not plain, and
# the others take the block path's rarer branches
_ODD_LINES = {
    "zero weight": lambda d, e: f"{d}\t{' '.join(e[:-1] + [e[-1].split(':')[0] + ':0'])}\n",
    "first seen at zero": lambda d, e: f"{d}\t{' '.join(e)} late:0.000\n",
    "repeated term": lambda d, e: f"{d}\t{' '.join(e)} {e[0].split(':')[0]}:9.5\n",
    "repeated at zero": lambda d, e: f"{d}\t{' '.join(e)} {e[0].split(':')[0]}:0\n",
    "exponents": lambda d, e: f"{d}\t{' '.join(e)} x:15e-3 y:2E+1 z:1.5e2 u:1e-400\n",
    "runs of spaces": lambda d, e: f"{d}\t {'  '.join(e)} \n",
    "colon in a term": lambda d, e: f"{d}\ta:b:1.5 {' '.join(e)}\n",
    "signed zero": lambda d, e: f"{d}\tneg:-0.0 {' '.join(e)}\n",
    "no entries": lambda d, e: f"{d}\t\n",
    "blank line after": lambda d, e: f"{d}\t{' '.join(e)}\n\n",
}
_N_LINES = 2 * _BLOCK_LINES + 100
_EDGES = [0, *(b + k for b in (_BLOCK_LINES, 2 * _BLOCK_LINES) for k in (-1, 0, 1)), _N_LINES - 1]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.dictionaries(
        st.one_of(st.sampled_from(_EDGES), st.integers(0, _N_LINES - 1)),
        st.sampled_from(sorted(_ODD_LINES)),
        max_size=12,
    )
)
def test_load_sparse_vectors_agrees_with_the_per_entry_parser_across_blocks(odd):
    lines = _PLAIN_LINES[:_N_LINES]
    lines[-1] = lines[-1].replace("\n", " late:4.5\n")  # 'late' first has a weight here
    for position, kind in odd.items():
        doc_id, payload = lines[position].rstrip("\n").split("\t")
        lines[position] = _ODD_LINES[kind](doc_id, payload.split(" "))
    text = "".join(lines)
    expected = oracle_sparse_vectors(text)
    assert _loaded(text) == expected
    _assert_same_index(
        build_sparse_index(load_sparse_vectors(io.StringIO(text))),
        build_sparse_index({d: SparseVector(dict(v)) for d, v in expected.items()}),
    )


@pytest.mark.parametrize(
    "edits, message",
    [
        ({0: "d0000\tw0:1 b\n", 1: "no-tab-here\n"}, "line 1: malformed entry 'b'"),
        ({0: "d0000\tw0:1 b\n", 600: "no-tab-here\n"}, "line 1: malformed entry 'b'"),
        ({600: "no-tab-here\n"}, "line 601: expected '<doc_id>\\t<entries>'"),
        ({1: "d0001\tw1:-1\n", 600: "\tw1:1\n"}, "line 2: negative weight in 'w1:-1'"),
        ({600: "d0003\tw1:1\n"}, "line 601: duplicate doc_id 'd0003'"),
        ({600: "\tw1:1\n"}, "line 601: empty doc_id"),
        ({600: "d0600\tw1:1 w1:2\n", 601: "d0600\tw1:1\n"}, "line 602: duplicate doc_id 'd0600'"),
    ],
)
def test_load_sparse_vectors_names_the_first_bad_line_in_file_order(edits, message):
    lines = [edits.get(i, line) for i, line in enumerate(_PLAIN_LINES)]
    text = "".join(lines)
    with pytest.raises(ValueError) as raised:
        load_sparse_vectors(io.StringIO(text))
    assert str(raised.value) == f"sparse-vector {message}"
    with pytest.raises(ValueError, match=re.escape(str(raised.value))):
        oracle_sparse_vectors(text)


def test_load_sparse_vectors_names_a_bad_line_in_the_third_block():
    # a colon-in-term line, then the first bad line, both in the third block
    colon_at, bad_at = 2 * _BLOCK_LINES + 10, 2 * _BLOCK_LINES + 20
    lines = list(_PLAIN_LINES)
    assert len(lines) >= 600
    doc_id, payload = lines[colon_at].rstrip("\n").split("\t")
    lines[colon_at] = _ODD_LINES["colon in a term"](doc_id, payload.split(" "))
    with_bad = [*lines[:bad_at], "d9999\tw1:1 oops\n", *lines[bad_at:]]
    with pytest.raises(ValueError) as raised:
        load_sparse_vectors(io.StringIO("".join(with_bad)))
    assert str(raised.value) == f"sparse-vector line {bad_at + 1}: malformed entry 'oops'"
    text = "".join(lines)
    expected = oracle_sparse_vectors(text)
    assert ("a:b", 1.5) in expected[doc_id]
    assert _loaded(text) == expected


def test_every_block_of_the_fixture_and_benchmark_vector_files_is_plain(tmp_path):
    # the loader's line-by-line path is for messy files; the files the fixture and the
    # benchmark read must stay on the whole-block path, or set-up silently slows down
    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    files = [FIXTURE_DIR / "sparse_vectors.tsv"]
    for seed, docs in ((5, 3_000), (7, 20_000)):
        files.append(gen.generate(seed, docs).write(tmp_path / str(docs))["sparse_vectors"])
    for path in files:
        columns, whole = _Columns(), []
        with open(path, encoding="utf-8") as handle:
            while block := list(islice(handle, _BLOCK_LINES)):
                whole.append(_append_plain(columns, block))
        assert whole and all(whole), (str(path), whole.count(False), len(whole))


def test_sparse_vector_rejects_negative():
    with pytest.raises(ValueError):
        SparseVector({"a": -0.1})


def test_read_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\thello world\nd2\tsecond passage\n", encoding="utf-8")
    passages = list(read_corpus(path))
    assert passages == [Passage("d1", "hello world"), Passage("d2", "second passage")]


def test_read_corpus_rejects_missing_tab():
    with pytest.raises(ValueError, match="line 1"):
        list(read_corpus(io.StringIO("no tab line\n")))
    # empty lines are skipped, whitespace-only ones are not
    with pytest.raises(ValueError, match=re.escape("corpus line 3: expected '<doc_id>\\t<text>'")):
        list(read_corpus(io.StringIO("d1\ta\n\n  \n")))


def test_text_to_query_vector_counts():
    vector = text_to_query_vector("Apple apple banana!")
    assert vector.entries == {"apple": 2.0, "banana": 1.0}


# ---------------------------------------------------------------------------
# tokenizer and packer against the methods they replaced
# ---------------------------------------------------------------------------

_STOPWORDS = frozenset({"the", "a", "x1"})
# mostly ASCII, with characters that lower to ASCII letters (U+0130, the
# Kelvin sign U+212A), a non-ASCII space, an ASCII separator str.split()
# splits at and a lone surrogate, which JSON-decoded text can hold
_TEXT_ALPHABET = "aAbZxX019 _-.,'\t\n\x1c\x7f\xa0\u0130\u212a\xe9\ud800"


@settings(max_examples=400, derandomize=True, database=None)
@given(st.one_of(st.text(), st.text(_TEXT_ALPHABET), st.text("theTHEaA1xX ")))
def test_tokenize_is_the_lowered_ascii_alphanumeric_runs(text):
    expected = [w.lower() for w in re.findall(r"[A-Za-z0-9]+", text)]
    assert AnalyzerConfig().tokenize(text) == expected
    # the stand-in scorers drop stopwords as a set difference on these tokens
    filtered = {w for w in expected if w not in _STOPWORDS}
    assert set(AnalyzerConfig().tokenize(text)) - _STOPWORDS == filtered


def reference_pack(mode: str, rows: list[tuple[str, int, dict[str, float]]]) -> InvertedIndex:
    """The packer as it was: rows of distinct terms, one ``lexsort`` by (term, doc)."""
    term_ids: dict[str, int] = {}
    entry_terms, entry_rows, entry_payloads = [], [], []
    for row, (_, _, entries) in enumerate(rows):
        for term, payload in entries.items():
            entry_terms.append(term_ids.setdefault(term, len(term_ids)))
            entry_rows.append(row)
            entry_payloads.append(payload)
    length_of = {doc_id: length for doc_id, length, _ in rows}
    doc_ids = tuple(sorted(length_of))
    n = len(doc_ids)
    rank_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    terms = np.array(entry_terms, dtype=np.int32)
    docs = np.array([rank_of[rows[row][0]] for row in entry_rows], dtype=np.int32)
    order = np.lexsort((docs, terms))
    docs = docs[order]
    payloads = np.array(entry_payloads, dtype=np.float64)[order]
    df = np.bincount(terms, minlength=len(term_ids))
    offsets = np.concatenate(([0], np.cumsum(df))).astype(np.int64)
    avg = sum(length_of.values()) / n if n else 0.0
    weights = payloads
    if mode == "bm25":
        idf = [math.log(1.0 + (n - f + 0.5) / (f + 0.5)) for f in df.tolist()]
        lengths = np.array([length_of[d] for d in doc_ids], dtype=np.float64)
        norm = 1.0 - B + B * (lengths[docs] / (avg or 1.0))
        weights = np.repeat(idf, df) * (payloads * (K1 + 1.0)) / (payloads + K1 * norm)
    for arr in (offsets, docs, weights):
        arr.flags.writeable = False
    return InvertedIndex(mode, doc_ids, term_ids, offsets, docs, weights)


_doc_ids = st.text("abc123", min_size=1, max_size=3)
_words = st.sampled_from(
    ["apple", "Apple", "APPLE", "b2", "B2", "the", "\xe9t\xe9", "\u0130x", "z"]
)
_passage_text = st.one_of(
    st.lists(_words, min_size=1, max_size=12).map(" ".join),
    st.lists(_words, min_size=1, max_size=12).map("-".join),
    st.text(_TEXT_ALPHABET, min_size=1, max_size=20),  # may hold no token at all
)


@settings(max_examples=300, derandomize=True, database=None)
@given(st.lists(st.tuples(_doc_ids, _passage_text), unique_by=lambda p: p[0], max_size=8))
@example([])
@example([("d1", "Apple apple, APPLE!")])
def test_build_index_packs_as_the_per_passage_counter_did(passages):
    index = build_index([Passage(doc_id, text) for doc_id, text in passages])
    rows = []
    for doc_id, text in passages:
        tokens = AnalyzerConfig().tokenize(text)
        rows.append((doc_id, len(tokens), dict(Counter(tokens))))
    _assert_same_index(index, reference_pack("bm25", rows))
    assert type(index._term_ids) is dict


_sparse_entries = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c:d", "\xe9"]),
        st.sampled_from(["0", "1", "2.5", "0.125", "3e2"]),
    ),
    max_size=6,
).map(lambda entries: " ".join(f"{term}:{weight}" for term, weight in entries))


@settings(max_examples=300, derandomize=True, database=None)
@given(st.lists(st.tuples(_doc_ids, _sparse_entries), unique_by=lambda p: p[0], max_size=8))
@example([])
@example([("d1", "a:1 b:0 a:2")])
def test_build_sparse_index_packs_as_the_lexsort_did(lines):
    text = "".join(f"{doc_id}\t{payload}\n" for doc_id, payload in lines)
    vectors = load_sparse_vectors(io.StringIO(text))
    rows = [(doc_id, len(vector), vector.entries) for doc_id, vector in vectors.items()]
    index = build_sparse_index(vectors)
    _assert_same_index(index, reference_pack("sparse", rows))
    assert type(index._term_ids) is dict
