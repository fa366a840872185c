"""Normalization, ensemble fusion, interleaving, pooling, reranking."""

import http.client
import io
import json
import math
import re
import sys
import urllib.request
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from convsearch.fusion import (
    LexicalOverlapScorer,
    NumericSuffixScorer,
    PseudoCrossEncoder,
    RemoteScorer,
    ensemble_fuse,
    interleave,
    pool_candidates,
    rerank,
    resolve_scorer,
)
from convsearch.index import Passage, RankedList
from convsearch.llm import TIMEOUT


def _ranked(pairs) -> RankedList:
    return RankedList(dict(pairs))


# ---------------------------------------------------------------------------
# min-max normalization: the ensemble fusion of one list
# ---------------------------------------------------------------------------


def test_min_max_basic_formula():
    ranked = RankedList({"c": 6.0, "b": 4.0, "a": 2.0})
    normalized = ensemble_fuse([ranked])
    assert list(normalized.items) == [("c", 1.0), ("b", 0.5), ("a", 0.0)]


def test_min_max_degenerate_range():
    ranked = RankedList({"a": 5.0, "b": 5.0})
    assert [s for _, s in ensemble_fuse([ranked]).items] == [1.0, 1.0]


def test_min_max_singleton():
    assert list(ensemble_fuse([RankedList({"x": 7.3})]).items) == [("x", 1.0)]


def test_min_max_empty():
    assert ensemble_fuse([RankedList({})]).items == ()


def test_min_max_preserves_order_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        scores = {f"d{i:02d}": float(rng.normal()) for i in range(n)}
        ranked = RankedList(scores)
        normalized = ensemble_fuse([ranked])
        assert normalized.doc_ids() == ranked.doc_ids()


# ---------------------------------------------------------------------------
# ensemble fusion
# ---------------------------------------------------------------------------


def test_ensemble_two_identical_lists_keeps_order():
    ranked = _ranked([("a", 3.0), ("b", 2.0), ("c", 1.0)])
    fused = ensemble_fuse([ranked, ranked])
    assert fused.doc_ids() == ranked.doc_ids()


def test_ensemble_hand_worked_example():
    first = _ranked([("A", 2.0), ("B", 4.0), ("C", 6.0)])
    second = _ranked([("A", 10.0), ("B", 0.0), ("C", 5.0)])
    fused = ensemble_fuse([first, second])
    assert dict(fused.items) == pytest.approx({"A": 0.5, "B": 0.25, "C": 0.75})
    assert fused.doc_ids() == ["C", "A", "B"]


def test_ensemble_missing_doc_contributes_zero():
    first = _ranked([("a", 2.0), ("b", 1.0)])
    second = _ranked([("a", 9.0)])
    fused = dict(ensemble_fuse([first, second]).items)
    # b appears only in the first list: (0.0 + 0) / 2
    assert fused["b"] == 0.0
    assert fused["a"] == pytest.approx(1.0)


def test_ensemble_orders_rounding_ties_by_doc_id():
    # dB and dA both normalize to 1.0, in descending doc_id order
    first = RankedList({"dB": 1.000001, "dA": 1.0, "dZ": -1e11})
    second = RankedList({"dA": 2.0})
    assert ensemble_fuse([first]).items == (("dA", 1.0), ("dB", 1.0), ("dZ", 0.0))
    fused = ensemble_fuse([first, second])
    assert fused.items == (("dA", 1.0), ("dB", 0.5), ("dZ", 0.0))


def test_min_max_finite_range_past_the_float_maximum():
    ranked = RankedList({"a": 1e308, "b": 0.0, "c": -1e308})
    top = RankedList({"a": sys.float_info.max, "b": -sys.float_info.max})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        assert ensemble_fuse([ranked]).items == (("a", 1.0), ("b", 0.5), ("c", 0.0))
        assert ensemble_fuse([top]).items == (("a", 1.0), ("b", 0.0))
        assert ensemble_fuse([ranked, top]).items == (("a", 1.0), ("b", 0.25), ("c", 0.0))
        result = rerank(
            [_Row([1e308, 0.0, -1e308]), _Row([1.0, 1.0, 0.0])],
            "q", ["a", "b", "c"], 3, _store("a", "b", "c"),
        )
    assert result.items == (("a", 1.0), ("b", 0.75), ("c", 0.0))


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus-first", "minus-first"])
def test_min_max_never_gives_negative_zero(zeros):
    # -0.0 minus a +0.0 minimum is -0.0; a normalized score is +0.0 instead
    ranked = RankedList({"c": 1.0, "a": zeros[0], "b": zeros[1]})
    get_passage = _store("a", "b", "c")
    row = _Row([zeros[0], zeros[1], 1.0])
    for fused in (
        ensemble_fuse([ranked]),
        ensemble_fuse([ranked, ranked]),
        rerank([row, row], "q", ["a", "b", "c"], 3, get_passage),
    ):
        assert _bits(fused) == [("c", "0x1.0000000000000p+0"), ("a", "0x0.0p+0"), ("b", "0x0.0p+0")]
    # one scorer's scores rank the candidates as they are
    alone = rerank([row], "q", ["a", "b", "c"], 3, get_passage)
    assert _bits(alone) == [("c", (1.0).hex()), ("a", zeros[0].hex()), ("b", zeros[1].hex())]


def test_ensemble_affine_invariance_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n_docs = int(rng.integers(2, 20))
        n_lists = int(rng.integers(2, 5))
        doc_ids = [f"d{i:02d}" for i in range(n_docs)]
        raw = [
            {doc_id: float(rng.normal()) for doc_id in doc_ids} for _ in range(n_lists)
        ]
        baseline = ensemble_fuse([_ranked(s.items()) for s in raw]).doc_ids()
        target = int(rng.integers(n_lists))
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.normal(0, 5.0))
        transformed = [dict(s) for s in raw]
        transformed[target] = {d: a * s + b for d, s in transformed[target].items()}
        shifted = ensemble_fuse([_ranked(s.items()) for s in transformed]).doc_ids()
        assert shifted == baseline


# ---------------------------------------------------------------------------
# interleaving
# ---------------------------------------------------------------------------


def test_interleave_round_robin():
    first = RankedList({"A": 2.0, "B": 1.0})
    second = RankedList({"C": 2.0, "D": 1.0})
    assert interleave([first, second]).doc_ids() == ["A", "C", "B", "D"]


def test_interleave_skips_duplicates():
    first = RankedList({"A": 3.0, "B": 2.0, "C": 1.0})
    second = RankedList({"B": 2.0, "D": 1.0})
    assert interleave([first, second]).doc_ids() == ["A", "B", "C", "D"]


def test_interleave_single_list_rewrites_scores():
    ranked = RankedList({"A": 9.0, "B": 5.0})
    result = interleave([ranked])
    assert result.doc_ids() == ["A", "B"]
    assert [s for _, s in result.items] == [1.0, 0.5]


@pytest.mark.parametrize("fuse", [ensemble_fuse, interleave], ids=["ensemble", "interleave"])
def test_fusing_no_lists_is_an_error(fuse):
    with pytest.raises(ValueError, match="at least one ranked list required"):
        fuse([])


def _random_disjoint_lists(rng, universe=60):
    """Lists with no shared doc_ids, the regime where no dedup skips occur."""
    n_lists = int(rng.integers(1, 5))
    pool = list(rng.permutation(universe))
    lists = []
    for _ in range(n_lists):
        n = int(rng.integers(1, 12))
        chosen, pool = pool[:n], pool[n:]
        scores = {f"d{int(d):02d}": float(n - j) for j, d in enumerate(chosen)}
        lists.append(_ranked(scores.items()))
    return lists


def test_interleave_preserves_within_list_order_disjoint_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        lists = _random_disjoint_lists(rng)
        merged = interleave(lists).doc_ids()
        position = {doc_id: i for i, doc_id in enumerate(merged)}
        for ranked in lists:
            ids = ranked.doc_ids()
            for earlier, later in zip(ids, ids[1:]):
                assert position[earlier] < position[later]


def oracle_round_robin(lists_of_ids: list[list[str]]) -> list[str]:
    """Independent simulation: cursors advance past globally seen docs."""
    cursors = [0] * len(lists_of_ids)
    out: list[str] = []
    seen: set[str] = set()
    progressed = True
    while progressed:
        progressed = False
        for i, ids in enumerate(lists_of_ids):
            while cursors[i] < len(ids) and ids[cursors[i]] in seen:
                cursors[i] += 1
            if cursors[i] < len(ids):
                doc = ids[cursors[i]]
                out.append(doc)
                seen.add(doc)
                cursors[i] += 1
                progressed = True
    return out


def test_interleave_overlapping_lists_match_oracle():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n_lists = int(rng.integers(1, 5))
        lists = []
        for _ in range(n_lists):
            n = int(rng.integers(1, 15))
            chosen = rng.choice(25, size=n, replace=False)  # heavy overlap across lists
            scores = {f"d{int(d):02d}": float(n - j) for j, d in enumerate(chosen)}
            lists.append(_ranked(scores.items()))
        merged = interleave(lists).doc_ids()
        assert merged == oracle_round_robin([r.doc_ids() for r in lists])


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def test_pool_union():
    first = RankedList({"A": 2.0, "B": 1.0})
    second = RankedList({"B": 2.0, "C": 1.0})
    assert pool_candidates([first, second], 2) == ["A", "B", "C"]


def test_pool_empty_lists():
    assert pool_candidates([RankedList({}), RankedList({})], 5) == []


def test_pool_rejects_a_depth_below_one():
    with pytest.raises(ValueError, match="per_list_depth must be >= 1"):
        pool_candidates([RankedList({"A": 1.0})], 0)


def test_pool_contains_each_list_prefix():
    rng = np.random.default_rng(43)
    for _ in range(50):
        lists = []
        for _ in range(int(rng.integers(1, 6))):
            chosen = rng.choice(60, size=int(rng.integers(1, 20)), replace=False)
            scores = {f"d{int(d):02d}": float(len(chosen) - j) for j, d in enumerate(chosen)}
            lists.append(_ranked(scores.items()))
        depth = int(rng.integers(1, 10))
        pooled = set(pool_candidates(lists, depth))
        for ranked in lists:
            assert set(ranked.doc_ids()[:depth]) <= pooled
        # depths past the longest list, as in a 1000-deep pool of short lists
        for deep in (depth, 19, 20, 1000):
            round_robin = [
                r.doc_ids()[rank] for rank in range(deep) for r in lists if rank < len(r)
            ]
            assert pool_candidates(lists, deep) == list(dict.fromkeys(round_robin))


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------


def _store(*doc_ids):
    passages = {d: Passage(d, f"text of {d}") for d in doc_ids}
    return passages.__getitem__


def test_rerank_stub_scorer_orders_by_suffix():
    get_passage = _store("d2", "d9", "d5")
    result = rerank([NumericSuffixScorer()], "q", ["d2", "d9", "d5"], 3, get_passage)
    assert result.doc_ids() == ["d9", "d5", "d2"]


def test_rerank_depth_cutoff():
    get_passage = _store("d2", "d9", "d5")
    result = rerank([NumericSuffixScorer()], "q", ["d2", "d9", "d5"], 2, get_passage)
    assert len(result) == 2
    assert set(result.doc_ids()) == {"d2", "d9"}  # only the first 2 candidates scored


def test_rerank_unknown_doc_named():
    get_passage = _store("d1")
    with pytest.raises(ValueError, match="dX"):
        rerank([NumericSuffixScorer()], "q", ["d1", "dX"], 5, get_passage)


def test_rerank_rejects_duplicates_and_bad_depth():
    get_passage = _store("d1")
    with pytest.raises(ValueError, match="depth"):
        rerank([NumericSuffixScorer()], "q", ["d1"], 0, get_passage)
    with pytest.raises(ValueError, match="deduplicated"):
        rerank([NumericSuffixScorer()], "q", ["d1", "d1"], 5, get_passage)
    with pytest.raises(ValueError, match="at least one scorer"):
        rerank([], "q", ["d1"], 5, get_passage)
    short = SimpleNamespace(score=lambda query, passages: [1.0] * (len(passages) - 1))
    with pytest.raises(ValueError, match="misaligned scores"):
        rerank([short], "q", ["d1"], 5, get_passage)


def test_rerank_is_permutation_of_scored_prefix():
    rng = np.random.default_rng(47)
    doc_ids = [f"d{i}" for i in range(30)]
    get_passage = _store(*doc_ids)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        chosen = [doc_ids[int(i)] for i in rng.choice(30, size=n, replace=False)]
        depth = int(rng.integers(1, 35))
        result = rerank([PseudoCrossEncoder("m")], "query text", chosen, depth, get_passage)
        assert sorted(result.doc_ids()) == sorted(chosen[:depth])


def test_rerank_ensemble_averages_normalized_scores():
    get_passage = _store("d1", "d2", "d3")

    class Fixed:
        def __init__(self, mapping):
            self.mapping = mapping

        def score(self, query, passages):
            return [self.mapping[p.doc_id] for p in passages]

    first = Fixed({"d1": 2.0, "d2": 4.0, "d3": 6.0})
    second = Fixed({"d1": 10.0, "d2": 0.0, "d3": 5.0})
    result = rerank([first, second], "q", ["d1", "d2", "d3"], 3, get_passage)
    assert dict(result.items) == pytest.approx({"d1": 0.5, "d2": 0.25, "d3": 0.75})


class _Row:
    """Scores each passage with the next value of a fixed row."""

    def __init__(self, row):
        self.row = row

    def score(self, query, passages):
        assert len(passages) == len(self.row)
        return list(self.row)


def _bits(ranked: RankedList):
    return [(doc_id, score.hex()) for doc_id, score in ranked.items]


def reference_ensemble(lists) -> RankedList:
    """The min-max mean in plain floats, each document's total summed in list order."""
    totals: dict[str, float] = {}
    for ranked in lists:
        scores = [score for _, score in ranked.items]
        low, high = min(scores, default=0.0), max(scores, default=0.0)
        for doc_id, score in ranked.items:
            normalized = 1.0 if high == low else (score - low) / (high - low)
            totals[doc_id] = totals.get(doc_id, 0.0) + normalized
    return RankedList({d: total / len(lists) for d, total in totals.items()})


def _random_row(rng, n: int) -> list[float]:
    kind = int(rng.integers(4))
    if kind == 0:  # spread over several magnitudes
        row = rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4))
    elif kind == 1:  # few distinct values: forced ties
        row = rng.integers(0, 3, size=n).astype(float)
    elif kind == 2:  # a constant row normalizes to ones
        row = np.full(n, rng.normal())
    else:  # both signed zeros
        row = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    return row.tolist()


def test_rerank_equals_ensemble_fuse_of_the_per_scorer_rankings():
    rng = np.random.default_rng(53)
    doc_ids = [f"d{i:02d}" for i in range(40)]
    get_passage = _store(*doc_ids)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        chosen = [doc_ids[int(i)] for i in rng.choice(40, size=n, replace=False)]
        rows = [_random_row(rng, n) for _ in range(int(rng.integers(2, 6)))]
        result = rerank([_Row(row) for row in rows], "q", chosen, n, get_passage)
        per_scorer = [RankedList(dict(zip(chosen, row))) for row in rows]
        want = _bits(reference_ensemble(per_scorer))
        assert _bits(result) == want
        assert _bits(ensemble_fuse(per_scorer)) == want
        # one to five lists that share only some documents, empty lists and singletons
        lists = []
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.choice([0, 1, int(rng.integers(n + 1))]))
            subset = [chosen[int(i)] for i in rng.choice(n, size=size, replace=False)]
            lists.append(RankedList(dict(zip(subset, _random_row(rng, size)))))
        assert _bits(ensemble_fuse(lists)) == _bits(reference_ensemble(lists))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rerank_rejects_a_non_finite_score(bad):
    get_passage = _store("d1", "d2", "d3")
    good = _Row([1.0, 2.0, 3.0])
    for row, named in (([bad] * 3, r"d\d"), ([1.0, bad, 3.0], "d2")):
        # alone, and as one of two scorers, where an all-infinite row would
        # otherwise min-max normalize to ones
        for scorers in ([_Row(row)], [good, _Row(row)]):
            message = re.escape(f"non-finite score {bad} for doc_id '") + named + "'"
            with pytest.raises(ValueError, match=message):
                rerank(scorers, "q", ["d1", "d2", "d3"], 3, get_passage)


def test_rerank_empty_candidates():
    result = rerank([NumericSuffixScorer()], "q", [], 5, _store())
    assert result.items == ()


# ---------------------------------------------------------------------------
# scorers
# ---------------------------------------------------------------------------


def test_lexical_overlap_scorer():
    scorer = LexicalOverlapScorer()
    passages = [Passage("d1", "apple banana"), Passage("d2", "cherry")]
    assert scorer.score("apple banana", passages) == [1.0, 0.0]
    assert scorer.score("apple cherry", passages) == [0.5, 0.5]
    assert scorer.score("", passages) == [0.0, 0.0]


def test_pseudo_cross_encoder_deterministic_and_distinct():
    passages = [Passage("d1", "apple banana"), Passage("d2", "banana cherry")]
    one = PseudoCrossEncoder("model-a")
    two = PseudoCrossEncoder("model-b")
    assert one.score("apple", passages) == one.score("apple", passages)
    assert one.score("apple", passages) != two.score("apple", passages)


def test_resolve_scorer_registry():
    for retired in ("stub-suffix", "lexical-overlap"):  # no id names a test stand-in
        standin = resolve_scorer(retired)
        assert isinstance(standin, PseudoCrossEncoder)
        assert standin.name == retired
    standin = resolve_scorer("deberta-v3")
    assert isinstance(standin, PseudoCrossEncoder)
    assert standin.name == "deberta-v3"
    remote = resolve_scorer("deberta-v3", {"deberta-v3": "http://scorer.invalid"})
    assert type(remote).__name__ == "RemoteScorer"


@pytest.mark.parametrize(
    "reply, problem",
    [
        (b"{}", "KeyError"),
        (b"[1]", "TypeError"),
        (b'{"scores": ["x"]}', "ValueError"),
        # only finite JSON numbers are scores; these once passed as 1.0, 1.5
        # or a non-finite score that failed later without naming the scorer
        (b'{"scores": [true]}', "ValueError"),
        (b'{"scores": ["1.5"]}', "ValueError"),
        (b'{"scores": [NaN]}', "ValueError"),
        (b'{"scores": [Infinity]}', "ValueError"),
        (b'{"scores": [1' + b"0" * 400 + b"]}", "OverflowError"),
        # one score per passage, or the reply is malformed too
        (b'{"scores": [1, 2]}', "ValueError('2 scores for 1 passages')"),
    ],
)
def test_remote_scorer_malformed_reply_is_runtime_error(monkeypatch, reply, problem):
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(reply))
    scorer = RemoteScorer("http://scorer.invalid")
    message = re.escape(f"malformed scorer reply: {problem}")
    with pytest.raises(RuntimeError, match=message) as caught:
        scorer.score("q", [Passage("d1", "text")])
    assert str(caught.value).endswith("from http://scorer.invalid")


def test_remote_scorer_truncated_reply_names_the_endpoint(monkeypatch):
    def urlopen(request, timeout):
        raise http.client.IncompleteRead(b"partial")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(RuntimeError) as caught:
        RemoteScorer("http://scorer.invalid").score("q", [Passage("d1", "text")])
    assert str(caught.value).startswith("request to http://scorer.invalid failed: ")


def test_remote_scorer_posts_query_and_passages_with_its_timeout(monkeypatch):
    requests = []

    def urlopen(request, timeout):
        requests.append((request, timeout))
        return io.BytesIO(b'{"scores": [2, 0.5]}')

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    passages = [Passage("d1", "one"), Passage("d2", "two")]
    assert RemoteScorer("http://scorer.invalid").score("q", passages) == [2.0, 0.5]
    [(request, timeout)] = requests
    assert request.full_url == "http://scorer.invalid"
    assert json.loads(request.data) == {
        "query": "q",
        "passages": [{"doc_id": "d1", "text": "one"}, {"doc_id": "d2", "text": "two"}],
    }
    assert timeout == TIMEOUT == 60.0
