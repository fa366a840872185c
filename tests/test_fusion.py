"""Normalization, ensemble fusion, interleaving, pooling, reranking."""

import io
import urllib.request

import numpy as np
import pytest

from convsearch.fusion import (
    LexicalOverlapScorer,
    NumericSuffixScorer,
    PseudoCrossEncoder,
    RemoteScorer,
    ensemble_fuse,
    interleave,
    min_max_normalize,
    pool_candidates,
    rerank,
    resolve_scorer,
)
from convsearch.index import Passage, RankedList


def _ranked(query_id: str, pairs) -> RankedList:
    return RankedList.from_scores(query_id, dict(pairs))


# ---------------------------------------------------------------------------
# min-max normalization
# ---------------------------------------------------------------------------


def test_min_max_basic_formula():
    ranked = RankedList("q", (("c", 6.0), ("b", 4.0), ("a", 2.0)))
    normalized = min_max_normalize(ranked)
    assert list(normalized.items) == [("c", 1.0), ("b", 0.5), ("a", 0.0)]


def test_min_max_degenerate_range():
    ranked = RankedList("q", (("a", 5.0), ("b", 5.0)))
    assert [s for _, s in min_max_normalize(ranked).items] == [1.0, 1.0]


def test_min_max_singleton():
    assert list(min_max_normalize(RankedList("q", (("x", 7.3),))).items) == [("x", 1.0)]


def test_min_max_empty():
    assert min_max_normalize(RankedList("q", ())).items == ()


def test_min_max_preserves_order_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        scores = {f"d{i:02d}": float(rng.normal()) for i in range(n)}
        ranked = RankedList.from_scores("q", scores)
        normalized = min_max_normalize(ranked)
        assert normalized.doc_ids() == ranked.doc_ids()


# ---------------------------------------------------------------------------
# ensemble fusion
# ---------------------------------------------------------------------------


def test_ensemble_two_identical_lists_keeps_order():
    ranked = _ranked("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    fused = ensemble_fuse([ranked, ranked])
    assert fused.doc_ids() == ranked.doc_ids()


def test_ensemble_single_list_equals_normalization():
    ranked = _ranked("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    assert ensemble_fuse([ranked]).items == min_max_normalize(ranked).items


def test_ensemble_hand_worked_example():
    first = _ranked("q", [("A", 2.0), ("B", 4.0), ("C", 6.0)])
    second = _ranked("q", [("A", 10.0), ("B", 0.0), ("C", 5.0)])
    fused = ensemble_fuse([first, second])
    assert dict(fused.items) == pytest.approx({"A": 0.5, "B": 0.25, "C": 0.75})
    assert fused.doc_ids() == ["C", "A", "B"]


def test_ensemble_missing_doc_contributes_zero():
    first = _ranked("q", [("a", 2.0), ("b", 1.0)])
    second = _ranked("q", [("a", 9.0)])
    fused = dict(ensemble_fuse([first, second]).items)
    # b appears only in the first list: (0.0 + 0) / 2
    assert fused["b"] == 0.0
    assert fused["a"] == pytest.approx(1.0)


def test_ensemble_rejects_mismatched_query_ids():
    with pytest.raises(ValueError, match="mismatched"):
        ensemble_fuse([_ranked("q1", [("a", 1.0)]), _ranked("q2", [("a", 1.0)])])


def test_ensemble_affine_invariance_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n_docs = int(rng.integers(2, 20))
        n_lists = int(rng.integers(2, 5))
        doc_ids = [f"d{i:02d}" for i in range(n_docs)]
        raw = [
            {doc_id: float(rng.normal()) for doc_id in doc_ids} for _ in range(n_lists)
        ]
        baseline = ensemble_fuse([_ranked("q", s.items()) for s in raw]).doc_ids()
        target = int(rng.integers(n_lists))
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.normal(0, 5.0))
        transformed = [dict(s) for s in raw]
        transformed[target] = {d: a * s + b for d, s in transformed[target].items()}
        shifted = ensemble_fuse([_ranked("q", s.items()) for s in transformed]).doc_ids()
        assert shifted == baseline


# ---------------------------------------------------------------------------
# interleaving
# ---------------------------------------------------------------------------


def test_interleave_round_robin():
    first = RankedList("q", (("A", 2.0), ("B", 1.0)))
    second = RankedList("q", (("C", 2.0), ("D", 1.0)))
    assert interleave([first, second]).doc_ids() == ["A", "C", "B", "D"]


def test_interleave_skips_duplicates():
    first = RankedList("q", (("A", 3.0), ("B", 2.0), ("C", 1.0)))
    second = RankedList("q", (("B", 2.0), ("D", 1.0)))
    assert interleave([first, second]).doc_ids() == ["A", "B", "C", "D"]


def test_interleave_single_list_rewrites_scores():
    ranked = RankedList("q", (("A", 9.0), ("B", 5.0)))
    result = interleave([ranked])
    assert result.doc_ids() == ["A", "B"]
    assert [s for _, s in result.items] == [1.0, 0.5]


def test_interleave_rejects_mismatched_query_ids():
    with pytest.raises(ValueError):
        interleave([RankedList("q1", (("a", 1.0),)), RankedList("q2", (("a", 1.0),))])


def _random_disjoint_lists(rng, universe=60):
    """Lists with no shared doc_ids, the regime where no dedup skips occur."""
    n_lists = int(rng.integers(1, 5))
    pool = list(rng.permutation(universe))
    lists = []
    for _ in range(n_lists):
        n = int(rng.integers(1, 12))
        chosen, pool = pool[:n], pool[n:]
        scores = {f"d{int(d):02d}": float(n - j) for j, d in enumerate(chosen)}
        lists.append(_ranked("q", scores.items()))
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
            lists.append(_ranked("q", scores.items()))
        merged = interleave(lists).doc_ids()
        assert merged == oracle_round_robin([r.doc_ids() for r in lists])


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def test_pool_union():
    first = RankedList("q", (("A", 2.0), ("B", 1.0)))
    second = RankedList("q", (("B", 2.0), ("C", 1.0)))
    assert pool_candidates([first, second], 2) == ["A", "B", "C"]


def test_pool_empty_lists():
    assert pool_candidates([RankedList("q", ()), RankedList("q", ())], 5) == []


def test_pool_contains_each_list_prefix():
    rng = np.random.default_rng(43)
    for _ in range(50):
        lists = []
        for _ in range(int(rng.integers(1, 6))):
            chosen = rng.choice(60, size=int(rng.integers(1, 20)), replace=False)
            scores = {f"d{int(d):02d}": float(len(chosen) - j) for j, d in enumerate(chosen)}
            lists.append(_ranked("q", scores.items()))
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
    result = rerank([NumericSuffixScorer()], "q", ["d2", "d9", "d5"], 3, get_passage, "qid")
    assert result.doc_ids() == ["d9", "d5", "d2"]
    assert result.query_id == "qid"


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


def test_rerank_empty_candidates():
    result = rerank([NumericSuffixScorer()], "q", [], 5, _store(), "qid")
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
    assert isinstance(resolve_scorer("stub-suffix"), NumericSuffixScorer)
    assert isinstance(resolve_scorer("lexical-overlap"), LexicalOverlapScorer)
    standin = resolve_scorer("deberta-v3")
    assert isinstance(standin, PseudoCrossEncoder)
    assert standin.name == "deberta-v3"
    remote = resolve_scorer("deberta-v3", {"deberta-v3": "http://scorer.invalid"})
    assert type(remote).__name__ == "RemoteScorer"


@pytest.mark.parametrize(
    "reply, problem",
    [(b"{}", "KeyError"), (b"[1]", "TypeError"), (b'{"scores": ["x"]}', "ValueError")],
)
def test_remote_scorer_malformed_reply_is_runtime_error(monkeypatch, reply, problem):
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(reply))
    scorer = RemoteScorer("http://scorer.invalid")
    with pytest.raises(RuntimeError, match=f"malformed scorer reply: {problem}"):
        scorer.score("q", [Passage("d1", "text")])
