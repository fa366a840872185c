"""Walkthrough: min-max normalization, ensemble fusion, interleaving, pooling.

Small hand-sized ranked lists make each fusion operator's behaviour easy to
follow; the reranking section then runs real scorers over fixture passages.

Run from the repository root:  python3 demos/02_fusion_and_reranking.py
"""

from pathlib import Path

from convsearch import (
    PseudoCrossEncoder,
    RankedList,
    ensemble_fuse,
    interleave,
    min_max_normalize,
    pool_candidates,
    read_corpus,
    rerank,
)

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixture"


def main():
    # --- min-max normalization -------------------------------------------
    raw = RankedList("q", (("C", 6.0), ("B", 4.0), ("A", 2.0)))
    print("raw      :", list(raw.items))
    print("min-max  :", list(min_max_normalize(raw).items))

    # --- ensemble fusion: mean of per-list normalized scores -------------
    first = RankedList.from_scores("q", {"A": 2.0, "B": 4.0, "C": 6.0})
    second = RankedList.from_scores("q", {"A": 10.0, "B": 0.0, "C": 5.0})
    fused = ensemble_fuse([first, second])
    print("\nensemble of two disagreeing lists:")
    print("  list 1 :", first.doc_ids())
    print("  list 2 :", second.doc_ids())
    print("  fused  :", list(fused.items))

    # --- interleaving: round-robin with global dedup ----------------------
    left = RankedList("q", (("A", 3.0), ("B", 2.0), ("C", 1.0)))
    right = RankedList("q", (("B", 2.0), ("D", 1.0)))
    print("\ninterleave [A,B,C] + [B,D]  ->", interleave([left, right]).doc_ids())

    # --- pooling: the union that feeds a single reranking pass -----------
    print("pool depth 2 of [A,B] + [B,C] ->",
          pool_candidates(
              [RankedList("q", (("A", 2.0), ("B", 1.0))),
               RankedList("q", (("B", 2.0), ("C", 1.0)))], 2))

    # --- reranking fixture passages with offline stand-in scorers --------
    passages = {p.doc_id: p for p in read_corpus(FIXTURE / "corpus.tsv")}
    candidates = ["D021", "D022", "D024", "D036", "D005", "D041"]
    query = "budget burr grinder for espresso"

    single = rerank([PseudoCrossEncoder("deberta-v3")], query, candidates, 1000,
                    passages.__getitem__, "demo")
    print(f"\nsingle scorer rerank for {query!r}:")
    for doc_id, score in single.items:
        print(f"  {doc_id}  {score:6.3f}  {passages[doc_id].text[:55]}")

    scorers = [PseudoCrossEncoder(name)
               for name in ("deberta-v2", "deberta-v3", "roberta", "albert", "electra")]
    ensemble = rerank(scorers, query, candidates, 1000, passages.__getitem__, "demo")
    print("\nensemble of five scorers (mean of min-max normalized):")
    for doc_id, score in ensemble.items:
        print(f"  {doc_id}  {score:6.3f}")


if __name__ == "__main__":
    main()
