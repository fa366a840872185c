#!/usr/bin/env python3
"""Regenerate the derived parts of the shipped fixture.

Three artifacts under data/fixture/ are derived and committed:

* sparse_vectors.tsv - stand-in learned-sparse document vectors, computed
  as term count scaled by ln(1 + N/df) and rounded to 3 decimals, so that
  common words are downweighted the way a learned encoder would.
* llm_cache/        - replay cache covering every exchange the six
  shipped run configs need, recorded against the deterministic offline
  model.
* tests/fixtures/golden_turn.json - one audited TurnResult used as a
  regression anchor.

Rerun after changing the corpus, topics, prompts, scorers, or pipeline
wiring:  python3 scripts/make_fixture.py
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from convsearch.index import AnalyzerConfig, read_corpus  # noqa: E402
from convsearch.offline import ScriptedTransport  # noqa: E402
from convsearch.pipeline import execute_spec, load_run_spec  # noqa: E402

FIXTURE = REPO / "data" / "fixture"
CONFIGS = sorted((REPO / "configs").glob("*.json"))


def write_sparse_vectors() -> None:
    analyzer = AnalyzerConfig()
    passages = list(read_corpus(FIXTURE / "corpus.tsv"))
    doc_freq: Counter[str] = Counter()
    tokenized = {}
    for passage in passages:
        tokens = analyzer.tokenize(passage.text)
        tokenized[passage.doc_id] = Counter(tokens)
        doc_freq.update(set(tokens))
    n_docs = len(passages)
    lines = []
    for passage in passages:
        entries = []
        for term in sorted(tokenized[passage.doc_id]):
            count = tokenized[passage.doc_id][term]
            weight = round(count * math.log(1 + n_docs / doc_freq[term]), 3)
            if weight > 0:
                entries.append(f"{term}:{weight}")
        lines.append(f"{passage.doc_id}\t{' '.join(entries)}")
    (FIXTURE / "sparse_vectors.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE / 'sparse_vectors.tsv'} ({n_docs} docs)")


def record_cache() -> None:
    cache_dir = FIXTURE / "llm_cache"
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    transport = ScriptedTransport()
    out_dir = REPO / "out" / "fixture_record"
    for config_path in CONFIGS:
        # given a transport, the run records
        execute_spec(load_run_spec(config_path), out_dir=out_dir, transport=transport)
        print(f"recorded {config_path.name}")
    print(f"cache entries: {sum(1 for _ in cache_dir.glob('*.json'))}")


def write_golden_turn() -> None:
    from convsearch.llm import LLMGateway
    from convsearch.pipeline import execute_turn, load_resources

    spec = load_run_spec(REPO / "configs" / "mq4cs_qr_deberta.json")
    index, topics, passages = load_resources(spec)
    llm = LLMGateway(spec.model_id, spec.paths["cache_dir"], mode="replay")
    result = execute_turn(spec.config, topics[0], 1, index, llm, passages=passages)
    golden = {
        "turn_id": result.turn_id,
        "ranking": [[doc_id, score] for doc_id, score in result.ranking.items],
        "ptkb_labels": list(result.ptkb_labels),
        "answer": result.answer,
        "provenance": list(result.provenance),
    }
    target = REPO / "tests" / "fixtures" / "golden_turn.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(golden, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    write_sparse_vectors()
    if CONFIGS:
        record_cache()
        write_golden_turn()
    else:
        print("no configs yet; skipped cache recording")
