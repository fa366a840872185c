"""Walkthrough: execute a full run configuration against the shipped fixture.

The multi-query pool-then-rerank configuration generates several aspect
queries per turn, retrieves with each, pools the candidates, and reranks
the pool with an independent single rewrite.  Every LLM exchange replays
from the committed cache, so the run is deterministic and offline.

Run from the repository root:  python3 demos/03_end_to_end_run.py
"""

import json
import tempfile
from pathlib import Path

from convsearch import LLMGateway, execute_spec, load_run_spec, ptkb_text
from convsearch.pipeline import load_resources

REPO = Path(__file__).resolve().parent.parent


def main():
    spec = load_run_spec(REPO / "configs" / "mq4cs_qr_deberta.json")
    config = spec.config
    print(f"run tag    : {config.run_tag}")
    print(f"rewriter   : {config.rewriter} (phi={config.phi})")
    print(f"retriever  : {config.retriever}")
    print(f"pools      : {config.pools}")
    print(f"rerankers  : {list(config.scorer_ids)}")

    # peek at what the LLM produced for the first turn
    index, topics, passages = load_resources(spec)
    gateway = LLMGateway(spec.model_id, spec.paths["cache_dir"], mode="replay")
    topic = topics[0]
    queries = gateway.generate_queries(
        "", ptkb_text(topic), topic.turns[0].user_utterance, config.phi
    )
    print(f"\nturn 1 utterance : {topic.turns[0].user_utterance}")
    print("generated aspect queries:")
    for q in queries.queries:
        print(f"  - {q}")

    with tempfile.TemporaryDirectory() as tmp:
        run_path, responses_path = execute_spec(spec, out_dir=tmp)
        run_lines = run_path.read_text().splitlines()
        print(f"\nrun file: {len(run_lines)} lines, first three:")
        for line in run_lines[:3]:
            print(f"  {line}")
        first = json.loads(responses_path.read_text().splitlines()[0])
        print(f"\nresponse record for {first['turn_id']}:")
        print(f"  answer     : {first['answer'][:90]}...")
        print(f"  provenance : {first['provenance']}")
        print(f"  ptkb labels: {first['ptkb_labels']}")


if __name__ == "__main__":
    main()
