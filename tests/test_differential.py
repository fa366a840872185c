"""Every shipped config against perfbench's independent reference, at 1 and 2 workers.

``perfbench/oracle.py`` scores retrieval, pooling and reranking without
importing ``convsearch``.  Here a small generated collection is recorded
once per config through ``perfbench/run.reference_run`` (the reference's
rankings, the program's own prompts and scripted model), and the program
then replays each config from that cache.  Its ``.run`` text and its
response records must equal the reference's (McKeeman, "Differential
Testing for Software", 1998).
"""

import json
import sys

import pytest

from conftest import CONFIG_DIR, REPO

sys.path.insert(0, str(REPO / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402

from convsearch.llm import LLMGateway  # noqa: E402
from convsearch.offline import ScriptedTransport  # noqa: E402
from convsearch.pipeline import (  # noqa: E402
    execute_run,
    load_resources,
    load_run_spec,
    write_response_records,
    write_trec_run,
)

SEED, DOCS = 11, 800
CONFIGS = sorted(path.stem for path in CONFIG_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def bench_data(tmp_path_factory):
    work = tmp_path_factory.mktemp("differential")
    col = gen.generate(SEED, DOCS)
    return work, col, col.write(work / "data"), oracle.Reference(col)


@pytest.mark.parametrize("name", CONFIGS)
def test_replay_matches_the_reference_at_one_and_two_workers(bench_data, name):
    work, col, paths, ref = bench_data
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    config["paths"] = {key: str(path) for key, path in paths.items()}
    config["paths"]["cache_dir"] = str(work / f"cache-{name}")
    spec_path = work / f"{name}.json"
    spec_path.write_text(json.dumps(config), encoding="utf-8")
    spec = load_run_spec(spec_path)
    index, topics, passages = load_resources(spec)
    recorder = LLMGateway(spec.model_id, spec.paths["cache_dir"], "record", ScriptedTransport())
    expected = bench.reference_run(ref, config, topics, recorder)
    replayer = LLMGateway(spec.model_id, spec.paths["cache_dir"])  # replay mode, no transport
    for workers in (1, 2):
        results = execute_run(spec.config, topics, index, replayer, passages, workers=workers)
        out = work / f"out-{name}-{workers}"
        out.mkdir()
        write_trec_run(results, spec.config.run_tag, out / f"{spec.config.run_tag}.run")
        write_response_records(results, out / f"{spec.config.run_tag}.responses.jsonl")
        checker = bench.Checker()
        bench.check_run(checker, col, expected, config, out)
        assert checker.problems == [], f"{workers} workers"
