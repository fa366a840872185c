#!/usr/bin/env python3
"""Benchmark of offline conversational ranking runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mq4cs-ensemble-large --seed 1 --seconds 20 --trace 0

One run: generate the workload's inputs from the seed, compute the
expected outputs with the reference implementation in ``oracle.py`` (and,
for replay workloads, record the LLM cache with the scripted model while
doing so), run timed passes of the program in a child process
(``passes.py``), check every output, and print one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one more, traced, pass.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

DEADLINE_S = 175  # a run must end within 180 s
PROBES_PER_CONFIG = 3
POOL_CHECK_TOPICS = 2


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# pass_s: about how long one pass takes on the machine the README names;
# a run makes ceil(--seconds / pass_s) passes, at least one: a number that
# depends on --seconds only, never on how fast the program runs.
# pool_check_workers: after the timed passes, run a few topics again on a
# thread pool of this many workers and compare (0: no such check).
WORKLOADS = {
    "mq4cs-ensemble-large": {
        "docs": 20_000,
        "configs": ["mq4cs_qr_ensemble"],
        "mode": "replay",
        "fuse": False,
        "pass_s": 18.0,
        "pool_check_workers": 0,
    },
    "bm25-large": {
        "docs": 20_000,
        "configs": ["gpt4qr_bm25_qd1"],
        "mode": "replay",
        "fuse": False,
        "pass_s": 5.0,
        "pool_check_workers": max(2, len(os.sched_getaffinity(0))),
    },
    "desk-record-eval": {
        "docs": 3_000,
        "configs": ["mq4cs_qr_deberta", "gpt4qr_deberta", "gpt4qr_bm25_qd1", "humanqr_deberta"],
        "mode": "record",
        "fuse": True,
        "pass_s": 8.0,
        "pool_check_workers": 0,
    },
}

# Gated end-to-end metrics.  The run's other timings (turns_per_s,
# turn_ms_p50/p90, eval_s, total_s) swing with the host's speed by more
# than any allowed bound, so they are reported ungated under --trace 1.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Expected:
    """What one config must produce, per turn, computed by the reference."""

    lines: list[str] = field(default_factory=list)
    responses: dict[str, dict] = field(default_factory=dict)
    first_stage_union: dict[str, set[str]] = field(default_factory=dict)
    queries: list[str] = field(default_factory=list)


def reference_run(ref: oracle.Reference, config: dict, topics, gateway) -> Expected:
    """Replay one config turn by turn with the reference scoring.

    The LLM exchanges go through the program's gateway in record mode, so
    the prompts (and cache keys) are the program's own; retrieval, pooling
    and reranking are the reference's.
    """
    from convsearch.conversation import ptkb_text, render_context
    from convsearch.index import Passage

    depth, rerank_depth = config.get("retrieval_depth", 1000), config.get("rerank_depth", 1000)
    scorers = config.get("scorer_ids", [])
    retrieve = ref.bm25 if config["retriever"] == "bm25" else ref.sparse
    template = config.get("turn_id_template", "{topic}_{turn}")
    exp = Expected()
    for topic in topics:
        for turn in topic.turns:
            turn_id = template.format(topic=topic.topic_id, turn=turn.turn_number)
            ctx = render_context(topic, turn.turn_number)
            utterance = turn.user_utterance
            labels = gateway.classify_ptkb(ctx, topic.ptkb, utterance)
            if config.get("filtered_ptkb"):
                kept = [s for s, keep in zip(topic.ptkb, labels) if keep]
                ptkb = "\n".join(f"{s.index}. {s.text}" for s in kept)
            else:
                ptkb = ptkb_text(topic)
            if config["rewriter"] == "multi_query":
                phi = config.get("phi", 5)
                queries = list(gateway.generate_queries(ctx, ptkb, utterance, phi).queries)
            elif config["rewriter"] == "single_rewrite":
                queries = [gateway.generate_rewrite(ctx, ptkb, utterance)]
            else:
                queries = [turn.manual_rewrite]
            first = [retrieve(q, depth) for q in queries]
            exp.queries.extend(queries)
            exp.first_stage_union[turn_id] = {d for ranking in first for d, _ in ranking}
            if config.get("fusion", "none") == "pool_then_rerank":
                rewrite = gateway.generate_rewrite(ctx, ptkb, utterance)
                ranking = ref.rerank(scorers, rewrite, oracle.pool(first, depth), rerank_depth)
            elif config.get("fusion", "none") == "none":
                candidates = [d for d, _ in first[0]]
                ranking = first[0]
                if scorers:
                    ranking = ref.rerank(scorers, queries[0], candidates, rerank_depth)
            else:
                raise NotImplementedError(f"fusion {config['fusion']}")
            ranking = ranking[:1000]
            top = [Passage(d, ref.col.texts[ref.doc_index[d]]) for d, _ in ranking[:5]]
            answer, provenance = gateway.generate_response(ctx, ptkb, utterance, top)
            exp.lines.extend(oracle.trec_lines(turn_id, ranking, config["run_tag"]))
            exp.responses[turn_id] = {
                "turn_id": turn_id,
                "answer": answer,
                "provenance": provenance,
                "ptkb_labels": labels,
            }
    return exp


class Checker:
    """Collects failed checks as messages."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def same_text(self, got: str, want: str, what: str) -> None:
        if got == want:
            return
        g, w = got.splitlines(), want.splitlines()
        first = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        self.problems.append(
            f"{what}: line {first + 1} differs: got {g[first] if first < len(g) else '<end>'!r}, "
            f"want {w[first] if first < len(w) else '<end>'!r}"
        )


def _read(c: Checker, path: Path) -> str | None:
    if not path.exists():
        c.problems.append(f"{path.name} was not written")
        return None
    return path.read_text(encoding="utf-8")


def check_run(c: Checker, col: gen.Collection, exp: Expected, config: dict, run_dir: Path) -> None:
    tag = config["run_tag"]
    run_text = _read(c, run_dir / f"{tag}.run")
    responses = _read(c, run_dir / f"{tag}.responses.jsonl")
    if run_text is None or responses is None:
        return
    known = set(col.doc_ids)
    per_turn: dict[str, list[tuple[str, float]]] = {}
    for line in run_text.splitlines():
        qid, _, doc, rank, score, run_tag = line.split()
        items = per_turn.setdefault(qid, [])
        ok = int(rank) == len(items) + 1 and run_tag == tag
        c.expect(ok, f"{tag}: bad rank or tag in {line!r}")
        items.append((doc, float(score)))
    for qid, items in per_turn.items():
        docs = [d for d, _ in items]
        c.expect(len(items) <= 1000, f"{tag} {qid}: {len(items)} items > 1000")
        c.expect(len(set(docs)) == len(docs), f"{tag} {qid}: duplicate doc ids")
        ok = all(a[1] >= b[1] for a, b in zip(items, items[1:]))
        c.expect(ok, f"{tag} {qid}: scores increase")
        c.expect(set(docs) <= known, f"{tag} {qid}: doc id not in corpus")
        if config.get("fusion") == "pool_then_rerank":
            ok = set(docs) <= exp.first_stage_union[qid]
            c.expect(ok, f"{tag} {qid}: ranked doc outside first-stage union")
    c.same_text(run_text, "".join(f"{line}\n" for line in exp.lines), f"{tag}.run vs reference")

    records = [json.loads(line) for line in responses.splitlines()]
    c.expect(len(records) == len(exp.responses), f"{tag}: {len(records)} response records")
    for record in records:
        turn_id = record["turn_id"]
        top5 = [d for d, _ in per_turn.get(turn_id, [])[:5]]
        c.expect(record["provenance"] == top5, f"{tag} {turn_id}: provenance is not the top 5")
        c.expect(record == exp.responses.get(turn_id), f"{tag} {turn_id}: response record differs")


def check_eval(c: Checker, col: gen.Collection, run_file: Path) -> None:
    run_text, report_text = _read(c, run_file), _read(c, run_file.with_suffix(".eval.json"))
    if run_text is None or report_text is None:
        return
    judged: dict[str, dict[str, int]] = {}
    for qid, doc, rel in col.qrels:
        judged.setdefault(qid, {})[doc] = rel
    report = json.loads(report_text)
    rankings = oracle.read_run(run_text)
    want = {
        qid: oracle.trec_metrics([d for d, _ in ranking], judged[qid])
        for qid, ranking in rankings.items()
        if qid in judged
    }
    c.expect(set(report["per_query"]) == set(want), f"{run_file.name}: evaluated query set differs")
    for qid, values in want.items():
        got = report["per_query"].get(qid, {})
        for metric, value in values.items():
            ok = abs(got.get(metric, -1.0) - value) <= 1e-9
            c.expect(ok, f"{run_file.name} {qid} {metric}: {got.get(metric)} != {value}")
    for metric in report["metrics"]:
        mean = sum(v[metric] for v in want.values()) / len(want)
        ok = abs(report["aggregate"][metric] - mean) <= 1e-9
        c.expect(ok, f"{run_file.name}: aggregate {metric}")


def check_fuse(c: Checker, runs: list[Path], run_dir: Path) -> None:
    texts = [_read(c, p) for p in runs]
    if None in texts:
        return
    parsed = [oracle.read_run(text) for text in texts]
    for method, fuse in (("ensemble", oracle.ensemble), ("interleave", oracle.interleave)):
        lines = []
        for qid in sorted(set().union(*parsed)):
            fused = fuse([r[qid] for r in parsed if qid in r])
            lines += oracle.trec_lines(qid, fused, f"fused-{method}")
        got = _read(c, run_dir / f"fused-{method}.run")
        if got is not None:
            c.same_text(got, "".join(f"{line}\n" for line in lines), f"fuse {method}")


def check_cache(c: Checker, cache_dir: Path) -> None:
    files = sorted(cache_dir.glob("*.json"))
    c.expect(bool(files), f"{cache_dir.name}: empty cache")
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"))
        ok = path.name == oracle.cache_file_name(record["model_id"], record["prompt"])
        c.expect(ok, f"cache file {path.name}: name is not sha256(model_id, prompt)")


def check_all(wl: dict, col, ref, configs, expected, plan, result, work: Path) -> list[str]:
    """Every output check of one run; returns the failures."""
    c = Checker()
    c.problems += [f"program: {message}" for message in result["errors"]]
    run_dir = work / "out" / "runs"
    runs = [run_dir / f"{config['run_tag']}.run" for config in configs]
    for config in configs:
        check_run(c, col, expected[config["run_tag"]], config, run_dir)
    for run_file in runs:
        check_eval(c, col, run_file)
    if wl["fuse"]:
        check_fuse(c, runs, run_dir)
        for method in ("ensemble", "interleave"):
            check_eval(c, col, run_dir / f"fused-{method}.run")
    for (number, query, k), got in zip(plan["probes"], result["probes"]):
        want = (ref.bm25 if configs[number]["retriever"] == "bm25" else ref.sparse)(query, k)
        ok = [tuple(x) for x in got] == want
        c.expect(ok, f"first stage of {query!r} differs from exhaustive scoring")
    if plan["pool_check_workers"]:
        serial: dict[str, list[str]] = {}
        for line in (_read(c, runs[0]) or "").splitlines():
            serial.setdefault(line.split()[0], []).append(line)
        got = result["pooled"].splitlines()
        turn_ids = dict.fromkeys(line.split()[0] for line in got)
        want = [line for qid in turn_ids for line in serial.get(qid, [])]
        c.expect(bool(got) and got == want, "turns run on a thread pool differ from the serial run")
    if plan["replay_check"]:
        check_cache(c, work / "out" / "cache")
        for config in configs:
            for name in (f"{config['run_tag']}.run", f"{config['run_tag']}.responses.jsonl"):
                recorded, replayed = run_dir / name, work / "out" / "replay" / name
                same = recorded.exists() and replayed.exists()
                c.expect(same and recorded.read_bytes() == replayed.read_bytes(),
                         f"replay of {name} differs from the recorded run")
    else:
        check_cache(c, Path(plan["cache_dir"]))
    return c.problems


def run(args: argparse.Namespace, root: Path, work: Path, deadline: float) -> dict:
    from convsearch.conversation import parse_topics
    from convsearch.llm import LLMGateway
    from convsearch.offline import ScriptedTransport

    wl = WORKLOADS[args.workload]
    clock = time.perf_counter()
    col = gen.generate(args.seed, wl["docs"])
    paths = col.write(work / "data")
    ref = oracle.Reference(col)
    topics = parse_topics(paths["topics"])
    ref_cache = work / "ref-cache"
    rng = np.random.default_rng(args.seed + 1)

    configs, specs, expected, probes = [], [], {}, []
    for number, name in enumerate(wl["configs"]):
        config = json.loads((root / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        config["paths"] = {k: str(v) for k, v in paths.items()}
        spec_path = work / f"{name}.json"
        spec_path.write_text(json.dumps(config), encoding="utf-8")
        configs.append(config)
        specs.append(str(spec_path))
        transport = ScriptedTransport()
        gateway = LLMGateway(config["model_id"], ref_cache, mode="record", transport=transport)
        exp = expected[config["run_tag"]] = reference_run(ref, config, topics, gateway)
        for q in rng.choice(len(exp.queries), size=PROBES_PER_CONFIG, replace=False).tolist():
            probes.append((number, exp.queries[q], config.get("retrieval_depth", 1000)))

    pool_topics = sorted(rng.choice(len(topics), size=POOL_CHECK_TOPICS, replace=False).tolist())
    plan = {
        "src": str(root / "src"),
        "specs": specs,
        "mode": wl["mode"],
        "cache_dir": str(ref_cache),
        "qrels": str(paths["qrels"]),
        "fuse": wl["fuse"],
        "passes": max(1, math.ceil(args.seconds / wl["pass_s"])),
        "trace": bool(args.trace),
        "out": str(work / "out"),
        "probes": probes,
        "pool_check_workers": wl["pool_check_workers"],
        "pool_check_topics": pool_topics,
        "replay_check": wl["mode"] == "record",
        "spans": str(work.parent / f"spans-{args.workload}.jsonl"),
        "result": str(work / "result.json"),
    }
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    print(f"inputs and reference: {time.perf_counter() - clock:.1f} s", file=sys.stderr)
    clock = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(HERE / "passes.py"), str(work / "plan.json")],
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if child.returncode != 0:
        raise RuntimeError(f"timed passes failed:\n{child.stderr[-4000:]}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - clock
    print(f"timed passes: {elapsed:.1f} s ({result['passes']} passes)", file=sys.stderr)
    clock = time.perf_counter()
    problems = check_all(wl, col, ref, configs, expected, plan, result, work)
    print(f"checks: {time.perf_counter() - clock:.1f} s", file=sys.stderr)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        values, units = result["per_layer"], {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, units = result["metrics"], END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "convsearch" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the repository root (needs src/ and configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.monotonic()
        report = run(args, root, work, started + DEADLINE_S)
        print(f"run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
