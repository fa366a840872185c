"""Timed passes over one workload, run in a process of their own.

Usage: ``python3 perfbench/passes.py <plan.json>``; ``run.py`` writes the
plan and reads back ``<plan.result>``.  The process sees only generated
input files.  It imports ``convsearch`` from the plan's ``src`` directory
and calls its public functions: ``load_resources``, ``execute_run``,
``write_trec_run``, ``write_response_records``, ``parse_qrels``,
``evaluate_run`` and ``cli.main(["fuse", ...])``.

A pass is one full batch job: for every config of the workload, set up,
run every turn, write the outputs; then fuse (if the workload fuses) and
evaluate every run written.  The plan fixes the number of passes, so
every run attempts the same operations and every estimator below sees
the same number of samples, however fast the program is.

The host's speed swings by up to about 1.5x for seconds at a time, and a
stall only ever adds time.  So each time is sampled more than once, with
the samples spread over the run, and the report keeps the fastest:

- a turn's time is its fastest over the passes; ``turn_ms_p50``,
  ``turn_ms_p90`` and ``turns_per_s`` come from these best times;
- ``total_s`` is the fastest pass;
- ``eval_s`` is the fastest pass's evaluation;
- ``setup_s`` is the median set-up, over the passes and the set-up that
  serves the checks.

``peak_rss_mb`` is read right after the passes, before anything else
runs.  Untimed checks follow: a replay of the recorded cache, a few
first-stage queries and a few topics run again on a thread pool.  With
``trace`` set, one more pass runs under :class:`tracing.Tracer` for the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Passes:
    def __init__(self, plan: dict):
        sys.path.insert(0, plan["src"])
        from convsearch import cli, evaluation, index, llm, offline, pipeline

        self.cli, self.evaluation, self.index, self.llm = cli, evaluation, index, llm
        self.offline, self.pipeline = offline, pipeline
        self.plan = plan
        self.out = Path(plan["out"])
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.probes: list[list] = []
        self.pooled = ""

    def _spec(self, path: str, cache_dir: Path):
        spec = self.pipeline.load_run_spec(path)
        spec.paths["cache_dir"] = cache_dir
        return spec

    def _gateway(self, spec, mode: str):
        transport = self.offline.ScriptedTransport()
        cache_dir = spec.paths["cache_dir"]
        return self.llm.LLMGateway(spec.model_id, cache_dir, mode=mode, transport=transport)

    def one_pass(self, out_dir: Path, cache_dir: Path, mode: str, evaluate: bool = True) -> dict:
        """Run every config, fuse, evaluate; return the pass's timings."""
        P = self.pipeline
        out_dir.mkdir(parents=True, exist_ok=True)
        rec = {"setup": 0.0}
        start = time.perf_counter()
        runs: list[Path] = []
        for spec_path in self.plan["specs"]:
            spec = self._spec(spec_path, cache_dir)
            t = time.perf_counter()
            index, topics, passages = P.load_resources(spec)
            rec["setup"] += time.perf_counter() - t
            gateway = self._gateway(spec, mode)
            n_turns = sum(len(topic.turns) for topic in topics)
            self.attempted += n_turns
            try:
                results = P.execute_run(spec.config, topics, index, gateway, passages=passages)
            except P.TurnExecutionError as exc:
                self.failed += n_turns
                self.errors.append(str(exc))
                continue
            tag = spec.config.run_tag
            P.write_trec_run(results, tag, out_dir / f"{tag}.run")
            P.write_response_records(results, out_dir / f"{tag}.responses.jsonl")
            runs.append(out_dir / f"{tag}.run")
            del index, topics, passages, results
        if not evaluate:
            return rec
        if self.plan["fuse"]:
            runs += self._fuse(runs, out_dir)
        rec["eval"], reports = self._evaluate(runs)
        rec["total"] = time.perf_counter() - start
        for run, report in reports.items():
            report_path = out_dir / f"{run.stem}.eval.json"
            report_path.write_text(json.dumps(report.to_dict()), encoding="utf-8")
        return rec

    def _fuse(self, runs: list[Path], out_dir: Path) -> list[Path]:
        fused = []
        for method in ("ensemble", "interleave"):
            self.attempted += 1
            target = out_dir / f"fused-{method}.run"
            argv = ["fuse", *map(str, runs), "--method", method,
                    "--run-tag", f"fused-{method}", "--out", str(target)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            if code != 0:
                self.failed += 1
                self.errors.append(f"fuse {method}: {err.getvalue().strip()}")
            else:
                fused.append(target)
        return fused

    def _evaluate(self, runs: list[Path]) -> tuple[float, dict]:
        """One evaluation round: ``parse_qrels`` plus ``evaluate_run`` per run."""
        E = self.evaluation
        t = time.perf_counter()
        qrels = E.parse_qrels(self.plan["qrels"])
        reports = {}
        for run in runs:
            self.attempted += 1
            try:
                reports[run] = E.evaluate_run(run, qrels)
            except ValueError as exc:
                self.failed += 1
                self.errors.append(f"evaluate {run.name}: {exc}")
        return time.perf_counter() - t, reports

    def _check_round(self, cache: Path) -> float:
        """Set up every config once more, one at a time, for the checks.

        Each config's resources answer the plan's first-stage probes, and
        the first config's the thread-pool check, before they are dropped.
        Returns the summed ``load_resources`` time, one more set-up sample.
        """
        total = 0.0
        for number, spec_path in enumerate(self.plan["specs"]):
            spec = self._spec(spec_path, cache)
            t = time.perf_counter()
            resources = self.pipeline.load_resources(spec)
            total += time.perf_counter() - t
            self._probe(number, spec, resources[0])
            if number == 0:
                self.pooled = self._pooled(spec, resources)
            del resources
        return total

    @contextlib.contextmanager
    def _timed_turns(self, best: dict):
        """Keep each turn's fastest ``execute_turn`` time, in ms, in ``best``."""
        P = self.pipeline
        original = P.execute_turn

        def timed(config, topic, turn_number, *args, **kwargs):
            t = time.perf_counter()
            result = original(config, topic, turn_number, *args, **kwargs)
            ms = (time.perf_counter() - t) * 1e3
            key = (config.run_tag, topic.topic_id, turn_number)
            best[key] = min(ms, best.get(key, ms))
            return result

        P.execute_turn = timed
        try:
            yield
        finally:
            P.execute_turn = original

    def _fresh_cache(self, name: str) -> Path:
        if self.plan["mode"] == "replay":
            return Path(self.plan["cache_dir"])
        cache = self.out / name
        shutil.rmtree(cache, ignore_errors=True)
        return cache

    def run(self) -> dict:
        plan = self.plan
        passes: list[dict] = []
        turn_ms: dict[tuple, float] = {}
        with self._timed_turns(turn_ms):
            for _ in range(plan["passes"]):
                cache = self._fresh_cache("cache")
                passes.append(self.one_pass(self.out / "runs", cache, plan["mode"]))
        if not turn_ms:
            raise SystemExit("no execute_turn call was observed during execute_run")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if plan["replay_check"]:
            self.one_pass(self.out / "replay", cache, "replay", evaluate=False)
        setups = [p["setup"] for p in passes] + [self._check_round(cache)]

        best = sorted(turn_ms.values())
        result = {
            "attempted": self.attempted,
            "failed": self.failed,
            "passes": len(passes),
            "errors": self.errors,
            "metrics": {
                "setup_s": statistics.median(setups),
                "turns_per_s": len(best) * 1e3 / sum(best),
                "turn_ms_p50": statistics.median(best),
                "turn_ms_p90": _quantile(best, 90),
                "eval_s": min(p["eval"] for p in passes),
                "total_s": min(p["total"] for p in passes),
                "peak_rss_mb": peak_rss_mb,
            },
            "probes": self.probes,
            "pooled": self.pooled,
        }
        if plan["trace"]:
            from tracing import FROM_PASSES

            timings = result["metrics"]
            result["per_layer"] = self._traced(timings["total_s"])
            for name in FROM_PASSES:
                if name.startswith("run."):
                    result["per_layer"][name] = timings[name.removeprefix("run.")]
        return result

    def _probe(self, number: int, spec, index) -> None:
        """First-stage results for the plan's sampled queries of config ``number``."""
        ix = self.index
        for config_no, query, k in self.plan["probes"]:
            if config_no != number:
                continue
            if spec.config.retriever == "bm25":
                ranked = ix.bm25_retrieve(index, query, k)
            else:
                vector = ix.text_to_query_vector(query, index.analyzer)
                ranked = ix.sparse_retrieve(index, vector, k)
            self.probes.append([list(item) for item in ranked.items])

    def _pooled(self, spec, resources) -> str:
        """Sampled topics run again on a thread pool, as TREC lines."""
        workers = self.plan["pool_check_workers"]
        if not workers:
            return ""
        index, topics, passages = resources
        gateway = self._gateway(spec, "replay")
        picked = [topics[t] for t in self.plan["pool_check_topics"]]
        results = self.pipeline.execute_run(
            spec.config, picked, index, gateway, passages=passages, workers=workers
        )
        sink = io.StringIO()
        self.pipeline.write_trec_run(results, spec.config.run_tag, sink)
        return sink.getvalue()

    def _traced(self, untraced_total: float) -> dict:
        from tracing import Tracer, per_layer

        tracer = Tracer()
        tracer.install()
        try:
            cache = self._fresh_cache("traced-cache")
            rec = self.one_pass(self.out / "traced", cache, self.plan["mode"])
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer)
        metrics["trace.overhead_s"] = rec["total"] - untraced_total
        tracer.dump(Path(self.plan["spans"]))
        return metrics


def main() -> None:
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    result = Passes(plan).run()
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
