#!/usr/bin/env python3
"""Planted mutants: each one must make at least one of the tests it names fail.

A catalogue entry is a source file, an exact snippet that occurs in it once,
the snippet's replacement (the mutant), and the pytest node ids expected to
kill it.  The script copies the repository to a temporary directory, runs
every named test there on the unmutated tree, then applies each mutant on
its own and runs that mutant's tests.

It exits 1, after trying every entry, if a snippet no longer occurs exactly
once (re-target the entry; do not drop it), if a named test fails on the
unmutated tree, or if a mutant survives its tests.

Run from anywhere:  python3 scripts/mutants.py
(it mutates a copy of the repository the script sits in)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CATALOGUE = (
    Mutant(
        "ranked-list-sorts-by-score-alone",
        "src/convsearch/index.py",
        "key=lambda kv: (-kv[1], kv[0])",
        "key=lambda kv: -kv[1]",
        ("tests/test_index.py::test_ranked_list_orders_any_mapping_best_first",
         "tests/test_fusion.py::test_ensemble_orders_rounding_ties_by_doc_id",
         "tests/test_fusion.py::test_rerank_equals_ensemble_fuse_of_the_per_scorer_rankings"),
    ),
    Mutant(
        "retrieval-top-k-by-unstable-argsort",
        "src/convsearch/index.py",
        "top = np.lexsort((hits, -scores))[:k]",
        "top = np.argsort(-scores)[:k]",
        ("tests/test_acceptance.py::test_criterion_2_retrieval_oracles",
         "tests/test_index.py::test_sparse_random_docs_match_brute_force",
         "perfbench/test_oracle.py::test_first_stage_against_naive_loops_and_program_on_fixture"),
    ),
    Mutant(
        "ranked-list-takes-non-finite-scores",
        "src/convsearch/index.py",
        "if not all(map(math.isfinite, scores.values())):",
        "if False:",
        ("tests/test_index.py::test_ranked_list_rejects_non_finite_scores",
         "tests/test_index.py::test_ranked_list_orders_any_mapping_best_first"),
    ),
    Mutant(
        "text-reads-a-byte-order-mark",
        "src/convsearch/index.py",
        'encoding="utf-8-sig"',
        'encoding="utf-8"',
        ("tests/test_cli.py::test_cli_run_reads_past_a_byte_order_mark",
         "tests/test_cli.py::test_cli_evaluate_reads_past_a_byte_order_mark",
         "tests/test_pipeline.py::test_a_run_spec_with_a_byte_order_mark_loads_as_the_clean_spec",
         "tests/test_llm.py::test_replay_hits_a_cache_record_with_a_byte_order_mark"),
    ),
    Mutant(
        "writer-writes-in-place",
        "src/convsearch/index.py",
        'with open(tmp, "x", encoding="utf-8") as handle:\n'
        "            handle.write(text)\n"
        "        os.replace(tmp, sink)\n",
        'with open(sink, "w", encoding="utf-8") as handle:\n'
        "            handle.write(text)\n",
        ("tests/test_text_io.py::test_a_failed_write_leaves_the_earlier_file_as_it_was",),
    ),
    Mutant(
        "writer-leaves-its-temp-file",
        "src/convsearch/index.py",
        "tmp.unlink(missing_ok=True)",
        "pass",
        ("tests/test_text_io.py::test_a_failed_write_leaves_the_earlier_file_as_it_was",),
    ),
    Mutant(
        "identifiers-take-unprintable-characters",
        "src/convsearch/index.py",
        "if joined.split() == values and joined.isprintable():",
        "if joined.split() == values:",
        ("tests/test_text_io.py::test_an_identifier_holds_no_unprintable_character",),
    ),
    Mutant(
        "sparse-fast-path-takes-non-finite-weights",
        "src/convsearch/index.py",
        "    if not np.isfinite(weights).all():\n        return False\n",
        "",
        ("tests/test_index.py::test_load_sparse_vectors_names_the_bad_entry",),
    ),
    Mutant(
        "run-and-qrels-take-unprintable-identifiers",
        "src/convsearch/evaluation.py",
        "if not (parts[0] + parts[2] + parts[-1]).isprintable():",
        "if False:",
        ("tests/test_text_io.py::test_an_identifier_holds_no_unprintable_character",
         "tests/test_cli.py::test_cli_evaluate_rejects_an_unprintable_identifier",
         "tests/test_cli.py::test_cli_fuse_rejects_an_unprintable_run_tag"),
    ),
    Mutant(
        "run-tag-takes-unprintable-characters",
        "src/convsearch/evaluation.py",
        "(parts[0] + parts[2] + parts[-1]).isprintable()",
        "(parts[0] + parts[2]).isprintable()",
        ("tests/test_text_io.py::test_an_identifier_holds_no_unprintable_character",
         "tests/test_cli.py::test_cli_fuse_rejects_an_unprintable_run_tag"),
    ),
    Mutant(
        "run-file-scored-outside-the-reader",
        "src/convsearch/evaluation.py",
        "    with _text(source) as handle:\n"
        '        for lineno, (query_id, _, doc_id, _, score_text, _) in _records(handle, "run", 6):\n',
        "    with _text(source) as handle:\n"
        '        records = list(_records(handle, "run", 6))\n'
        "    if True:\n"
        "        for lineno, (query_id, _, doc_id, _, score_text, _) in records:\n",
        ("tests/test_text_io.py::test_each_reader_names_the_file_it_reads",
         "tests/test_cli.py::test_cli_fuse_names_the_bad_run_file"),
    ),
    Mutant(
        "cutoffs-take-threshold-zero",
        "src/convsearch/evaluation.py",
        "if threshold < 1:",
        "if threshold < 0:",
        ("tests/test_evaluation.py::test_thresholds_below_one_are_rejected",),
    ),
    Mutant(
        "reader-errors-name-no-file",
        "src/convsearch/index.py",
        'raise ValueError(f"{kind} {source}: {exc}" if kind else f"{source}: {exc}") from exc',
        "raise",
        ("tests/test_conversation.py::test_parse_topics_names_the_file_it_reads",
         "tests/test_cli.py::test_cli_run_rejects_a_repeated_topic_number",
         "tests/test_text_io.py::test_each_reader_names_the_file_it_reads",
         "tests/test_cli.py::test_cli_evaluate_names_the_file_it_cannot_read",
         "tests/test_cli.py::test_cli_fuse_names_the_bad_run_file",
         "tests/test_cli.py::test_cli_run_names_a_broken_corpus_or_vector_file"),
    ),
    Mutant(
        "threshold-counts-strictly-above",
        "src/convsearch/evaluation.py",
        "return sum(rel >= threshold for rel in grades)",
        "return sum(rel > threshold for rel in grades)",
        ("tests/test_evaluation.py::test_metrics_are_bit_identical_to_the_reference_bodies",
         "tests/test_acceptance.py::test_criterion_1_metric_oracles"),
    ),
    Mutant(
        "rerank-normalizes-a-lone-scorer",
        "src/convsearch/fusion.py",
        "rows if len(rows) == 1 else [_min_max(r) for r in rows]",
        "[_min_max(r) for r in rows]",
        ("tests/test_acceptance.py::test_criterion_5_replay_determinism",
         "tests/test_pipeline.py::test_golden_turn_matches_frozen_record"),
    ),
    Mutant(
        "json-value-takes-a-boolean-for-an-integer",
        "src/convsearch/index.py",
        "if type(value) is not kind:",
        "if not isinstance(value, kind):",
        ("tests/test_conversation.py::test_parse_topics_names_the_topic_and_field_of_a_bad_number",
         "tests/test_pipeline.py::test_config_values_must_have_their_json_type"),
    ),
    Mutant(
        "json-value-takes-a-lone-surrogate",
        "src/convsearch/index.py",
        "    if kind is str and (problem := _surrogate_problem(value)):\n"
        '        raise ValueError(f"{what} {problem}")\n',
        "",
        ("tests/test_text_io.py::test_one_wording_for_a_json_value",
         "tests/test_conversation.py::test_parse_topics_rejects_a_lone_surrogate_in_any_string",
         "tests/test_cli.py::test_cli_run_rejects_a_lone_surrogate_in_the_spec"),
    ),
    Mutant(
        "run-spec-array-items-unchecked",
        "src/convsearch/pipeline.py",
        'tuple(_json_value(v, str, f"{what} item #{n}") for n, v in items)',
        "tuple(v for n, v in items)",
        ("tests/test_pipeline.py::test_config_values_must_have_their_json_type",
         "tests/test_cli.py::test_cli_run_rejects_a_lone_surrogate_in_the_spec"),
    ),
    Mutant(
        "record-mode-stores-a-reply-before-its-task-parses-it",
        "src/convsearch/llm.py",
        "        parsed = parse(response)\n"
        "        self.cache.put(key, self.model_id, prompt, response)\n",
        "        self.cache.put(key, self.model_id, prompt, response)\n"
        "        parsed = parse(response)\n",
        ("tests/test_pipeline.py::test_record_mode_resumes_after_any_failed_call",
         "tests/test_llm.py::test_a_reply_its_task_cannot_parse_is_not_stored"),
    ),
    Mutant(
        "run-given-a-transport-replays",
        "src/convsearch/pipeline.py",
        'mode = "replay" if transport is None else "record"',
        'mode = "replay"',
        ("tests/test_pipeline.py::test_a_run_given_a_transport_records_and_one_given_none_replays",
         "tests/test_cli.py::test_cli_run_record_then_replay",
         "tests/test_cli.py::test_readme_cli_quickstart_runs"),
    ),
    Mutant(
        "run-spec-takes-an-empty-path",
        "src/convsearch/pipeline.py",
        "        if empty := next((name for name, value in paths.items() if not value), None):\n"
        "            raise ValueError(f\"field 'paths' value of {empty!r} is empty\")"
        "  # '' reads as base\n",
        "",
        ("tests/test_cli.py::test_cli_run_rejects_an_empty_value_before_any_index_is_built",),
    ),
    Mutant(
        "run-spec-takes-a-model-id-that-is-no-identifier",
        "src/convsearch/pipeline.py",
        '_id_problem("model_id", [_json_value(self.model_id, str, "model_id")])',
        "None",
        ("tests/test_cli.py::test_cli_run_rejects_a_model_id_that_is_no_identifier",
         "tests/test_cli.py::test_cli_run_rejects_an_empty_value_before_any_index_is_built"),
    ),
    Mutant(
        "replay-makes-a-missing-cache-directory",
        "src/convsearch/pipeline.py",
        "    if transport is None and not cache.is_dir():  # a miss would name no dir\n"
        '        raise ValueError(f"replay cache {cache} is not a directory")\n',
        "",
        ("tests/test_cli.py::test_cli_run_replay_names_a_missing_cache_directory",),
    ),
    Mutant(
        "ptkb-keys-may-start-at-0",
        "src/convsearch/conversation.py",
        "range(1, len(ptkb) + 1)",
        "range(len(ptkb))",
        ("tests/test_conversation.py::test_parse_topics_takes_a_ptkb_key_iff_it_is_ascii_digits",
         "tests/test_conversation.py::test_parse_topics_fixture_shape"),
    ),
    Mutant(
        "replay-miss-names-no-directory",
        "src/convsearch/llm.py",
        " in {self.cache.directory}",
        "",
        ("tests/test_cli.py::test_cli_run_replay_miss_names_the_cache_and_model",),
    ),
    Mutant(
        "report-recall-at-1000",
        "src/convsearch/evaluation.py",
        "recall_at_k(ranking, judged, 100)",
        "recall_at_k(ranking, judged, 1000)",
        ("tests/test_evaluation.py::test_a_report_scores_the_suite_at_its_cut_offs",),
    ),
    Mutant(
        "scorer-ids-may-repeat",
        "src/convsearch/pipeline.py",
        "if s in self.scorer_ids[:n]]",
        "if s in self.scorer_ids[:0]]",
        ("tests/test_pipeline.py::test_run_spec_rejects_a_bad_or_repeated_scorer_id",
         "tests/test_cli.py::test_cli_run_rejects_a_bad_or_repeated_scorer_id"),
    ),
    Mutant(
        "failed-write-names-the-temp-file",
        "src/convsearch/index.py",
        "raise OSError(exc.errno, exc.strerror, str(sink)) from exc",
        "raise",
        ("tests/test_cli.py::test_cli_a_failed_write_names_the_path_it_was_asked_to_write",),
    ),
    Mutant(
        "report-prints-no-slices",
        "src/convsearch/evaluation.py",
        "        if groups:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_cli_run_replay_and_evaluate",
         "tests/test_cli.py::test_readme_cli_quickstart_runs"),
    ),
    Mutant(
        "fuse-ignores-method",
        "src/convsearch/cli.py",
        'fuse = ensemble_fuse if args.method == "ensemble" else interleave',
        "fuse = ensemble_fuse",
        ("tests/test_cli.py::test_cli_fuse_output_digests",
         "tests/test_cli.py::test_cli_fuse"),
    ),
    Mutant(
        "endpoint-takes-any-string",
        "src/convsearch/llm.py",
        'return None if host else f"{what} is not an http(s) URL naming a host: {url!r}"',
        "return None",
        ("tests/test_pipeline.py::test_run_config_rejects_a_bad_value",
         "tests/test_llm.py::test_http_transport_rejects_an_endpoint_that_is_no_http_url",
         "tests/test_cli.py::test_cli_run_rejects_an_endpoint_that_is_no_http_url_before_set_up",
         "tests/test_cli.py::test_cli_run_rejects_an_empty_value_before_any_index_is_built"),
    ),
    Mutant(
        "out-dir-checked-after-the-run",
        "src/convsearch/pipeline.py",
        '(("cache_dir", cache), ("out_dir", out))',
        '(("cache_dir", cache),)',
        ("tests/test_pipeline.py::test_execute_spec_rejects_a_directory_it_cannot_make_before_set_up",),
    ),
    Mutant(
        "cache-dir-checked-after-set-up",
        "src/convsearch/pipeline.py",
        '(("cache_dir", cache), ("out_dir", out))',
        '(("out_dir", out),)',
        ("tests/test_pipeline.py::test_execute_spec_rejects_a_directory_it_cannot_make_before_set_up",),
    ),
    Mutant(
        "manual-rewrite-checked-per-turn",
        "src/convsearch/pipeline.py",
        'if spec.config.rewriter == "human_rewrite":',
        "if False:",
        ("tests/test_pipeline.py::test_a_human_rewrite_run_needs_every_manual_rewrite_before_set_up",),
    ),
    Mutant(
        "readme-reranks-passages-it-never-defines",
        "README.md",
        'passages = {p.doc_id: p for p in read_corpus("data/fixture/corpus.tsv")}\n',
        "",
        ("tests/test_census.py::test_readme_python_blocks_run_in_order",),
    ),
)

# left out of the copy: version control, caches and what runs leave behind
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".work", "out"
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    # no bytecode: a mutant of the same size written in the same second would read a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def main() -> int:
    started, failures = time.monotonic(), []

    stale = [m for m in CATALOGUE if (REPO / m.path).read_text().count(m.snippet) != 1]
    for mutant in stale:
        failures.append(f"{mutant.name}: snippet not found exactly once in {mutant.path}")
    chosen = [m for m in CATALOGUE if m not in stale]

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(REPO, tree, ignore=_IGNORED)
        named = tuple(dict.fromkeys(test for m in chosen for test in m.tests))
        if named and (baseline := _pytest(tree, named)).returncode != 0:
            print(baseline.stdout[-4000:] + baseline.stderr[-2000:])
            failures.append("the named tests fail on the unmutated tree")
            chosen = []
        for mutant in chosen:
            source = tree / mutant.path
            original = source.read_text()
            source.write_text(original.replace(mutant.snippet, mutant.replacement))
            try:
                outcome = _pytest(tree, mutant.tests)
            finally:
                source.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(outcome.returncode, "ERROR")
            print(f"{verdict:8}  {mutant.name}", flush=True)
            if verdict != "killed":
                print(outcome.stdout[-4000:] + outcome.stderr[-2000:])
                failures.append(f"{mutant.name}: {verdict.lower()} (pytest exit {outcome.returncode})")

    for failure in failures:
        print(f"FAIL  {failure}")
    print(f"{len(chosen)} mutants run, {len(failures)} failures, {time.monotonic() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
