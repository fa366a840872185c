"""Walkthrough: score every shipped run configuration and slice the report.

All six configurations execute against the fixture (replay cache), each run
file is evaluated against the fixture qrels, and one run's report is printed:
``format_report`` gives the aggregate table with its per-depth and per-topic
slices.

Run from the repository root:  python3 demos/04_evaluation_report.py
"""

import tempfile
from pathlib import Path

from convsearch import evaluate_run, format_report, load_run_spec, parse_qrels
from convsearch.pipeline import execute_spec

REPO = Path(__file__).resolve().parent.parent


def main():
    qrels = parse_qrels(REPO / "data" / "fixture" / "qrels.txt")
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config_path in sorted((REPO / "configs").glob("*.json")):
            spec = load_run_spec(config_path)
            run_path, _ = execute_spec(spec, out_dir=tmp)
            reports[spec.config.run_tag] = evaluate_run(run_path, qrels)

    metrics = next(iter(reports.values())).metrics
    print(f"{'run':<20}" + "".join(f"{m:>12}" for m in metrics))
    for run_tag, report in reports.items():
        cells = "".join(f"{report.aggregate[m]:>12.4f}" for m in metrics)
        print(f"{run_tag:<20}{cells}")

    print("\ndetail for mq4cs-qr-deberta, sliced per depth and per topic:")
    print(format_report(reports["mq4cs-qr-deberta"]))


if __name__ == "__main__":
    main()
