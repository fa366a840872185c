"""Command-line entry points: run, evaluate, fuse.

A run's spec says what the run is, its model included; ``run``'s options say where and
how it runs.  A run builds its index from the corpus or sparse-vector file its spec
names, so there is no indexing step; ``run`` records its LLM exchanges through
``--endpoint`` or ``--scripted``, and replays them without; ``evaluate`` scores a run
on the one metric suite (nDCG@5, nDCG, MRR, Recall@100, P@20, mAP), printed sliced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .evaluation import evaluate_run, format_report, parse_qrels
from .evaluation import read_run_file, write_run_file
from .fusion import ensemble_fuse, interleave
from .llm import HttpChatTransport, Transport
from .pipeline import execute_spec, load_run_spec


def _build_transport(args: argparse.Namespace) -> Transport | None:
    if args.endpoint:
        return HttpChatTransport(args.endpoint, api_key=args.api_key)
    if args.scripted:
        from .offline import ScriptedTransport

        return ScriptedTransport()
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_run_spec(args.config)
    if args.cache_dir is not None:
        spec.paths["cache_dir"] = Path(args.cache_dir).resolve()
    run_path, responses_path = execute_spec(
        spec,
        out_dir=args.out_dir,
        transport=_build_transport(args),
        workers=args.workers,
    )
    print(f"wrote {run_path}")
    print(f"wrote {responses_path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate_run(args.run, parse_qrels(args.qrels))
    print(format_report(report))
    if args.json:
        report.write_json(args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    runs = [read_run_file(path) for path in args.runs]
    query_ids = sorted(set().union(*(run.keys() for run in runs)))
    fuse = ensemble_fuse if args.method == "ensemble" else interleave
    fused = ((qid, fuse([run[qid] for run in runs if qid in run])) for qid in query_ids)
    write_run_file(fused, args.run_tag, args.out)
    print(f"fused {len(args.runs)} runs over {len(query_ids)} queries -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsearch",
        description="Conversational passage ranking pipeline and evaluation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config end to end")
    p_run.add_argument("--config", required=True, help="run spec JSON file")
    p_run.add_argument("--out-dir", default="out", help="directory for run outputs")
    p_run.add_argument("--cache-dir", default=None, help="override the spec's cache directory")
    transport = p_run.add_mutually_exclusive_group()
    transport.add_argument("--endpoint", default=None, help="chat-completion URL to record through")
    transport.add_argument(
        "--scripted", action="store_true",
        help="record through the offline scripted model; without it or --endpoint, it replays",
    )
    p_run.add_argument("--api-key", default=None, help="bearer token for the endpoint")
    p_run.add_argument(
        "--workers", type=int, default=1,
        help="parallel turn workers; pays off only when turns wait on an LLM "
        "transport or a remote scorer",
    )
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("evaluate", help="score a TREC run file against qrels")
    p_eval.add_argument("--run", required=True, help="TREC run file")
    p_eval.add_argument("--qrels", required=True, help="qrels file")
    p_eval.add_argument("--json", default=None, help="also write a JSON report")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_fuse = sub.add_parser("fuse", help="fuse several TREC run files")
    p_fuse.add_argument("runs", nargs="+", help="input run files")
    p_fuse.add_argument("--method", choices=["ensemble", "interleave"], default="ensemble")
    p_fuse.add_argument("--run-tag", default="fused")
    p_fuse.add_argument("--out", required=True, help="output run file")
    p_fuse.set_defaults(func=_cmd_fuse)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "api_key", None) is not None and args.endpoint is None:
        parser.error("argument --api-key: not allowed without argument --endpoint")
    try:
        # an empty path would read as the working directory, and an empty value be dropped
        if empty := next((name for name, value in vars(args).items() if value == ""), None):
            raise ValueError(f"argument --{empty.replace('_', '-')}: is empty")
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
