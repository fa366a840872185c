"""Command-line interface, exercised against the shipped fixture."""

import hashlib
import json
import shlex

import pytest

from convsearch.cli import build_parser, main
from convsearch.evaluation import evaluate_run, format_report, parse_qrels, read_run_file
from convsearch.fusion import ensemble_fuse, interleave

from conftest import CONFIG_DIR, FIXTURE_DIR, REPO


def test_cli_run_replay_and_evaluate(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            "--config", str(CONFIG_DIR / "gpt4qr_deberta.json"),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    run_path = out_dir / "gpt4qr-deberta.run"
    responses_path = out_dir / "gpt4qr-deberta.responses.jsonl"
    assert run_path.exists() and responses_path.exists()
    assert len(responses_path.read_text().splitlines()) == 6

    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--run", str(run_path),
            "--qrels", str(FIXTURE_DIR / "qrels.txt"),
            "--per-depth", "--per-topic",
            "--json", str(report_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "nDCG@5" in printed and "depth 1" in printed and "topic 2" in printed
    report = json.loads(report_path.read_text())
    assert set(report["aggregate"]) == {"nDCG@5", "nDCG", "MRR", "Recall@100", "P@20", "mAP"}


def test_cli_fuse(tmp_path):
    out_dir = tmp_path / "out"
    for config in ("gpt4qr_deberta.json", "humanqr_deberta.json"):
        assert main(["run", "--config", str(CONFIG_DIR / config), "--out-dir", str(out_dir)]) == 0
    runs = [out_dir / "gpt4qr-deberta.run", out_dir / "humanqr-deberta.run"]
    inputs = [read_run_file(run) for run in runs]
    for method, fuse in (("ensemble", ensemble_fuse), ("interleave", interleave)):
        fused = tmp_path / f"{method}.run"
        argv = ["fuse", *map(str, runs), "--method", method, "--run-tag", "fused"]
        assert main([*argv, "--out", str(fused)]) == 0
        fields = [line.split() for line in fused.read_text().splitlines()]
        assert fields and all(f[1] == "Q0" and f[-1] == "fused" for f in fields)
        # read back, the file holds each query's fusion of the inputs, to the 6 printed decimals
        got = read_run_file(fused)
        assert set(got) == {"1_1", "1_2", "1_3", "2_1", "2_2", "2_3"}
        for query_id, ranking in got.items():
            want = fuse([run[query_id] for run in inputs if query_id in run])
            assert ranking.doc_ids() == want.doc_ids()
            assert [s for _, s in ranking.items] == pytest.approx(
                [s for _, s in want.items], rel=0, abs=5e-7
            )


# sha256 of `convsearch fuse` over the six configs' runs, in config-name order
FUSED_DIGESTS = {
    "ensemble": "61576c2b12aced86ec2def8f194b91303e7a7db11f63cfb66c63ada35a0dd78c",
    "interleave": "291dd72f4f836e6a79cdd08dae9f1ba800183e786c3a833a50b3826a6f515378",
}


def test_cli_fuse_output_digests(tmp_path):
    runs = []
    for config in sorted(CONFIG_DIR.glob("*.json")):
        out_dir = tmp_path / config.stem
        assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        runs.extend(map(str, out_dir.glob("*.run")))
    assert len(runs) == 6
    for method, digest in FUSED_DIGESTS.items():
        fused = tmp_path / f"{method}.run"
        assert main(["fuse", *runs, "--method", method, "--out", str(fused)]) == 0
        assert hashlib.sha256(fused.read_bytes()).hexdigest() == digest


# sha256 of each report's `json.dumps(report.to_dict())` and of its sliced text table,
# for the six configs' runs and their two fusions, at the default cut-offs
REPORT_DIGESTS = {
    "gpt4qr-bm25-qd1.run": [
        "4f948c766e2329b8f82a403bff0041d68acf09c288d042b44ee02e45ab718fdc",
        "d8b955f0b3a37f8e96b2ba0eab440bbb569f9b1690016b3ee814ecebc51ceaef",
    ],
    "gpt4qr-deberta.run": [
        "09abfc3c0200a28b59c8754d5d629847cce4c91fdd045b079d94a8d739d97679",
        "2f69814c3fd9e67e399b09e9d251b2d2e2bf3f283f87e59035d9d6c820f6edfc",
    ],
    "humanqr-deberta.run": [
        "84f0ec36e73db12bd2c7605081d69184acb1cd8c97a0a50db34a00ea4fd10f16",
        "6387cea8ad63aa7534681d148eda4fce395ab1233c75b012dc2e37e2dd424e78",
    ],
    "humanqr-ensemble.run": [
        "349ed26053c8c3818039a4e569111c4b476bf5784e45a82478166b0103336e08",
        "0b4f42e8c281e3eb390e8894e81a9a03dc4710c2b1435866b70e3a4a50fd822d",
    ],
    "mq4cs-qr-deberta.run": [
        "54bd1103ad3f4a42466730d8598bfbabbb1efc30e8abe77dc1f3e35e7ba2d3a4",
        "1f8726d2a1900e6749d4cf29a1a5cf6dc2870dbdaf8d3cb952bdb7fddd2740e6",
    ],
    "mq4cs-qr-ensemble.run": [
        "72925ff8f5b7fda408d68cade81dc6d58429b3f55aba5843cb0482fc98f4e26b",
        "227c2e9ee1f6f8956f85389f132bb5582cbd710619b02834d98fe1c14765fbde",
    ],
    "ensemble.run": [
        "1e7858c1123cccafb081e64efad64c961d785aeeb1975ae3ecff6b2674a51ea0",
        "ae75901d10e5631f89d7d64208a3027ce5d4b44d9347b24b5a6b1de12f37c951",
    ],
    "interleave.run": [
        "1708f9b255d0a65da25ba9f63c1f631e9a9f06fe784aa32f5001a7f4063ae0fb",
        "12753f9395f69c744efc32e59769b586742fc9a25da11b6752cbfb538d1a0823",
    ],
}


def test_evaluation_report_digests(tmp_path):
    runs = []
    for config in sorted(CONFIG_DIR.glob("*.json")):
        out_dir = tmp_path / config.stem
        assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        runs.extend(out_dir.glob("*.run"))
    for method in FUSED_DIGESTS:
        fused = tmp_path / f"{method}.run"
        assert main(["fuse", *map(str, runs[:6]), "--method", method, "--out", str(fused)]) == 0
        runs.append(fused)
    qrels = parse_qrels(FIXTURE_DIR / "qrels.txt")
    digests = {}
    for run in runs:
        report = evaluate_run(run, qrels)
        table = format_report(report, per_depth=True, per_topic=True)
        texts = (json.dumps(report.to_dict()), table)
        digests[run.name] = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
    assert digests == REPORT_DIGESTS


@pytest.mark.parametrize(
    "inputs, fused",
    [
        # dB and dA normalize to the same 1.0, in descending doc_id order
        (
            ["q_1 Q0 dB 1 1.000001 a\nq_1 Q0 dA 2 1.000000 a\nq_1 Q0 dZ 3 -100000000000.000000 a\n",
             "q_1 Q0 dA 1 2.0 b\n"],
            ["dA 1 1.000000", "dB 2 0.500000", "dZ 3 0.000000"],
        ),
        # finite scores whose range overflows a float
        (
            ["q_1 Q0 dA 1 1e308 c\nq_1 Q0 dB 2 0 c\nq_1 Q0 dC 3 -1e308 c\n"],
            ["dA 1 1.000000", "dB 2 0.500000", "dC 3 0.000000"],
        ),
    ],
    ids=["rounding-tie", "overflowing-range"],
)
def test_cli_fuse_ensemble_edge_scores(tmp_path, inputs, fused):
    runs = [tmp_path / f"{i}.run" for i in range(len(inputs))]
    for run, text in zip(runs, inputs):
        run.write_text(text)
    out = tmp_path / "f.run"
    assert main(["fuse", *map(str, runs), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [f"q_1 Q0 {line} fused" for line in fused]


def test_cli_run_record_then_replay(tmp_path):
    cache_dir = tmp_path / "cache"
    out_dir = tmp_path / "out"
    code = main(
        [
            "run", "--llm-mode", "record",
            "--config", str(CONFIG_DIR / "gpt4qr_deberta.json"),
            "--cache-dir", str(cache_dir),
            "--scripted",
            "--out-dir", str(out_dir / "a"),
        ]
    )
    assert code == 0
    assert list(cache_dir.glob("*.json"))
    code = main(
        [
            "run", "--llm-mode", "replay",
            "--config", str(CONFIG_DIR / "gpt4qr_deberta.json"),
            "--cache-dir", str(cache_dir),
            "--out-dir", str(out_dir / "b"),
        ]
    )
    assert code == 0
    first = (out_dir / "a" / "gpt4qr-deberta.run").read_bytes()
    second = (out_dir / "b" / "gpt4qr-deberta.run").read_bytes()
    assert first == second


@pytest.mark.parametrize(
    "argv, message",
    [(["cache", "record"], "invalid choice: 'cache'"),
     (["run", "--llm-mode", "live"], "invalid choice: 'live'"),
     # --endpoint used to win silently, so the run posted to the endpoint
     (["run", "--endpoint", "http://service.invalid", "--scripted"],
      "argument --scripted: not allowed with argument --endpoint")],
    ids=["cache-subcommand", "live-mode", "endpoint-and-scripted"],
)
def test_cli_rejects_the_retired_spellings(tmp_path, capsys, argv, message):
    config = str(CONFIG_DIR / "gpt4qr_deberta.json")
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--config", config, "--out-dir", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_fuse_rejects_a_run_tag_with_whitespace(tmp_path, capsys):
    # the tag used to be written as two fields, which read_run_file rejects
    run = tmp_path / "a.run"
    run.write_text("1_1 Q0 D001 1 1.000000 a\n", encoding="utf-8")
    out = tmp_path / "fused.run"
    assert main(["fuse", str(run), "--run-tag", "a b", "--out", str(out)]) == 1
    assert "error: whitespace in run_tag 'a b'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_cli_evaluate_rejects_a_threshold_below_one(tmp_path, capsys, threshold):
    # at 0 every unjudged document counted as relevant: Recall@4 and mAP read 4.0
    run, qrels = tmp_path / "a.run", tmp_path / "qrels.txt"
    run.write_text("".join(f"1_1 Q0 D{i} {i} {5 - i}.0 a\n" for i in range(1, 5)), encoding="utf-8")
    qrels.write_text("1_1 0 D1 1\n", encoding="utf-8")
    argv = ["evaluate", "--run", str(run), "--qrels", str(qrels), "--threshold", threshold]
    assert main([*argv, "--recall-cutoff", "4", "--precision-cutoff", "4"]) == 1
    assert "error: threshold must be >= 1" in capsys.readouterr().err


def test_cli_evaluate_rejects_a_cutoff_below_one(tmp_path, capsys):
    # with no judged query no metric checked its cut-off: the report had nDCG@0 and P@-3 columns
    run, qrels = tmp_path / "a.run", tmp_path / "qrels.txt"
    run.write_text("9_1 Q0 D1 1 1.0 a\n", encoding="utf-8")
    qrels.write_text("1_1 0 D1 1\n", encoding="utf-8")
    argv = ["evaluate", "--run", str(run), "--qrels", str(qrels)]
    assert main([*argv, "--ndcg-cutoff", "0", "--precision-cutoff", "-3"]) == 1
    captured = capsys.readouterr()
    assert "error: k must be >= 1" in captured.err
    assert "nDCG@0" not in captured.out


def test_cli_run_rejects_a_repeated_topic_number(tmp_path, capsys):
    # both fixture topics numbered "1": the run used to list doc 'D023' twice for '1_1'
    topics = json.loads((FIXTURE_DIR / "topics.json").read_text(encoding="utf-8"))
    for topic in topics:
        topic["number"] = "1"
    topics_path = tmp_path / "topics.json"
    topics_path.write_text(json.dumps(topics), encoding="utf-8")
    spec = json.loads((CONFIG_DIR / "gpt4qr_bm25_qd1.json").read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    spec["paths"] = dict(paths, topics=str(topics_path), cache_dir=str(tmp_path / "cache"))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["run", "--config", str(spec_path), "--llm-mode", "record", "--scripted"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert "error: topic #2: duplicate number '1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_error_exit_code(tmp_path, capsys):
    code = main(["evaluate", "--run", str(tmp_path / "missing.run"), "--qrels", "nope"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_readme_cli_quickstart_commands_parse():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart (CLI)", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("convsearch ")]
    assert {argv[0] for argv in commands} == {"run", "evaluate", "fuse"}
    modes = {argv[argv.index("--llm-mode") + 1] for argv in commands if "--llm-mode" in argv}
    assert modes == {"record", "replay"}
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func)
