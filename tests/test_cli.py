"""Command-line interface, exercised against the shipped fixture."""

import codecs
import hashlib
import io
import json
import shlex
import urllib.request
from pathlib import Path

import pytest

from convsearch import offline, pipeline
from convsearch.cli import main
from convsearch.evaluation import (
    evaluate_run,
    format_report,
    parse_qrels,
    read_run_file,
)
from convsearch.fusion import ensemble_fuse, interleave
from convsearch.offline import ScriptedTransport

from conftest import CONFIG_DIR, FIXTURE_DIR, REPO, CountingTransport


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
            "--json", str(report_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "nDCG@5" in printed and "depth 1" in printed and "topic 2" in printed
    report = json.loads(report_path.read_text())
    assert set(report["aggregate"]) == {"nDCG@5", "nDCG", "MRR", "Recall@100", "P@20", "mAP"}


def test_cli_evaluate_writes_the_library_report(tmp_path):
    # the CLI and evaluate_run score one suite, so their JSON reports are the same bytes
    config = CONFIG_DIR / "gpt4qr_bm25_qd1.json"
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    run, qrels = tmp_path / "gpt4qr-bm25-qd1.run", FIXTURE_DIR / "qrels.txt"
    cli_report = tmp_path / "cli.json"
    assert main(["evaluate", "--run", str(run), "--qrels", str(qrels),
                 "--json", str(cli_report)]) == 0
    library_report = tmp_path / "library.json"
    evaluate_run(run, parse_qrels(qrels)).write_json(library_report)
    assert cli_report.read_bytes() == library_report.read_bytes()


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
# for the six configs' runs and their two fusions, on the one metric suite
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
        table = format_report(report)
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
            "run",
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
            "run",
            "--config", str(CONFIG_DIR / "gpt4qr_deberta.json"),
            "--cache-dir", str(cache_dir),
            "--out-dir", str(out_dir / "b"),
        ]
    )
    assert code == 0
    first = (out_dir / "a" / "gpt4qr-deberta.run").read_bytes()
    second = (out_dir / "b" / "gpt4qr-deberta.run").read_bytes()
    assert first == second


def test_cli_run_records_through_the_endpoint_with_the_api_key(tmp_path, monkeypatch):
    url = "http://chat.invalid/v1/chat"
    requests = []

    def urlopen(request, timeout):  # the endpoint answers as the scripted model would
        requests.append(request)
        payload = json.loads(request.data)
        reply = ScriptedTransport()(payload["model"], payload["messages"][0]["content"])
        return io.BytesIO(json.dumps({"choices": [{"message": {"content": reply}}]}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    cache_dir = tmp_path / "cache"
    argv = [
        "run", "--config", str(CONFIG_DIR / "gpt4qr_deberta.json"), "--endpoint", url,
        "--api-key", "K", "--cache-dir", str(cache_dir),
        "--out-dir", str(tmp_path / "out"),
    ]
    assert main(argv) == 0
    assert requests
    assert {request.full_url for request in requests} == {url}
    assert {request.get_header("Authorization") for request in requests} == {"Bearer K"}
    posted = [json.loads(request.data) for request in requests]
    prompts = [(payload["model"], payload["messages"][0]["content"]) for payload in posted]
    exchanges = {(model, prompt, ScriptedTransport()(model, prompt)) for model, prompt in prompts}
    records = [json.loads(path.read_text(encoding="utf-8")) for path in cache_dir.glob("*.json")]
    assert len(records) == len(requests)
    assert {(r["model_id"], r["prompt"], r["response"]) for r in records} == exchanges


@pytest.mark.parametrize(
    "model_id, problem",
    [("gpt-4\u200b", "model_id holds the unprintable character '\\u200b'"),
     ("gpt 4", "whitespace in model_id 'gpt 4'")],
    ids=["invisible", "whitespace"],
)
def test_cli_run_rejects_a_model_id_that_is_no_identifier(tmp_path, capsys, model_id, problem):
    # 'gpt-4\u200b' prints as 'gpt-4': a record run stored every exchange under it and
    # sent it to the endpoint, and a run with the plain id then missed every record
    spec = json.loads((CONFIG_DIR / "gpt4qr_bm25_qd1.json").read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    spec.update(paths=dict(paths, cache_dir=str(tmp_path / "cache")), model_id=model_id)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["run", "--config", str(spec_path), "--scripted", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: run spec {spec_path}: {problem}\n"
    assert list(tmp_path.iterdir()) == [spec_path]


@pytest.mark.parametrize(
    "config, change, problem",
    [*(("gpt4qr_bm25_qd1.json", {"run_tag": tag}, f"path separator in run_tag {tag!r}")
       for tag in ("../escaped", "a/b", "a\\b")),
     ("humanqr_deberta.json", {"phi": 3}, "field 'phi' applies only to rewriter 'multi_query'")],
    ids=["run_tag-parent", "run_tag-slash", "run_tag-backslash", "human-phi"],
)
def test_cli_run_rejects_a_path_run_tag_or_a_human_phi_before_set_up(
    tmp_path, capsys, monkeypatch, config, change, problem
):
    # with --out-dir out/inner, run_tag '../escaped' exited 0 having written out/escaped.run,
    # and 'a/b' ran every turn, then failed on "No such file or directory: .../inner/a/b.run";
    # a human rewrite is one query, yet "phi": 3 loaded, was ignored and ran
    spec = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    spec.update(change, paths=dict(paths, cache_dir=str(tmp_path / "cache")))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    transport, set_up, load_resources = CountingTransport(), [], pipeline.load_resources
    monkeypatch.setattr(offline, "ScriptedTransport", lambda: transport)
    monkeypatch.setattr(pipeline, "load_resources", lambda s: set_up.append(s) or load_resources(s))
    out_dir = tmp_path / "out" / "inner"
    assert main(["run", "--config", str(spec_path), "--scripted", "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: run spec {spec_path}: {problem}\n"
    assert (transport.calls, set_up) == (0, [])
    assert list(tmp_path.rglob("*")) == [spec_path]


def test_cli_run_replay_names_a_missing_cache_directory(tmp_path, capsys, monkeypatch):
    # a mistyped --cache-dir used to be made, the index built, and the replay fail on
    # 'turn 1_1: cache miss for key <hex>', naming no directory
    def load_resources(spec):
        raise AssertionError("an index was built")

    monkeypatch.setattr(pipeline, "load_resources", load_resources)
    cache_dir, out_dir = tmp_path / "cahce", tmp_path / "out"
    argv = ["run", "--config", str(CONFIG_DIR / "gpt4qr_bm25_qd1.json"),
            "--cache-dir", str(cache_dir), "--out-dir", str(out_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: replay cache {cache_dir} is not a directory\n"
    assert not cache_dir.exists() and not out_dir.exists()


def test_cli_run_rejects_an_endpoint_that_is_no_http_url_before_set_up(
    tmp_path, capsys, monkeypatch
):
    # '--endpoint notaurl' failed at turn 1_1, after the index was built, with a bare ValueError
    def read_corpus(path):
        raise AssertionError("an index was built")

    monkeypatch.setattr(pipeline, "read_corpus", read_corpus)
    argv = ["run", "--config", str(CONFIG_DIR / "gpt4qr_deberta.json"), "--endpoint", "notaurl",
            "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    message = "error: endpoint is not an http(s) URL naming a host: 'notaurl'\n"
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []


def test_cli_run_replay_miss_names_the_cache_and_model(tmp_path, capsys):
    # a replay from an existing directory holding no record for the run used to fail
    # on 'turn 1_1: cache miss for key <hex>' alone, naming neither the cache nor the id
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    argv = ["run", "--config", str(CONFIG_DIR / "gpt4qr_bm25_qd1.json"),
            "--cache-dir", str(cache_dir), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: turn 1_1: cache miss for key ")
    assert err.endswith(f" in {cache_dir} (model_id 'gpt-4')\n")


@pytest.mark.parametrize(
    "change, options, message",
    [({"paths": {"cache_dir": ""}}, ["--scripted"],
      "run spec {spec}: field 'paths' value of 'cache_dir' is empty"),
     ({"paths": {"corpus": ""}}, ["--scripted"],
      "run spec {spec}: field 'paths' value of 'corpus' is empty"),
     ({"model_id": ""}, ["--scripted"], "run spec {spec}: empty model_id"),
     *(({}, ["--scripted", f"--{option}", ""], f"argument --{option}: is empty")
       for option in ("config", "out-dir", "cache-dir")),
     # an empty scorer endpoint failed the first rerank on "unknown url type: ''"
     ({"scorer_endpoints": {"minilm": ""}}, ["--scripted"],
      "run spec {spec}: scorer_endpoints value of 'minilm' is not an http(s) URL naming a host: ''"),
     ({}, ["--endpoint", ""], "argument --endpoint: is empty"),
     ({}, ["--endpoint", "http://chat.invalid", "--api-key", ""], "argument --api-key: is empty")],
    ids=["spec-cache_dir", "spec-corpus", "spec-model_id", "config", "out-dir", "cache-dir",
         "spec-scorer_endpoints", "endpoint", "api-key"],
)
def test_cli_run_rejects_an_empty_value_before_any_index_is_built(
    tmp_path, capsys, monkeypatch, change, options, message
):
    # an empty path read as the spec's own directory: a record run wrote its cache
    # records there, and an empty corpus failed after set-up with "Is a directory",
    # naming neither key nor spec; an empty --out-dir wrote into the working directory,
    # and an empty --cache-dir or --api-key was dropped: each run exited 0
    def load_resources(spec):
        raise AssertionError("an index was built")

    monkeypatch.setattr(pipeline, "load_resources", load_resources)
    spec = json.loads((CONFIG_DIR / "gpt4qr_bm25_qd1.json").read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    paths = dict(paths, cache_dir=str(tmp_path / "cache")) | change.get("paths", {})
    spec.update(change, paths=paths)
    spec_path = tmp_path / "spec" / "spec.json"
    spec_path.parent.mkdir()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["run", "--config", str(spec_path), "--out-dir", str(tmp_path / "out"), *options]
    assert main(argv) == 1
    assert f"error: {message.format(spec=spec_path)}\n" == capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [spec_path.parent, spec_path]


@pytest.mark.parametrize(
    "argv, option",
    [(["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--json", ""], "--json"),
     (["fuse", "a.run", "--out", ""], "--out"),
     (["fuse", "a.run", "--run-tag", "", "--out", "fused.run"], "--run-tag")],
    ids=["evaluate-json", "fuse-out", "fuse-run-tag"],
)
def test_cli_rejects_an_empty_option_value(tmp_path, capsys, monkeypatch, argv, option):
    # an empty --json was dropped and evaluate exited 0; an empty --out was written
    # to a temp file renamed to '', failing with a message naming neither option nor path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.run").write_text("1_1 Q0 D001 1 1.000000 a\n", encoding="utf-8")
    (tmp_path / "qrels.txt").write_text("1_1 0 D001 1\n", encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: argument {option}: is empty\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.run", "qrels.txt"]


@pytest.mark.parametrize(
    "argv, message",
    [(["cache", "record"], "invalid choice: 'cache'"),
     # a run records iff it is given a transport
     (["run", "--llm-mode", "live"], "unrecognized arguments: --llm-mode"),
     # a report always prints its per-depth and per-topic slices
     (["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--per-depth"],
      "unrecognized arguments: --per-depth"),
     (["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--per-topic"],
      "unrecognized arguments: --per-topic"),
     # a report scores one suite: nDCG@5, nDCG, MRR, Recall@100, P@20, mAP at grade >= 1
     (["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--ndcg-cutoff", "3"],
      "unrecognized arguments: --ndcg-cutoff 3"),
     (["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--precision-cutoff", "10"],
      "unrecognized arguments: --precision-cutoff 10"),
     (["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--recall-cutoff", "1000"],
      "unrecognized arguments: --recall-cutoff 1000"),
     (["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--threshold", "2"],
      "unrecognized arguments: --threshold 2"),
     # --endpoint used to win silently, so the run posted to the endpoint
     (["run", "--endpoint", "http://service.invalid", "--scripted"],
      "argument --scripted: not allowed with argument --endpoint"),
     # the key used to go nowhere, without a word, and the run exited 0
     (["run", "--api-key", "secret"],
      "argument --api-key: not allowed without argument --endpoint"),
     (["run", "--scripted", "--api-key", "secret"],
      "argument --api-key: not allowed without argument --endpoint"),
     # the spec names a run's model: --model-id kept the spec's run_tag, so two models'
     # runs replaced one file under one tag
     (["run", "--model-id", "m2"], "unrecognized arguments: --model-id m2"),
     (["run", "--model", "m2"], "unrecognized arguments: --model m2")],
    ids=["cache-subcommand", "live-mode", "per-depth", "per-topic", "ndcg-cutoff",
         "precision-cutoff", "recall-cutoff", "threshold", "endpoint-and-scripted",
         "api-key-alone", "api-key-with-scripted", "model-id", "model"],
)
def test_cli_rejects_the_retired_spellings(tmp_path, capsys, argv, message):
    config = str(CONFIG_DIR / "gpt4qr_deberta.json")
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--config", config, "--out-dir", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, sink",
    [(["evaluate", "--run", "a.run", "--qrels", "qrels.txt", "--json", "nodir/r.json"],
      "nodir/r.json"),
     (["fuse", "a.run", "--out", "nodir/f.run"], "nodir/f.run"),
     (["fuse", "a.run", "--out", "adir"], "adir")],
    ids=["evaluate-json", "fuse-out", "fuse-out-a-directory"],
)
def test_cli_a_failed_write_names_the_path_it_was_asked_to_write(
    tmp_path, capsys, monkeypatch, argv, sink
):
    # the error named the writer's temp file, 'nodir/r.json.<32 hex>.tmp', or both it
    # and the path, which the user never gave
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "a.run").write_text("1_1 Q0 D001 1 1.000000 a\n", encoding="utf-8")
    (tmp_path / "qrels.txt").write_text("1_1 0 D001 1\n", encoding="utf-8")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": '{sink}'\n")
    assert ".tmp" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.run", "adir", "qrels.txt"]
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize(
    "scorer_ids, message",
    [(["deberta-v3", "deberta-v3"], "scorer_id 'deberta-v3' is listed twice"),
     (["deberta-v3\u200b"], "scorer_id holds the unprintable character '\\u200b'")],
    ids=["twice", "zero-width"],
)
def test_cli_run_rejects_a_bad_or_repeated_scorer_id(tmp_path, capsys, scorer_ids, message):
    # a repeated id was fused twice, so the run's first score read 1.000000 where the
    # single id's reads 0.843904; 'deberta-v3\u200b' seeded a stand-in scorer of its own
    spec = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    spec.update(paths=paths, scorer_ids=scorer_ids)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["run", "--config", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: run spec {spec_path}: {message}\n"
    assert list(tmp_path.iterdir()) == [spec_path]


@pytest.mark.parametrize(
    "run_tag, message",
    # with whitespace the tag used to be written as two fields, which read_run_file
    # rejects; a non-UTF-8 byte (a lone surrogate) failed the writer with a bare
    # codec error after it had made an empty --out file
    [("a b", "whitespace in run_tag 'a b'"),
     ("x\udcff", "run_tag holds the lone surrogate '\\udcff'")],
    ids=["whitespace", "lone-surrogate"],
)
def test_cli_fuse_rejects_a_bad_run_tag(tmp_path, capsys, run_tag, message):
    run = tmp_path / "a.run"
    run.write_text("1_1 Q0 D001 1 1.000000 a\n", encoding="utf-8")
    out = tmp_path / "fused.run"
    assert main(["fuse", str(run), "--run-tag", run_tag, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["run", "qrels"])
def test_cli_evaluate_rejects_an_unprintable_identifier(tmp_path, capsys, bad):
    # a doc_id 'D\u200b1' matched no judgment and no passage, and the report said nothing
    lines = {"run": "1_1 Q0 D{} 1 1.0 a\n", "qrels": "1_1 0 D{} 1\n"}
    paths = {}
    for kind, line in lines.items():
        paths[kind] = tmp_path / kind
        paths[kind].write_text(line.format("\u200b1" if kind == bad else "1"), encoding="utf-8")
    assert main(["evaluate", "--run", str(paths["run"]), "--qrels", str(paths["qrels"])]) == 1
    message = f"error: {paths[bad]}: {bad} line 1: doc_id holds the unprintable character '\\u200b'"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["run", "qrels"])
def test_cli_evaluate_names_the_file_it_cannot_read(tmp_path, capsys, bad):
    # a 0xff byte in --run answered "'utf-8' codec can't decode byte 0xff ...", naming no file
    paths = {"run": tmp_path / "a.run", "qrels": tmp_path / "a.qrels"}
    paths["run"].write_text("1_1 Q0 D1 1 1.0 a\n", encoding="utf-8")
    paths["qrels"].write_text("1_1 0 D1 1\n", encoding="utf-8")
    paths[bad].write_bytes(paths[bad].read_bytes().replace(b"D1", b"D\xff"))
    assert main(["evaluate", "--run", str(paths["run"]), "--qrels", str(paths["qrels"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[bad]}: 'utf-8' codec can't decode byte 0xff")
    assert err.count(str(tmp_path)) == 1


def test_cli_fuse_names_the_bad_run_file(tmp_path, capsys):
    # `fuse good.run bad.run good.run` answered "run line 1: non-numeric score 'abc'"
    good, bad = tmp_path / "good.run", tmp_path / "bad.run"
    good.write_text("1_1 Q0 D1 1 1.0 a\n", encoding="utf-8")
    bad.write_text("1_1 Q0 D1 1 abc a\n", encoding="utf-8")
    argv = ["fuse", str(good), str(bad), str(good), "--out", str(tmp_path / "fused.run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: run line 1: non-numeric score 'abc'\n"
    assert not (tmp_path / "fused.run").exists()


def test_cli_evaluate_names_the_run_file_of_a_bad_query_id(tmp_path, capsys):
    # the query id is parsed after the read, so the error named no file
    run, qrels = tmp_path / "a.run", tmp_path / "a.qrels"
    run.write_text("abc Q0 D1 1 1.0 a\n", encoding="utf-8")
    qrels.write_text("1_1 0 D1 1\n", encoding="utf-8")
    assert main(["evaluate", "--run", str(run), "--qrels", str(qrels)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {run}: query_id 'abc' is not of the form <topic>_<turn>\n"


def test_cli_fuse_rejects_an_unprintable_run_tag(tmp_path, capsys):
    # a run tag 't\u200b' read back without a word, though write_run_file refuses to write it
    run = tmp_path / "a.run"
    run.write_text("1_1 Q0 D1 1 1.0 t\u200b\n", encoding="utf-8")
    assert main(["fuse", str(run), "--out", str(tmp_path / "fused.run")]) == 1
    message = f"error: {run}: run line 1: run_tag holds the unprintable character '\\u200b'"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["corpus", "sparse_vectors"])
def test_cli_run_names_a_broken_corpus_or_vector_file(tmp_path, capsys, key):
    # a bad line in either file failed the run with "<kind> line N: ..." alone, naming no file
    spec = json.loads((CONFIG_DIR / "gpt4qr_deberta.json").read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    lines = Path(paths[key]).read_text(encoding="utf-8").splitlines(keepends=True)
    broken = tmp_path / Path(paths[key]).name
    broken.write_text("".join(lines) + "no tab\n", encoding="utf-8")
    spec["paths"] = dict(paths, **{key: str(broken)}, cache_dir=str(tmp_path / "cache"))
    (tmp_path / "cache").mkdir()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["run", "--config", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    kind = {"corpus": "corpus", "sparse_vectors": "sparse-vector"}[key]
    assert err.startswith(f"error: {broken}: {kind} line {len(lines) + 1}: expected '<doc_id>")
    assert err.count(str(tmp_path)) == 1
    assert not (tmp_path / "out").exists()


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
    argv = ["run", "--config", str(spec_path), "--scripted"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert f"error: topics {topics_path}: topic #2: duplicate number '1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, what",
    [("run_tag", "gpt4qr-bm25-qd1\ud800", "field 'run_tag'"),
     ("model_id", "gpt-4\ud800", "field 'model_id'"),
     ("scorer_ids", ["minilm", "\udfff"], "field 'scorer_ids' item #2"),
     ("scorer_endpoints", {"minilm\ud800": "http://x"}, "field 'scorer_endpoints' key"),
     ("paths", {"topics": "topics\udfff.json"}, "field 'paths' value of 'topics'")],
    ids=["run_tag", "model_id", "scorer_ids", "scorer_endpoints", "paths"],
)
def test_cli_run_rejects_a_lone_surrogate_in_the_spec(tmp_path, capsys, key, value, what):
    # a JSON "\ud800" escape used to pass set-up: a run_tag failed the writer with a
    # bare codec error after every turn had run, a model_id the first cache key
    spec = json.loads((CONFIG_DIR / "gpt4qr_bm25_qd1.json").read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    spec["paths"] = dict(paths, cache_dir=str(tmp_path / "cache"))
    spec[key] = dict(spec["paths"], **value) if key == "paths" else value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["run", "--config", str(spec_path), "--scripted"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    message = f"error: run spec {spec_path}: {what} holds the lone surrogate '\\ud"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, key",
    [("gpt4qr_bm25_qd1.json", "corpus"), ("gpt4qr_bm25_qd1.json", "topics"),
     ("gpt4qr_deberta.json", "sparse_vectors")],
)
def test_cli_run_reads_past_a_byte_order_mark(tmp_path, config, key):
    # a BOM at the start of corpus.tsv used to become part of the first doc_id, '\ufeffD001';
    # one at the start of topics.json or sparse_vectors.tsv failed the run
    spec = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
    paths = {name: str((CONFIG_DIR / path).resolve()) for name, path in spec["paths"].items()}
    marked = tmp_path / Path(paths[key]).name
    marked.write_bytes(codecs.BOM_UTF8 + Path(paths[key]).read_bytes())
    spec["paths"] = dict(paths, **{key: str(marked)})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    for spec_file, out in ((CONFIG_DIR / config, "clean"), (spec_path, "bom")):
        assert main(["run", "--config", str(spec_file), "--out-dir", str(tmp_path / out)]) == 0
    clean = sorted((tmp_path / "clean").iterdir())
    assert [path.name for path in clean] == sorted(p.name for p in (tmp_path / "bom").iterdir())
    for path in clean:
        assert (tmp_path / "bom" / path.name).read_bytes() == path.read_bytes()


def test_cli_evaluate_reads_past_a_byte_order_mark(tmp_path, capsys):
    # a BOM at the start of a run file used to drop query '\ufeff1_1' from every mean, and
    # one at the start of qrels.txt filed the judgment '1_1 D001 2' under '\ufeff1_1'
    config = CONFIG_DIR / "gpt4qr_bm25_qd1.json"
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    run, qrels = tmp_path / "gpt4qr-bm25-qd1.run", FIXTURE_DIR / "qrels.txt"
    bom_run, bom_qrels = tmp_path / "bom.run", tmp_path / "bom-qrels.txt"
    bom_run.write_bytes(codecs.BOM_UTF8 + run.read_bytes())
    bom_qrels.write_bytes(codecs.BOM_UTF8 + qrels.read_bytes())
    reports, report = [], tmp_path / "report.json"
    for run_path, qrels_path in ((run, qrels), (bom_run, qrels), (run, bom_qrels)):
        assert main(["evaluate", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--json", str(report)]) == 0
        reports.append((capsys.readouterr(), report.read_bytes()))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_cli_error_exit_code(tmp_path, capsys):
    code = main(["evaluate", "--run", str(tmp_path / "missing.run"), "--qrels", "nope"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_readme_cli_quickstart_runs(tmp_path, capsys, monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart (CLI)", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("convsearch ")]
    assert {argv[0] for argv in commands} == {"run", "evaluate", "fuse"}
    # one run records through a transport into a --cache-dir, and one replays that cache
    runs = [argv for argv in commands if argv[0] == "run"]
    recording = [argv for argv in runs if "--scripted" in argv or "--endpoint" in argv]
    replaying = [argv for argv in runs if "--cache-dir" in argv and argv not in recording]
    assert len(recording) == len(replaying) == 1
    cache_dirs = {argv[argv.index("--cache-dir") + 1] for argv in recording + replaying}
    assert len(cache_dirs) == 1
    # the block runs as written from a directory that sees the repository's inputs,
    # so with no absolute path in it, every output lands under tmp_path
    assert not [arg for argv in commands for arg in argv if Path(arg).is_absolute()]
    for name in ("configs", "data"):
        (tmp_path / name).symlink_to(REPO / name, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        printed, err = capsys.readouterr()
        assert code == 0, f"{shlex.join(argv)}: {err}"
        if argv[0] == "evaluate":
            assert "per depth (turn number):" in printed and "per topic:" in printed
    for written in ("out/report.json", "out/fused.run"):
        assert (tmp_path / written).stat().st_size > 0
    recorded, replayed = (Path(argv[argv.index("--out-dir") + 1]) for argv in recording + replaying)
    runs = sorted(path.name for path in recorded.glob("*.run"))
    assert runs and runs == sorted(path.name for path in replayed.glob("*.run"))
    for name in runs:
        assert (replayed / name).read_bytes() == (recorded / name).read_bytes()
