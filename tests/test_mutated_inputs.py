"""Every reader, fed a mutated fixture file through the command line.

Each test mutates the bytes of one fixture file once - a BOM, an invisible or
control character inside an identifier, a CR, a truncated last line, a
duplicated line, or a non-UTF-8 byte - and runs the ``convsearch`` command
that reads it.  The oracle: either the command exits 1, names the file on
stderr and leaves no output, or it exits 0 and every identifier in its
outputs is one the clean fixture has.
"""

import codecs
import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convsearch.cli import main
from convsearch.conversation import parse_topics
from convsearch.index import read_corpus
from convsearch.offline import ScriptedTransport
from convsearch.pipeline import execute_spec, load_run_spec

from conftest import CONFIG_DIR, FIXTURE_DIR

_MUTATIONS = ("bom", "invisible", "control", "cr", "truncate", "duplicate", "non-utf8")
_INVISIBLE = "\u00ad\u200b\u2060\u2028\ufeff"  # format and separator characters
_CONTROL = "\x00\x07\x0b\x0c\x1c\x1f\x7f\x85"
_NON_UTF8 = (b"\x80", b"\xc3", b"\xff")

# a regex whose groups are the file's identifiers, per kind of file
_TSV_IDS = r"^([^\t\n]+)\t"
_TOPIC_IDS = r'"(?:number|turn_number)": "?([^",\n]+)'
_SPEC_IDS = r'"(?:run_tag|model_id)": "([^"]+)"'
_QRELS_IDS = r"^(\S+) \S+ (\S+)"
_RUN_IDS = r"^(\S+) \S+ (\S+) \S+ \S+ (\S+)$"


def _fuzz(test):
    """``test`` once per mutation, each at a few places that hypothesis draws."""
    test = given(data=st.data())(test)
    test = settings(max_examples=6, deadline=None, derandomize=True, database=None)(test)
    return pytest.mark.parametrize("mutation", _MUTATIONS)(test)


def _mutate(data, kind: str, text: str, identifiers: str) -> bytes:
    """``text`` in UTF-8 with one mutation of ``kind``, placed by ``data``."""
    if kind == "bom":
        return codecs.BOM_UTF8 + text.encode("utf-8")
    if kind in ("invisible", "control"):
        spans = [match.span(group) for match in re.finditer(identifiers, text, re.M)
                 for group in range(1, len(match.groups()) + 1) if match.group(group)]
        start, end = data.draw(st.sampled_from(spans), label="identifier")
        at = data.draw(st.integers(start, end), label="at")
        char = data.draw(st.sampled_from(_INVISIBLE if kind == "invisible" else _CONTROL))
        return (text[:at] + char + text[at:]).encode("utf-8")
    if kind == "truncate":
        body = text.rstrip("\n")
        return text[: data.draw(st.integers(body.rfind("\n") + 1, len(body) - 1))].encode("utf-8")
    if kind == "duplicate":
        lines = text.split("\n")
        at = data.draw(st.integers(0, len(lines) - 1 - text.endswith("\n")), label="line")
        return "\n".join(lines[: at + 1] + lines[at:]).encode("utf-8")
    at = data.draw(st.integers(0, len(text)), label="at")
    inserted = b"\r" if kind == "cr" else data.draw(st.sampled_from(_NON_UTF8))
    return text[:at].encode("utf-8") + inserted + text[at:].encode("utf-8")


@functools.cache
def _fixture_identifiers() -> frozenset:
    """The doc ids, topic and turn ids and run tags of the clean fixture, and ``fused``."""
    topics = parse_topics(FIXTURE_DIR / "topics.json")
    found = {passage.doc_id for passage in read_corpus(FIXTURE_DIR / "corpus.tsv")}
    found |= {topic.topic_id for topic in topics}
    found |= {f"{topic.topic_id}_{turn.turn_number}" for topic in topics for turn in topic.turns}
    found |= {load_run_spec(path).config.run_tag for path in CONFIG_DIR.glob("*.json")}
    return frozenset(found | {"fused"})


def _identifiers(path: Path) -> set[str]:
    """The identifiers in an output: a run file, a responses file or a JSON report."""
    text, found = path.read_text(encoding="utf-8"), set()
    if path.suffix == ".run":
        for line in text.splitlines():
            query_id, _, doc_id, _, _, run_tag = line.split(" ")
            found |= {query_id, doc_id, run_tag}
    elif path.suffix == ".jsonl":
        for record in map(json.loads, text.splitlines()):
            found |= {record["turn_id"], *record["provenance"]}
    else:
        report = json.loads(text)
        found |= {*report["per_query"], *report["per_topic"], *report["excluded"]}
    return found


def _check(argv: list, mutated: Path, out: Path) -> None:
    """Run the CLI on ``argv``; ``out`` is its output file, or its output directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    if code == 1:
        assert str(mutated) in stderr.getvalue()
        assert not out.exists()
        return
    assert code == 0, stderr.getvalue()
    for output in sorted(out.iterdir()) if out.is_dir() else [out]:
        assert _identifiers(output) <= _fixture_identifiers(), output.name


def _spec(config: str, root: Path, **paths: Path) -> Path:
    """A copy of a shipped config under ``root``, with absolute paths and its own cache."""
    spec = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
    paths = dict(load_run_spec(CONFIG_DIR / config).paths, cache_dir=root / "cache", **paths)
    spec["paths"] = {name: str(path) for name, path in paths.items()}
    path = root / "spec.json"
    path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
    return path


def _fuzz_run_input(data, mutation: str, config: str, key: str, identifiers: str) -> None:
    """``convsearch run --scripted`` of ``config``, the file its spec names as ``key`` mutated."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        clean = load_run_spec(CONFIG_DIR / config).paths[key]
        mutated = root / clean.name
        mutated.write_bytes(_mutate(data, mutation, clean.read_text(encoding="utf-8"), identifiers))
        spec = _spec(config, root, **{key: mutated})
        out = root / "out"
        _check(["run", "--config", spec, "--scripted", "--out-dir", out], mutated, out)


@functools.cache
def _clean_outputs(config: str) -> tuple[str, dict[str, str]]:
    """A replay of ``config``'s run file, and the cache records a recording run of it writes."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        run_path, _ = execute_spec(load_run_spec(CONFIG_DIR / config), root / "replay")
        spec = load_run_spec(_spec(config, root))
        execute_spec(spec, root / "record", transport=ScriptedTransport())
        records = {path.name: path.read_text("utf-8") for path in (root / "cache").iterdir()}
        return run_path.read_text(encoding="utf-8"), records


@_fuzz
def test_a_mutated_corpus_fails_naming_it_or_runs_on_fixture_identifiers(mutation, data):
    _fuzz_run_input(data, mutation, "gpt4qr_bm25_qd1.json", "corpus", _TSV_IDS)


@_fuzz
def test_mutated_sparse_vectors_fail_naming_them_or_run_on_fixture_identifiers(mutation, data):
    _fuzz_run_input(data, mutation, "gpt4qr_deberta.json", "sparse_vectors", _TSV_IDS)


@_fuzz
def test_mutated_topics_fail_naming_them_or_run_on_fixture_identifiers(mutation, data):
    _fuzz_run_input(data, mutation, "gpt4qr_bm25_qd1.json", "topics", _TOPIC_IDS)


@_fuzz
def test_mutated_qrels_fail_naming_them_or_evaluate_on_fixture_identifiers(mutation, data):
    run_text, _ = _clean_outputs("gpt4qr_bm25_qd1.json")
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        run, qrels, report = root / "clean.run", root / "qrels.txt", root / "report.json"
        run.write_text(run_text, encoding="utf-8")
        clean = (FIXTURE_DIR / "qrels.txt").read_text(encoding="utf-8")
        qrels.write_bytes(_mutate(data, mutation, clean, _QRELS_IDS))
        argv = ["evaluate", "--run", run, "--qrels", qrels, "--json", report]
        _check(argv, qrels, report)


@_fuzz
def test_a_mutated_run_file_fails_naming_it_or_fuses_on_fixture_identifiers(mutation, data):
    run_text, _ = _clean_outputs("gpt4qr_bm25_qd1.json")
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        run, fused = root / "a.run", root / "fused.run"
        run.write_bytes(_mutate(data, mutation, run_text, _RUN_IDS))
        _check(["fuse", run, "--out", fused], run, fused)


@_fuzz
def test_a_mutated_run_spec_fails_naming_it_or_runs_on_fixture_identifiers(mutation, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        spec = _spec("gpt4qr_bm25_qd1.json", root)
        spec.write_bytes(_mutate(data, mutation, spec.read_text(encoding="utf-8"), _SPEC_IDS))
        out = root / "out"
        _check(["run", "--config", spec, "--scripted", "--out-dir", out], spec, out)


@_fuzz
def test_a_mutated_cache_record_fails_naming_it_or_replays_on_fixture_identifiers(mutation, data):
    _, records = _clean_outputs("gpt4qr_bm25_qd1.json")
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        spec = _spec("gpt4qr_bm25_qd1.json", root)
        (root / "cache").mkdir()
        for name, text in records.items():
            (root / "cache" / name).write_text(text, encoding="utf-8")
        mutated = root / "cache" / data.draw(st.sampled_from(sorted(records)), label="record")
        mutated.write_bytes(_mutate(data, mutation, records[mutated.name], _SPEC_IDS))
        _check(["run", "--config", spec, "--out-dir", root / "out"], mutated, root / "out")
