"""Reading and writing text files.

Readers and writers take a file path or an open text handle alike, identifiers
are checked where they enter, a path is written whole or not at all, and the
package has one reader and one writer of a path.
"""

import ast
import io
import json
import re
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsearch import evaluation
from convsearch.conversation import parse_topics
from convsearch.evaluation import (
    Qrels,
    evaluate_rankings,
    parse_qrels,
    read_run_file,
    write_run_file,
)
from convsearch.index import Passage, RankedList, load_sparse_vectors, read_corpus
from convsearch.llm import HttpChatTransport, LLMCache, TransportError, cache_key
from convsearch.pipeline import (
    RunConfig,
    TurnResult,
    load_run_spec,
    write_response_records,
    write_trec_run,
)

from conftest import FIXTURE_DIR, REPO


def _fixture_run_text() -> str:
    """One run line per fixture judgment, scored by its position in the file."""
    rows = [line.split() for line in (FIXTURE_DIR / "qrels.txt").read_text().splitlines()]
    return "".join(f"{q} Q0 {d} 1 {1.0 / i:.6f} t\n" for i, (q, _, d, _) in enumerate(rows, 1))


@pytest.mark.parametrize(
    "reader, name",
    [
        (lambda source: list(read_corpus(source)), "corpus.tsv"),
        (load_sparse_vectors, "sparse_vectors.tsv"),
        (parse_topics, "topics.json"),
        (parse_qrels, "qrels.txt"),
        (read_run_file, None),
    ],
    ids=["read_corpus", "load_sparse_vectors", "parse_topics", "parse_qrels", "read_run_file"],
)
def test_readers_agree_on_path_and_handle(tmp_path, reader, name):
    if name is None:
        path = tmp_path / "fixture.run"
        path.write_text(_fixture_run_text(), encoding="utf-8")
    else:
        path = FIXTURE_DIR / name
    expected = reader(path)
    assert expected
    assert reader(str(path)) == expected
    assert reader(io.StringIO(path.read_text(encoding="utf-8"))) == expected


def _results() -> list[TurnResult]:
    ranking = RankedList({"D001": 2.5, "D002": 1.0})
    return [
        TurnResult("1_1", ranking, (1, 0), "café – naïve answer", ("D001", "D002")),
        TurnResult("1_2", RankedList({}), (0, 1), "", ()),
    ]


@pytest.mark.parametrize(
    "writer",
    [lambda results, sink: write_trec_run(results, "tag", sink), write_response_records],
    ids=["write_trec_run", "write_response_records"],
)
def test_writers_write_identical_bytes_to_path_and_handle(tmp_path, writer):
    for results in (_results(), []):
        sink = io.StringIO()
        count = writer(results, sink)
        for path in (tmp_path / "as_path", str(tmp_path / "as_str")):
            assert writer(results, path) == count
            with open(path, "rb") as handle:
                assert handle.read() == sink.getvalue().encode("utf-8")


# qrels and run files are split into lines at "\n" only (and at "\r" or
# "\r\n" when read from a path); other Unicode line breaks stay within a line
@pytest.mark.parametrize(
    "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_whitespace_files_break_lines_only_at_newline(tmp_path, separator):
    cases = [
        (parse_qrels, f"q 0 a 1{separator}q 0 b 1", "qrels line 2: expected 4 fields, got 8"),
        (read_run_file, f"q Q0 a 1 2 t{separator}q Q0 b 2 1 t",
         "run line 2: expected 6 fields, got 12"),
    ]
    for reader, line, message in cases:
        text = f"\n{line}\n"
        path = tmp_path / "file.txt"
        path.write_text(text, encoding="utf-8")
        for source in (io.StringIO(text), path):
            with pytest.raises(ValueError, match=message):
                reader(source)


# characters str.split() splits on (no line ends), and characters it keeps
_ID_CHARS = " \x0b\x0c\x1f\x85\xa0\u2003\u3000" + "ab1_-."


@settings(max_examples=300, derandomize=True, database=None)
@given(st.text(_ID_CHARS, max_size=4))
@example("d 1")
@example("")
def test_an_identifier_is_taken_iff_a_run_line_reads_it_back(value):
    # a doc_id or run tag with whitespace used to be written as a 7-field run line
    try:
        line = f"q_1 Q0 {value} 1 1.000000 {value}\n"
        reads_back = read_run_file(io.StringIO(line))["q_1"].doc_ids() == [value]
    except ValueError:
        reads_back = False
    entry_points = [
        lambda: Passage(value, "text"),
        lambda: list(read_corpus(io.StringIO(f"{value}\ttext\n"))),
        lambda: load_sparse_vectors(io.StringIO(f"{value}\tw:1\n")),
        lambda: RunConfig(run_tag=value, rewriter="human_rewrite", retriever="bm25"),
        lambda: write_run_file([("q_1", RankedList({"d1": 1.0}))], value, io.StringIO()),
    ]
    for enter in entry_points:
        if reads_back:
            enter()
        else:
            with pytest.raises(ValueError, match=f"(empty|whitespace in) (doc_id|run_tag)"):
                enter()


def test_a_bad_doc_id_names_its_line():
    with pytest.raises(ValueError, match="corpus line 2: whitespace in doc_id 'd 2'"):
        list(read_corpus(io.StringIO("d1\ta\nd 2\tb\n")))
    with pytest.raises(ValueError, match="corpus line 1: empty doc_id"):
        list(read_corpus(io.StringIO("\ta\n")))
    # a block of plain lines, then the bad line parsed on its own
    lines = "".join(f"d{i}\tw:1\n" for i in range(300)) + "d\xa0300\tw:1\n"
    message = "sparse-vector line 301: whitespace in doc_id 'd\\xa0300'"  # as repr() shows it
    with pytest.raises(ValueError, match=re.escape(message)):
        load_sparse_vectors(io.StringIO(lines))


@pytest.mark.parametrize(
    "char", ["\u200b", "\x00", "\x7f", "\xad", "\u202e", "\ufeff", "\ue000"],
    ids=["zero-width-space", "nul", "delete", "soft-hyphen", "right-to-left-override",
         "byte-order-mark", "private-use"],
)
def test_an_identifier_holds_no_unprintable_character(char):
    # read_corpus took 'D\u200b1' and 'D\x001' as doc_ids, which print as 'D1'
    value, holds = f"D{char}1", f"holds the unprintable character {char!r}"
    with pytest.raises(ValueError, match=re.escape(f"corpus line 2: doc_id {holds}")):
        list(read_corpus(io.StringIO(f"D0\ta\n{value}\tb\n")))
    with pytest.raises(ValueError, match=re.escape(f"doc_id {holds}")):
        Passage(value, "text")
    # a block of plain lines, then the bad line parsed on its own
    lines = "".join(f"d{i}\tw:1\n" for i in range(300)) + f"{value}\tw:1\n"
    with pytest.raises(ValueError, match=re.escape(f"sparse-vector line 301: doc_id {holds}")):
        load_sparse_vectors(io.StringIO(lines))
    # read_run_file and parse_qrels took it as a query id or doc_id, which matched nothing
    for field, query_id, doc_id in (("query_id", value, "D1"), ("doc_id", "q_1", value)):
        run = f"q_1 Q0 D0 1 2.0 t\n{query_id} Q0 {doc_id} 2 1.0 t\n"
        with pytest.raises(ValueError, match=re.escape(f"run line 2: {field} {holds}")):
            read_run_file(io.StringIO(run))
        qrels = f"q_1 0 D0 1\n{query_id} 0 {doc_id} 1\n"
        with pytest.raises(ValueError, match=re.escape(f"qrels line 2: {field} {holds}")):
            parse_qrels(io.StringIO(qrels))
    # read_run_file took it as a run tag, which write_run_file refuses to write
    with pytest.raises(ValueError, match=re.escape(f"run line 2: run_tag {holds}")):
        read_run_file(io.StringIO(f"q_1 Q0 D0 1 2.0 t\nq_1 Q0 D1 2 1.0 {value}\n"))
    # a qrels line's last field is its grade, not a run tag
    grade = re.escape(f"qrels line 1: non-integer relevance '1{char}'")
    with pytest.raises(ValueError, match=grade):
        parse_qrels(io.StringIO(f"q_1 0 D0 1{char}\n"))
    topics = json.loads((FIXTURE_DIR / "topics.json").read_text(encoding="utf-8"))
    topics[1]["number"] = value
    with pytest.raises(ValueError, match=re.escape(f"topic #2: field 'number' {holds}")):
        parse_topics(io.StringIO(json.dumps(topics)))
    entry_points = [
        lambda: RunConfig(run_tag=value, rewriter="human_rewrite", retriever="bm25"),
        lambda: write_run_file([("q_1", RankedList({"d1": 1.0}))], value, io.StringIO()),
    ]
    for enter in entry_points:
        with pytest.raises(ValueError, match=re.escape(f"run_tag {holds}")):
            enter()




def _cache_record(path):
    return LLMCache(Path(path).parent).get(Path(path).stem)


# a reader, the kind its errors name a path with, a text it rejects and the message
# it gives for that text; the first five also read an open handle, naming no file
READERS = {
    "corpus": (lambda source: list(read_corpus(source)), "", "d1\ta\nd1\tb\n",
               "corpus line 2: duplicate doc_id 'd1'"),
    "sparse-vectors": (load_sparse_vectors, "", "d1\tw:1\nd2\tw:-1\n",
                       "sparse-vector line 2: negative weight in 'w:-1'"),
    "topics": (parse_topics, "topics ", "[1]", "topic #1 must be an object, got int"),
    "qrels": (parse_qrels, "", "q_1 0 D1 1\nq_1 0 D1 2\n",
              "qrels line 2: duplicate pair ('q_1', 'D1')"),
    "run": (read_run_file, "", "q_1 Q0 D1 1 2.0 t\nq_1 Q0 D2 2 abc t\n",
            "run line 2: non-numeric score 'abc'"),
    "run-spec": (load_run_spec, "run spec ", "[]", "top-level value must be an object, got list"),
    "cache-record": (_cache_record, "corrupt cache record ", "[]",
                     "top-level value must be an object, got list"),
}


@pytest.mark.parametrize("name", READERS)
def test_each_reader_names_the_file_it_reads(tmp_path, name):
    # `fuse a.run bad.run a.run` answered "run line 1: non-numeric score 'abc'", naming no file
    read, kind, text, message = READERS[name]
    if name not in ("run-spec", "cache-record"):
        with pytest.raises(ValueError) as from_handle:
            read(io.StringIO(text))
        assert str(from_handle.value) == message
    path = tmp_path / "input.json"
    for source in (path, str(path)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as from_path:
            read(source)
        assert str(from_path.value) == f"{kind}{path}: {message}"
        # a non-UTF-8 byte named no file at all
        path.write_bytes(b"\xff" + text.encode("utf-8"))
        with pytest.raises(ValueError) as from_path:
            read(source)
        named = str(from_path.value)
        assert named.startswith(f"{kind}{path}: 'utf-8' codec can't decode byte 0xff")
        assert named.count(str(path)) == 1


def _topic_title(tmp_path, value):
    topics = json.loads((FIXTURE_DIR / "topics.json").read_text(encoding="utf-8"))
    topics[0]["title"] = value
    (tmp_path / "topics.json").write_text(json.dumps(topics), encoding="utf-8")
    parse_topics(tmp_path / "topics.json")


def _run_tag(tmp_path, value):
    spec = json.loads((REPO / "configs" / "gpt4qr_bm25_qd1.json").read_text(encoding="utf-8"))
    (tmp_path / "spec.json").write_text(json.dumps(dict(spec, run_tag=value)), encoding="utf-8")
    load_run_spec(tmp_path / "spec.json")


def _cached_response(tmp_path, value):
    record = {"model_id": "m", "prompt": "p", "response": value}
    (tmp_path / f"{cache_key('m', 'p')}.json").write_text(json.dumps(record), encoding="utf-8")
    LLMCache(tmp_path).get(cache_key("m", "p"))


def _chat_reply(tmp_path, value):
    body = json.dumps({"choices": [{"message": {"content": value}}]}).encode("utf-8")
    with mock.patch("urllib.request.urlopen", lambda request, timeout: io.BytesIO(body)):
        HttpChatTransport("http://chat.invalid/v1")("m", "p")


@pytest.mark.parametrize(
    "value, ending",
    [(5, "must be a string, got 5"), ("a\ud800", "holds the lone surrogate '\\ud800'")],
    ids=["integer", "lone-surrogate"],
)
@pytest.mark.parametrize(
    "read", [_topic_title, _run_tag, _cached_response, _chat_reply],
    ids=["topic-title", "run-tag", "cache-record", "chat-reply"],
)
def test_one_wording_for_a_json_value(tmp_path, read, value, ending):
    # one rule was worded three ways: "must be a string, got 5", "must be str, got 5",
    # "not a JSON object with a string field", and a chat reply's "content 5 is not a string"
    with pytest.raises((ValueError, TransportError)) as raised:
        read(tmp_path, value)
    assert ending in str(raised.value)
    cause = raised.value
    while cause.__cause__ is not None:  # the reader's own error, before a path is put in front
        cause = cause.__cause__
    assert str(cause).endswith(ending)


def _run_file(directory, text, monkeypatch):
    path = directory / "a.run"
    write_run_file([("1_1", RankedList({text: 1.0}))], "tag", path)
    return path


def _responses(directory, text, monkeypatch):
    path = directory / "a.responses.jsonl"
    write_response_records([TurnResult("1_1", RankedList({}), (), text, ())], path)
    return path


def _report(directory, text, monkeypatch):
    # a report's JSON escapes every non-ASCII character, so its text is made to hold one
    path = directory / "report.json"
    monkeypatch.setattr(evaluation, "json", SimpleNamespace(dumps=lambda *args, **kw: text))
    evaluate_rankings({"1_1": RankedList({"D1": 1.0})}, Qrels({})).write_json(path)
    return path


def _cache_record(directory, text, monkeypatch):
    LLMCache(directory).put(cache_key("m", "p"), "m", "p", text)
    return directory / f"{cache_key('m', 'p')}.json"


@pytest.mark.parametrize(
    "write", [_run_file, _responses, _report, _cache_record],
    ids=["run-file", "responses", "json-report", "cache-record"],
)
def test_a_failed_write_leaves_the_earlier_file_as_it_was(tmp_path, monkeypatch, write):
    # each output was opened, and so emptied, before its text was written: a write
    # failing part way (here on a lone surrogate, which UTF-8 cannot encode) left it empty
    path = write(tmp_path, "earlier", monkeypatch)
    earlier = path.read_bytes()
    assert b"earlier" in earlier
    with pytest.raises(UnicodeEncodeError):
        write(tmp_path, "new\ud800", monkeypatch)
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]  # and no temp file left beside it


_OPENERS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _openers(node: ast.AST, where: str):
    """``(function, call)`` for each call in ``node`` that opens a path, by the name it calls."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if isinstance(child, ast.Call):
            name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            if name in _OPENERS:
                yield inner, name
        yield from _openers(child, inner)


def test_the_package_opens_paths_in_one_reader_and_one_writer():
    # a run spec, a cache record and a report each had a reader or writer of their own,
    # with another BOM rule or writing in place
    calls = []
    for module in sorted((REPO / "src" / "convsearch").glob("*.py")):
        calls += _openers(ast.parse(module.read_text(encoding="utf-8")), module.stem)
    assert sorted(calls) == [("index._text", "open"), ("index._write_text", "open")]
