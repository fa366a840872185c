"""Readers and writers take a file path or an open text handle alike."""

import io

import pytest

from convsearch.conversation import parse_topics
from convsearch.evaluation import parse_qrels, read_run_file
from convsearch.index import RankedList, load_sparse_vectors, read_corpus
from convsearch.pipeline import TurnResult, write_response_records, write_trec_run

from conftest import FIXTURE_DIR


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
    ranking = RankedList("1_1", (("D001", 2.5), ("D002", 1.0)))
    return [
        TurnResult("1_1", ranking, (1, 0), "café – naïve answer", ("D001", "D002")),
        TurnResult("1_2", RankedList("1_2", ()), (0, 1), "", ()),
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
