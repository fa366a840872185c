"""Metric correctness against direct-definition oracles and hand anchors."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convsearch.evaluation import (
    EvalCutoffs,
    Qrels,
    average_precision,
    evaluate_rankings,
    evaluate_run,
    format_report,
    ndcg_at_k,
    parse_qrels,
    precision_at_k,
    read_run_file,
    recall_at_k,
    reciprocal_rank,
)
from convsearch.index import RankedList

# ---------------------------------------------------------------------------
# brute-force oracles (direct definitions, no shared code with the package)
# ---------------------------------------------------------------------------


def brute_ndcg(doc_ids, rels, k):
    gains = [rels.get(d, 0) for d in doc_ids]
    if k is not None:
        gains = gains[:k]
    dcg = 0.0
    for i, g in enumerate(gains):
        dcg += g / math.log2(i + 2)
    ideal = sorted(rels.values(), reverse=True)
    if k is not None:
        ideal = ideal[:k]
    idcg = 0.0
    for i, g in enumerate(ideal):
        idcg += g / math.log2(i + 2)
    return dcg / idcg if idcg > 0 else 0.0


def brute_rr(doc_ids, rels, threshold=1):
    for i, d in enumerate(doc_ids):
        if rels.get(d, 0) >= threshold:
            return 1.0 / (i + 1)
    return 0.0


def brute_p_at_k(doc_ids, rels, k, threshold=1):
    return sum(1 for d in doc_ids[:k] if rels.get(d, 0) >= threshold) / k


def brute_r_at_k(doc_ids, rels, k, threshold=1):
    total = sum(1 for r in rels.values() if r >= threshold)
    if total == 0:
        return 0.0
    return sum(1 for d in doc_ids[:k] if rels.get(d, 0) >= threshold) / total


def brute_ap(doc_ids, rels, threshold=1):
    total = sum(1 for r in rels.values() if r >= threshold)
    if total == 0:
        return 0.0
    hits, acc = 0, 0.0
    for i, d in enumerate(doc_ids):
        if rels.get(d, 0) >= threshold:
            hits += 1
            acc += hits / (i + 1)
    return acc / total


def _qrels(query_id, rels):
    return Qrels({(query_id, d): r for d, r in rels.items()})


def _ranking(query_id, doc_ids):
    scores = {d: float(len(doc_ids) - i) for i, d in enumerate(doc_ids)}
    return RankedList.from_scores(query_id, scores)


# ---------------------------------------------------------------------------
# hand-computed anchors
# ---------------------------------------------------------------------------


def test_ndcg_hand_anchor():
    # qrels {A:2, B:1}, ranking [C, A, B], k=3 -> 0.66968
    ranking = _ranking("q", ["C", "A", "B"])
    qrels = _qrels("q", {"A": 2, "B": 1})
    value = ndcg_at_k(ranking, qrels, 3)
    assert value == pytest.approx(0.66968, abs=1e-5)
    dcg = 2 / math.log2(3) + 1 / 2
    idcg = 2 + 1 / math.log2(3)
    assert value == pytest.approx(dcg / idcg, abs=1e-12)


def test_ndcg_ideal_ranking_is_one():
    ranking = _ranking("q", ["A", "B", "C"])
    qrels = _qrels("q", {"A": 3, "B": 2, "C": 1})
    assert ndcg_at_k(ranking, qrels, None) == pytest.approx(1.0)


def test_ndcg_no_relevant_retrieved():
    ranking = _ranking("q", ["X", "Y"])
    qrels = _qrels("q", {"A": 2})
    assert ndcg_at_k(ranking, qrels, None) == 0.0


def test_ndcg_no_relevant_in_qrels_scores_zero():
    ranking = _ranking("q", ["A"])
    assert ndcg_at_k(ranking, _qrels("q", {"A": 0}), None) == 0.0


def test_ap_hand_anchor():
    # relevant at ranks 1 and 3 of 2 total relevant -> (1 + 2/3) / 2
    ranking = _ranking("q", ["A", "X", "B"])
    qrels = _qrels("q", {"A": 1, "B": 1})
    assert average_precision(ranking, qrels) == pytest.approx(0.83333, abs=1e-5)


def test_ap_perfect_and_empty():
    qrels = _qrels("q", {"A": 1, "B": 1})
    assert average_precision(_ranking("q", ["A", "B", "X"]), qrels) == pytest.approx(1.0)
    assert average_precision(_ranking("q", ["X", "Y"]), qrels) == 0.0


def test_reciprocal_rank_values():
    qrels = _qrels("q", {"A": 1})
    assert reciprocal_rank(_ranking("q", ["A", "B"]), qrels) == 1.0
    assert reciprocal_rank(_ranking("q", ["X", "Y", "Z", "A"]), qrels) == 0.25
    assert reciprocal_rank(_ranking("q", ["X", "Y"]), qrels) == 0.0


def test_reciprocal_rank_threshold():
    qrels = _qrels("q", {"A": 1, "B": 2})
    ranking = _ranking("q", ["A", "B"])
    assert reciprocal_rank(ranking, qrels, threshold=2) == 0.5


def test_precision_recall_values():
    rels = {f"R{i}": 1 for i in range(10)}
    qrels = _qrels("q", rels)
    top = [f"R{i}" for i in range(5)] + [f"X{i}" for i in range(15)]
    ranking = _ranking("q", top)
    assert precision_at_k(ranking, qrels, 20) == pytest.approx(0.25)
    assert recall_at_k(ranking, qrels, 100) == pytest.approx(0.5)


@pytest.mark.parametrize("k", [0, -1])
def test_cutoffs_below_one_are_rejected(k):
    # nDCG@-1 used to score all but the last rank, and nDCG@0 read 0
    ranking, qrels = _ranking("q", ["A", "B"]), _qrels("q", {"A": 1, "B": 1})
    for metric in (ndcg_at_k, precision_at_k, recall_at_k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            metric(ranking, qrels, k)
    # EvalCutoffs left them to the metrics, so a run with no judged query printed nDCG@0
    for field in ("ndcg_cutoff", "precision_cutoff", "recall_cutoff"):
        with pytest.raises(ValueError, match="k must be >= 1"):
            EvalCutoffs(**{field: k})


@pytest.mark.parametrize("threshold", [0, -1])
def test_thresholds_below_one_are_rejected(threshold):
    # below 1 every unjudged document counted as relevant, so Recall and mAP passed 1
    ranking, qrels = _ranking("q", ["A", "B", "C", "D"]), _qrels("q", {"A": 1})
    with pytest.raises(ValueError, match="threshold must be >= 1"):
        EvalCutoffs(threshold=threshold)
    for metric, k in ((reciprocal_rank, ()), (precision_at_k, (4,)), (recall_at_k, (4,)),
                      (average_precision, ())):
        with pytest.raises(ValueError, match="threshold must be >= 1"):
            metric(ranking, qrels, *k, threshold=threshold)


def test_precision_fixed_denominator():
    qrels = _qrels("q", {"A": 1, "B": 1})
    ranking = _ranking("q", ["A", "B", "X"])  # only 3 retrieved
    assert precision_at_k(ranking, qrels, 20) == pytest.approx(2 / 20)


def test_recall_zero_relevant_flagged_as_zero():
    ranking = _ranking("q", ["A"])
    assert recall_at_k(ranking, _qrels("q", {"A": 0}), 10) == 0.0


# ---------------------------------------------------------------------------
# oracle equivalence on random instances
# ---------------------------------------------------------------------------


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(59)
    for _ in range(300):
        n_docs = int(rng.integers(1, 51))
        doc_ids = [f"d{i:02d}" for i in rng.permutation(n_docs)]
        n_judged = int(rng.integers(0, 11))
        judged = {
            f"d{int(i):02d}": int(rng.integers(0, 4))
            for i in rng.choice(max(n_docs, n_judged), size=n_judged, replace=False)
        }
        ranking = _ranking("q", doc_ids)
        qrels = _qrels("q", judged)
        k = int(rng.integers(1, 12))
        assert ndcg_at_k(ranking, qrels, k) == pytest.approx(
            brute_ndcg(doc_ids, judged, k), abs=1e-9
        )
        assert reciprocal_rank(ranking, qrels) == pytest.approx(
            brute_rr(doc_ids, judged), abs=1e-9
        )
        assert precision_at_k(ranking, qrels, k) == pytest.approx(
            brute_p_at_k(doc_ids, judged, k), abs=1e-9
        )
        assert recall_at_k(ranking, qrels, k) == pytest.approx(
            brute_r_at_k(doc_ids, judged, k), abs=1e-9
        )
        assert average_precision(ranking, qrels) == pytest.approx(
            brute_ap(doc_ids, judged), abs=1e-9
        )


# the five metric bodies as they stood when each read the judgments and the ranking on
# its own, kept verbatim as a bit-exact reference for the shared grade stream


def reference_ndcg(ranking, qrels, k=None):
    judged = qrels.for_query(ranking.query_id)
    ideal_gains = sorted((rel for rel in judged.values() if rel > 0), reverse=True)
    if k is not None:
        ideal_gains = ideal_gains[:k]
    idcg = sum(
        rel / math.log2(position + 1) for position, rel in enumerate(ideal_gains, start=1)
    )
    if idcg == 0.0:
        return 0.0
    docs = ranking.doc_ids()
    if k is not None:
        docs = docs[:k]
    dcg = sum(
        judged.get(doc_id, 0) / math.log2(position + 1)
        for position, doc_id in enumerate(docs, start=1)
    )
    return dcg / idcg


def reference_rr(ranking, qrels, threshold=1):
    judged = qrels.for_query(ranking.query_id)
    for position, doc_id in enumerate(ranking.doc_ids(), start=1):
        if judged.get(doc_id, 0) >= threshold:
            return 1.0 / position
    return 0.0


def reference_p(ranking, qrels, k, threshold=1):
    judged = qrels.for_query(ranking.query_id)
    hits = sum(1 for doc_id in ranking.doc_ids()[:k] if judged.get(doc_id, 0) >= threshold)
    return hits / k


def reference_r(ranking, qrels, k, threshold=1):
    judged = qrels.for_query(ranking.query_id)
    total_relevant = sum(1 for rel in judged.values() if rel >= threshold)
    if total_relevant == 0:
        return 0.0
    hits = sum(1 for doc_id in ranking.doc_ids()[:k] if judged.get(doc_id, 0) >= threshold)
    return hits / total_relevant


def reference_ap(ranking, qrels, threshold=1):
    judged = qrels.for_query(ranking.query_id)
    total_relevant = sum(1 for rel in judged.values() if rel >= threshold)
    if total_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for position, doc_id in enumerate(ranking.doc_ids(), start=1):
        if judged.get(doc_id, 0) >= threshold:
            hits += 1
            precision_sum += hits / position
    return precision_sum / total_relevant


def test_metrics_are_bit_identical_to_the_reference_bodies():
    cases = [(ndcg_at_k, reference_ndcg, (k,)) for k in (None, 1, 5, 20, 100)]
    for threshold in (1, 2, 3):
        cases += [(reciprocal_rank, reference_rr, (threshold,))]
        cases += [(average_precision, reference_ap, (threshold,))]
        for k in (1, 5, 20, 100):
            cases += [(precision_at_k, reference_p, (k, threshold))]
            cases += [(recall_at_k, reference_r, (k, threshold))]
    rng = np.random.default_rng(73)
    for _ in range(600):
        # empty rankings, rankings shorter and longer than k = 100, unjudged documents,
        # judged documents left unretrieved, and queries with no relevant judgment
        n_docs = int(rng.choice([0, 1, 3, 12, 60, 130]))
        universe = n_docs + int(rng.integers(0, 15))
        doc_ids = [f"d{i:03d}" for i in rng.permutation(universe)[:n_docs]]
        n_judged = int(rng.integers(0, min(universe, 40) + 1))
        top = int(rng.integers(1, 5))  # grades below top, so some queries have none >= 3
        judgments = {
            ("q", f"d{int(i):03d}"): int(rng.integers(0, top))
            for i in rng.choice(universe, size=n_judged, replace=False)
        }
        judgments[("other", "d000")] = 3
        ranking = _ranking("q", doc_ids)
        qrels = Qrels(judgments)
        for metric, reference, args in cases:
            got, want = metric(ranking, qrels, *args), reference(ranking, qrels, *args)
            assert got.hex() == want.hex(), (metric.__name__, args, doc_ids, judgments)


def test_ndcg_adjacent_swap_never_decreases():
    # moving the more relevant of two adjacent docs upward cannot hurt
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        doc_ids = [f"d{i:02d}" for i in range(n)]
        judged = {d: int(rng.integers(0, 3)) for d in doc_ids}
        i = int(rng.integers(0, n - 1))
        if judged[doc_ids[i]] >= judged[doc_ids[i + 1]]:
            continue  # upper already at least as relevant
        swapped = list(doc_ids)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        before = ndcg_at_k(_ranking("q", doc_ids), _qrels("q", judged), None)
        after = ndcg_at_k(_ranking("q", swapped), _qrels("q", judged), None)
        assert after >= before - 1e-12


def test_recall_monotone_in_k():
    rng = np.random.default_rng(67)
    doc_ids = [f"d{i:02d}" for i in range(30)]
    judged = {d: int(rng.integers(0, 2)) for d in doc_ids}
    ranking = _ranking("q", doc_ids)
    qrels = _qrels("q", judged)
    values = [recall_at_k(ranking, qrels, k) for k in range(1, 31)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# qrels parsing
# ---------------------------------------------------------------------------


def test_parse_qrels_basic():
    qrels = parse_qrels(io.StringIO("t1_1 0 dA 2\n"))
    assert qrels.judgments == {("t1_1", "dA"): 2}


def test_parse_qrels_empty():
    assert parse_qrels(io.StringIO("")).judgments == {}


def test_parse_qrels_duplicate_pair():
    with pytest.raises(ValueError, match="line 2"):
        parse_qrels(io.StringIO("q 0 d 1\nq 0 d 2\n"))


def test_parse_qrels_malformed():
    with pytest.raises(ValueError, match="line 1"):
        parse_qrels(io.StringIO("q 0 d\n"))
    with pytest.raises(ValueError, match="line 1"):
        parse_qrels(io.StringIO("q 0 d x\n"))
    with pytest.raises(ValueError, match="negative"):
        parse_qrels(io.StringIO("q 0 d -1\n"))


@pytest.mark.parametrize("grade", ["+1", "1_0", "\u0661", "\uff12", "1.0", "-", "--1"])
def test_parse_qrels_takes_only_ascii_digit_grades(grade):
    message = f"qrels line 2: non-integer relevance '{grade}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_qrels(io.StringIO(f"q 0 a 1\nq 0 b {grade}\n"))
    qrels = parse_qrels(io.StringIO("q 0 a 007\nq 0 b -0\nq 0 c 0\n"))
    assert qrels.judgments == {("q", "a"): 7, ("q", "b"): 0, ("q", "c"): 0}


def test_read_run_file_rejections_name_their_line():
    cases = [
        ("q Q0 a 1 1.0\n", "run line 1: expected 6 fields, got 5"),
        ("\nq Q0 a 1 high t\n", "run line 2: non-numeric score 'high'"),
        ("q Q0 a 1 2.0 t\n \t\nq Q0 a 2 1.0 t\n", "run line 3: duplicate doc 'a' for 'q'"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            read_run_file(io.StringIO(text))


@pytest.mark.parametrize(
    "score, problem",
    [
        ("1_000", "non-numeric"),  # float() reads it as 1000.0
        ("\u0661.\u0665", "non-numeric"),  # Arabic-Indic digits, 1.5 to float()
        ("\uff11", "non-numeric"),  # a full-width digit
        ("nan", "non-finite"),
        ("-inf", "non-finite"),
        ("Infinity", "non-finite"),
        ("1e999", "non-finite"),  # overflows
    ],
)
def test_read_run_file_takes_only_ascii_finite_scores(score, problem):
    with pytest.raises(ValueError, match=re.escape(f"run line 2: {problem} score '{score}'")):
        read_run_file(io.StringIO(f"q Q0 a 1 2.0 t\nq Q0 b 2 {score} t\n"))
    run = read_run_file(io.StringIO("q Q0 a 1 +1.5 t\nq Q0 b 2 .5 t\nq Q0 c 3 -2E-1 t\n"))
    assert run["q"].items == (("a", 1.5), ("b", 0.5), ("c", -0.2))


# one whitespace-free field, drawn mostly from the characters a number is made of
def _fields(alphabet):
    return st.one_of(
        st.text(alphabet, min_size=1, max_size=12),
        st.integers().map(str),
        st.integers().map("{:_}".format),  # int() and float() read "1_000"
        st.floats().map(str),
        st.text(min_size=1),
    ).filter(lambda text: text.split() == [text])


_ODD_DIGITS = "\u0661\uff11\u00b2"  # Arabic-Indic one, full-width one, superscript two
# the run-file score grammar: an ASCII decimal, no "_", no inf or nan spelling
_ASCII_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


@settings(max_examples=400, derandomize=True, database=None)
@given(_fields("0123456789+-.eE_infatyINFATY" + _ODD_DIGITS), st.integers(0, 3))
def test_read_run_file_takes_a_score_iff_it_is_an_ascii_finite_decimal(score, lineno):
    good = "".join(f"q Q0 d{i} {i + 1} 1.0 t\n" for i in range(lineno))
    text = f"{good}q Q0 x {lineno + 1} {score} t\n"
    accepted = _ASCII_DECIMAL.fullmatch(score) is not None and math.isfinite(float(score))
    if accepted:
        assert dict(read_run_file(io.StringIO(text))["q"].items)["x"] == float(score)
    else:
        with pytest.raises(ValueError, match=re.escape(f"run line {lineno + 1}: ")):
            read_run_file(io.StringIO(text))


@settings(max_examples=400, derandomize=True, database=None)
@given(_fields("0123456789+-._e " + _ODD_DIGITS), st.integers(0, 3))
def test_parse_qrels_takes_a_grade_iff_it_is_ascii_digits(grade, lineno):
    good = "".join(f"q 0 d{i} 1\n" for i in range(lineno))
    text = f"{good}q 0 x {grade}\n"
    prefix = f"qrels line {lineno + 1}: "
    if re.fullmatch(r"-?[0-9]+", grade) is None:
        with pytest.raises(ValueError, match=re.escape(f"{prefix}non-integer relevance")):
            parse_qrels(io.StringIO(text))
    elif int(grade) < 0:
        with pytest.raises(ValueError, match=re.escape(f"{prefix}negative relevance")):
            parse_qrels(io.StringIO(text))
    else:
        assert parse_qrels(io.StringIO(text)).judgments[("q", "x")] == int(grade)


# ---------------------------------------------------------------------------
# evaluate_run report
# ---------------------------------------------------------------------------


def _run_file(rows):
    return io.StringIO(
        "".join(f"{q} Q0 {d} {r} {s:.6f} tag\n" for q, d, r, s in rows)
    )


def test_evaluate_run_aggregate_is_mean_of_per_query():
    rows = [
        ("t1_1", "A", 1, 3.0),
        ("t1_1", "B", 2, 2.0),
        ("t1_2", "B", 1, 5.0),
        ("t1_2", "A", 2, 4.0),
    ]
    qrels = parse_qrels(io.StringIO("t1_1 0 A 1\nt1_2 0 A 1\n"))
    report = evaluate_run(_run_file(rows), qrels)
    # hand values: t1_1 has the relevant doc at rank 1, t1_2 at rank 2
    assert report.per_query["t1_1"]["MRR"] == 1.0
    assert report.per_query["t1_2"]["MRR"] == 0.5
    assert report.aggregate["MRR"] == pytest.approx(0.75)
    for metric in report.metrics:
        mean = sum(v[metric] for v in report.per_query.values()) / len(report.per_query)
        assert report.aggregate[metric] == pytest.approx(mean)


def test_evaluate_run_metric_columns_match_suite():
    qrels = parse_qrels(io.StringIO("t1_1 0 A 1\n"))
    report = evaluate_run(_run_file([("t1_1", "A", 1, 1.0)]), qrels)
    assert report.metrics == ["nDCG@5", "nDCG", "MRR", "Recall@100", "P@20", "mAP"]


def test_evaluate_run_slices_by_depth_and_topic():
    rows = [
        ("1_1", "A", 1, 1.0),
        ("1_2", "A", 1, 1.0),
        ("2_1", "A", 1, 1.0),
    ]
    qrels = parse_qrels(io.StringIO("1_1 0 A 1\n1_2 0 A 1\n2_1 0 A 1\n"))
    report = evaluate_run(_run_file(rows), qrels)
    assert set(report.per_depth) == {1, 2}
    assert set(report.per_topic) == {"1", "2"}
    assert report.per_depth[1]["MRR"] == 1.0


def test_evaluate_run_excludes_unknown_queries():
    rows = [("1_1", "A", 1, 1.0), ("9_9", "A", 1, 1.0)]
    qrels = parse_qrels(io.StringIO("1_1 0 A 1\n"))
    report = evaluate_run(_run_file(rows), qrels)
    assert report.excluded == ["9_9"]
    assert "9_9" not in report.per_query


def test_evaluate_run_flags_zero_relevant():
    rows = [("1_1", "A", 1, 1.0)]
    qrels = parse_qrels(io.StringIO("1_1 0 A 0\n"))
    report = evaluate_run(_run_file(rows), qrels)
    assert report.zero_relevant == ["1_1"]
    assert report.per_query["1_1"]["MRR"] == 0.0


def test_evaluate_run_rejects_bad_query_id():
    # a turn is ASCII digits: not a superscript, an Arabic-Indic or a full-width digit
    for query_id in ("nounderscore", "1_\u00b2", "1_\u0661", "1_\uff11", "1_" + "1" * 4301):
        rows = [(query_id, "A", 1, 1.0)]
        qrels = parse_qrels(io.StringIO(f"{query_id} 0 A 1\n"))
        message = f"query_id '{query_id}' is not of the form <topic>_<turn>"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_run(_run_file(rows), qrels)


def test_evaluate_custom_cutoffs_change_columns():
    qrels = parse_qrels(io.StringIO("1_1 0 A 1\n"))
    report = evaluate_run(
        _run_file([("1_1", "A", 1, 1.0)]), qrels, EvalCutoffs(ndcg_cutoff=3, recall_cutoff=10)
    )
    assert "nDCG@3" in report.metrics and "Recall@10" in report.metrics


def test_format_report_renders_slices():
    qrels = parse_qrels(io.StringIO("1_1 0 A 1\n1_2 0 A 1\n"))
    report = evaluate_run(
        _run_file([("1_1", "A", 1, 1.0), ("1_2", "A", 1, 1.0)]), qrels
    )
    text = format_report(report, per_depth=True, per_topic=True)
    assert "nDCG@5" in text and "depth 1" in text and "topic 1" in text


def test_report_json_roundtrip(tmp_path):
    qrels = parse_qrels(io.StringIO("1_1 0 A 1\n"))
    report = evaluate_run(_run_file([("1_1", "A", 1, 1.0)]), qrels)
    path = tmp_path / "report.json"
    report.write_json(path)
    import json

    data = json.loads(path.read_text())
    assert data["aggregate"]["MRR"] == 1.0
    assert data["per_depth"]["1"]["MRR"] == 1.0


def test_values_always_in_unit_interval():
    rng = np.random.default_rng(71)
    rankings = {}
    judgments = {}
    for t in range(1, 6):
        qid = f"1_{t}"
        doc_ids = [f"d{i}" for i in rng.permutation(20)]
        rankings[qid] = _ranking(qid, list(doc_ids))
        for d in doc_ids[:6]:
            judgments[(qid, d)] = int(rng.integers(0, 3))
    report = evaluate_rankings(rankings, Qrels(judgments))
    for values in list(report.per_query.values()) + [report.aggregate]:
        for value in values.values():
            assert 0.0 <= value <= 1.0
