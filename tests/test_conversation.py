"""Topic parsing, context rendering, and persona text."""

import io
import json

import pytest

from convsearch.conversation import (
    PTKBStatement,
    Topic,
    Turn,
    parse_topics,
    ptkb_text,
    render_context,
)


def _topic_payload(number="1", n_turns=3, n_ptkb=4):
    return {
        "number": number,
        "title": f"topic {number}",
        "ptkb": {str(i): f"statement {i} of topic {number}" for i in range(1, n_ptkb + 1)},
        "turns": [
            {
                "turn_number": t,
                "utterance": f"utterance {t}",
                "response": f"response {t}",
            }
            for t in range(1, n_turns + 1)
        ],
    }


def test_parse_topics_fixture_shape():
    payload = [_topic_payload("1"), _topic_payload("2")]
    topics = parse_topics(io.StringIO(json.dumps(payload)))
    assert len(topics) == 2
    assert all(len(t.turns) == 3 for t in topics)
    assert all(len(t.ptkb) == 4 for t in topics)
    assert [t.topic_id for t in topics] == ["1", "2"]


def test_parse_topics_benchmark_scale():
    # 13 topics totalling 103 turns parse without error
    turn_counts = [8] * 12 + [7]
    assert sum(turn_counts) == 103
    payload = [
        _topic_payload(str(i + 1), n_turns=count) for i, count in enumerate(turn_counts)
    ]
    topics = parse_topics(io.StringIO(json.dumps(payload)))
    assert len(topics) == 13
    assert sum(len(t.turns) for t in topics) == 103


def test_parse_topics_rejects_non_contiguous_turns():
    payload = _topic_payload()
    payload["turns"][1]["turn_number"] = 3
    with pytest.raises(ValueError, match="non-contiguous turns"):
        parse_topics(io.StringIO(json.dumps([payload])))


def test_parse_topics_rejects_missing_field():
    payload = _topic_payload()
    del payload["title"]
    with pytest.raises(ValueError, match="title"):
        parse_topics(io.StringIO(json.dumps([payload])))


def test_parse_topics_rejects_gapped_ptkb():
    payload = _topic_payload()
    payload["ptkb"] = {"1": "a", "3": "b"}
    with pytest.raises(ValueError, match="contiguous"):
        parse_topics(io.StringIO(json.dumps([payload])))


def test_parse_topics_keeps_manual_rewrite():
    payload = _topic_payload()
    payload["turns"][0]["manual_rewrite"] = "rewritten"
    topics = parse_topics(io.StringIO(json.dumps([payload])))
    assert topics[0].turns[0].manual_rewrite == "rewritten"
    assert topics[0].turns[1].manual_rewrite is None


def _topic(n_turns=3):
    return Topic(
        topic_id="t",
        title="t",
        ptkb=(PTKBStatement(1, "s1"), PTKBStatement(2, "s2")),
        turns=tuple(
            Turn(i, f"u{i}", f"r{i}") for i in range(1, n_turns + 1)
        ),
    )


def test_render_context_turn_one_empty():
    assert render_context(_topic(), 1) == ""


def test_render_context_format():
    ctx = render_context(_topic(), 3)
    assert ctx == "USER: u1\nSYSTEM: r1\nUSER: u2\nSYSTEM: r2"


def test_render_context_out_of_range():
    topic = _topic()
    with pytest.raises(ValueError):
        render_context(topic, len(topic.turns) + 1)
    with pytest.raises(ValueError):
        render_context(topic, 0)


def test_render_context_monotone_prefix():
    topic = _topic(4)
    for t in range(1, len(topic.turns)):
        shorter = render_context(topic, t)
        longer = render_context(topic, t + 1)
        assert longer.startswith(shorter)


def test_ptkb_text_empty():
    topic = Topic(topic_id="t", title="t", ptkb=(), turns=(Turn(1, "u"),))
    assert ptkb_text(topic) == ""


def test_ptkb_text_numbered_lines():
    topic = Topic(
        topic_id="t",
        title="t",
        ptkb=(PTKBStatement(1, "s1"), PTKBStatement(2, "s2")),
        turns=(Turn(1, "u"),),
    )
    assert ptkb_text(topic) == "1. s1\n2. s2"


def test_ptkb_text_seventeen_statements():
    topic = Topic(
        topic_id="t",
        title="t",
        ptkb=tuple(PTKBStatement(i, f"statement {i}") for i in range(1, 18)),
        turns=(Turn(1, "u"),),
    )
    assert len(ptkb_text(topic).splitlines()) == 17


def test_topic_requires_turns():
    with pytest.raises(ValueError, match="non-empty"):
        Topic(topic_id="t", title="t", ptkb=(), turns=())
