"""Topic parsing, context rendering, and persona text."""

import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convsearch.conversation import (
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


def _without_utterance():
    payload = _topic_payload()
    del payload["turns"][1]["utterance"]
    return [payload]


def _with_turns(turns):
    payload = _topic_payload()
    payload["turns"] = turns
    return [payload]


@pytest.mark.parametrize(
    "data, message",
    [({"1": _topic_payload()}, "top-level value must be an array, got dict"),
     (_without_utterance(), "topic '1': turn missing field 'utterance'"),
     ([_topic_payload(), ["number", "title", "ptkb", "turns"]],
      "topic #2 must be an object, got list"),
     (["number title ptkb turns"], "topic #1 must be an object, got str"),
     (_with_turns(3), "topic '1': field 'turns' must be an array, got int"),
     (_with_turns({"1": {"turn_number": 1, "utterance": "u"}}),
      "topic '1': field 'turns' must be an array, got dict"),
     (_with_turns(["turn_number utterance"]), "topic '1': turn #1 must be an object, got str"),
     (_with_turns([{"turn_number": 1, "utterance": "u"}, ["turn_number", "utterance"]]),
      "topic '1': turn #2 must be an object, got list"),
     # an empty PTKB used to parse, then fail every turn's classify_ptkb after the index build
     ([dict(_topic_payload(), ptkb={})],
      "topic '1': field 'ptkb' must hold at least one statement")],
    ids=["not-an-array", "turn-without-utterance", "topic-array", "topic-string",
         "turns-number", "turns-object", "turn-string", "turn-array", "ptkb-empty"],
)
def test_parse_topics_rejects_a_bad_shape(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_topics(io.StringIO(json.dumps(data)))


@pytest.mark.parametrize(
    "text, message",
    [(json.dumps([_topic_payload()])[:-2], "Expecting ',' delimiter: line 1"),
     (json.dumps(_topic_payload()), "top-level value must be an array, got dict")],
    ids=["truncated", "not-an-array"],
)
def test_parse_topics_names_the_file_it_reads(tmp_path, text, message):
    # a truncated topics.json used to fail a run with only "Expecting ',' delimiter: ..."
    path = tmp_path / "topics.json"
    path.write_text(text, encoding="utf-8")
    for source in (path, str(path)):
        with pytest.raises(ValueError, match=re.escape(f"topics {path}: {message}")):
            parse_topics(source)


def _bad_keys(*keys):
    """The one message for ptkb keys that do not read as exactly 1 to n."""
    return f"ptkb keys must be the numbers 1 to {len(keys)} in ASCII digits, got {list(keys)}"


def test_parse_topics_rejects_gapped_ptkb():
    payload = _topic_payload()
    payload["ptkb"] = {"1": "a", "3": "b"}
    with pytest.raises(ValueError, match=re.escape(f"topic '1': {_bad_keys('1', '3')}")):
        parse_topics(io.StringIO(json.dumps([payload])))


@pytest.mark.parametrize(
    "topic_fields, turn_fields, message",
    [
        ({"ptkb": {"1": "s", "a": "t"}}, {}, _bad_keys("1", "a")),
        ({"ptkb": {"0": "s"}}, {}, _bad_keys("0")),
        ({"ptkb": ["s", "t"]}, {}, "field 'ptkb' must be an object, got list"),
        ({}, {"turn_number": "one"}, "field 'turn_number' must be an integer, got 'one'"),
        ({}, {"turn_number": None}, "field 'turn_number' must be an integer, got None"),
        # numbers that int() would coerce in silence
        ({}, {"turn_number": 1.9}, "field 'turn_number' must be an integer, got 1.9"),
        ({}, {"turn_number": 1.0}, "field 'turn_number' must be an integer, got 1.0"),
        ({}, {"turn_number": True}, "field 'turn_number' must be an integer, got True"),
        ({}, {"turn_number": "1"}, "field 'turn_number' must be an integer, got '1'"),
        ({"ptkb": {"1": "s", " 2 ": "t"}}, {}, _bad_keys("1", " 2 ")),
        ({"ptkb": {"1": "s", "+2": "t"}}, {}, _bad_keys("1", "+2")),
        ({"ptkb": {"1": "s", "2_0": "t"}}, {}, _bad_keys("1", "2_0")),
        ({"ptkb": {"1": "s", "\uff12": "t"}}, {}, _bad_keys("1", "\uff12")),
        ({"ptkb": {"1": "s", "2" * 5000: "t"}}, {}, _bad_keys("1", "2" * 5000)),
    ],
    ids=[
        "ptkb-key", "ptkb-key-zero", "ptkb-list", "turn-number", "turn-number-null",
        "turn-number-float", "turn-number-integral-float", "turn-number-bool", "turn-number-string",
        "ptkb-key-padded", "ptkb-key-signed", "ptkb-key-underscore", "ptkb-key-fullwidth",
        "ptkb-key-past-int-limit",
    ],
)
def test_parse_topics_names_the_topic_and_field_of_a_bad_number(
    topic_fields, turn_fields, message
):
    payload = dict(_topic_payload(), **topic_fields)
    payload["turns"][0].update(turn_fields)
    with pytest.raises(ValueError, match=re.escape(f"topic '1': {message}")):
        parse_topics(io.StringIO(json.dumps([payload])))


# a JSON token for a turn number: any JSON number, and values of other types
_TURN_TOKENS = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?", fullmatch=True),
    st.sampled_from(["1", "-0", "1.0", "1e0", "10E-1", "true", "null", '"1"', "[1]", "{}"]),
    st.builds(json.dumps, st.one_of(st.floats(), st.text(max_size=4), st.booleans())),
)


@settings(max_examples=400, derandomize=True, database=None)
@given(_TURN_TOKENS)
def test_parse_topics_takes_a_turn_number_iff_it_is_a_json_integer(token):
    text = json.dumps([_topic_payload(n_turns=1)])
    text = text.replace('"turn_number": 1', f'"turn_number": {token}')
    value = json.loads(token)
    if re.fullmatch(r"-?(0|[1-9][0-9]*)", token) is None:
        message = f"field 'turn_number' must be an integer, got {value!r}"
    elif value != 1:
        message = "non-contiguous turns"
    else:
        assert parse_topics(io.StringIO(text))[0].turns[0].turn_number == 1
        return
    with pytest.raises(ValueError, match=re.escape(f"topic '1': {message}")):
        parse_topics(io.StringIO(text))


# a ptkb key: ASCII digits (with leading zeros, so "1" may sit beside "01"), or not
_PTKB_KEYS = st.one_of(
    st.integers(-2, 12).map(str),
    st.integers(0, 7).map("0{}".format),
    st.text("0123456789 +-_.\u0661\uff11\u00b2", min_size=1, max_size=4),
    st.integers().map("{:_}".format),  # int() reads "1_000"
    st.text(max_size=4),
)
_ONE_TO_N = st.integers(1, 7).flatmap(lambda n: st.permutations([str(i) for i in range(1, n + 1)]))
# key sets: 1 to n in any order, with one key swapped or added, or any keys
_PTKB_KEY_SETS = st.one_of(
    _ONE_TO_N,
    st.builds(lambda keys, key: [*keys[:-1], key], _ONE_TO_N, _PTKB_KEYS),
    st.builds(lambda keys, key: [*keys, key], _ONE_TO_N, _PTKB_KEYS),
    st.lists(_PTKB_KEYS, min_size=1, max_size=6),
).map(lambda keys: list(dict.fromkeys(keys)))


@settings(max_examples=600, derandomize=True, database=None)
@given(_PTKB_KEY_SETS)
def test_parse_topics_takes_a_ptkb_key_iff_it_is_ascii_digits(keys):
    # a ptkb parses iff its keys read as exactly 1 to n, its statements in key order
    ptkb = {key: f"statement {key}" for key in keys}
    text = json.dumps([dict(_topic_payload(), ptkb=ptkb)])
    digits = all(re.fullmatch("[0-9]+", key) for key in keys)
    if digits and sorted(map(int, keys)) == list(range(1, len(keys) + 1)):
        statements = tuple(ptkb[key] for key in sorted(keys, key=int))
        assert parse_topics(io.StringIO(text))[0].ptkb == statements
        return
    with pytest.raises(ValueError, match=re.escape(f"topic '1': {_bad_keys(*keys)}")):
        parse_topics(io.StringIO(text))


def test_parse_topics_names_the_topic_of_an_empty_statement():
    payload = dict(_topic_payload(), ptkb={"1": ""})
    with pytest.raises(ValueError, match="topic '1': ptkb statement text must be non-empty"):
        parse_topics(io.StringIO(json.dumps([payload])))


@pytest.mark.parametrize("value", [None, 5, ["text"]], ids=["null", "number", "list"])
@pytest.mark.parametrize(
    "where, field",
    [
        ("title", "field 'title'"),
        ("ptkb", "ptkb statement '2'"),
        ("utterance", "turn 2 field 'utterance'"),
        ("response", "turn 2 field 'response'"),
        ("manual_rewrite", "turn 2 field 'manual_rewrite'"),
    ],
    ids=["title", "ptkb", "utterance", "response", "manual_rewrite"],
)
def test_parse_topics_takes_text_fields_only_as_json_strings(where, field, value):
    payload = _topic_payload()
    if where == "title":
        payload["title"] = value
    elif where == "ptkb":
        payload["ptkb"]["2"] = value
    else:
        payload["turns"][1][where] = value
    message = f"topic '1': {field} must be a string, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_topics(io.StringIO(json.dumps([payload])))
    if where in ("response", "manual_rewrite"):  # an optional field is omitted by leaving it out
        del payload["turns"][1][where]
        turn = parse_topics(io.StringIO(json.dumps([payload])))[0].turns[1]
        assert (turn.gold_response, turn.manual_rewrite) == (
            "" if where == "response" else "response 2", None
        )


@pytest.mark.parametrize(
    "number, problem",
    [(None, "type"), (True, "type"), (False, "type"), (1.5, "type"), ([1], "type"),
     ({}, "type"), ("", "empty field 'number'"), ("2 b", "whitespace"), (" 2", "whitespace"),
     ("2\t", "whitespace"), ("2\xa0", "whitespace")],
    ids=["null", "true", "false", "float", "list", "object", "empty", "inner-space",
         "leading-space", "tab", "no-break-space"],
)
def test_parse_topics_takes_a_number_only_as_an_identifier_string_or_a_json_integer(
    number, problem
):
    # null and true used to read as the topics "None" and "True", "2 b" as a two-field id
    payload = [_topic_payload("1"), dict(_topic_payload(), number=number)]
    message = {
        "type": f"field 'number' must be a string or an integer, got {number!r}",
        "whitespace": f"whitespace in field 'number' {number!r}",
    }.get(problem, problem)
    with pytest.raises(ValueError, match=re.escape(f"topic #2: {message}")):
        parse_topics(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize(
    "numbers", [("1", "1"), ("1", 1), (7, "7")], ids=["strings", "string-int", "int-string"]
)
def test_parse_topics_rejects_a_repeated_number(numbers):
    payload = [_topic_payload(number) for number in numbers]
    message = f"topic #2: duplicate number '{numbers[0]}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_topics(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize(
    "where, field",
    [
        ("number", "topic #1: field 'number'"),
        ("title", "topic '1': field 'title'"),
        ("ptkb", "topic '1': ptkb statement '2'"),
        ("utterance", "topic '1': turn 2 field 'utterance'"),
        ("response", "topic '1': turn 2 field 'response'"),
        ("manual_rewrite", "topic '1': turn 2 field 'manual_rewrite'"),
    ],
    ids=["number", "title", "ptkb", "utterance", "response", "manual_rewrite"],
)
def test_parse_topics_rejects_a_lone_surrogate_in_any_string(where, field):
    # a JSON "\ud800" escape reads as a string that UTF-8 cannot encode, which
    # used to pass here and then fail the run's first cache key with a codec error
    payload = _topic_payload()
    value = "1\ud800" if where == "number" else "caf\u00e9 \ud800 bar"
    if where in ("number", "title"):
        payload[where] = value
    elif where == "ptkb":
        payload["ptkb"]["2"] = value
    else:
        payload["turns"][1][where] = value
    message = f"{field} holds the lone surrogate '\\ud800'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_topics(io.StringIO(json.dumps([payload])))
    # a surrogate pair is one character, which UTF-8 encodes
    payload = _topic_payload()
    payload["turns"][1]["utterance"] = "caf\u00e9 \U0001F600"
    text = json.dumps([payload])
    assert "\\ud83d\\ude00" in text
    turn = parse_topics(io.StringIO(text))[0].turns[1]
    assert turn.user_utterance == "caf\u00e9 \U0001F600"


def test_parse_topics_reads_an_integer_number_as_its_digits():
    payload = [_topic_payload(7), _topic_payload("t-2_b")]
    assert [t.topic_id for t in parse_topics(io.StringIO(json.dumps(payload)))] == ["7", "t-2_b"]


def test_parse_topics_keeps_manual_rewrite():
    payload = _topic_payload()
    payload["turns"][0]["manual_rewrite"] = "rewritten"
    topics = parse_topics(io.StringIO(json.dumps([payload])))
    assert topics[0].turns[0].manual_rewrite == "rewritten"
    assert topics[0].turns[1].manual_rewrite is None


def _topic(n_turns=3):
    return Topic(
        topic_id="t",
        ptkb=("s1", "s2"),
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
    topic = Topic(topic_id="t", ptkb=(), turns=(Turn(1, "u"),))
    assert ptkb_text(topic) == ""


def test_ptkb_text_numbered_lines():
    topic = Topic(
        topic_id="t",
        ptkb=("s1", "s2"),
        turns=(Turn(1, "u"),),
    )
    assert ptkb_text(topic) == "1. s1\n2. s2"


def test_ptkb_text_seventeen_statements():
    topic = Topic(
        topic_id="t",
        ptkb=tuple(f"statement {i}" for i in range(1, 18)),
        turns=(Turn(1, "u"),),
    )
    assert len(ptkb_text(topic).splitlines()) == 17


def test_topic_requires_turns():
    with pytest.raises(ValueError, match="non-empty"):
        Topic(topic_id="t", ptkb=(), turns=())


def test_topic_rejects_an_empty_statement():
    message = "topic 't': ptkb statement text must be non-empty"
    with pytest.raises(ValueError, match=re.escape(message)):
        Topic(topic_id="t", ptkb=("s1", ""), turns=(Turn(1, "u"),))
