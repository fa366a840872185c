"""Conversational topics: ordered turns plus a persona statement list (PTKB).

A topic file is a JSON array of objects with fields ``number`` (a topic id
unique in the file: a JSON string or integer that reads as an identifier),
``title``, ``ptkb`` (a non-empty object whose keys read, as ASCII digits,
as exactly 1 to n, mapped to statements) and ``turns`` (list of
``{turn_number, utterance, response}``, optionally with a
``manual_rewrite`` per turn).  The title, statements and turn texts are
JSON strings; an optional one is omitted by leaving it out.  The title is
checked but not kept.  A parsed topic holds its PTKB as a tuple of
statement texts, statement *i* at ``ptkb[i - 1]``.  Topics are immutable
after parsing and safe to share across parallel per-turn workers.

Conversation history is rendered as alternating ``USER:`` / ``SYSTEM:``
lines of all turns strictly before the current one; the system side is
always the gold response shipped with the topic, so every turn's history
is known before any turn runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .index import _ascii_int, _id_problem, _json_value, _text

__all__ = [
    "Turn",
    "Topic",
    "parse_topics",
    "render_context",
    "ptkb_text",
]


@dataclass(frozen=True)
class Turn:
    """One conversational exchange: user utterance and gold system response.

    ``gold_response`` may be empty (e.g. the final turn of a live topic).
    ``manual_rewrite`` carries the human rewrite when the topic file
    provides one.
    """

    turn_number: int
    user_utterance: str
    gold_response: str = ""
    manual_rewrite: str | None = None


@dataclass(frozen=True)
class Topic:
    """A conversation topic: id, persona statements, ordered turns."""

    topic_id: str
    ptkb: tuple[str, ...]
    turns: tuple[Turn, ...]

    def __post_init__(self) -> None:
        if not all(self.ptkb):
            raise ValueError(f"topic '{self.topic_id}': ptkb statement text must be non-empty")
        if not self.turns:
            raise ValueError(f"topic '{self.topic_id}': turns must be non-empty")
        for position, turn in enumerate(self.turns, start=1):
            if turn.turn_number != position:
                raise ValueError(f"topic '{self.topic_id}': non-contiguous turns")


def _parse_topic(entry: object, position: int, seen: set[str]) -> Topic:
    """The topic of ``entry``; its number, new to ``seen`` (the earlier ones), is added to it."""
    _json_value(entry, dict, f"topic #{position}")
    for required in ("number", "title", "ptkb", "turns"):
        if required not in entry:
            raise ValueError(f"topic #{position}: missing field '{required}'")
    number = entry["number"]
    if type(number) not in (str, int):
        raise ValueError(f"topic #{position}: field 'number' must be a string or an integer, "
                         f"got {number!r}")
    topic_id = str(number)
    if problem := _id_problem("field 'number'", [topic_id]):
        raise ValueError(f"topic #{position}: {problem}")
    if topic_id in seen:
        raise ValueError(f"topic #{position}: duplicate number '{topic_id}'")
    seen.add(topic_id)
    topic = f"topic '{topic_id}'"
    _json_value(entry["title"], str, f"{topic}: field 'title'")
    ptkb = _json_value(entry["ptkb"], dict, f"{topic}: field 'ptkb'")
    if not ptkb:
        raise ValueError(f"{topic}: field 'ptkb' must hold at least one statement")
    by_index = {_ascii_int(key): key for key in ptkb}  # "1" and "01" collide, so fail
    if by_index.keys() != set(range(1, len(ptkb) + 1)):
        raise ValueError(f"{topic}: ptkb keys must be the numbers 1 to {len(ptkb)} "
                         f"in ASCII digits, got {list(ptkb)}")
    statements = tuple(
        _json_value(ptkb[key], str, f"{topic}: ptkb statement '{key}'")
        for _, key in sorted(by_index.items())
    )
    turns = []
    for n, turn_entry in enumerate(_json_value(entry["turns"], list, f"{topic}: field 'turns'"), 1):
        turn_entry = _json_value(turn_entry, dict, f"{topic}: turn #{n}")
        for required in ("turn_number", "utterance"):
            if required not in turn_entry:
                raise ValueError(f"{topic}: turn missing field '{required}'")
        number = _json_value(turn_entry["turn_number"], int, f"{topic}: field 'turn_number'")
        text = {
            name: _json_value(turn_entry[name], str, f"{topic}: turn {number} field '{name}'")
            for name in ("utterance", "response", "manual_rewrite")
            if name in turn_entry
        }
        turns.append(
            Turn(number, text["utterance"], text.get("response", ""), text.get("manual_rewrite"))
        )
    return Topic(topic_id=topic_id, ptkb=statements, turns=tuple(turns))


def parse_topics(source: str | Path | IO[str]) -> list[Topic]:
    """Parse a topics file, preserving order and validating all invariants.

    Raises:
        ValueError: starting ``topics <path>: `` for a path (see ``_text``), for a file
            that is not UTF-8 JSON, or naming the topic (``#N`` by position until its
            number is read) and field: in ``_json_value``'s wording for a value of
            another JSON type or a string with a lone surrogate (the file an array,
            a topic or turn an object, ``number`` a string or an integer, ``ptkb`` an
            object, ``turns`` an array, a turn number an integer, every text a
            string); for missing fields, a ``number`` that is not an identifier (in
            ``_id_problem``'s wording) or repeats, an empty ptkb, ptkb keys that do
            not read as exactly 1 to n in ASCII digits (one message for every case),
            an empty statement, or turn numbering not contiguous from 1.
    """
    with _text(source, "topics") as handle:
        data = _json_value(json.load(handle), list, "top-level value")
        seen: set[str] = set()
        return [_parse_topic(entry, position, seen) for position, entry in enumerate(data, start=1)]


def render_context(topic: Topic, current_turn: int) -> str:
    """Render the history of all turns strictly before ``current_turn``.

    Each prior turn contributes a ``USER:`` line then a ``SYSTEM:`` line
    with its gold response; turn 1 has an empty history.

    Raises:
        ValueError: if ``current_turn`` is outside ``1..len(turns)``.
    """
    if not 1 <= current_turn <= len(topic.turns):
        raise ValueError(
            f"topic '{topic.topic_id}': turn {current_turn} out of range 1..{len(topic.turns)}"
        )
    lines: list[str] = []
    for turn in topic.turns[: current_turn - 1]:
        lines.append(f"USER: {turn.user_utterance}")
        lines.append(f"SYSTEM: {turn.gold_response}")
    return "\n".join(lines)


def ptkb_text(topic: Topic) -> str:
    """Render persona statements as numbered lines ``i. statement``."""
    return "\n".join(f"{i}. {text}" for i, text in enumerate(topic.ptkb, start=1))
