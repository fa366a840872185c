"""Conversational topics: ordered turns plus a persona statement list (PTKB).

A topic file is a JSON array of objects with fields ``number`` (topic id),
``title``, ``ptkb`` (object mapping "1", "2", ... to statements) and
``turns`` (list of ``{turn_number, utterance, response}``, optionally with
a ``manual_rewrite`` per turn).  Topics are immutable after parsing and
safe to share across parallel per-turn workers.

Conversation history is rendered as alternating ``USER:`` / ``SYSTEM:``
lines of all turns strictly before the current one; the system side is
always the gold response shipped with the topic, so every turn's history
is known before any turn runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

from .index import _text

__all__ = [
    "PTKBStatement",
    "Turn",
    "Topic",
    "parse_topics",
    "render_context",
    "ptkb_text",
]


@dataclass(frozen=True)
class PTKBStatement:
    """One persona statement, 1-indexed within its topic."""

    index: int
    text: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("ptkb statement index must be >= 1")
        if not self.text:
            raise ValueError("ptkb statement text must be non-empty")


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
    """A conversation topic: id, title, persona statements, ordered turns."""

    topic_id: str
    title: str
    ptkb: tuple[PTKBStatement, ...] = ()
    turns: tuple[Turn, ...] = ()

    def __post_init__(self) -> None:
        if not self.turns:
            raise ValueError(f"topic '{self.topic_id}': turns must be non-empty")
        for position, statement in enumerate(self.ptkb, start=1):
            if statement.index != position:
                raise ValueError(
                    f"topic '{self.topic_id}': ptkb indices must be contiguous from 1"
                )
        for position, turn in enumerate(self.turns, start=1):
            if turn.turn_number != position:
                raise ValueError(f"topic '{self.topic_id}': non-contiguous turns")


def _integer(value: object, topic_id: str, field: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        message = f"topic '{topic_id}': {field} must be an integer, got {value!r}"
        raise ValueError(message) from None


def _parse_topic(entry: dict, position: int) -> Topic:
    for required in ("number", "title", "ptkb", "turns"):
        if required not in entry:
            raise ValueError(f"topic #{position}: missing field '{required}'")
    topic_id = str(entry["number"])
    ptkb_raw = entry["ptkb"]
    if not isinstance(ptkb_raw, Mapping):
        raise ValueError(
            f"topic '{topic_id}': field 'ptkb' must be an object, got {type(ptkb_raw).__name__}"
        )
    indexed = [(_integer(key, topic_id, "ptkb key"), str(text)) for key, text in ptkb_raw.items()]
    statements = [PTKBStatement(i, text) for i, text in sorted(indexed, key=lambda pair: pair[0])]
    turns = []
    for turn_entry in entry["turns"]:
        for required in ("turn_number", "utterance"):
            if required not in turn_entry:
                raise ValueError(
                    f"topic '{topic_id}': turn missing field '{required}'"
                )
        turns.append(
            Turn(
                turn_number=_integer(turn_entry["turn_number"], topic_id, "field 'turn_number'"),
                user_utterance=str(turn_entry["utterance"]),
                gold_response=str(turn_entry.get("response", "")),
                manual_rewrite=(
                    str(turn_entry["manual_rewrite"])
                    if "manual_rewrite" in turn_entry
                    else None
                ),
            )
        )
    return Topic(topic_id=topic_id, title=str(entry["title"]), ptkb=tuple(statements), turns=tuple(turns))


def parse_topics(source: str | Path | IO[str]) -> list[Topic]:
    """Parse a topics file, preserving order and validating all invariants.

    Raises:
        ValueError: naming the topic and field for missing fields, a ptkb
            that is not an object, a ptkb key or turn number that is not an
            integer, or numbering that is not contiguous from 1.
    """
    with _text(source) as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ValueError("topics file must contain a JSON array of topics")
    return [_parse_topic(entry, position) for position, entry in enumerate(data, start=1)]


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
    return "\n".join(f"{s.index}. {s.text}" for s in topic.ptkb)
