"""Conversational topics: ordered turns plus a persona statement list (PTKB).

A topic file is a JSON array of objects with fields ``number`` (topic id),
``title``, ``ptkb`` (object mapping "1", "2", ... to statements) and
``turns`` (list of ``{turn_number, utterance, response}``, optionally with
a ``manual_rewrite`` per turn).  Topics are immutable after parsing and
safe to share across parallel per-turn workers.

Conversation history is rendered as alternating ``USER:`` / ``SYSTEM:``
lines of all turns strictly before the current one; by default the system
side uses the gold responses shipped with the topic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

__all__ = [
    "PTKBStatement",
    "Turn",
    "Topic",
    "parse_topics",
    "serialize_topics",
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


def _parse_topic(entry: dict, position: int) -> Topic:
    for required in ("number", "title", "ptkb", "turns"):
        if required not in entry:
            raise ValueError(f"topic #{position}: missing field '{required}'")
    topic_id = str(entry["number"])
    ptkb_raw: Mapping[str, str] = entry["ptkb"]
    statements = []
    for key in sorted(ptkb_raw, key=lambda k: int(k)):
        statements.append(PTKBStatement(index=int(key), text=str(ptkb_raw[key])))
    turns = []
    for turn_entry in entry["turns"]:
        for required in ("turn_number", "utterance"):
            if required not in turn_entry:
                raise ValueError(
                    f"topic '{topic_id}': turn missing field '{required}'"
                )
        turns.append(
            Turn(
                turn_number=int(turn_entry["turn_number"]),
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
        ValueError: naming the topic and field for missing fields,
            non-contiguous turn numbers, or malformed ptkb indices.
    """
    if isinstance(source, (str, Path)):
        raw = Path(source).read_text(encoding="utf-8")
    else:
        raw = source.read()
    data = json.loads(raw)
    if not isinstance(data, list):
        raise ValueError("topics file must contain a JSON array of topics")
    return [_parse_topic(entry, position) for position, entry in enumerate(data, start=1)]


def serialize_topics(topics: list[Topic]) -> str:
    """Serialize topics back to the JSON format accepted by parse_topics."""
    payload = []
    for topic in topics:
        turns = []
        for turn in topic.turns:
            entry: dict = {
                "turn_number": turn.turn_number,
                "utterance": turn.user_utterance,
                "response": turn.gold_response,
            }
            if turn.manual_rewrite is not None:
                entry["manual_rewrite"] = turn.manual_rewrite
            turns.append(entry)
        payload.append(
            {
                "number": topic.topic_id,
                "title": topic.title,
                "ptkb": {str(s.index): s.text for s in topic.ptkb},
                "turns": turns,
            }
        )
    return json.dumps(payload, indent=2, ensure_ascii=False)


def render_context(
    topic: Topic,
    current_turn: int,
    response_overrides: Mapping[int, str] | None = None,
) -> str:
    """Render the history of all turns strictly before ``current_turn``.

    Each prior turn contributes a ``USER:`` line then a ``SYSTEM:`` line;
    turn 1 has an empty history.
    ``response_overrides`` substitutes generated responses for gold ones
    (keyed by turn number); by default gold responses are used.

    Raises:
        ValueError: if ``current_turn`` is outside ``1..len(turns)``.
    """
    if not 1 <= current_turn <= len(topic.turns):
        raise ValueError(
            f"topic '{topic.topic_id}': turn {current_turn} out of range 1..{len(topic.turns)}"
        )
    lines: list[str] = []
    for turn in topic.turns[: current_turn - 1]:
        response = turn.gold_response
        if response_overrides is not None and turn.turn_number in response_overrides:
            response = response_overrides[turn.turn_number]
        lines.append(f"USER: {turn.user_utterance}")
        lines.append(f"SYSTEM: {response}")
    return "\n".join(lines)


def ptkb_text(topic: Topic) -> str:
    """Render persona statements as numbered lines ``i. statement``."""
    return "\n".join(f"{s.index}. {s.text}" for s in topic.ptkb)
