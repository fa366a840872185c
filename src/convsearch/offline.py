"""Deterministic offline stand-in for a chat-completion endpoint.

Real model access is a pluggable seam; tests, demos, and fixture caches
need responses that are reproducible byte for byte.  The scripted
transport inspects the rendered prompt, recognizes which task it belongs
to (query generation, grounded answering, or statement classification),
and produces a plausible response as a pure function of the prompt text.
"""

from __future__ import annotations

import re

__all__ = ["ScriptedTransport"]

_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_BUDGET_RE = re.compile(r"don't generate more than (\d+) queries")
_STATEMENT_RE = re.compile(r"^(\d+)\.\s+(.*)$")

_STOPWORDS = frozenset(
    "a an and are as at be but by for from how i in is it my of on or that the "
    "this to was we what when which who will with you your".split()
)


def _content_words(text: str) -> list[str]:
    seen: list[str] = []
    for word in _WORD_RE.findall(text.lower()):
        if len(word) < 3 or word.isdigit():
            continue
        if word not in _STOPWORDS and word not in seen:
            seen.append(word)
    return seen


def _field(prompt: str, label: str, end: str = "\n") -> str:
    """The text after ``label: `` in the prompt, up to ``end`` (the line's end by default)."""
    marker = f"{label}: "
    start = prompt.find(marker)
    if start < 0:
        return ""
    start += len(marker)
    stop = prompt.find(end, start)
    return prompt[start:] if stop < 0 else prompt[start:stop]


def _query_generation(prompt: str) -> str:
    budget_match = _BUDGET_RE.search(prompt)
    budget = int(budget_match.group(1)) if budget_match else 1
    utterance = _field(prompt, "# User question")
    ptkb_words = _content_words(_field(prompt, "# Background knowledge", "\n# Context:"))
    queries = [utterance.strip() or "information request"]
    for word in ptkb_words:
        if len(queries) >= budget:
            break
        if word in queries[0].lower():
            continue
        queries.append(f"{queries[0]} {word}")
    return "\n".join(f"{i}. {q}" for i, q in enumerate(queries[:budget], start=1))


def _grounded_answer(prompt: str) -> str:
    utterance = _field(prompt, "# User query")
    doc_words = _content_words(_field(prompt, "# Doc1"))[:12]
    summary = " ".join(doc_words) if doc_words else "the retrieved material"
    return (
        f"Regarding \"{utterance.strip()}\": the most relevant passage covers "
        f"{summary}. The remaining retrieved passages add supporting detail."
    )


def _classification(prompt: str) -> str:
    question_words = set(_content_words(_field(prompt, "# User question")))
    copied: list[str] = []
    in_ptkb = False
    for line in prompt.splitlines():
        header = line.startswith("Here is the background information about the user:")
        if header:  # the statements start on the header line, after its colon
            in_ptkb, line = True, line.split(":", 1)[1].strip()
        elif not in_ptkb:
            continue
        match = _STATEMENT_RE.match(line)
        if match is None:
            in_ptkb = header  # the statements end at the first other line after the header
            continue
        if set(_content_words(match.group(2))) & question_words:
            copied.append(match.group(2))
    return "\n".join(copied) if copied else "None"


class ScriptedTransport:
    """A chat transport whose reply to each of the three prompt shapes is a pure function of it."""

    def __call__(self, model_id: str, prompt: str) -> str:
        if "# Generated queries:" in prompt:
            return _query_generation(prompt)
        if prompt.startswith("# Doc1:"):
            return _grounded_answer(prompt)
        return _classification(prompt)
