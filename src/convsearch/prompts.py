"""Zero-shot prompt templates and placeholder substitution.

Three prompt bodies cover the pipeline's LLM tasks: multi-aspect query
generation, retrieval-augmented answer generation, and persona-statement
(PTKB) relevance classification.  A single query rewrite is query
generation with the query budget ``{phi}`` bound to 1.

Placeholders use ``{name}`` syntax with names drawn from a fixed allowed
set; substitution is exact and leaves no residual braces.  The bodies are
frozen verbatim, so downstream caches and golden tests stay stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "PromptTemplate",
    "TEMPLATES",
    "ALLOWED_PLACEHOLDERS",
    "render_prompt",
]

ALLOWED_PLACEHOLDERS = frozenset(
    {"ptkb", "ctx", "user utterance", "phi", "doc_1", "doc_2", "doc_3", "doc_4", "doc_5"}
)

_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")

MULTI_QUERY_BODY = (
    "# Instruction: I will give you a conversation between a user and a system. "
    "Imagine you want to find the answer to the last user question by searching on Google. "
    "You should generate the search queries that you need to search on Google. "
    "Please don't generate more than {phi} queries and write each query on one line.\n"
    "# Background knowledge: {ptkb}\n"
    "# Context: {ctx}\n"
    "# User question: {user utterance}\n"
    "# Generated queries:"
)

RAG_ANSWER_BODY = (
    "# Doc1: {doc_1}\n"
    "# Doc2: {doc_2}\n"
    "# Doc3: {doc_3}\n"
    "# Doc4: {doc_4}\n"
    "# Doc5: {doc_5}\n"
    "# I will give you a conversation between a user and a system. "
    "Also, I will give you some background information about the user. "
    "You should answer the last utterance of the user by providing a summary "
    "of the relevant parts of the given documents. "
    "Please remember that your answer shouldn't be more than 200 words.\n"
    "# Background information about the user: {ptkb}\n"
    "# Conversation: {ctx}\n"
    "# User query: {user utterance}"
)

PTKB_CLASSIFY_BODY = (
    "I will give you some background information about a user and a conversation "
    "between the user and a system. You should tell me which of the background "
    "information is relevant for answering the last question of the user.\n"
    "Here is the background information about the user: {ptkb}\n"
    "Please just copy the relevant background information to the last user utterance."
)


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt body whose placeholders come from the allowed set."""

    name: str
    body: str

    def __post_init__(self) -> None:
        if self.name not in ("multi_query", "rag_answer", "ptkb_classify"):
            raise ValueError(f"unknown template name '{self.name}'")
        for placeholder in self.placeholders():
            if placeholder not in ALLOWED_PLACEHOLDERS:
                raise ValueError(f"placeholder '{placeholder}' not in allowed set")

    def placeholders(self) -> list[str]:
        """Placeholder names in order of first appearance."""
        seen: list[str] = []
        for match in _PLACEHOLDER_RE.finditer(self.body):
            if match.group(1) not in seen:
                seen.append(match.group(1))
        return seen


TEMPLATES: dict[str, PromptTemplate] = {
    "multi_query": PromptTemplate("multi_query", MULTI_QUERY_BODY),
    "rag_answer": PromptTemplate("rag_answer", RAG_ANSWER_BODY),
    "ptkb_classify": PromptTemplate("ptkb_classify", PTKB_CLASSIFY_BODY),
}


def render_prompt(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Substitute every placeholder in ``template.body``.

    Raises:
        ValueError: "unbound placeholder <name>" when a placeholder has no
            binding.  Extra bindings are ignored.
    """
    required = template.placeholders()
    for placeholder in required:
        if placeholder not in bindings:
            raise ValueError(f"unbound placeholder {placeholder}")

    def substitute(match: re.Match[str]) -> str:
        return str(bindings[match.group(1)])

    return _PLACEHOLDER_RE.sub(substitute, template.body)
