"""Zero-shot prompt templates and placeholder substitution.

Three prompt bodies cover the pipeline's LLM tasks: multi-aspect query
generation, retrieval-augmented answer generation, and persona-statement
(PTKB) relevance classification.  A single query rewrite is query
generation with the query budget ``{phi}`` bound to 1.

A template is a plain string with ``{name}`` placeholders; substitution
is exact and leaves no residual braces.  The bodies are frozen verbatim,
so downstream caches and golden tests stay stable.
"""

from __future__ import annotations

import re
from typing import Mapping

__all__ = ["TEMPLATES", "render_prompt"]

_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")

TEMPLATES: dict[str, str] = {
    "multi_query": (
        "# Instruction: I will give you a conversation between a user and a system. "
        "Imagine you want to find the answer to the last user question by searching on Google. "
        "You should generate the search queries that you need to search on Google. "
        "Please don't generate more than {phi} queries and write each query on one line.\n"
        "# Background knowledge: {ptkb}\n"
        "# Context: {ctx}\n"
        "# User question: {user utterance}\n"
        "# Generated queries:"
    ),
    "rag_answer": (
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
    ),
    "ptkb_classify": (
        "I will give you some background information about a user and a conversation "
        "between the user and a system. You should tell me which of the background "
        "information is relevant for answering the last question of the user.\n"
        "Here is the background information about the user: {ptkb}\n"
        "Please just copy the relevant background information to the last user utterance."
    ),
}


def render_prompt(template: str, bindings: Mapping[str, str]) -> str:
    """Substitute every ``{name}`` placeholder in ``template``.

    Raises:
        ValueError: "unbound placeholder <name>" at the first placeholder
            with no binding.  Extra bindings are ignored.
    """

    def substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in bindings:
            raise ValueError(f"unbound placeholder {name}")
        return str(bindings[name])

    return _PLACEHOLDER_RE.sub(substitute, template)
