"""LLM gateway: prompt rendering, cached chat completion, output parsing.

Every exchange is cached under a content hash of ``(model_id, prompt)`` in
an append-only directory of human-readable JSON records, one file per key.
Two modes, :data:`LLM_MODES`:

* ``record``  - serve from cache when present, otherwise call the transport
  and store the result; pointed at an empty cache directory, every
  exchange goes to the transport.  Re-running a failed run resumes it.
* ``replay``  - cache only; a missing key raises :class:`CacheMissError`
  and no network traffic occurs.

A transport is any callable ``(model_id, prompt) -> response text``.
Decoding is fixed: :class:`HttpChatTransport` always asks for temperature
0 and sends no other setting, so the cache key covers everything a
request carries.  A cache record is checked against its key when read.
The chat transport and :class:`~convsearch.fusion.RemoteScorer` send
their requests through one JSON POST helper, which waits at most
:data:`TIMEOUT` seconds and reports any failure as a
:class:`TransportError` naming the URL.  The HTTP stack is imported on the
first request, so replay and scripted runs load no network code.

The gateway's task-level operations (query generation, single rewrite,
PTKB classification, grounded answer generation) render the frozen prompt
templates, call :meth:`LLMGateway.complete`, and normalize the raw model
output into queries, binary labels, or an answer with provenance.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .conversation import PTKBStatement
from .index import Passage
from .prompts import TEMPLATES, render_prompt

__all__ = [
    "LLM_MODES",
    "CacheMissError",
    "TransportError",
    "QuerySet",
    "cache_key",
    "LLMCache",
    "LLMGateway",
    "HttpChatTransport",
    "parse_query_lines",
    "normalize_statement",
    "match_ptkb_labels",
]

# transport signature: (model_id, prompt) -> response text
Transport = Callable[[str, str], str]

LLM_MODES = ("record", "replay")

TIMEOUT = 60.0  # seconds one HTTP request may take


class CacheMissError(Exception):
    """Raised in replay mode when the requested cache key is absent."""

    def __init__(self, key: str):
        super().__init__(f"cache miss for key {key}")
        self.key = key


class TransportError(RuntimeError):
    """A failed transport call: it aborts the run, and a re-run in record mode resumes it."""


def _post_json(url: str, payload: object, headers: Mapping[str, str] = {}) -> bytes:
    """POST ``payload`` as JSON to ``url`` and return the reply body.

    Raises:
        TransportError: naming ``url``, when the request fails, its reply is
            cut short, or it outlasts :data:`TIMEOUT` seconds.
    """
    import http.client  # imported here, so replay and scripted runs load no network code
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers},
    )
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT) as response:
            return response.read()
    except (OSError, http.client.HTTPException) as exc:  # URLError and timeouts are OSErrors
        raise TransportError(f"request to {url} failed: {exc}") from exc


@dataclass(frozen=True)
class QuerySet:
    """Generated queries for one turn, at most ``phi`` of them."""

    queries: tuple[str, ...]
    phi: int

    def __post_init__(self) -> None:
        if self.phi < 1:
            raise ValueError("phi must be >= 1")
        if not self.queries:
            raise ValueError("query set must be non-empty")
        if len(self.queries) > self.phi:
            raise ValueError(f"{len(self.queries)} queries exceed phi={self.phi}")
        if any(not q.strip() for q in self.queries):
            raise ValueError("queries must be non-blank")


def cache_key(model_id: str, prompt: str) -> str:
    """Stable content hash of (model_id, prompt), identical across platforms."""
    digest = hashlib.sha256()
    digest.update(model_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class LLMCache:
    """Append-only directory of exchange records, one JSON file per key.

    Writes are atomic (a temp file of its own per write, then a rename) and
    last-writer-wins; identical keys hold identical values by construction,
    so concurrent writers are safe.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> str | None:
        """The cached response for ``key``, or None.

        Raises:
            ValueError: naming the file, for a record that does not parse, lacks
                a field, has a response that is not a string, or whose
                ``model_id`` and ``prompt`` hash to another key.
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            if cache_key(record["model_id"], record["prompt"]) != key:
                raise ValueError("its model_id and prompt belong to another key")
            if not isinstance(record["response"], str):
                raise TypeError(f"its response is {type(record['response']).__name__}, not str")
            return record["response"]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"corrupt cache record {path}: {exc!r}") from exc

    def put(self, key: str, model_id: str, prompt: str, response: str) -> None:
        """Store ``response`` under ``key``, which must be ``cache_key(model_id, prompt)``.

        Raises:
            ValueError: if ``key`` is another key, whose record :meth:`get` would reject.
        """
        if key != cache_key(model_id, prompt):
            raise ValueError(f"cache key {key!r} is not the key of its model_id and prompt")
        record = {"model_id": model_id, "prompt": prompt, "response": response}
        # unique per write, as threads and processes may put one key at once; unlike
        # mkstemp's 0600, open(..., "x") applies the umask, so other users can replay
        tmp = self.directory / f"{key}.{os.urandom(16).hex()}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(json.dumps(record, indent=2, ensure_ascii=False))
            os.replace(tmp, self._path(key))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


class HttpChatTransport:
    """Chat-completion adapter speaking a JSON POST protocol.

    Posts ``{"model", "messages", "temperature": 0.0}`` and reads the first
    choice's message content, the shape used by common completion APIs.
    Every failure raises :class:`TransportError` naming the endpoint: a
    request that fails, or outlasts :data:`TIMEOUT` seconds, and a reply
    that is not such JSON ("malformed completion response").
    """

    def __init__(self, endpoint_url: str, api_key: str | None = None):
        self.endpoint_url = endpoint_url
        self.api_key = api_key

    def __call__(self, model_id: str, prompt: str) -> str:
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        payload = {
            "model": model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
        }
        body = _post_json(self.endpoint_url, payload, headers)
        try:
            content = json.loads(body.decode("utf-8"))["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content {content!r} is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(
                f"malformed completion response: {exc} from {self.endpoint_url}"
            ) from exc
        return content


_ENUMERATION_RE = re.compile(r"^\s*(?:\d+[.)]|[-*•])\s*")


def parse_query_lines(response: str, phi: int) -> list[str]:
    """Split a model response into at most ``phi`` queries.

    Blank lines are dropped and leading enumeration markers ("1.", "-",
    "*") stripped; the remainder is truncated to ``phi`` entries.

    Raises:
        ValueError: "no queries parsed" when nothing survives.
    """
    queries: list[str] = []
    for line in response.splitlines():
        stripped = _ENUMERATION_RE.sub("", line).strip()
        if stripped:
            queries.append(stripped)
    if not queries:
        raise ValueError("no queries parsed")
    return queries[:phi]


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_statement(text: str) -> str:
    """Casefold, strip punctuation, and collapse whitespace."""
    return " ".join(text.casefold().translate(_PUNCT_TABLE).split())


def match_ptkb_labels(statements: Sequence[str], response: str) -> list[int]:
    """Binary label per statement: 1 iff some response line copies it.

    Comparison is exact after normalization.  Response lines that match no
    statement are ignored; the sentinel response "None" yields all zeros.
    """
    response_lines = {normalize_statement(line) for line in response.splitlines()}
    response_lines.discard("")
    return [1 if normalize_statement(s) in response_lines else 0 for s in statements]


class LLMGateway:
    """Cached completion client plus the pipeline's prompt-level operations."""

    def __init__(
        self,
        model_id: str,
        cache_dir: str | Path,
        mode: str = "replay",
        transport: Transport | None = None,
    ):
        if mode not in LLM_MODES:
            raise ValueError(f"unknown llm mode '{mode}'")
        self.model_id = model_id
        self.cache = LLMCache(cache_dir)
        self.mode = mode
        self.transport = transport

    def complete(self, prompt: str) -> str:
        """Return the model response for ``prompt`` per the gateway mode."""
        key = cache_key(self.model_id, prompt)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if self.mode == "replay":
            raise CacheMissError(key)
        if self.transport is None:
            raise TransportError("no transport configured (replay-only gateway)")
        response = self.transport(self.model_id, prompt)
        self.cache.put(key, self.model_id, prompt, response)
        return response

    def generate_queries(
        self,
        ctx: str,
        ptkb: str,
        utterance: str,
        phi: int,
    ) -> QuerySet:
        """Generate up to ``phi`` aspect queries for the current utterance."""
        if phi < 1:
            raise ValueError("phi must be >= 1")
        prompt = render_prompt(
            TEMPLATES["multi_query"],
            {
                "phi": str(phi),
                "ptkb": ptkb,
                "ctx": ctx,
                "user utterance": utterance,
            },
        )
        response = self.complete(prompt)
        return QuerySet(queries=tuple(parse_query_lines(response, phi)), phi=phi)

    def generate_rewrite(
        self,
        ctx: str,
        ptkb: str,
        utterance: str,
    ) -> str:
        """Generate a single self-contained query rewrite: query generation at phi=1."""
        return self.generate_queries(ctx, ptkb, utterance, 1).queries[0]

    def classify_ptkb(
        self,
        ctx: str,
        statements: Sequence[PTKBStatement],
        utterance: str,
    ) -> list[int]:
        """Label each persona statement relevant (1) or not (0) for this turn.

        The classification prompt is rendered verbatim, then the
        conversation and final question are appended so the model (and the
        cache key) see the turn being classified.
        """
        if not statements:
            raise ValueError("classify_ptkb requires at least one statement")
        texts = [s.text for s in statements]
        numbered = "\n".join(f"{i}. {text}" for i, text in enumerate(texts, start=1))
        rendered = render_prompt(TEMPLATES["ptkb_classify"], {"ptkb": numbered})
        prompt = (
            f"{rendered}\n"
            f"# Conversation: {ctx}\n"
            f"# User question: {utterance}"
        )
        response = self.complete(prompt)
        return match_ptkb_labels(texts, response)

    def generate_response(
        self,
        ctx: str,
        ptkb: str,
        utterance: str,
        top_docs: Sequence[Passage],
    ) -> tuple[str, list[str]]:
        """Generate a grounded answer from the top retrieved passages.

        The prompt carries exactly five document slots; when fewer than
        five passages are supplied the last one is repeated to fill the
        remaining slots.  Provenance lists the distinct input doc_ids in
        rank order.

        Raises:
            ValueError: "no provenance available" when ``top_docs`` is empty.
        """
        if not top_docs:
            raise ValueError("no provenance available")
        docs = list(top_docs[:5])
        provenance = [d.doc_id for d in docs]
        while len(docs) < 5:
            docs.append(docs[-1])
        bindings = {
            "ptkb": ptkb,
            "ctx": ctx,
            "user utterance": utterance,
        }
        for slot, doc in enumerate(docs, start=1):
            bindings[f"doc_{slot}"] = doc.text
        prompt = render_prompt(TEMPLATES["rag_answer"], bindings)
        answer = self.complete(prompt)
        return answer, provenance
