"""LLM gateway: prompt rendering, cached chat completion, output parsing.

Every exchange is cached under a content hash of ``(model_id, prompt)`` in
an append-only directory of human-readable JSON records, one file per key.
Two modes, :data:`LLM_MODES`; a run records iff it is given a transport
(:func:`~convsearch.pipeline.execute_spec`), and replays otherwise:

* ``record``  - serve from cache when present, otherwise call the transport
  and store a reply once its task has parsed it; pointed at an empty cache
  directory, every exchange goes to the transport.  Re-running a failed run
  resumes it, one failed by a reply with no queries in it too.
* ``replay``  - cache only; a missing key raises :class:`CacheMissError`,
  naming the key, the cache directory and the model id, and no network
  traffic occurs.

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
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .index import Passage, _json_value, _text, _write_text
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
]

# transport signature: (model_id, prompt) -> response text
Transport = Callable[[str, str], str]

LLM_MODES = ("record", "replay")

TIMEOUT = 60.0  # seconds one HTTP request may take


class CacheMissError(Exception):
    """Raised in replay mode when the requested cache key is absent."""


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


def _url_problem(what: str, url: str) -> str | None:
    """None if ``url`` starts with ``http://`` or ``https://`` and names a host, else why not."""
    from urllib.parse import urlsplit  # imported here, as the HTTP stack is

    try:
        host = urlsplit(url).hostname if url.startswith(("http://", "https://")) else None
    except ValueError:  # an unclosed IPv6 bracket
        host = None
    return None if host else f"{what} is not an http(s) URL naming a host: {url!r}"


@dataclass(frozen=True)
class QuerySet:
    """Generated queries for one turn: non-blank, at most the ``phi`` asked for."""

    queries: tuple[str, ...]


def cache_key(model_id: str, prompt: str) -> str:
    """Stable content hash of (model_id, prompt), identical across platforms."""
    digest = hashlib.sha256()
    digest.update(model_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class LLMCache:
    """Append-only directory of exchange records, one JSON file per key.

    A record is read past a BOM and written whole, by the package's one
    reader and one writer of a path; the last writer wins, and identical keys
    hold identical values by construction, so concurrent writers are safe.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> str | None:
        """The cached response for ``key``, or None.

        Raises:
            ValueError: starting ``corrupt cache record <path>: ``, for a record that does
                not parse or is not an object, lacks a field (``missing field 'prompt'``),
                whose ``model_id``, ``prompt`` or ``response`` fails ``_json_value``'s string
                rule, or whose ``model_id`` and ``prompt`` hash to another key.
        """
        path = self._path(key)
        if not path.exists():
            return None
        with _text(path, "corrupt cache record") as handle:
            record = _json_value(json.load(handle), dict, "top-level value")
            for name in ("model_id", "prompt", "response"):
                if name not in record:
                    raise ValueError(f"missing field '{name}'")
                _json_value(record[name], str, f"field '{name}'")
            if cache_key(record["model_id"], record["prompt"]) != key:
                raise ValueError("its model_id and prompt belong to another key")
            return record["response"]

    def put(self, key: str, model_id: str, prompt: str, response: str) -> None:
        """Store ``response`` under ``key``, which must be ``cache_key(model_id, prompt)``.

        Raises:
            ValueError: if ``key`` is another key, whose record :meth:`get` would reject.
        """
        if key != cache_key(model_id, prompt):
            raise ValueError(f"cache key {key!r} is not the key of its model_id and prompt")
        record = {"model_id": model_id, "prompt": prompt, "response": response}
        self.directory.mkdir(parents=True, exist_ok=True)  # here: a replay writes nothing
        _write_text(self._path(key), json.dumps(record, indent=2, ensure_ascii=False))


class HttpChatTransport:
    """Chat-completion adapter speaking a JSON POST protocol.

    Posts ``{"model", "messages", "temperature": 0.0}`` and reads the first
    choice's message content, the shape used by common completion APIs.
    Every failure raises :class:`TransportError` naming the endpoint: a
    request that fails, or outlasts :data:`TIMEOUT` seconds, and a reply
    that is not such JSON or holds a lone surrogate ("malformed completion response"),
    and, when the transport is made, an ``endpoint_url`` that is not an http(s) URL
    naming a host.
    """

    def __init__(self, endpoint_url: str, api_key: str | None = None):
        if problem := _url_problem("endpoint", endpoint_url):
            raise TransportError(problem)
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
            reply = json.loads(body.decode("utf-8"))["choices"][0]["message"]["content"]
            return _json_value(reply, str, "content")  # as a cache record must hold it
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(
                f"malformed completion response: {exc} from {self.endpoint_url}"
            ) from exc


_ENUMERATION_RE = re.compile(r"^\s*(?:\d+[.)](?!\d)|[-*•])\s*")


def _parse_query_lines(response: str, phi: int) -> list[str]:
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


def _normalize_statement(text: str) -> str:
    """Casefold, strip punctuation, and collapse whitespace."""
    return " ".join(text.casefold().translate(_PUNCT_TABLE).split())


def _match_ptkb_labels(statements: Sequence[str], response: str) -> list[int]:
    """Binary label per statement: 1 iff some response line copies it.

    Comparison is exact after normalization.  Response lines that match no
    statement are ignored; the sentinel response "None" yields all zeros.
    """
    response_lines = {_normalize_statement(line) for line in response.splitlines()}
    response_lines.discard("")
    return [1 if _normalize_statement(s) in response_lines else 0 for s in statements]


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

    def complete(self, prompt: str, parse: Callable[[str], Any] = str) -> Any:
        """``parse(response)`` (the response by default) for ``prompt``, per the gateway mode.

        A transport's response is stored once ``parse`` accepts it; a cached one that
        ``parse`` rejects raises ValueError starting ``corrupt cache record <path>: ``.
        """
        key = cache_key(self.model_id, prompt)
        cached = self.cache.get(key)
        if cached is not None:
            try:
                return parse(cached)
            except ValueError as exc:
                raise ValueError(f"corrupt cache record {self.cache._path(key)}: {exc}") from exc
        if self.mode == "replay":
            raise CacheMissError(
                f"cache miss for key {key} in {self.cache.directory} (model_id {self.model_id!r})"
            )
        if self.transport is None:
            raise TransportError("no transport configured (replay-only gateway)")
        response = self.transport(self.model_id, prompt)
        parsed = parse(response)
        self.cache.put(key, self.model_id, prompt, response)
        return parsed

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
        return QuerySet(tuple(self.complete(prompt, lambda reply: _parse_query_lines(reply, phi))))

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
        statements: Sequence[str],
        utterance: str,
    ) -> list[int]:
        """Label each persona statement relevant (1) or not (0) for this turn.

        ``statements`` are the PTKB texts in order, numbered from 1 in the
        prompt.  The classification prompt is rendered verbatim, then the
        conversation and final question are appended so the model (and the
        cache key) see the turn being classified.
        """
        if not statements:
            raise ValueError("classify_ptkb requires at least one statement")
        numbered = "\n".join(f"{i}. {text}" for i, text in enumerate(statements, start=1))
        rendered = render_prompt(TEMPLATES["ptkb_classify"], {"ptkb": numbered})
        prompt = (
            f"{rendered}\n"
            f"# Conversation: {ctx}\n"
            f"# User question: {utterance}"
        )
        response = self.complete(prompt)
        return _match_ptkb_labels(statements, response)

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
