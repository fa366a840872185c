"""LLM gateway: prompt rendering, cached chat completion, output parsing.

Every exchange is cached under a content hash of ``(model_id, prompt)`` in
an append-only directory of human-readable JSON records, one file per key.
Three modes:

* ``record``  - serve from cache when present, otherwise call the transport
  and store the result.
* ``replay``  - cache only; a missing key raises :class:`CacheMissError`
  and no network traffic occurs.
* ``live``    - always call the transport; results are still stored.

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
import threading
import time
import urllib.error
import urllib.request
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .conversation import PTKBStatement
from .index import Passage
from .prompts import TEMPLATES, render_prompt

__all__ = [
    "CacheMissError",
    "TransportError",
    "DecodingConfig",
    "QuerySet",
    "cache_key",
    "LLMCache",
    "LLMGateway",
    "HttpChatTransport",
    "parse_query_lines",
    "normalize_statement",
    "match_ptkb_labels",
]

# transport signature: (model_id, prompt, decoding) -> response text
Transport = Callable[[str, str, "DecodingConfig"], str]


class CacheMissError(Exception):
    """Raised in replay mode when the requested cache key is absent."""

    def __init__(self, key: str):
        super().__init__(f"cache miss for key {key}")
        self.key = key


class TransportError(Exception):
    """A retriable transport failure, distinct from a replay cache miss."""


@dataclass(frozen=True)
class DecodingConfig:
    """Decoding parameters sent to the completion endpoint.

    Deterministic by default (temperature 0).  Not part of the cache key.
    """

    temperature: float = 0.0
    max_tokens: int | None = None


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
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))["response"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt cache record {path}: {exc!r}") from exc

    def put(self, key: str, model_id: str, prompt: str, response: str) -> None:
        record = {"model_id": model_id, "prompt": prompt, "response": response}
        # unique per write, as threads and processes may put one key at once; unlike
        # mkstemp's 0600, open(..., "x") applies the umask, so other users can replay
        tmp = self.directory / f"{key}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(json.dumps(record, indent=2, ensure_ascii=False))
            os.replace(tmp, self._path(key))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


class HttpChatTransport:
    """Chat-completion adapter speaking a JSON POST protocol.

    Posts ``{"model", "messages", "temperature"}`` and reads the first
    choice's message content, the shape used by common completion APIs.
    ``max_requests_per_second`` is an optional client-side rate ceiling.
    """

    def __init__(
        self,
        endpoint_url: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_requests_per_second: float | None = None,
    ):
        self.endpoint_url = endpoint_url
        self.api_key = api_key
        self.timeout = timeout
        self.max_requests_per_second = max_requests_per_second
        self._next_slot = 0.0
        self._slot_lock = threading.Lock()

    def build_payload(self, model_id: str, prompt: str, decoding: DecodingConfig) -> dict:
        payload: dict = {
            "model": model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": decoding.temperature,
        }
        if decoding.max_tokens is not None:
            payload["max_tokens"] = decoding.max_tokens
        return payload

    @staticmethod
    def parse_response(body: bytes) -> str:
        try:
            data = json.loads(body.decode("utf-8"))
            return data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc

    def _throttle(self) -> None:
        """Reserve the next request slot under the lock; sleep until it without the lock."""
        if self.max_requests_per_second is None:
            return
        with self._slot_lock:
            now = time.monotonic()
            slot = max(now, self._next_slot)
            self._next_slot = slot + 1.0 / self.max_requests_per_second
        if slot > now:
            time.sleep(slot - now)

    def __call__(self, model_id: str, prompt: str, decoding: DecodingConfig) -> str:
        self._throttle()
        body = json.dumps(self.build_payload(model_id, prompt, decoding)).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.endpoint_url, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return self.parse_response(response.read())
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"completion request failed: {exc}") from exc


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
        decoding: DecodingConfig = DecodingConfig(),
    ):
        if mode not in ("record", "replay", "live"):
            raise ValueError(f"unknown llm mode '{mode}'")
        self.model_id = model_id
        self.cache = LLMCache(cache_dir)
        self.mode = mode
        self.transport = transport
        self.decoding = decoding

    def _call_transport(self, prompt: str) -> str:
        if self.transport is None:
            raise TransportError("no transport configured (replay-only gateway)")
        return self.transport(self.model_id, prompt, self.decoding)

    def complete(self, prompt: str) -> str:
        """Return the model response for ``prompt`` per the gateway mode."""
        key = cache_key(self.model_id, prompt)
        if self.mode != "live":
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            if self.mode == "replay":
                raise CacheMissError(key)
        response = self._call_transport(prompt)
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
        statements: Sequence[PTKBStatement] | Sequence[str],
        utterance: str,
    ) -> list[int]:
        """Label each persona statement relevant (1) or not (0) for this turn.

        The classification prompt is rendered verbatim, then the
        conversation and final question are appended so the model (and the
        cache key) see the turn being classified.
        """
        if not statements:
            raise ValueError("classify_ptkb requires at least one statement")
        texts = [s.text if isinstance(s, PTKBStatement) else str(s) for s in statements]
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
