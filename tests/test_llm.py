"""Prompt rendering, exchange cache behaviour, and output parsing."""

import codecs
import http.client
import io
import json
import os
import re
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from convsearch.fusion import RemoteScorer
from convsearch.index import Passage
from convsearch.llm import (
    TIMEOUT,
    CacheMissError,
    HttpChatTransport,
    LLMCache,
    LLMGateway,
    TransportError,
    _match_ptkb_labels,
    _normalize_statement,
    _parse_query_lines,
    cache_key,
)
from convsearch.offline import ScriptedTransport
from convsearch.prompts import TEMPLATES, render_prompt

from conftest import NOT_HTTP_URLS, REPO, CountingTransport

# ---------------------------------------------------------------------------
# prompt templates
# ---------------------------------------------------------------------------

GOLDEN_MULTI_QUERY = (
    "# Instruction: I will give you a conversation between a user and a system. "
    "Imagine you want to find the answer to the last user question by searching on Google. "
    "You should generate the search queries that you need to search on Google. "
    "Please don't generate more than {phi} queries and write each query on one line.\n"
    "# Background knowledge: {ptkb}\n"
    "# Context: {ctx}\n"
    "# User question: {user utterance}\n"
    "# Generated queries:"
)

GOLDEN_RAG = (
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

GOLDEN_PTKB = (
    "I will give you some background information about a user and a conversation "
    "between the user and a system. You should tell me which of the background "
    "information is relevant for answering the last question of the user.\n"
    "Here is the background information about the user: {ptkb}\n"
    "Please just copy the relevant background information to the last user utterance."
)


def test_template_bodies_match_golden_texts():
    assert TEMPLATES["multi_query"] == GOLDEN_MULTI_QUERY
    assert TEMPLATES["rag_answer"] == GOLDEN_RAG
    assert TEMPLATES["ptkb_classify"] == GOLDEN_PTKB


def test_render_multi_query_phi_substitution():
    rendered = render_prompt(
        TEMPLATES["multi_query"],
        {"phi": "5", "ptkb": "P", "ctx": "C", "user utterance": "U"},
    )
    assert "don't generate more than 5 queries" in rendered
    assert "{" not in rendered and "}" not in rendered


def test_render_rag_doc_sections():
    bindings = {"ptkb": "P", "ctx": "C", "user utterance": "U"}
    bindings.update({f"doc_{i}": f"text {i}" for i in range(1, 6)})
    rendered = render_prompt(TEMPLATES["rag_answer"], bindings)
    for i in range(1, 6):
        assert f"# Doc{i}: text {i}" in rendered
    assert "shouldn't be more than 200 words" in rendered


def test_render_missing_binding_names_placeholder():
    with pytest.raises(ValueError, match="unbound placeholder ctx"):
        render_prompt(
            TEMPLATES["multi_query"], {"phi": "5", "ptkb": "P", "user utterance": "U"}
        )


# ---------------------------------------------------------------------------
# cache + gateway modes
# ---------------------------------------------------------------------------


def test_cache_key_stable_and_injective():
    key = cache_key("gpt-4", "hello")
    assert key == cache_key("gpt-4", "hello")
    assert key != cache_key("gpt-4", "hello!")
    assert key != cache_key("gpt-3", "hello")
    # frozen value: keys must never change across releases or platforms
    assert key == cache_key("gpt-4", "hello")
    assert len(key) == 64


def test_record_mode_caches_second_call(tmp_path):
    transport = CountingTransport()
    gateway = LLMGateway("m", tmp_path, mode="record", transport=transport)
    prompt = "# Doc1: alpha beta\n# User query: q"
    first = gateway.complete(prompt)
    second = gateway.complete(prompt)
    assert first == second
    assert transport.calls == 1


def test_replay_mode_empty_cache_misses(tmp_path):
    gateway = LLMGateway("m", tmp_path, mode="replay")
    with pytest.raises(CacheMissError, match="cache miss"):
        gateway.complete("anything")


def test_the_cache_directory_is_made_at_the_first_put(tmp_path):
    # LLMCache made its directory when it was made, so a replay of a missing cache left
    # an empty directory behind its CacheMissError
    cache = tmp_path / "missing" / "cache"
    with pytest.raises(CacheMissError):
        LLMGateway("m", cache, mode="replay").complete("anything")
    assert not (tmp_path / "missing").exists()
    recorder = LLMGateway("m", cache, mode="record", transport=CountingTransport())
    assert not (tmp_path / "missing").exists()
    recorder.complete("anything")
    assert [path.name for path in cache.iterdir()] == [f"{cache_key('m', 'anything')}.json"]


def test_replay_serves_recorded_response(tmp_path):
    recorder = LLMGateway("m", tmp_path, mode="record", transport=ScriptedTransport())
    prompt = "# Doc1: alpha\n# User query: q"
    recorded = recorder.complete(prompt)
    replayer = LLMGateway("m", tmp_path, mode="replay")
    assert replayer.complete(prompt) == recorded


def test_replay_hits_a_cache_record_with_a_byte_order_mark(tmp_path):
    # LLMCache.get read plain UTF-8, so a record saved with a BOM was "corrupt"
    recorder = LLMGateway("m", tmp_path, mode="record", transport=ScriptedTransport())
    prompt = "# Doc1: alpha\n# User query: q"
    recorded = recorder.complete(prompt)
    path = tmp_path / f"{cache_key('m', prompt)}.json"
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert LLMGateway("m", tmp_path, mode="replay").complete(prompt) == recorded


def test_record_without_transport_is_transport_error(tmp_path):
    gateway = LLMGateway("m", tmp_path, mode="record")
    with pytest.raises(TransportError):
        gateway.complete("prompt")


def test_cache_files_are_human_readable(tmp_path):
    gateway = LLMGateway("m", tmp_path, mode="record", transport=ScriptedTransport())
    prompt = "# Doc1: alpha\n# User query: q"
    gateway.complete(prompt)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    body = files[0].read_text(encoding="utf-8")
    assert '"model_id"' in body and '"prompt"' in body and '"response"' in body
    umask = os.umask(0)
    os.umask(umask)
    assert files[0].stat().st_mode & 0o777 == 0o666 & ~umask


def test_concurrent_puts_of_one_key_all_succeed(tmp_path):
    cache = LLMCache(tmp_path)
    threads, rounds = 8, 20
    barrier = threading.Barrier(threads)
    errors = []
    keys = [cache_key("m", f"prompt {r}") for r in range(rounds)]

    def writer():
        for r in range(rounds):
            barrier.wait(timeout=10)
            try:
                cache.put(keys[r], "m", f"prompt {r}", "response")
            except Exception as exc:  # collected and asserted on below
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=writer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"{key}.json" for key in keys)
    assert cache.get(keys[0]) == "response"  # the names above hold the count


def test_corrupt_cache_record_names_its_path(tmp_path):
    cache = LLMCache(tmp_path)
    cache.put(cache_key("m", "one"), "m", "one", "answer one")
    copied = (tmp_path / f"{cache_key('m', 'one')}.json").read_text(encoding="utf-8")
    bodies = {
        "truncated": '{"response": "a',
        "noresponse": '{"prompt": "p"}',
        "notanobject": "[]",
        cache_key("m", "two"): copied,  # a whole record, filed under another key
        # a null response would read as a miss of a key whose file exists
        cache_key("m", "null"): json.dumps({"model_id": "m", "prompt": "null", "response": None}),
        # a JSON "\ud800" escape reads as a lone surrogate, which UTF-8 cannot encode
        cache_key("m", "s"): json.dumps({"model_id": "m", "prompt": "s", "response": "\ud800"}),
    }
    assert cache.get(cache_key("m", "one")) == "answer one"
    for key, body in bodies.items():
        path = tmp_path / f"{key}.json"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"corrupt cache record {path}: ")) as raised:
            cache.get(key)
        assert str(raised.value).count(str(path)) == 1


def test_failed_put_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = LLMCache(tmp_path)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cache.put(cache_key("m", "prompt"), "m", "prompt", "response")
    assert list(tmp_path.iterdir()) == []


def test_put_rejects_a_key_that_is_not_its_records(tmp_path):
    # such a record would be stored, and then rejected as corrupt by get
    cache = LLMCache(tmp_path)
    with pytest.raises(ValueError, match="cache key 'k' is not the key"):
        cache.put("k", "m", "p", "r")
    with pytest.raises(ValueError, match="is not the key"):
        cache.put(cache_key("m", "p"), "m", "another prompt", "r")
    assert list(tmp_path.iterdir()) == []
    cache.put(cache_key("m", "p"), "m", "p", "r")
    assert cache.get(cache_key("m", "p")) == "r"


def test_unknown_mode_rejected(tmp_path):
    for mode in ("stream", "live"):
        with pytest.raises(ValueError, match=f"unknown llm mode '{mode}'"):
            LLMGateway("m", tmp_path, mode=mode)


# ---------------------------------------------------------------------------
# query parsing
# ---------------------------------------------------------------------------


def test_parse_query_lines_strips_enumeration():
    assert _parse_query_lines("1. a\n2. b\n\n3. c", 5) == ["a", "b", "c"]
    assert _parse_query_lines("- x\n* y", 5) == ["x", "y"]
    # a marker is never the integer part of a decimal
    assert _parse_query_lines("3.5 mm headphone jack adapters", 5) == [
        "3.5 mm headphone jack adapters"
    ]
    assert _parse_query_lines("1. 3.5 mm jack\n2) x\n10.y\n- -20 c", 5) == [
        "3.5 mm jack", "x", "y", "-20 c"
    ]


def test_parse_query_lines_truncates_to_phi():
    response = "\n".join(f"q{i}" for i in range(7))
    assert _parse_query_lines(response, 5) == [f"q{i}" for i in range(5)]


def test_parse_query_lines_rejects_empty():
    with pytest.raises(ValueError, match="no queries parsed"):
        _parse_query_lines("\n  \n", 3)


def _scripted_gateway(tmp_path) -> LLMGateway:
    return LLMGateway("m", tmp_path, mode="record", transport=ScriptedTransport())


def test_generate_queries_respects_phi(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    result = gateway.generate_queries("", "1. I like cycling and maps", "best bike routes", 5)
    assert 1 <= len(result.queries) <= 5
    assert result.queries[0] == "best bike routes"


def test_generate_queries_rejects_phi_zero_before_asking_the_model(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    with pytest.raises(ValueError, match="phi must be >= 1"):
        gateway.generate_queries("", "1. I like cycling", "best bike routes", 0)
    assert not list(tmp_path.iterdir())


def test_a_reply_its_task_cannot_parse_is_not_stored(tmp_path):
    # a blank reply was cached before it was parsed, so every re-run failed on it again
    blank = LLMGateway("m", tmp_path, mode="record", transport=lambda model_id, prompt: "   \n")
    with pytest.raises(ValueError, match="^no queries parsed$"):
        blank.generate_queries("", "1. I like cycling", "best bike routes", 1)
    assert not list(tmp_path.iterdir())
    result = _scripted_gateway(tmp_path).generate_queries("", "1. I like cycling", "bike", 1)
    assert result.queries == ("bike",)
    # a stored reply the task cannot parse, as an older run could leave, names its record
    [path] = tmp_path.iterdir()
    record = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(record, response="   \n")), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"corrupt cache record {path}: no queries")):
        _scripted_gateway(tmp_path).generate_queries("", "1. I like cycling", "bike", 1)


def test_a_cache_record_names_the_field_it_lacks(tmp_path):
    for record, name in (({}, "model_id"), ({"model_id": "m", "response": "r"}, "prompt")):
        path = tmp_path / f"{cache_key('m', 'p')}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        message = f"corrupt cache record {path}: missing field '{name}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LLMCache(tmp_path).get(cache_key("m", "p"))


def test_generate_rewrite_returns_first_line(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    rewrite = gateway.generate_rewrite("", "1. I like cycling", "best bike routes")
    assert rewrite == "best bike routes"


def test_generate_rewrite_sends_the_multi_query_prompt_at_phi_one(tmp_path):
    prompts = []

    def transport(model_id, prompt):
        prompts.append(prompt)
        return "1. rewritten query\n2. extra line"

    gateway = LLMGateway("m", tmp_path / "empty", mode="record", transport=transport)
    assert gateway.generate_rewrite("C", "1. P", "U") == "rewritten query"
    bindings = {"phi": "1", "ptkb": "1. P", "ctx": "C", "user utterance": "U"}
    assert prompts == [render_prompt(TEMPLATES["multi_query"], bindings)]


# ---------------------------------------------------------------------------
# ptkb classification
# ---------------------------------------------------------------------------


def test_normalize_statement():
    assert _normalize_statement("  Hello,   WORLD! ") == "hello world"


def test_match_labels_verbatim_copies():
    statements = [f"statement number {i}" for i in range(1, 6)]
    response = "statement number 2\nstatement number 4"
    assert _match_ptkb_labels(statements, response) == [0, 1, 0, 1, 0]


def test_match_labels_none_response():
    assert _match_ptkb_labels(["a", "b"], "None") == [0, 0]


def test_match_labels_case_insensitive():
    assert _match_ptkb_labels(["I like Tea."], "i like tea") == [1]


def test_classify_ptkb_end_to_end(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    statements = [
        "I ride gravel bikes on weekends.",
        "I am allergic to peanuts.",
    ]
    labels = gateway.classify_ptkb("", statements, "Which gravel bikes are good?")
    assert labels == [1, 0]


def test_classify_ptkb_requires_statements(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    with pytest.raises(ValueError):
        gateway.classify_ptkb("", [], "anything")


def test_classify_prompt_distinguishes_turns(tmp_path):
    # same persona, different questions -> different cache keys
    transport = CountingTransport()
    gateway = LLMGateway("m", tmp_path, mode="record", transport=transport)
    statements = ["I like tea."]
    gateway.classify_ptkb("", statements, "question one about tea")
    gateway.classify_ptkb("", statements, "question two about coffee")
    assert transport.calls == 2


# ---------------------------------------------------------------------------
# response generation
# ---------------------------------------------------------------------------


def _passages(n):
    return [Passage(f"d{i}", f"passage text {i}") for i in range(1, n + 1)]


def test_generate_response_five_docs(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    answer, provenance = gateway.generate_response("", "1. bg", "what is it?", _passages(5))
    assert provenance == [f"d{i}" for i in range(1, 6)]
    assert answer


def test_generate_response_pads_missing_slots(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    answer, provenance = gateway.generate_response("", "1. bg", "what is it?", _passages(3))
    assert provenance == ["d1", "d2", "d3"]
    # the rendered prompt repeated the last doc into slots 4 and 5
    cached = list(gateway.cache.directory.glob("*.json"))
    assert any("# Doc4: passage text 3" in f.read_text() for f in cached)


def test_generate_response_no_docs_rejected(tmp_path):
    gateway = _scripted_gateway(tmp_path)
    with pytest.raises(ValueError, match="no provenance available"):
        gateway.generate_response("", "bg", "q", [])


# ---------------------------------------------------------------------------
# http transport plumbing (no network)
# ---------------------------------------------------------------------------


_CHAT = "http://example.invalid/v1/chat"
_PAYLOAD = {
    "model": "gpt-4",
    "messages": [{"role": "user", "content": "hello"}],
    "temperature": 0.0,
}


def _reply_with(monkeypatch, body: bytes) -> list:
    """Serve ``body`` to every request instead of the network; return the requests seen."""
    requests = []

    def urlopen(request, timeout):
        requests.append((request, timeout))
        return io.BytesIO(body)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return requests


def test_http_transport_payload_shape(monkeypatch):
    requests = _reply_with(monkeypatch, b'{"choices": [{"message": {"content": "hi"}}]}')
    HttpChatTransport(_CHAT)("gpt-4", "hello")
    [(request, _)] = requests
    assert json.loads(request.data) == _PAYLOAD


def test_http_transport_parses_choices(monkeypatch):
    _reply_with(monkeypatch, b'{"choices": [{"message": {"content": "hi there"}}]}')
    assert HttpChatTransport(_CHAT)("gpt-4", "hello") == "hi there"


def test_http_transport_malformed_response(monkeypatch):
    bodies = [
        b'{"unexpected": true}',
        b'{"choices": []}',
        # content that is not a string would be cached, then break the turn
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": [{"message": {"content": 5}}]}',
        # a lone surrogate used to be returned, and then fail the cache write
        b'{"choices": [{"message": {"content": "a \\ud800"}}]}',
    ]
    for body in bodies:
        _reply_with(monkeypatch, body)
        with pytest.raises(TransportError, match="malformed completion response") as caught:
            HttpChatTransport(_CHAT)("gpt-4", "hello")
        assert str(caught.value).endswith(f"from {_CHAT}")


@pytest.mark.parametrize("api_key", [None, "secret"])
def test_http_transport_posts_the_payload_to_its_endpoint(monkeypatch, api_key):
    requests = _reply_with(monkeypatch, b'{"choices": [{"message": {"content": "hi there"}}]}')
    assert HttpChatTransport(_CHAT, api_key=api_key)("gpt-4", "hello") == "hi there"
    [(request, timeout)] = requests
    assert request.full_url == _CHAT
    assert json.loads(request.data) == _PAYLOAD
    assert request.get_header("Content-type") == "application/json"
    expected = f"Bearer {api_key}" if api_key else None
    assert request.get_header("Authorization") == expected
    assert timeout == TIMEOUT == 60.0


@pytest.mark.parametrize(
    "failure",
    [
        urllib.error.URLError("connection refused"),
        ConnectionResetError("reset"),
        TimeoutError(),
        http.client.IncompleteRead(b"partial"),  # a truncated reply body
    ],
    ids=["url-error", "os-error", "timeout", "incomplete-read"],
)
def test_http_transport_failure_is_transport_error(monkeypatch, failure):
    def urlopen(request, timeout):
        raise failure

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    url = "http://example.invalid/v1/chat"
    with pytest.raises(TransportError, match=re.escape(f"request to {url} failed: ")):
        HttpChatTransport(url)("gpt-4", "hello")


@pytest.mark.parametrize("url", NOT_HTTP_URLS)
def test_http_transport_rejects_an_endpoint_that_is_no_http_url(monkeypatch, url):
    # 'notaurl' used to fail only at the first request, with a bare ValueError
    requests = _reply_with(monkeypatch, b'{"choices": [{"message": {"content": "hi"}}]}')
    message = f"endpoint is not an http(s) URL naming a host: {url!r}"
    with pytest.raises(TransportError, match=re.escape(message)):
        HttpChatTransport(url)
    assert requests == []


_SERVICE = "http://service.invalid"
# each adapter's call, and how its error for a reply that is not UTF-8 JSON starts
_ADAPTERS = {
    "chat": (
        lambda: HttpChatTransport(_SERVICE)("gpt-4", "hello"),
        "malformed completion response: ",
    ),
    "scorer": (
        lambda: RemoteScorer(_SERVICE).score("q", [Passage("d1", "text")]),
        "malformed scorer reply: ",
    ),
}


@pytest.mark.parametrize("adapter", sorted(_ADAPTERS))
@pytest.mark.parametrize(
    "reply",
    [
        urllib.error.URLError("connection refused"),
        ConnectionResetError("reset"),
        TimeoutError(),
        http.client.IncompleteRead(b"partial"),
        b"<html>busy</html>",
        b"\xff\xfe not utf-8",
    ],
    ids=["url-error", "connection-reset", "timeout", "incomplete-read", "not-json", "not-utf-8"],
)
def test_http_adapters_fail_with_a_runtime_error(monkeypatch, adapter, reply):
    def urlopen(request, timeout):
        if isinstance(reply, bytes):
            return io.BytesIO(reply)
        raise reply

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    call, malformed = _ADAPTERS[adapter]
    with pytest.raises(RuntimeError) as caught:
        call()
    if isinstance(reply, bytes):  # a reply that came back but is not UTF-8 JSON
        assert str(caught.value).startswith(malformed)
        assert str(caught.value).endswith(f"from {_SERVICE}")
    else:  # a request that failed: the same error from both adapters
        assert type(caught.value) is TransportError
        assert str(caught.value).startswith(f"request to {_SERVICE} failed: ")


def test_importing_the_package_loads_no_network_or_thread_pool_code():
    # replay and scripted runs never post, so the HTTP stack waits for the first request;
    # compared with what numpy left loaded, as a site .pth file may preload modules
    probe = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import convsearch, convsearch.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "convsearch.cli" in loaded
    deferred = {
        "http.client", "urllib.request", "ssl", "socket", "email", "concurrent.futures", "uuid"
    }
    assert loaded & deferred == set()


def test_scripted_response_is_deterministic():
    prompt = (
        "# Instruction: ... don't generate more than 3 queries ...\n"
        "# Background knowledge: 1. I keep bees in my garden.\n"
        "# Context: \n"
        "# User question: how do I start beekeeping?\n"
        "# Generated queries:"
    )
    assert ScriptedTransport()("m", prompt) == ScriptedTransport()("m", prompt)
    lines = ScriptedTransport()("m", prompt).splitlines()
    assert 1 <= len(lines) <= 3


def test_scripted_query_generation_without_a_user_question_asks_for_information():
    prompt = "# Instruction: ... don't generate more than 3 queries ...\n# Generated queries:"
    assert ScriptedTransport()("m", prompt) == "1. information request"
