"""Shared fixture paths and small helpers."""

import threading
from pathlib import Path

import pytest

from convsearch.llm import TransportError
from convsearch.offline import ScriptedTransport

REPO = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO / "data" / "fixture"
CONFIG_DIR = REPO / "configs"
TESTS_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
# endpoint values that are no http(s) URL naming a host: each failed only at its first request
NOT_HTTP_URLS = ("", "notaurl", "localhost:8080/score", "ftp://h/score", "HTTP://h/score",
                 "http://", "https:///score", "http://:8080/score", "http://[::1/score")


class CountingTransport:
    """Scripted responses, counted under a lock; call ``fail_on`` raises instead."""

    def __init__(self, fail_on=None):
        self.calls, self.fail_on = 0, fail_on
        self._lock, self._scripted = threading.Lock(), ScriptedTransport()

    def __call__(self, model_id, prompt):
        with self._lock:
            self.calls += 1
            fails = self.calls == self.fail_on
        if fails:
            raise TransportError(f"injected failure on call {self.fail_on}")
        return self._scripted(model_id, prompt)


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR
