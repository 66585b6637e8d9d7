"""The backend table: one source of truth for backend names."""

import pytest

from repro.core.backends import known_backends, resolve_backend
from repro.core.runner import Runner
from repro.service.jobs import search_payload


def test_known_backends_lists_all_three():
    assert known_backends() == ("emulator", "jit", "vector")


def test_resolve_backend_properties():
    assert resolve_backend("jit").compiled
    assert resolve_backend("vector").compiled
    assert not resolve_backend("emulator").compiled


def test_unknown_backend_error_lists_choices():
    with pytest.raises(ValueError) as exc:
        resolve_backend("jitt")
    message = str(exc.value)
    assert "jitt" in message
    for name in known_backends():
        assert name in message


def test_runner_rejects_unknown_backend_with_choices():
    with pytest.raises(ValueError, match="emulator, jit, vector"):
        Runner(["xmm0"], backend="vectr")


def test_search_payload_names_no_backend():
    # Search always runs on the emulator, so the backend is not part of
    # a search job's identity.
    payload = search_payload("sin", eta=0.0, seed=0, proposals=10,
                             testcases=4, tests_seed=0)
    assert "backend" not in payload
