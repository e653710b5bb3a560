"""Wire-protocol conformance for the remote logprobs client, exercised
against an in-process stub server (see conftest.StubHandler)."""

import pytest

from conftest import StubHandler
from qlmrank.cli import _build_provider
from qlmrank.likelihood import (
    LikelihoodRequest,
    ProtocolError,
    RemoteProvider,
    TransportError,
)

REQUEST = LikelihoodRequest(context="some prompt", continuation=" what is x")


def test_success_path(stub_server):
    StubHandler.script = [(200, {"tokens": ["what", "?"], "logprobs": [-2.0, -0.5]})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    result = provider(REQUEST)
    assert result.tokens == ("what", "?")
    assert result.logprobs == (-2.0, -0.5)


def test_request_shape_and_auth_header(stub_server):
    StubHandler.script = [(200, {"tokens": ["x"], "logprobs": [-1.0]})]
    provider = RemoteProvider(stub_server, auth_token="secret", backoff=0.0)
    provider(REQUEST)
    path, body, headers = StubHandler.requests_seen[0]
    assert path == "/v1/loglikelihood"
    assert body == {"context": "some prompt", "continuation": " what is x"}
    assert headers.get("Authorization") == "Bearer secret"


def test_length_mismatch_is_protocol_error(stub_server):
    StubHandler.script = [(200, {"tokens": ["a", "b"], "logprobs": [-1.0, -2.0, -3.0]})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    with pytest.raises(ProtocolError):
        provider(REQUEST)


def test_missing_keys_is_protocol_error(stub_server):
    StubHandler.script = [(200, {"wrong": []})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    with pytest.raises(ProtocolError):
        provider(REQUEST)


def test_negative_infinity_floored_with_warning(stub_server, caplog):
    StubHandler.script = [(200, {"tokens": ["a", "b"], "logprobs": [-1.0, -1e999]})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    with caplog.at_level("WARNING"):
        result = provider(REQUEST)
    assert result.logprobs == (-1.0, -100.0)
    assert "floored" in caplog.text


def test_custom_floor(stub_server):
    StubHandler.script = [(200, {"tokens": ["a"], "logprobs": [-1e999]})]
    provider = RemoteProvider(stub_server, backoff=0.0, logprob_floor=-50.0)
    assert provider(REQUEST).logprobs == (-50.0,)


def test_transient_failure_then_success_retries(stub_server):
    StubHandler.script = [
        (503, {"error": "busy"}),
        (200, {"tokens": ["x"], "logprobs": [-0.25]}),
    ]
    provider = RemoteProvider(stub_server, attempts=3, backoff=0.0)
    result = provider(REQUEST)
    assert result.logprobs == (-0.25,)
    assert len(StubHandler.requests_seen) == 2


def test_retry_budget_exhausted(stub_server):
    StubHandler.script = [(503, {}), (503, {}), (503, {})]
    provider = RemoteProvider(stub_server, attempts=3, backoff=0.0)
    with pytest.raises(TransportError):
        provider(REQUEST)
    assert len(StubHandler.requests_seen) == 3


def test_client_error_not_retried(stub_server):
    StubHandler.script = [(404, {}), (200, {"tokens": ["x"], "logprobs": [-1.0]})]
    provider = RemoteProvider(stub_server, attempts=3, backoff=0.0)
    with pytest.raises(TransportError):
        provider(REQUEST)
    assert len(StubHandler.requests_seen) == 1


def test_unreachable_endpoint():
    provider = RemoteProvider("http://127.0.0.1:1", attempts=2, backoff=0.0, timeout=0.5)
    with pytest.raises(TransportError):
        provider(REQUEST)


def test_identical_requests_identical_results(stub_server):
    payload = {"tokens": ["a", "b"], "logprobs": [-1.5, -2.5]}
    StubHandler.script = [(200, payload), (200, payload)]
    provider = RemoteProvider(stub_server, backoff=0.0)
    assert provider(REQUEST) == provider(REQUEST)


def test_connection_pool_sized_to_workers():
    provider = _build_provider("remote", "http://127.0.0.1:1", None, [], max_workers=16)
    for url in (provider.url, "https://example.invalid/"):
        adapter = provider.session.get_adapter(url)
        assert adapter._pool_connections == 16
        assert adapter.poolmanager.connection_pool_kw["maxsize"] == 16


def test_pool_size_below_one_rejected():
    with pytest.raises(ValueError):
        RemoteProvider("http://127.0.0.1:1", pool_size=0)
