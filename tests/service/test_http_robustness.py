"""The HTTP front end against misbehaving clients, over raw sockets.

A malformed ``Content-Length`` gets a 400 and a closed connection; a
client that stalls mid-headers or mid-body is cut off at the read
deadline; a client that leaves before its reply is not a server
error.  Also pins the ``frontend`` keyword to its one choice.
"""

from __future__ import annotations

import json
import re
import socket
import struct
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.service import api
from repro.service.api import ExperimentService
from repro.service.routes import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("http_robustness")
    svc = ExperimentService(
        db_path="memory://",
        port=0,
        workers=1,
        rate_cache=tmp / "rates.json",
    )
    svc.start(start_workers=False)
    yield svc
    svc.shutdown(drain=False)


def connect(service) -> socket.socket:
    return socket.create_connection((service.host, service.port), timeout=5)


def read_until_closed(sock: socket.socket, within_s: float) -> bytes:
    """Everything the server sends before closing; fails past ``within_s``."""
    sock.settimeout(within_s)
    deadline = time.monotonic() + within_s
    data = b""
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk
            sock.settimeout(max(deadline - time.monotonic(), 0.01))
    except socket.timeout:
        pytest.fail(f"connection still open after {within_s} s: {data!r}")


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_malformed_length_gets_400_and_close(self, service, value):
        with connect(service) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {value}\r\n\r\n".encode()
            )
            reply = read_until_closed(sock, 5.0)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "invalid Content-Length"}

    def test_oversized_body_is_not_parsed_as_a_request(self, service):
        """The 413 body is read past, so keep-alive framing holds."""
        smuggled = b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n"
        body = smuggled.ljust(MAX_BODY_BYTES + 1, b"x")
        with connect(service) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
                + b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            reply = read_until_closed(sock, 5.0)
        assert re.findall(rb"HTTP/1.1 (\d{3}) ", reply) == [b"413", b"200"]
        assert json.loads(reply.rpartition(b"\r\n\r\n")[2])["status"] == "ok"


class TestReadDeadline:
    @pytest.fixture()
    def short_deadline(self, monkeypatch):
        assert api._Handler.timeout == api.IDLE_TIMEOUT_S == 120.0
        monkeypatch.setattr(api._Handler, "timeout", 0.5)

    def test_stalled_headers_close(self, service, short_deadline):
        with connect(service) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            assert read_until_closed(sock, 2.0) == b""

    def test_stalled_body_closes(self, service, short_deadline):
        with connect(service) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n{\"workload\""
            )
            assert read_until_closed(sock, 2.0) == b""


class TestClientDisconnect:
    def test_client_gone_before_reply_is_not_a_server_error(
        self, service, monkeypatch
    ):
        httpd = service._httpd
        entered = threading.Event()
        release = threading.Event()
        finished = threading.Event()
        errors = []
        dispatch = service.router.dispatch
        shutdown_request = httpd.shutdown_request

        def held_dispatch(request):
            entered.set()
            release.wait(5.0)
            return dispatch(request)

        def tracked_shutdown_request(request):
            shutdown_request(request)
            finished.set()

        monkeypatch.setattr(service.router, "dispatch", held_dispatch)
        monkeypatch.setattr(
            httpd,
            "handle_error",
            lambda request, client_address: errors.append(client_address),
        )
        monkeypatch.setattr(
            httpd, "shutdown_request", tracked_shutdown_request
        )

        sock = connect(service)
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        assert entered.wait(5.0)
        # Linger 0: close() sends a reset, so the reply's write fails.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        release.set()
        assert finished.wait(5.0)
        assert errors == []


class TestFrontendKeyword:
    def test_thread_constructs(self):
        svc = ExperimentService(db_path="memory://", frontend="thread")
        svc.start(start_workers=False)
        svc.shutdown(drain=False)

    def test_other_values_rejected(self):
        with pytest.raises(ConfigError, match="'thread'"):
            ExperimentService(db_path="memory://", frontend="async")
