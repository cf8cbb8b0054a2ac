"""Client behavior when the server side fails mid-request.

The contract: a connection the server drops — before, during, or after
a frame — surfaces as a *typed* error (:class:`ProtocolError` /
:class:`RemoteServiceError`) promptly; the client never hangs and never
reports success for bytes that did not arrive.
"""

import contextlib
import socket
import threading

import numpy as np
import pytest

from repro.errors import (
    ProtocolError,
    RemoteServiceError,
    ServiceConnectionError,
)
from repro.service import protocol
from repro.service.client import RemoteClient


def tiny_field():
    return np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)


class OneShotServer:
    """Accepts one connection and runs ``behavior(conn)`` on a thread."""

    def __init__(self, behavior):
        self._behavior = behavior
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        try:
            self._behavior(conn)
        finally:
            conn.close()

    def close(self):
        # close() alone leaves a thread blocked in accept() asleep
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=10)


@pytest.fixture
def serve_once():
    servers = []

    def start(behavior):
        srv = OneShotServer(behavior)
        servers.append(srv)
        return srv.port

    yield start
    for srv in servers:
        srv.close()


class TestServerDrops:
    def test_close_before_response_is_typed_not_a_hang(self, serve_once):
        def drop_after_reading(conn):
            conn.settimeout(10)
            conn.recv(1 << 16)  # swallow (part of) the request, then drop

        port = serve_once(drop_after_reading)
        with RemoteClient(port=port, timeout=10) as client:
            with pytest.raises((ProtocolError, RemoteServiceError)):
                client.compress(tiny_field(), codec="qoz", bound=0.1)

    def test_close_mid_response_frame_is_typed(self, serve_once):
        def send_torn_frame(conn):
            conn.settimeout(10)
            conn.recv(1 << 16)
            # frame length promises 100 bytes; deliver 4 and vanish
            conn.sendall(b"\x64\x00\x00\x00" + b"\x00" * 4)

        port = serve_once(send_torn_frame)
        with RemoteClient(port=port, timeout=10) as client:
            with pytest.raises(ProtocolError, match="mid-frame"):
                client.ping()

    def test_immediate_close_on_connect_is_typed(self, serve_once):
        port = serve_once(lambda conn: None)  # accept then slam shut
        with RemoteClient(port=port, timeout=10) as client:
            with pytest.raises((ProtocolError, RemoteServiceError, OSError)):
                client.ping()


class FakeSocket:
    """Scriptable socket: each send consumes the next return value."""

    def __init__(self, sends):
        self._sends = list(sends)
        self.written = bytearray()

    def send(self, view):
        n = self._sends.pop(0)
        n = min(n, len(view))
        self.written += bytes(view[:n])
        return n


class TestSendAll:
    def client_with(self, sock):
        client = RemoteClient.__new__(RemoteClient)
        client._sock = sock
        return client

    def test_partial_writes_are_looped_to_completion(self):
        sock = FakeSocket(sends=[3, 1, 4, 100])
        self.client_with(sock)._send_all(b"abcdefgh")
        assert bytes(sock.written) == b"abcdefgh"

    def test_zero_byte_send_reports_position(self):
        sock = FakeSocket(sends=[5, 0])
        with pytest.raises(RemoteServiceError, match="5 of 8"):
            self.client_with(sock)._send_all(b"abcdefgh")


class ScriptedServer:
    """Accepts one connection per behavior, running them in order.

    Models a server dying and its restart answering the redial:
    behavior k handles the k-th connection.
    """

    def __init__(self, behaviors):
        self._behaviors = list(behaviors)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for behavior in self._behaviors:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                behavior(conn)
            finally:
                conn.close()

    def close(self):
        # close() alone leaves a thread blocked in accept() asleep
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=10)


def drop_after_request(conn):
    conn.settimeout(10)
    conn.recv(1 << 16)  # swallow the request, then slam the connection


def answer_ping(conn):
    conn.settimeout(10)
    protocol.read_frame_sync(conn)
    conn.sendall(protocol.frame(protocol.encode_ok_empty()))


class TestReconnect:
    def test_reconnect_resends_and_succeeds(self):
        srv = ScriptedServer([drop_after_request, answer_ping])
        try:
            with RemoteClient(port=srv.port, timeout=10, reconnects=2) as c:
                c.ping()  # first connection dies; redial must recover
        finally:
            srv.close()

    def test_reconnect_budget_exhaustion_is_typed(self):
        srv = ScriptedServer([drop_after_request] * 3)
        try:
            with RemoteClient(port=srv.port, timeout=10, reconnects=1) as c:
                with pytest.raises(
                    ServiceConnectionError, match="reconnect\\s+budget 1"
                ):
                    c.ping()
        finally:
            srv.close()

    def test_default_client_does_not_reconnect(self):
        # reconnects=0: the drop surfaces immediately, first exchange
        srv = ScriptedServer([drop_after_request, answer_ping])
        try:
            with RemoteClient(port=srv.port, timeout=10) as c:
                with pytest.raises(ServiceConnectionError):
                    c.ping()
        finally:
            srv.close()

    def test_connection_error_is_both_families(self):
        # callers written against either exception family (transport vs
        # RPC) keep catching a dropped connection
        assert issubclass(ServiceConnectionError, RemoteServiceError)
        assert issubclass(ServiceConnectionError, ProtocolError)
