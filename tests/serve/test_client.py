"""The resilient client: retries, reconnects, deadlines, bad replies."""

import json
import socket
import socketserver
import threading

import pytest

from repro.engine import ExperimentEngine
from repro.ir import function_to_text
from repro.serve import (ResilientClient, RetriesExhausted, ServeError,
                         ServerThread, dumps, request_from_json,
                         summary_to_json)
from repro.serve.protocol import encode_line, ok_response

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def spec(n: int = 0) -> dict:
    return {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [n]}


def serial_engine() -> ExperimentEngine:
    return ExperimentEngine(jobs=1, use_cache=False)


def free_port() -> int:
    """A port that was just bound and released — connecting to it
    refuses (the stand-in for a server that is down)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestResilientClient:
    def test_non_retryable_errors_raise_immediately(self):
        with ServerThread(serial_engine()) as srv:
            with ResilientClient("127.0.0.1", srv.port) as client:
                with pytest.raises(ServeError) as exc:
                    client.allocate(kernel="no-such-kernel")
                assert client.retries == 0
        assert exc.value.kind == "bad_request"
        assert not exc.value.retryable

    def test_draining_retries_until_exhausted(self):
        with ServerThread(serial_engine()) as srv:
            assert srv.server is not None
            srv.server.draining = True
            with ResilientClient("127.0.0.1", srv.port, max_retries=2,
                                 backoff=0.001) as client:
                with pytest.raises(RetriesExhausted) as exc:
                    client.allocate(**spec(0))
                assert client.retries == 2
            srv.server.draining = False
        assert exc.value.kind == "draining"

    def test_transport_failures_reconnect_then_exhaust(self):
        client = ResilientClient("127.0.0.1", free_port(),
                                 max_retries=2, backoff=0.001)
        with pytest.raises(RetriesExhausted) as exc:
            client.ping()
        assert exc.value.kind == "unavailable"
        assert client.retries == 2

    def test_spent_deadline_expires_client_side(self):
        client = ResilientClient("127.0.0.1", free_port(), deadline=0.0)
        with pytest.raises(ServeError) as exc:
            client.ping()
        assert exc.value.kind == "expired"
        assert client.retries == 0    # never even dialled

    def test_threads_share_one_resilient_client(self):
        with ServerThread(serial_engine()) as srv:
            client = ResilientClient("127.0.0.1", srv.port)
            results = {}

            def one(n: int) -> None:
                results[n] = dumps(client.allocate(**spec(n % 2)))

            threads = [threading.Thread(target=one, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        expected = [dumps(summary_to_json(o)) for o in
                    serial_engine().run_many(
                        [request_from_json(spec(n % 2))
                         for n in range(6)])]
        assert [results[n] for n in range(6)] == expected


class _StubHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        stub = self.server
        stub.connections += 1
        first = stub.connections == 1
        for line in self.rfile:
            request = json.loads(line)
            if first and stub.fault == "drop":
                return                  # read it, close, never answer
            if first and stub.fault == "garble":
                self.wfile.write(b"\x00\xfe{not json\n")
                return
            self.wfile.write(encode_line(
                ok_response(request["id"], stub.result)))


class BadReplyStub(socketserver.ThreadingTCPServer):
    """A stand-in server whose first connection gets a bad reply to its
    first request (*fault*: ``drop`` closes without a reply, ``garble``
    writes bytes that are not JSON and closes); every later request is
    answered with *result*."""

    daemon_threads = True

    def __init__(self, fault: str, result: dict):
        self.fault = fault
        self.result = result
        self.connections = 0
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self._thread = threading.Thread(target=self.serve_forever,
                                        args=(0.01,), daemon=True)

    def __enter__(self) -> "BadReplyStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=10)


@pytest.mark.parametrize("fault", ["drop", "garble"])
def test_bad_reply_reconnects_and_answers(fault):
    expected = summary_to_json(
        serial_engine().run_many([request_from_json(spec(0))])[0])
    with BadReplyStub(fault, expected) as stub:
        with ResilientClient("127.0.0.1", stub.server_address[1],
                             backoff=0.001) as client:
            answer = client.allocate(**spec(0))
            assert (client.reconnects, client.retries) == (1, 1)
    assert dumps(answer) == dumps(expected)
    assert stub.connections == 2
