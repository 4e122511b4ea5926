"""End-to-end tests for the HTTP shell: real sockets, one live
server per module, graceful stop; and ``repro serve`` under a
signal."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceApp, ServiceServer
from repro.service.server import MAX_BODY_BYTES, MAX_HEADER_BYTES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

SPEC = {
    "workloads": "btree",
    "policies": ["BL", "LTRF"],
    "grid": [1.0, 3.0],
    "overrides": {"max_resident_warps": 8, "active_warps": 4},
}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(url, app, server) for a service live on a loopback port."""
    store = str(tmp_path_factory.mktemp("service-store"))
    app = ServiceApp(store, job_workers=1)
    server = ServiceServer(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.port}", app, server
    server.stop()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "server did not drain on stop()"


def get(url, path, method="GET"):
    request = urllib.request.Request(url + path, method=method)
    try:
        with urllib.request.urlopen(request, timeout=60.0) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def exchange(url, data):
    """Send raw bytes to the server; everything it answers before it
    closes the connection."""
    port = int(url.rsplit(":", 1)[1])
    chunks = []
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10.0) as sock:
        sock.sendall(data)
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post(url, path, payload):
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120.0) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


class TestOverHttp:
    def test_healthz(self, served):
        url, _, _ = served
        status, body = get(url, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_submit_poll_table_results_report(self, served):
        url, _, _ = served
        status, body = post(url, "/sweeps?wait=1", SPEC)
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["state"] == "done"
        job_id = snapshot["id"]

        status, body = get(url, f"/jobs/{job_id}")
        assert status == 200
        assert json.loads(body)["progress"]["unique"] == 4

        status, table = get(url, f"/jobs/{job_id}/table")
        assert status == 200
        assert table == snapshot["table"]

        status, body = get(url, "/results?policy=LTRF")
        assert status == 200
        assert json.loads(body)["count"] == 2

        status, html = get(url, f"/report/{job_id}")
        assert status == 200
        assert "<html" in html.lower()

    def test_error_statuses_survive_the_wire(self, served):
        url, _, _ = served
        assert get(url, "/jobs/job-9999")[0] == 404
        assert get(url, "/nowhere")[0] == 404
        assert post(url, "/sweeps", {"workloads": "btreee"})[0] == 400

    def test_malformed_request_line_is_400(self, served):
        url, _, _ = served
        assert exchange(url, b"NOT-HTTP\r\n\r\n").startswith(
            b"HTTP/1.1 400")

    def test_header_flood_is_431(self, served):
        """Too many headers, or a header section over
        ``MAX_HEADER_BYTES`` in a few long ones, is refused."""
        url, _, _ = served
        many = b"".join(b"X-Pad-%d: filler\r\n" % i for i in range(200))
        long = b"".join(b"X-Pad-%d: %s\r\n" % (i, b"x" * 1000)
                        for i in range(MAX_HEADER_BYTES // 1000 + 1))
        for flood in (many, long):
            reply = exchange(url, b"GET /healthz HTTP/1.1\r\n" + flood
                             + b"\r\n")
            assert reply.startswith(b"HTTP/1.1 431"), reply[:80]

    def test_bad_content_length_is_400_before_any_body(self, served):
        """A malformed ``Content-Length`` or one over ``MAX_BODY_BYTES``
        is answered without waiting for a body."""
        url, _, _ = served
        for length in (b"many", b"%d" % (MAX_BODY_BYTES + 1), b"-1"):
            reply = exchange(url, b"POST /sweeps HTTP/1.1\r\n"
                                  b"Content-Length: " + length + b"\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 400"), (length, reply[:80])

    def test_put_and_head_get_the_apps_405(self, served):
        url, _, _ = served
        assert get(url, "/jobs/job-0001", method="PUT")[0] == 405
        assert get(url, "/healthz", method="HEAD")[0] == 405

    def test_head_answer_ends_at_its_headers(self, served):
        """Nothing follows the blank line of a HEAD answer; urllib
        cannot see bytes there, so this reads the raw socket."""
        url, _, _ = served
        reply = exchange(url, b"HEAD /healthz HTTP/1.1\r\n"
                              b"Host: localhost\r\n\r\n")
        head, blank, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 405"), reply[:80]
        assert (blank, rest) == (b"\r\n\r\n", b"")

    def test_expect_100_continue_is_answered(self, served):
        """A client that waits for ``100 Continue`` before it sends its
        body gets one at once, and then the app's answer to the body."""
        url, _, _ = served
        port = int(url.rsplit(":", 1)[1])
        body = json.dumps({"workloads": "btreee"}).encode()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.sendall(b"POST /sweeps HTTP/1.1\r\nHost: localhost\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                byte = sock.recv(1)
                assert byte, f"connection closed after {interim!r}"
                interim += byte
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"unknown workload" in reply

    def test_connection_close_semantics(self, served):
        url, _, _ = served
        reply = exchange(url, b"GET /healthz HTTP/1.1\r\n"
                              b"Host: localhost\r\n\r\n")
        assert b"Connection: close" in reply
        assert b'"status": "ok"' in reply


class TestDroppedClient:
    #: A spec no other test submits, so every point starts cold.
    SPEC = {
        "workloads": "kmeans",
        "policies": ["BL"],
        "grid": [1.0, 2.0],
        "overrides": {"max_resident_warps": 8, "active_warps": 4},
    }

    def test_dropped_waiting_client_does_not_cancel_its_job(
            self, served, monkeypatch, capsys):
        """A client that closes its socket while its ``?wait=1`` POST
        waits leaves the job running: it ends done, stores each unique
        point once, and the same request afterwards is all hits.  The
        server prints no traceback for the answer it could not send."""
        from repro.store import ResultStore

        url, app, _ = served
        store = app.tracker.store
        before = store.stats()
        puts = []
        put = ResultStore.put
        monkeypatch.setattr(ResultStore, "put", lambda self, key, payload: (
            puts.append(key), put(self, key, payload))[1])
        known = {job["id"] for job in json.loads(get(url, "/jobs")[1])["jobs"]}
        body = json.dumps(self.SPEC).encode()
        port = int(url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.sendall(b"POST /sweeps?wait=1 HTTP/1.1\r\n"
                         b"Host: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            deadline = time.monotonic() + 60.0
            new = set()
            while not new and time.monotonic() < deadline:
                jobs = json.loads(get(url, "/jobs")[1])["jobs"]
                new = {job["id"] for job in jobs} - known
                time.sleep(0.01)
            assert len(new) == 1, "the submitted job never appeared"
        (job_id,) = new
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            snapshot = json.loads(get(url, f"/jobs/{job_id}")[1])
            if snapshot["finished"] is not None:
                break
            time.sleep(0.05)
        assert snapshot["state"] == "done"
        unique = snapshot["progress"]["unique"]
        assert unique == 2

        after = store.stats()
        assert after.records - before.records == unique
        assert len(puts) == len(set(puts)) == unique

        status, body = post(url, "/sweeps?wait=1", self.SPEC)
        assert status == 200
        again = json.loads(body)
        assert again["state"] == "done"
        assert again["progress"]["hits"] == unique
        assert again["progress"]["executed"] == 0
        assert "Traceback" not in capsys.readouterr().err


class TestSignals:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_drains_and_exits_0(self, tmp_path, signum):
        """``repro serve`` stops on SIGINT or SIGTERM: it drains, says
        so on stderr and exits 0 without a traceback."""
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stdout.readline()
            assert banner.startswith("serving on http://127.0.0.1:"), banner
            server.send_signal(signum)
            _, err = server.communicate(timeout=60.0)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, err
        assert "shutting down: draining jobs..." in err
        assert "Traceback" not in err
