"""End-to-end tests for the asyncio HTTP shell: real sockets, one
served session per module, graceful stop."""

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceApp, ServiceServer

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
    ready = threading.Event()

    def run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main():
            task = loop.create_task(server.run())
            while server.port == 0:
                await asyncio.sleep(0.01)
            ready.set()
            await task

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=30.0), "server did not come up"
    yield f"http://127.0.0.1:{server.port}", app, server
    server.stop()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "server did not drain on stop()"


def get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=60.0) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


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
        port = int(url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.sendall(b"NOT-HTTP\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_header_flood_is_400(self, served):
        url, _, _ = served
        port = int(url.rsplit(":", 1)[1])
        flood = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"X-Pad-%d: filler\r\n" % i for i in range(200)
        ) + b"\r\n"
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.sendall(flood)
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_connection_close_semantics(self, served):
        url, _, _ = served
        port = int(url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            chunks = []
            while True:
                data = sock.recv(4096)
                if not data:
                    break
                chunks.append(data)
        reply = b"".join(chunks)
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
            self, served, monkeypatch):
        """A client that closes its socket while its ``?wait=1`` POST
        waits leaves the job running: it ends done, stores each unique
        point once, and the same request afterwards is all hits."""
        from repro.store import ResultStore

        url, app, _ = served
        store = app.tracker.store()
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
