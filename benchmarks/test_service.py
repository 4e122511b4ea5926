"""Benchmarks: sweep-service request latency over a warmed store.

What serving must amortise is the simulation itself: a submission
whose grid is already in the store should cost HTTP + planning + cache
lookups only.  ``test_service_hot_submission`` measures exactly that
round trip (a ``POST /sweeps?wait=1`` whose every point is a store
hit) through the real HTTP stack; ``test_service_job_status`` measures
the pure read path (``GET /jobs/<id>``).

New benchmarks are reported, not gated, until they enter
``BENCH_baseline.json`` (see scripts/check_bench_regression.py), and
these stay load benchmarks rather than simulator benchmarks -- the
deeper hot/cold/mixed story lives in ``perfbench/service_mix.py``.
"""

import json
import threading
import urllib.request

import pytest

SPEC = {
    "workloads": "btree",
    "policies": ["BL", "LTRF"],
    "grid": [1.0, 2.0, 4.0],
    "overrides": {"max_resident_warps": 8, "active_warps": 4},
    "label": "bench hot",
}


@pytest.fixture(scope="module")
def service_url(tmp_path_factory):
    """A live service over a fresh store, warmed with SPEC's grid."""
    from repro.service import ServiceApp, ServiceServer

    store = str(tmp_path_factory.mktemp("service-bench-store"))
    app = ServiceApp(store, job_workers=1)
    server = ServiceServer(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.port}"
    _post_sweep(url)                     # warm the store once
    yield url
    server.stop()
    thread.join(timeout=30.0)


def _post_sweep(url: str) -> dict:
    request = urllib.request.Request(
        f"{url}/sweeps?wait=1",
        data=json.dumps(SPEC).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120.0) as response:
        payload = json.loads(response.read().decode())
    assert payload["state"] == "done", payload
    return payload


def test_service_hot_submission(benchmark, service_url):
    def submit_hot():
        payload = _post_sweep(service_url)
        assert payload["progress"]["executed"] == 0, \
            "hot submission simulated; the store should serve every point"

    benchmark.pedantic(submit_hot, rounds=10, iterations=1)


def test_service_job_status(benchmark, service_url):
    job_id = _post_sweep(service_url)["id"]

    def poll():
        with urllib.request.urlopen(f"{service_url}/jobs/{job_id}",
                                    timeout=30.0) as response:
            assert json.loads(response.read().decode())["state"] == "done"

    benchmark.pedantic(poll, rounds=10, iterations=1)
