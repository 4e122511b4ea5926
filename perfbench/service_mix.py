"""``service-mix``: a shared results service under mixed traffic.

``repro serve`` runs in its own process (started through
``child.py serve``, which can install the tracer first) over a store
of the same shape as ``warm-report``'s, plus a few small-machine hot
grids simulated at set-up.  Load is a closed loop: two client threads
(one per core of the reference box) in this process, each sending its
next request when the previous one returns, through a fixed, seeded
request sequence of

* 70% hot ``POST /sweeps?wait=1`` whose grids are all store hits,
* 20% cold single-point sweeps with a fresh seed (one small
  simulation each),
* 10% filtered ``GET /results``.

HTTP, the job tracker and the per-job runner run under concurrent
reads and writes; the store is written while it is read.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from benchlib import BenchError, PassResult, StoreSize, child_command, \
    child_env, describe_latencies, digest, fresh_dir, median, pin, \
    process_peak_rss_mb, run_child, slowness
from storegen import SIM_SEED_COUNT
from tracer import merge

CLIENTS = 2
#: Small machine (as in scripts/load_gen.py): one point is ~0.1 s.
SMALL_MACHINE = {"max_resident_warps": 8, "active_warps": 4}
HOT_POLICY_PAIRS = (("BL", "LTRF"), ("RFC", "LTRF+"), ("BL", "RFC"),
                    ("LTRF", "LTRF+"))
HOT_GRID = [1.0, 2.0, 4.0]
COLD_WORKLOAD, COLD_POLICY = "btree", "LTRF"
QUERY_LIMIT = 20
#: Requests per second of ``--seconds``: fixes the amount of work at
#: about the asked run length on a 2-core x86 box.
REQUESTS_PER_SECOND = 8
REQUEST_TIMEOUT_S = 60.0


#: The hot grids (all store hits once set-up prewarms them).  Fixed
#: rather than seeded: which keys a grid holds decides how many store
#: shards a fresh runner scans, and that must not vary with the seed.
HOT_SPECS = [
    {"workloads": workload, "policies": list(policies), "grid": HOT_GRID,
     "overrides": SMALL_MACHINE, "label": f"perfbench hot {index}"}
    for index, (workload, policies) in enumerate(zip(
        ("btree", "kmeans", "backprop", "srad"), HOT_POLICY_PAIRS))
]


def request_plan(seed: int, count: int) -> List[Tuple[str, object]]:
    """The seeded request sequence, in blocks of ten: seven hot, two
    cold and one query, the query last so two queries rarely overlap.
    The seed orders each block and picks hot grids, fresh cold seeds
    and query filters."""
    from repro.workloads import EVALUATION
    from storegen import POLICIES

    rng = random.Random(f"perfbench-requests:{seed}")
    kinds: List[str] = []
    while len(kinds) < count:
        block = ["hot"] * 7 + ["cold"] * 2
        rng.shuffle(block)
        kinds += block + ["query"]
    kinds = kinds[:count]
    filters = [(workload, policy) for workload in EVALUATION
               for policy in POLICIES
               if (workload, policy) != (COLD_WORKLOAD, COLD_POLICY)]
    plan: List[Tuple[str, object]] = []
    for index, kind in enumerate(kinds):
        if kind == "hot":
            plan.append((kind, rng.randrange(len(HOT_SPECS))))
        elif kind == "cold":
            plan.append((kind, {
                "workloads": COLD_WORKLOAD, "policies": [COLD_POLICY],
                "grid": [2.0], "seed": 1 + seed * 100_000 + index,
                "overrides": SMALL_MACHINE,
                "label": f"perfbench cold {index}",
            }))
        else:
            workload, policy = rng.choice(filters)
            plan.append((kind, {"workload": workload, "policy": policy,
                                "limit": str(QUERY_LIMIT)}))
    return plan


class ServiceMix:
    name = "service-mix"

    def __init__(self, seed: int, seconds: int, work: str) -> None:
        self.seed = seed
        self.count = max(20, seconds * REQUESTS_PER_SECOND)
        self.work = work
        self.store = ""
        self.hot_tables: List[str] = []
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.trace_path = ""

    # -- set-up -----------------------------------------------------------

    def setup(self, traced: bool = False) -> None:
        """Seeded store + prewarmed hot grids, then a listening server."""
        self.teardown()
        self.store = fresh_dir(self.work, "store")
        specs_path = os.path.join(self.work, "hot-specs.json")
        with open(specs_path, "w", encoding="utf-8") as handle:
            json.dump(HOT_SPECS, handle)
        summary = run_child("storegen", "--store", self.store,
                            "--seed", str(self.seed),
                            "--hot-specs", specs_path)
        self.hot_tables = summary["hot_tables"]
        self._start_server(traced)

    def _start_server(self, traced: bool) -> None:
        out_path = os.path.join(self.work, "server.out")
        args = ["serve"]
        self.trace_path = ""
        if traced:
            self.trace_path = os.path.join(self.work, "server-trace.json")
            args += ["--trace-out", self.trace_path]
        args += ["--", "--port", "0", "--dir", self.store,
                 "--job-workers", "2"]
        with open(out_path, "w") as out, \
                open(os.path.join(self.work, "server.err"), "w") as err:
            self.server = subprocess.Popen(
                child_command(*args), env=child_env(), stdout=out,
                stderr=err, cwd=self.work,
            )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with open(out_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        self.url = line.split()[2]
                        self._get("/healthz")
                        return
            if self.server.poll() is not None:
                break
            time.sleep(0.05)
        self.teardown()
        raise BenchError("repro serve did not start listening")

    def teardown(self) -> None:
        """Stop the server gracefully (it drains and, if traced, dumps
        its spans), killing it if it does not exit in time."""
        server, self.server = self.server, None
        if server is None or server.poll() is not None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30.0)

    # -- load -------------------------------------------------------------

    def _get(self, path: str) -> Tuple[int, dict]:
        with urllib.request.urlopen(self.url + path,
                                    timeout=REQUEST_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())

    def _post(self, spec: dict) -> Tuple[int, dict]:
        request = urllib.request.Request(
            f"{self.url}/sweeps?wait=1", data=json.dumps(spec).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request,
                                    timeout=REQUEST_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())

    def _send(self, kind: str, payload) -> Tuple[int, dict]:
        try:
            if kind == "hot":
                return self._post(HOT_SPECS[payload])
            if kind == "cold":
                return self._post(payload)
            return self._get("/results?" + urllib.parse.urlencode(payload))
        except urllib.error.HTTPError as error:
            return error.code, {"error": str(error)}
        except (urllib.error.URLError, OSError, ValueError) as error:
            return 0, {"error": f"{type(error).__name__}: {error}"}

    def run_pass(self, traced: bool) -> PassResult:
        plan = request_plan(self.seed, self.count)
        outcomes: List[Optional[tuple]] = [None] * len(plan)
        lock = threading.Lock()
        cursor = [0]
        # The traced pass reads the store's size, through the program's
        # store layer, as each request is sent.
        sizes = StoreSize(self.store) if traced else None
        if sizes is not None:
            sizes.count()

        def client() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                    if index >= len(plan):
                        return
                    store_size = sizes.count() if sizes is not None else None
                kind, payload = plan[index]
                started = perf_counter()
                status, body = self._send(kind, payload)
                elapsed = perf_counter() - started
                outcomes[index] = (kind, elapsed, status, body, store_size)

        # The server pinned itself to the first vCPU; clients take the
        # other one.
        affinity = pin(1)
        try:
            threads = [threading.Thread(target=client, name=f"client-{n}")
                       for n in range(CLIENTS)]
            window_start = time.monotonic()
            started = perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170.0)
            wall = perf_counter() - started
            window = (window_start, time.monotonic())
        finally:
            os.sched_setaffinity(0, affinity)
            if sizes is not None:
                sizes.close()
        if any(thread.is_alive() for thread in threads):
            raise BenchError("service clients did not finish in time")
        peak_rss = process_peak_rss_mb(self.server.pid) if self.server \
            else 0.0
        self.teardown()
        return self._result(plan, outcomes, wall, window, peak_rss, traced)

    def _server_slowness(self, window: Tuple[float, float]) -> float:
        """The stopped server's host-speed factor while the clients ran,
        from the probe samples on its summary line.  The clients' own
        time is not normalised: they do little beyond waiting."""
        with open(os.path.join(self.work, "server.out"),
                  encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
        try:
            samples = json.loads(lines[-1])["probe_samples"]
        except (IndexError, ValueError, KeyError):
            raise BenchError("the server exited without its summary line")
        return slowness(samples, *window)

    # -- checks and figures -----------------------------------------------

    def _check(self, kind: str, payload, status: int, body: dict):
        """``(problem or None, output for the digest)``."""
        if status != 200:
            return f"{kind} request answered {status}: {body}", None
        if kind == "query":
            rows = body.get("records", [])
            wanted = (payload["workload"], payload["policy"])
            if body.get("count", 0) < 7 * SIM_SEED_COUNT or len(rows) != min(
                    body["count"], QUERY_LIMIT) or any(
                    (row["workload"], row["policy"]) != wanted
                    for row in rows):
                return f"/results for {wanted} returned {len(rows)} " \
                       f"wrong row(s)", None
            return None, rows
        progress = body.get("progress", {})
        if body.get("state") != "done":
            return f"{kind} job ended {body.get('state')}", None
        if kind == "hot":
            if progress.get("executed", 0) > 0:
                return f"hot job {body['id']} simulated " \
                       f"{progress['executed']} point(s)", None
            if body.get("table") != self.hot_tables[payload]:
                return f"hot job {body['id']} table differs", None
            return None, body["table"]
        if progress.get("executed") != 1:
            return f"cold job {body['id']} simulated " \
                   f"{progress.get('executed')} point(s), expected 1", None
        return None, body["records"]

    def _result(self, plan, outcomes, wall: float,
                window: Tuple[float, float], peak_rss: float,
                traced: bool) -> PassResult:
        latencies: Dict[str, List[float]] = {"hot": [], "cold": [], "query": []}
        problems, outputs = [], []
        waits = reported_simulated = reported_hits = 0
        for (kind, payload), outcome in zip(plan, outcomes):
            _, elapsed, status, body, _ = outcome
            latencies[kind].append(elapsed)
            problem, output = self._check(kind, payload, status, body)
            if problem is not None:
                problems.append(problem)
            outputs.append(output)
            if kind != "query" and status == 200:
                waits += body.get("progress", {}).get("waited", 0)
                telemetry = body.get("telemetry") or {}
                reported_simulated += telemetry.get("simulations", 0)
                reported_hits += telemetry.get("cache_hits", 0)
        everything = [outcome[1] for outcome in outcomes]
        result = PassResult(
            wall_s=wall,
            ref_wall_s=wall / self._server_slowness(window),
            op_seconds=everything,
            peak_rss_mb=peak_rss,
            attempted=len(plan),
            failed=len(problems),
            digest=digest(outputs),
            problems=problems[:10],
        )
        result.details = {
            "hot_p50_ms": (median(latencies["hot"]) * 1e3, "ms",
                           describe_latencies(latencies["hot"])),
            "cold_p50_ms": (median(latencies["cold"]) * 1e3, "ms",
                            describe_latencies(latencies["cold"])),
            "query_p50_ms": (median(latencies["query"]) * 1e3, "ms",
                             describe_latencies(latencies["query"])),
            "req_per_s": (len(plan) / wall, "1/s",
                          f"{len(plan)} requests, {CLIENTS} clients"),
            "failed_frac": (len(problems) / len(plan), "ratio",
                            "failed or wrong / attempted"),
        }
        result.supplied = {
            "experiments.reported_simulated": reported_simulated,
            "experiments.reported_hits": reported_hits,
            "jobs.single_flight_waits": waits,
        }
        if traced:
            result.supplied["store.records"] = median(
                [outcome[4] for outcome in outcomes])
            if not os.path.isfile(self.trace_path):
                raise BenchError("traced server wrote no span dump")
            with open(self.trace_path, encoding="utf-8") as handle:
                result.trace = merge([json.load(handle)])
            handled = sum(
                values[1] for name, values in result.trace["spans"].items()
                if name.startswith("service.handle."))
            result.supplied["service.transport_s"] = sum(everything) - handled
        return result
