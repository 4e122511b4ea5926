"""Service smoke check: the HTTP sweep service against the real CLI.

Run with:  PYTHONPATH=src python scripts/service_smoke.py

End-to-end rehearsal of `repro serve`, used by CI and runnable
locally:

1. start the service as a real subprocess on a free port over a fresh
   store, with a scaled-down ``.arch.json`` so the grid is smoke-fast,
   and send a raw ``HEAD /healthz``: no byte may follow its header
   block (urllib cannot see such bytes);
2. submit a sweep over HTTP (``POST /sweeps``), poll ``GET
   /jobs/<id>`` to completion, and fetch the rendered table;
3. while the service is up, run a CLI ``repro sweep`` of a policy the
   service has not simulated into the same store, then ``POST`` that
   grid: the service keeps one long-lived store instance, and it must
   serve every point as a hit (no stale miss) and count the CLI's
   records in ``GET /results``.  The same filtered ``GET
   /results?workload=...&policy=...`` is sent before and after the
   CLI writes: the service's long-lived base query must see the new
   keys;
4. cancel a just-submitted job over a grid nothing has stored
   (``DELETE /jobs/<id>``): it must end ``partial`` with a resume
   hint, and re-submitting the same spec must end ``done`` with every
   point the cancelled job flushed served as a hit and the rest
   simulated;
5. stop the service with SIGTERM, require a clean exit (the
   graceful-drain path: exit 0, the drain line on stderr and no
   traceback there), ``repro store verify`` the store, and
   require the filtered count to equal a fresh ``Query.open`` over
   it; then ``repro store compact`` the store and verify it again;
6. run the *equivalent* ``repro sweep`` CLI command over the
   compacted store and require its table to be **byte-identical** to
   the service's -- serving must add an interface, not a second
   rendering -- and its engine line to report zero simulations (the
   CLI resolved every point from the store the service populated).

Exits non-zero, with a diff, on any mismatch.  The temporary
directory holding the store and the architecture file is removed
either way.
"""

import difflib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

WORKLOAD = "btree"
POLICIES = ["BL", "LTRF"]
#: Simulated only by the external CLI writer, never by the service.
EXTERNAL_POLICY = "RFC"
#: The grid of the cancelled job: nothing else stores it, and its 14
#: points take long enough that a DELETE sent right after the submit
#: lands before the job finishes.
CANCEL_WORKLOAD = "backprop"
CANCEL_POLICIES = ["LTRF+", "SHRF"]


def env():
    merged = dict(os.environ)
    merged["PYTHONPATH"] = SRC + os.pathsep + merged.get("PYTHONPATH", "")
    return merged


def write_small_arch(path):
    sys.path.insert(0, SRC)
    from repro.arch.registry import arch_config
    from repro.arch.serialize import save_arch

    save_arch(
        arch_config("maxwell-like", max_resident_warps=8, active_warps=4),
        path,
    )


def http(method, url, payload=None, timeout=120.0):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read().decode()


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for(url, job_id):
    """Poll ``GET /jobs/<id>`` until the job leaves queued/running."""
    deadline = time.monotonic() + 300.0
    while True:
        snapshot = json.loads(http("GET", f"{url}/jobs/{job_id}"))
        if snapshot["state"] not in ("queued", "running"):
            return snapshot
        if time.monotonic() > deadline:
            fail(f"job did not finish: {snapshot['progress']}")
        time.sleep(0.2)


def head_ends_at_its_headers(url):
    """Send a raw ``HEAD /healthz``; fail if any byte follows the blank
    line that ends the answer's headers."""
    target = urllib.parse.urlsplit(url)
    with socket.create_connection((target.hostname, target.port),
                                  timeout=10.0) as sock:
        sock.sendall(b"HEAD /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
        reply = sock.makefile("rb").read()
    head, _, rest = reply.partition(b"\r\n\r\n")
    print(f"   {head.splitlines()[0].decode() if head else 'no answer'}, "
          f"{len(rest)} byte(s) after the headers")
    if not head.startswith(b"HTTP/1.1 ") or rest:
        fail(f"HEAD /healthz must end at its headers, got {reply!r}")


def cancel_and_resume(url, arch_path):
    """Cancel a job before it can finish, then resume it."""
    spec = {"workloads": CANCEL_WORKLOAD, "policies": CANCEL_POLICIES,
            "archs": [arch_path], "label": "service smoke cancel"}
    job_id = json.loads(http("POST", f"{url}/sweeps", spec))["id"]
    http("DELETE", f"{url}/jobs/{job_id}")
    cancelled = wait_for(url, job_id)
    flushed = cancelled["progress"]["executed"]
    print(f"   {job_id}: {cancelled['state']} after {flushed} point(s): "
          f"{cancelled['resume_hint']}")
    if cancelled["state"] != "partial" \
            or "re-submit the same spec" not in cancelled["resume_hint"]:
        fail(f"a cancelled job must end partial with a resume hint, got "
             f"{cancelled['state']} {cancelled['resume_hint']!r}")
    resumed = json.loads(http("POST", f"{url}/sweeps?wait=1", spec))
    progress = resumed["progress"]
    print(f"   {resumed['id']}: {progress}")
    if resumed["state"] != "done" or progress["hits"] != flushed \
            or progress["hits"] + progress["executed"] != progress["unique"]:
        fail(f"re-submitting the cancelled spec must serve its {flushed} "
             f"flushed point(s) as hits and simulate the rest, got "
             f"{resumed['state']} {progress}")


def cli_sweep(store, policies, arch_path):
    """Run ``repro sweep`` into ``store``; its stdout."""
    cli_env = env()
    cli_env["LTRF_CACHE_DIR"] = store
    sweep = subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep", WORKLOAD,
         "--policies", ",".join(policies), "--arch", arch_path],
        capture_output=True, env=cli_env, text=True,
    )
    if sweep.returncode != 0:
        fail(f"CLI sweep exited {sweep.returncode}: {sweep.stderr}")
    return sweep.stdout


def store_command(store, command, when):
    """Run ``repro store <command>`` on ``store``; its first line."""
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "store", command,
         "--dir", store],
        capture_output=True, env=env(), text=True,
    )
    if run.returncode != 0:
        fail(f"store {command} failed {when}:\n{run.stdout}{run.stderr}")
    return run.stdout.splitlines()[0] if run.stdout else ""


def main():
    tmp = tempfile.mkdtemp(prefix="service_smoke_")
    try:
        return smoke(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def smoke(tmp):
    store = os.path.join(tmp, "store")
    arch_path = os.path.join(tmp, "small.arch.json")
    write_small_arch(arch_path)

    print("== starting repro serve ==")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--dir", store, "--job-workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env(), text=True,
    )
    try:
        banner = server.stdout.readline()
        match = re.search(r"http://[0-9.]+:\d+", banner)
        if not match:
            fail(f"no serving banner, got: {banner!r}")
        url = match.group(0)
        print(f"   {banner.strip()}")

        print("== raw HEAD /healthz ==")
        head_ends_at_its_headers(url)

        print("== submitting sweep over HTTP ==")
        spec = {"workloads": WORKLOAD, "policies": POLICIES,
                "archs": [arch_path], "label": "service smoke"}
        submitted = json.loads(http("POST", f"{url}/sweeps", spec))
        job_id = submitted["id"]
        snapshot = wait_for(url, job_id)
        if snapshot["state"] != "done":
            fail(f"job ended {snapshot['state']}: "
                 f"{snapshot.get('error', '')}")
        progress = snapshot["progress"]
        print(f"   {job_id}: {progress}")
        if progress["executed"] != progress["unique"]:
            fail("a fresh store must execute every unique point, got "
                 f"{progress}")

        service_table = http("GET", f"{url}/jobs/{job_id}/table")
        results = json.loads(http("GET", f"{url}/results"))
        if results["count"] != progress["unique"]:
            fail(f"GET /results saw {results['count']} records, "
                 f"expected {progress['unique']}")
        report = http("GET", f"{url}/report/{job_id}")
        if "<html" not in report.lower():
            fail("GET /report did not return HTML")

        print("== external writer: CLI sweep into the live store ==")
        filtered_url = f"{url}/results?" + urllib.parse.urlencode(
            {"workload": WORKLOAD, "policy": EXTERNAL_POLICY})
        before = json.loads(http("GET", filtered_url))["count"]
        cli_sweep(store, [EXTERNAL_POLICY], arch_path)
        filtered = json.loads(http("GET", filtered_url))["count"]
        external = json.loads(http("POST", f"{url}/sweeps?wait=1", {
            "workloads": WORKLOAD, "policies": [EXTERNAL_POLICY],
            "archs": [arch_path], "label": "service smoke external",
        }))
        external_progress = external["progress"]
        print(f"   {external['id']}: {external_progress}")
        if external["state"] != "done" \
                or external_progress["executed"] != 0 \
                or external_progress["hits"] != external_progress["unique"]:
            fail("the service re-simulated (or missed) points the CLI "
                 f"already stored: {external['state']} {external_progress}")
        if filtered != before + external_progress["unique"]:
            fail(f"the filtered GET /results counted {before} record(s) "
                 f"before the external sweep and {filtered} after it; "
                 f"the sweep stored {external_progress['unique']}")
        expected = progress["unique"] + external_progress["unique"]
        results = json.loads(http("GET", f"{url}/results"))
        if results["count"] != expected:
            fail(f"GET /results saw {results['count']} records after the "
                 f"external sweep, expected {expected}")
        print(f"   all {external_progress['unique']} point(s) served as "
              f"hits; GET /results counts {expected} ({before} -> "
              f"{filtered} for {EXTERNAL_POLICY})")

        print("== cancel a job, then resume it ==")
        cancel_and_resume(url, arch_path)
    finally:
        print("== stopping the service (SIGTERM) ==")
        server.send_signal(signal.SIGTERM)
        try:
            _, err = server.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("service did not exit on SIGTERM")
    if server.returncode != 0:
        fail(f"service exited {server.returncode}: {err}")
    if "Traceback" in err or "shutting down: draining jobs..." not in err:
        fail(f"the service's stderr must show the drain and no "
             f"traceback, got:\n{err}")
    store_command(store, "verify", "after the drain")
    print("   store verify OK")
    from repro.store import Query
    stored = Query.open(store).where(workload=WORKLOAD,
                                     policy=EXTERNAL_POLICY).count()
    if stored != filtered:
        fail(f"the service's filtered GET /results counted {filtered} "
             f"record(s), a fresh query over the drained store {stored}")

    print("== compacting the drained store ==")
    print(f"   {store_command(store, 'compact', 'on the drained store')}")
    store_command(store, "verify", "after compaction")
    print("   store verify OK")

    print("== running the equivalent CLI sweep over the same store ==")
    lines = cli_sweep(store, POLICIES, arch_path).splitlines()
    engine_lines = [line for line in lines if line.startswith("[engine]")]
    cli_table = "\n".join(
        line for line in lines if not line.startswith("[engine]")
    )
    if "simulated 0 run(s)" not in (engine_lines or [""])[0]:
        fail("the CLI sweep re-simulated points the service already "
             f"stored: {engine_lines}")

    if cli_table != service_table:
        diff = "\n".join(difflib.unified_diff(
            service_table.splitlines(), cli_table.splitlines(),
            "service table", "cli table", lineterm="",
        ))
        fail(f"service and CLI tables differ:\n{diff}")
    print("   tables are byte-identical; CLI simulated nothing")
    print("OK: service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
