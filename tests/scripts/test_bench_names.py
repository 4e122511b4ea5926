"""Every baselined benchmark must still be collected.

``scripts/check_bench_regression.py`` fails the bench job when a
``BENCH_baseline.json`` name stops running, but only after a cold run
of every benchmark.  Collecting the suite takes about a second.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_every_baselined_bench_is_collected():
    with open(os.path.join(ROOT, "BENCH_baseline.json")) as handle:
        baselined = {entry["fullname"]
                     for entry in json.load(handle)["benchmarks"]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--collect-only",
         "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    collected = {line for line in completed.stdout.splitlines()
                 if "::" in line}
    assert baselined
    assert sorted(baselined - collected) == []
