"""Shared machinery of the perfbench benchmark.

Paths of the checkout the benchmark runs in, child-process plumbing,
order statistics (median and the tail-percentile rule), the host-speed
probe, output digests and peak-memory readings.  Nothing here imports the
program under test: :func:`require_source` puts the checkout's own
``src/`` first on ``sys.path`` and refuses to run against any other
copy of ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, reports and trace dumps; inside the
#: checkout and listed in the root .gitignore.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Percentile levels the tail rule picks from, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples the tail rule wants beyond a percentile before reporting it.
TAIL_MIN_BEYOND = 10

#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here, or the program's output is wrong."""


def require_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or raise.

    A directory holding only the benchmark has no program to measure;
    an installed ``repro`` elsewhere must never be measured instead.
    """
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise BenchError(f"no program source at {package}; run the "
                         "benchmark from the root of a repro checkout")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro
    where = os.path.abspath(repro.__file__)
    if not where.startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {where}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment of every child: this checkout's code, no LTRF_*
    overrides from the caller's shell, fixed string hashing."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("LTRF_")}
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH_DIR
    env["PYTHONHASHSEED"] = "0"
    return env


def child_command(*args: str) -> List[str]:
    """``python child.py <args>`` with this interpreter."""
    return [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args]


def run_child(*args: str) -> dict:
    """Run one ``child.py`` command to completion; its JSON summary.

    The child prints one JSON object as its last stdout line; a
    non-zero exit, a timeout or a missing summary raises
    :class:`BenchError` with the tail of its stderr.
    """
    try:
        done = subprocess.run(
            child_command(*args), env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} timed out after "
                         f"{CHILD_TIMEOUT_S:.0f}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise BenchError(f"child {args[0]} exited {done.returncode}:\n{tail}")
    return json.loads(lines[-1])


def fresh_dir(*parts: str) -> str:
    """An empty directory under the scratch root."""
    path = os.path.join(WORK_ROOT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- order statistics -------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rank(level: float, count: int) -> int:
    """Nearest rank of the ``level``-th percentile among ``count``
    samples, in exact integer arithmetic (levels in tenths)."""
    return max(1, -(-round(level * 10) * count // 1000))


def nearest_rank(sorted_values: Sequence[float], level: float) -> float:
    """The ``level``-th percentile by the nearest-rank method."""
    return sorted_values[_rank(level, len(sorted_values)) - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(level, value)`` of the highest percentile in
    :data:`TAIL_LEVELS` with at least :data:`TAIL_MIN_BEYOND` samples
    beyond it, or ``None`` when even the median has fewer."""
    ordered = sorted(values)
    count = len(ordered)
    for level in TAIL_LEVELS:
        if count and count - _rank(level, count) >= TAIL_MIN_BEYOND:
            return level, nearest_rank(ordered, level)
    return None


def describe_latencies(values_s: Sequence[float]) -> str:
    """``p50 X ms, pNN Y ms (n=N)``: median, the tail rule, the count."""
    text = f"p50 {median(values_s) * 1e3:.1f} ms"
    tail = tail_percentile(values_s)
    if tail is not None and tail[0] > 50.0:
        text += f", p{tail[0]:g} {tail[1] * 1e3:.1f} ms"
    return f"{text} (n={len(values_s)})"


# -- host speed ---------------------------------------------------------------

#: Seconds the probe kernel takes on the reference host speed; metrics
#: named ``*_ref_*`` are scaled to it.
PROBE_REFERENCE_S = 0.002

#: Seconds between probe samples.
PROBE_INTERVAL_S = 0.1


def _probe_kernel() -> None:
    """Fixed pure-Python work, independent of the program under test."""
    total, table = 0, {}
    for number in range(12_000):
        total += number * number % 7
        table[number & 255] = total
    sorted(table.values())


class SpeedProbe:
    """Samples the host speed this process gets while it works.

    The reference VM's vCPUs change speed by 15-30% within seconds and
    independently of each other, so a raw wall time mixes the
    program's cost with the host's mood.  The probe pins the process
    to vCPU 0 (threads started later inherit the pin) and, from a
    daemon thread sharing the interpreter with the workload, times
    :func:`_probe_kernel` every :data:`PROBE_INTERVAL_S`.  The mean
    sample against :data:`PROBE_REFERENCE_S` is the factor by which
    the host ran slow; dividing a wall time by it gives the wall time
    at the reference speed.  Costs about 2% of one core.
    """

    def __init__(self) -> None:
        #: ``(time.monotonic() at the sample's start, seconds)`` pairs;
        #: the clock is system-wide, so another process can pick the
        #: samples inside its own time window (see :func:`slowness`).
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._affinity = None

    def start(self) -> "SpeedProbe":
        self._affinity = pin(0)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-probe")
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            at = monotonic()
            started = perf_counter()
            _probe_kernel()
            self.samples.append((at, perf_counter() - started))

    def stop(self) -> float:
        """Stop sampling, restore the affinity; the slowness factor."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
        return slowness(self.samples)


def pin(cpu_index: int) -> set:
    """Pin the calling thread (and threads it starts later) to one of
    the allowed vCPUs; the previous affinity, to restore."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[cpu_index % len(allowed)]})
    return set(allowed)


def slowness(samples: Sequence[Sequence[float]],
             start: float = float("-inf"), end: float = float("inf")) -> float:
    """Mean probe time over the reference, of the ``(at, seconds)``
    samples taken between ``start`` and ``end`` (1.0 when none were)."""
    inside = [seconds for at, seconds in samples if start <= at <= end]
    if not inside:
        return 1.0
    return statistics.fmean(inside) / PROBE_REFERENCE_S


# -- outputs ----------------------------------------------------------------

def digest(*parts) -> str:
    """Short sha256 over text parts and JSON-able values, in order."""
    hasher = hashlib.sha256()
    for part in parts:
        if not isinstance(part, str):
            part = json.dumps(part, sort_keys=True)
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class StoreSize:
    """Live records in a store, read through the program's own store
    layer (``ResultStore.keys``).

    One read-only instance stays open, so each :meth:`count` after the
    first re-reads only what was appended since: cheap enough to call
    at every operation boundary.  Open it before a tracer is installed
    in the same process, or its open is traced as the program's.
    """

    def __init__(self, root: str) -> None:
        from repro.store import ResultStore
        self._store = ResultStore(root, create=False)

    def count(self) -> int:
        return sum(1 for _ in self._store.keys())

    def close(self) -> None:
        self._store.close()


@dataclass
class PassResult:
    """One measured pass of a workload: what run.py turns into metrics.

    ``op_seconds`` holds one latency per user-visible operation (a CLI
    sweep, a render+report iteration, an HTTP request).  ``details``
    are workload-specific figures printed for people (name -> (value,
    unit, note)); ``supplied`` are the per-layer figures only the
    workload knows (client-side counts, store sizes), and ``trace`` the
    merged tracer snapshot of a traced pass.
    """

    wall_s: float
    #: ``wall_s`` at the reference host speed (see :class:`SpeedProbe`).
    ref_wall_s: float
    op_seconds: List[float]
    peak_rss_mb: float
    attempted: int
    failed: int
    digest: str
    problems: List[str] = field(default_factory=list)
    details: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    supplied: Dict[str, float] = field(default_factory=dict)
    trace: Optional[dict] = None
