"""Counter golden for the SM core.

Pins, for a fixed grid of event-engine runs on ``maxwell-like`` (seed
0), every field :class:`~repro.arch.sm.SimulationResult` compares
(``config`` as its architecture fingerprint) plus the ``event_counts``
and ``cycles_skipped`` telemetry.  ``host_seconds`` is left out: it
measures the host, not the simulation.

The event-vs-dense suite cannot catch a mistake in code both engines
share -- the register policies, :class:`~repro.arch.warp.Warp`, the
WCB and the RFC -- and the fig11 golden sees only two workloads'
ratios to three decimals.  This golden sees every counter.

The grid: backprop under every policy at 1x and 7x MRF latency, and
kmeans under BL and LTRF+ at 4x.  Regenerate only when a change to the
model is intended, and say why in the change:

    PYTHONPATH=src python tests/arch/test_sm_counters.py --update
"""

import argparse
import json
import pathlib
from dataclasses import fields

import pytest

from repro.arch import StreamingMultiprocessor
from repro.arch.serialize import arch_fingerprint
from repro.experiments.runner import sweep_config
from repro.policies import POLICIES
from repro.workloads import get_kernel

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent
          / "golden" / "sm_counters.json")

#: (workload, policy, MRF latency multiple), all simulated at seed 0.
GRID = [
    ("backprop", policy, latency)
    for policy in sorted(POLICIES) for latency in (1.0, 7.0)
] + [("kmeans", policy, 4.0) for policy in ("BL", "LTRF+")]

#: Telemetry fields pinned alongside the compared ones.
TELEMETRY = ("event_counts", "cycles_skipped")


def point_name(workload: str, policy: str, latency: float) -> str:
    return f"{workload}/{policy}/{latency:g}x"


def counters(workload: str, policy: str, latency: float) -> dict:
    """Simulate one grid point; return its pinned fields."""
    result = StreamingMultiprocessor(
        sweep_config(latency), POLICIES[policy]
    ).run(get_kernel(workload), seed=0)
    row = {
        spec.name: getattr(result, spec.name)
        for spec in fields(result)
        if spec.compare or spec.name in TELEMETRY
    }
    row["config"] = arch_fingerprint(result.config)
    # Through JSON, so a fresh row compares like a golden one.
    return json.loads(json.dumps(row))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(point_name(*point) for point in GRID)


@pytest.mark.parametrize("point", GRID, ids=lambda p: point_name(*p))
def test_counters_match_golden(golden, point):
    assert counters(*point) == golden[point_name(*point)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden from a fresh run")
    args = parser.parse_args(argv)
    if not args.update:
        parser.error("run under pytest to check; pass --update to "
                     "regenerate the golden")
    rows = {point_name(*point): counters(*point) for point in GRID}
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"golden updated: {GOLDEN} ({len(rows)} points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
