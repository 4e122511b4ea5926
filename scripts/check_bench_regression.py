"""Perf-regression gate: compare a pytest-benchmark JSON to the baseline.

Usage:
    python scripts/check_bench_regression.py CURRENT.json [BASELINE.json]
    python scripts/check_bench_regression.py CURRENT.json --update

Exits non-zero if the median of any benchmark regresses more than
:data:`THRESHOLD` (25%) against the committed baseline.  Any
difference between the two benchmark sets is called out in an
explicit NOTICE block: benchmarks present only in the current run are
new (reported, not gated, not failures); benchmarks that disappeared
fail the gate so the baseline never silently rots; entries without a
usable median (interrupted runs, harness drift) are reported and
ignored rather than crashing the gate.

``--update`` rewrites the baseline from the current run (keeping only
the fields the gate compares, so the committed file stays small and
machine-noise like timestamps never churns the diff).  Re-baselining is
a deliberate act: do it when a PR intentionally changes performance,
and say so in the PR description.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

#: Allowed median regression, as a fraction of the baseline median.
THRESHOLD = 0.25

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_baseline.json",
)


class GateInputError(Exception):
    """A benchmark JSON file that cannot be gated at all (unreadable,
    truncated, or the wrong shape) -- distinct from per-entry
    malformation, which is tolerated and reported."""


def _read_payload(path: str) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise GateInputError(f"{path}: cannot read ({error})") from None
    except ValueError as error:
        raise GateInputError(
            f"{path}: not valid JSON ({error}) -- interrupted run?"
        ) from None
    if not isinstance(payload, dict):
        raise GateInputError(
            f"{path}: expected a benchmark JSON object, got "
            f"{type(payload).__name__}"
        )
    if not isinstance(payload.get("benchmarks", []), list):
        raise GateInputError(f"{path}: 'benchmarks' is not a list")
    return payload


def _extract_medians(payload: dict) -> tuple:
    """``({benchmark fullname: median seconds}, [malformed names])``.

    Entries without a usable name or ``stats.median`` (e.g. produced by
    an interrupted run or a different harness version) are collected as
    *malformed* rather than crashing the gate with a traceback; the
    caller reports them visibly.
    """
    medians = {}
    malformed = []
    for index, bench in enumerate(payload.get("benchmarks", [])):
        if not isinstance(bench, dict):
            malformed.append(f"<entry {index}>")
            continue
        name = bench.get("fullname") or bench.get("name")
        if not name:
            malformed.append(f"<entry {index}: unnamed>")
            continue
        median = bench.get("stats", {}).get("median") \
            if isinstance(bench.get("stats"), dict) else None
        # json.load happily produces NaN/Infinity, and every NaN
        # comparison is False -- a NaN median would silently never
        # fail the gate.  Treat non-finite as malformed.
        if (not isinstance(median, (int, float))
                or isinstance(median, bool)
                or not math.isfinite(median)):
            malformed.append(name)
            continue
        medians[name] = median
    return medians, malformed


def load_medians(path: str) -> tuple:
    """:func:`_extract_medians` over the benchmark JSON at ``path``."""
    return _extract_medians(_read_payload(path))


def write_baseline(path: str, current_path: str) -> None:
    payload = _read_payload(current_path)
    medians, malformed = _extract_medians(payload)
    slim = {
        "machine_info": {
            key: payload.get("machine_info", {}).get(key)
            for key in ("node", "processor", "cpu", "python_version")
        },
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}}
            for name, median in sorted(medians.items())
        ],
    }
    with open(path, "w") as handle:
        json.dump(slim, handle, indent=2, sort_keys=True)
        handle.write("\n")
    # A malformed entry (interrupted run) must not crash the
    # re-baseline, but silently baselining without it would un-gate the
    # benchmark forever -- so say what was left out.
    for name in malformed:
        print(f"NOTICE: {name}: no usable median in {current_path}; "
              "left out of the baseline")
    print(f"baseline updated: {path} ({len(slim['benchmarks'])} benchmarks)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="benchmark JSON from this run")
    parser.add_argument("baseline", nargs="?", default=DEFAULT_BASELINE)
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current run instead of gating",
    )
    args = parser.parse_args(argv)

    try:
        if args.update:
            write_baseline(args.baseline, args.current)
            return 0

        if not os.path.exists(args.baseline):
            print(f"ERROR: no baseline at {args.baseline}; generate one "
                  f"with --update and commit it", file=sys.stderr)
            return 2

        current, current_malformed = load_medians(args.current)
        baseline, baseline_malformed = load_medians(args.baseline)
    except GateInputError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2

    # Distinguish a benchmark that truly did not run from one that ran
    # but produced no usable median: both fail the gate (it is
    # baselined, so it must be measured), but with accurate messages.
    unreadable = sorted(set(baseline) & set(current_malformed))
    added = sorted(set(current) - set(baseline) - set(baseline_malformed))
    removed = sorted(set(baseline) - set(current) - set(unreadable))

    failures = []
    improvements = []
    lines = []
    for name in removed:
        failures.append(f"{name}: present in baseline but not run")
    for name in unreadable:
        failures.append(
            f"{name}: baselined, but this run's entry has no usable median"
        )
    for name in sorted(baseline_malformed):
        # A rotten baseline entry would otherwise silently un-gate the
        # benchmark; the invariant is that the baseline never rots.
        failures.append(
            f"{name}: baseline entry has no usable median -- repair or "
            "re-baseline BENCH_baseline.json"
        )
    for name in sorted(baseline):
        if name not in current:
            continue
        base = baseline[name]
        now = current[name]
        ratio = now / base if base else float("inf")
        # The +50ms absolute slack keeps sub-millisecond benchmarks
        # (static tables) from tripping the relative gate on timer
        # noise; any benchmark long enough to measure is gated by the
        # relative threshold alone.
        allowed = base * (1.0 + THRESHOLD) + 0.05
        flag = ""
        if now > allowed:
            flag = "  << REGRESSION"
            failures.append(
                f"{name}: median {now:.4f}s vs baseline {base:.4f}s "
                f"({ratio:.2f}x > {1.0 + THRESHOLD:.2f}x allowed)"
            )
        elif now < base * (1.0 - THRESHOLD) - 0.05:
            # The mirror image of the regression test (same relative
            # threshold, same absolute timer-noise slack).
            flag = "  << IMPROVEMENT"
            improvements.append(
                f"{name}: median {now:.4f}s vs baseline {base:.4f}s "
                f"({ratio:.2f}x)"
            )
        lines.append(f"  {name}: {base:.4f}s -> {now:.4f}s "
                     f"({ratio:.2f}x){flag}")

    print(f"perf gate: threshold +{THRESHOLD:.0%}, "
          f"{len(baseline)} baselined benchmark(s)")
    print("\n".join(lines))

    # Coverage changes are easy to miss in a wall of timing lines, and
    # both directions matter: a benchmark added without re-baselining is
    # permanently ungated, and a disappeared one means the suite (or the
    # baseline) rotted.  Say so explicitly instead of skipping silently.
    if added or removed or current_malformed or baseline_malformed:
        print("\nNOTICE: benchmark set differs from the baseline:")
        for name in added:
            print(f"  + {name}: new in this run "
                  f"({current[name]:.4f}s); not in the baseline, NOT gated")
        for name in removed:
            print(f"  - {name}: in the baseline but absent from this run")
        for name in current_malformed:
            if name in baseline or name in baseline_malformed:
                print(f"  ? {name}: entry in this run has no usable "
                      "median; baselined, so the gate FAILS")
            else:
                print(f"  ? {name}: entry in this run has no usable "
                      "median; not baselined, ignored")
        for name in baseline_malformed:
            print(f"  ? {name}: unreadable entry in the baseline "
                  "(no median); the gate FAILS until the baseline is "
                  "repaired")
        print("  Re-baseline deliberately with: "
              "python scripts/check_bench_regression.py CURRENT.json "
              "--update")
    if improvements:
        # Deliberate speedups deserve the same visibility as
        # regressions: an un-rebaselined improvement quietly raises the
        # regression headroom for every future PR.
        print(f"\nIMPROVEMENT: {len(improvements)} benchmark(s) ran "
              f">{THRESHOLD:.0%} faster than the baseline:")
        for line in improvements:
            print(f"  {line}")
        print("  If intentional, tighten the gate by re-baselining: "
              "python scripts/check_bench_regression.py CURRENT.json "
              "--update")
    if failures:
        print("\nFAIL: median regression(s) beyond threshold:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("\nIf this slowdown is intentional, re-baseline with:\n"
              "  python scripts/check_bench_regression.py CURRENT.json "
              "--update\nand commit BENCH_baseline.json.", file=sys.stderr)
        return 1
    print("OK: no benchmark regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
