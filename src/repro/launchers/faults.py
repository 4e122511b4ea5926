"""Deterministic fault injection for parallel sweeps.

``LTRF_FAULT_PLAN`` holds a comma-separated list of fault actions that
pool workers apply to *themselves* at well-defined points of chunk
execution, so kill and hang scenarios are reproducible in tests and
CI instead of being simulated with mock pools::

    kill:chunk=2                   die (os._exit 137) entering chunk 2
    kill:chunk=2:after=1           die after 1 completed simulation
    delay:chunk=5:30s              sleep 30s entering chunk 5
                                   (drives the LTRF_CHUNK_TIMEOUT path)

The one selector, ``chunk=<id>``, matches the deterministic
dispatch-order chunk id.  By default a fault fires only on a chunk's
*first* attempt -- before its first charged failure, modelling a
transient fault the retry machinery must absorb -- so a retried chunk
succeeds; append ``:always`` to keep firing on every attempt, which
drives the poisoned-chunk quarantine path instead.

Two hard safety rails:

* Faults only ever fire inside pool workers (guarded by
  :func:`worker_id`), never in the orchestrating process -- a
  quarantined chunk degraded to serial in-process execution runs
  clean.
* The plan is parsed eagerly and loudly: a malformed plan raises
  :class:`FaultPlanError` rather than silently injecting nothing,
  because a chaos test whose faults never fire "passes" vacuously.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

ENV_FAULT_PLAN = "LTRF_FAULT_PLAN"

#: Exit code of an injected kill; chosen to look like SIGKILL so the
#: parent-side classification path is the same one a real OOM kill or
#: operator ``kill -9`` takes.
KILL_EXIT_CODE = 137

_ACTIONS = ("kill", "delay")


class FaultPlanError(ValueError):
    """Unparseable ``LTRF_FAULT_PLAN`` text."""


def worker_id() -> Optional[str]:
    """This process's pool-worker identity (``LTRF_WORKER_ID``), or
    ``None`` outside pool workers: a quarantined chunk re-run serially
    in the parent must not re-trigger the kill that quarantined it."""
    return os.environ.get("LTRF_WORKER_ID")


@dataclass(frozen=True)
class Fault:
    """One parsed fault action."""

    action: str                  # kill | delay
    chunk: int                   # selector: chunk id
    after: int = 0               # kill: completed simulations first
    seconds: float = 0.0         # delay: sleep length
    always: bool = False         # fire on every attempt, not just #0

    def matches(self, chunk_id: int, attempt: int) -> bool:
        if not self.always and attempt > 0:
            return False
        return self.chunk == chunk_id


def _parse_duration(text: str, clause: str) -> float:
    raw = text[:-1] if text.endswith("s") else text
    try:
        seconds = float(raw)
    except ValueError:
        raise FaultPlanError(
            f"bad delay duration {text!r} in fault clause {clause!r} "
            "(expected e.g. 30s or 0.5s)"
        ) from None
    if seconds < 0:
        raise FaultPlanError(f"negative delay in fault clause {clause!r}")
    return seconds


def _parse_selector(part: str, clause: str) -> int:
    name, _, value = part.partition("=")
    if name != "chunk":
        raise FaultPlanError(
            f"unknown selector {part!r} in fault clause {clause!r} "
            "(expected chunk=<id>)"
        )
    try:
        return int(value)
    except ValueError:
        raise FaultPlanError(
            f"bad chunk id {value!r} in fault clause {clause!r}"
        ) from None


def _parse_clause(clause: str) -> Fault:
    parts = clause.split(":")
    action = parts[0]
    if action not in _ACTIONS:
        raise FaultPlanError(
            f"unknown fault action {action!r} in {clause!r} "
            f"(expected one of {', '.join(_ACTIONS)})"
        )
    if len(parts) < 2:
        raise FaultPlanError(
            f"fault clause {clause!r} needs a selector (chunk=<id>)"
        )
    chunk = _parse_selector(parts[1], clause)
    after = 0
    seconds = 0.0
    always = False
    extras = parts[2:]
    if action == "delay":
        if not extras:
            raise FaultPlanError(
                f"delay clause {clause!r} needs a duration, e.g. "
                "delay:chunk=5:30s"
            )
        seconds = _parse_duration(extras[0], clause)
        extras = extras[1:]
    for extra in extras:
        if extra == "always":
            always = True
        elif extra.startswith("after=") and action == "kill":
            try:
                after = int(extra[len("after="):])
            except ValueError:
                raise FaultPlanError(
                    f"bad after= count in fault clause {clause!r}"
                ) from None
        else:
            raise FaultPlanError(
                f"unknown modifier {extra!r} in fault clause {clause!r}"
            )
    return Fault(action=action, chunk=chunk, after=after,
                 seconds=seconds, always=always)


def parse_fault_plan(text: str) -> List[Fault]:
    """Parse a fault-plan string; raises :class:`FaultPlanError`."""
    faults = []
    for clause in text.split(","):
        clause = clause.strip()
        if clause:
            faults.append(_parse_clause(clause))
    return faults


class FaultPlan:
    """The active plan, bound to this process's worker identity."""

    def __init__(self, faults: List[Fault]) -> None:
        self.faults = faults
        self.worker = worker_id()

    def _active(self, action: str, chunk_id: int,
                attempt: int) -> Optional[Fault]:
        if self.worker is None:
            return None              # never fire in the orchestrator
        for fault in self.faults:
            if fault.action == action and fault.matches(chunk_id,
                                                        attempt):
                return fault
        return None

    # -- injection points ---------------------------------------------------

    def on_chunk_start(self, chunk_id: int, attempt: int) -> None:
        """Entering a chunk: apply delay, then an ``after=0`` kill."""
        delay = self._active("delay", chunk_id, attempt)
        if delay is not None:
            print(f"[fault] delay {delay.seconds}s (chunk {chunk_id}, "
                  f"attempt {attempt})", file=sys.stderr, flush=True)
            time.sleep(delay.seconds)
        self._maybe_kill(chunk_id, attempt, completed=0)

    def on_request_done(self, chunk_id: int, attempt: int,
                        completed: int) -> None:
        """After each completed simulation."""
        self._maybe_kill(chunk_id, attempt, completed)

    def _maybe_kill(self, chunk_id: int, attempt: int,
                    completed: int) -> None:
        kill = self._active("kill", chunk_id, attempt)
        if kill is not None and completed >= kill.after:
            print(f"[fault] kill (chunk {chunk_id}, attempt {attempt}, "
                  f"after {completed} sim(s))", file=sys.stderr, flush=True)
            sys.stderr.flush()
            os._exit(KILL_EXIT_CODE)


def active_plan() -> FaultPlan:
    """The plan from ``LTRF_FAULT_PLAN`` (empty plan when unset)."""
    text = os.environ.get(ENV_FAULT_PLAN, "")
    return FaultPlan(parse_fault_plan(text) if text else [])
