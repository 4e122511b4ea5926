"""Tests for the deterministic fault-injection harness."""

import os

import pytest

from repro.launchers.faults import (
    KILL_EXIT_CODE,
    Fault,
    FaultPlan,
    FaultPlanError,
    active_plan,
    parse_fault_plan,
)


class TestParsing:
    def test_kill_by_chunk(self):
        (fault,) = parse_fault_plan("kill:chunk=2")
        assert fault == Fault(action="kill", chunk=2)

    def test_kill_after_count(self):
        (fault,) = parse_fault_plan("kill:chunk=2:after=1")
        assert fault.after == 1

    def test_delay_with_suffix_and_fraction(self):
        (a, b) = parse_fault_plan("delay:chunk=5:30s,delay:chunk=6:0.5")
        assert a.seconds == 30.0
        assert b.seconds == 0.5

    def test_always_modifier(self):
        (fault,) = parse_fault_plan("kill:chunk=1:always")
        assert fault.always

    def test_whitespace_and_empty_clauses_tolerated(self):
        plan = parse_fault_plan(" kill:chunk=1 , ,delay:chunk=2:1s ")
        assert [fault.action for fault in plan] == ["kill", "delay"]

    @pytest.mark.parametrize("text", [
        "explode:chunk=1",          # unknown action
        "kill",                     # missing selector
        "kill:warp=3",              # unknown selector
        "kill:chunk=abc",           # non-integer chunk id
        "kill:worker=",             # empty worker id
        "kill:worker=w1",           # pool worker ids are pid-based
        "kill:writer=w1",           # ... and so are store writer ids
        "corrupt-segment:chunk=3",  # pool workers write no segments
        "delay:chunk=1",            # missing duration
        "delay:chunk=1:soon",       # unparseable duration
        "delay:chunk=1:-3s",        # negative duration
        "kill:chunk=1:after=x",     # bad after count
        "kill:chunk=1:sometimes",   # unknown modifier
        "delay:worker=w1:1s:after=2",   # no worker selector either
        "delay:chunk=1:1s:after=2",     # after= only applies to kill
    ])
    def test_malformed_plans_raise_loudly(self, text):
        with pytest.raises(FaultPlanError):
            parse_fault_plan(text)


class TestMatching:
    def test_first_attempt_only_by_default(self):
        (fault,) = parse_fault_plan("kill:chunk=2")
        assert fault.matches(2, attempt=0)
        assert not fault.matches(2, attempt=1)         # retry survives
        assert not fault.matches(3, attempt=0)

    def test_always_fires_on_retries(self):
        (fault,) = parse_fault_plan("kill:chunk=2:always")
        assert fault.matches(2, attempt=3)


class TestSafetyRail:
    def test_plan_is_inert_in_the_orchestrator(self, monkeypatch):
        """Without a worker identity (the orchestrating process, or a
        quarantined chunk degraded to serial) no fault ever fires --
        including a kill that would take pytest down with it."""
        monkeypatch.delenv("LTRF_WORKER_ID", raising=False)
        plan = FaultPlan(parse_fault_plan("kill:chunk=0:always,"
                                          "delay:chunk=0:60s:always"))
        assert plan.worker is None
        plan.on_chunk_start(0, 0)        # would kill or hang a worker
        plan.on_request_done(0, 0, completed=5)

    def test_active_plan_reads_env(self, monkeypatch, capsys):
        """Inside a pool worker (LTRF_WORKER_ID set) the plan from the
        environment is armed."""
        monkeypatch.setenv("LTRF_FAULT_PLAN", "delay:chunk=4:0s")
        monkeypatch.setenv("LTRF_WORKER_ID", "w-pid1")
        plan = active_plan()
        assert plan.faults == [Fault(action="delay", chunk=4)]
        assert plan.worker == "w-pid1"
        plan.on_chunk_start(4, 0)
        assert "[fault] delay 0.0s (chunk 4" in capsys.readouterr().err

    def test_active_plan_empty_when_unset(self, monkeypatch):
        monkeypatch.delenv("LTRF_FAULT_PLAN", raising=False)
        assert active_plan().faults == []

    def test_active_plan_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("LTRF_FAULT_PLAN", "kill")
        with pytest.raises(FaultPlanError):
            active_plan()


class _Killed(Exception):
    """Raised by the patched ``os._exit`` an injected kill calls."""


class TestKill:
    @pytest.fixture
    def worker_plan(self, monkeypatch):
        """A plan armed as in a pool worker, whose kill raises
        :class:`_Killed` instead of ending the test process."""
        def exit_(code):
            raise _Killed(code)

        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setenv("LTRF_WORKER_ID", "w-pid1")
        return lambda text: FaultPlan(parse_fault_plan(text))

    def test_kill_without_after_fires_entering_its_chunk(self,
                                                         worker_plan):
        plan = worker_plan("kill:chunk=1")
        plan.on_chunk_start(0, 0)              # another chunk: spared
        with pytest.raises(_Killed) as killed:
            plan.on_chunk_start(1, 0)
        assert killed.value.args == (KILL_EXIT_CODE,)   # looks like -9

    def test_kill_waits_for_its_after_count(self, worker_plan):
        plan = worker_plan("kill:chunk=1:after=2")
        plan.on_chunk_start(1, 0)
        plan.on_request_done(1, 0, completed=1)
        with pytest.raises(_Killed):
            plan.on_request_done(1, 0, completed=2)
