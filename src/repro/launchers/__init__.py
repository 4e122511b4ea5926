"""Parallel sweep execution: the process pool (:mod:`.pool`), the one
simulation a grid point runs (:mod:`.worker`) and the fault harness
(:mod:`.faults`).  Only :class:`SweepAborted` lives here, so a serial
sweep can catch it without loading ``multiprocessing``.
"""


class SweepAborted(RuntimeError):
    """A sweep was cancelled cooperatively (``should_abort`` returned
    True) rather than failing.

    Raised by the pool and by the serial path of :mod:`repro.jobs.plan`
    once in-flight work is killed.  Every record already delivered is
    flushed, so re-running the same grid resumes from the store; the
    job tracker maps this onto the ``partial`` job state.
    """
