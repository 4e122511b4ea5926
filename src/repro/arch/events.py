"""The wake-up event kinds of the event-driven SM core.

``StreamingMultiprocessor._simulate_event`` pushes each completion onto
one heap of ``(cycle, sequence, kind, warp)`` entries; same-cycle
entries pop in push order, so a run replays identically, and
``SimulationResult.event_counts`` counts the pushes by kind.  A WCB
drain carries no warp: nothing in the modelled microarchitecture waits
on it, so it is counted and wakes nothing.
"""


class EventKind:
    """Which component's completion wakes the SM."""

    MEMORY_RESPONSE = "memory_response"        # an L1-miss load returns
    PREFETCH_ARRIVAL = "prefetch_arrival"      # a bulk RFC fill lands
    SCOREBOARD_RELEASE = "scoreboard_release"  # pending writes settle
    WCB_DRAIN = "wcb_drain"                    # a write-back drain lands

    ALL = (MEMORY_RESPONSE, PREFETCH_ARRIVAL, SCOREBOARD_RELEASE, WCB_DRAIN)
