"""The paper's tables and figures, each declared once.

:data:`FIGURES` maps every ``repro experiment`` name to a
:class:`Figure`, in paper order; the CLI, ``run_all_experiments.py``
and the figure benchmarks all read it.  The *full* workload set stays
each figure function's own default.  Adapters look their function up
by name when called, so a wrapper rebound over ``fig11`` (a tracer,
say) sees the registry's calls too.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence

from repro.experiments.capacity import fig3, fig4, fig9, fig10
from repro.experiments.compiler_metrics import overheads, storage_report, table4
from repro.experiments.latency_tolerance import fig11, fig12, fig13, fig14
from repro.experiments.report import ExperimentResult
from repro.experiments.static_tables import fig2, table1, table2

#: Two register-insensitive and three register-sensitive workloads.
FAST = ("btree", "kmeans", "backprop", "srad", "lavamd")
#: The fast set of the averaged latency sweeps (Figures 12-14).
FAST_SWEEP = ("btree", "backprop", "srad")


class Figure(NamedTuple):
    """One paper table or figure.

    ``call(runner, workloads, jobs, arch)`` renders it; ``None``
    workloads is the function's full set and ``None`` arch its default
    SM.  ``fast`` is the ``--fast`` and benchmark set (``None``: the
    full set there too).  ``arch_aware`` marks the latency sweeps, which
    perturb whatever SM they are given; every other figure pins a paper
    configuration, so ``--arch`` is an error there.
    """

    call: Callable[..., ExperimentResult]
    fast: Optional[Sequence[str]]
    paper: str
    arch_aware: bool = False

    def run(self, runner, jobs: Optional[int] = None, arch=None,
            fast: bool = False) -> ExperimentResult:
        workloads = list(self.fast) if fast and self.fast else None
        return self.call(runner, workloads, jobs, arch)


def _arch(arch) -> dict:
    return {} if arch is None else {"arch": arch}


_SECTION_4_3 = ("paper: +7%/+9% code size, WCB ~5% of 256KB, 4-6x fewer "
                "MRF accesses")

# Every adapter takes (runner, workloads, jobs, arch).
FIGURES: Dict[str, Figure] = {
    "table1": Figure(lambda r, w, j, a: table1(), None,
                     "paper: Fermi 184KB (1.4x) / 324KB (2.5x); "
                     "Maxwell 588KB (2.3x) / 1504KB (5.9x)"),
    "fig2": Figure(lambda r, w, j, a: fig2(), None,
                   "paper: Pascal dedicates >60% of on-chip storage to "
                   "the RF"),
    "table2": Figure(lambda r, w, j, a: table2(), None,
                     "paper: published CACTI/NVSim numbers (incl. "
                     "queueing)"),
    "fig3": Figure(lambda r, w, j, a: fig3(r, w, jobs=j), FAST,
                   "paper: Ideal TFET +37% avg (sensitive); real TFET "
                   "loses most of the gain"),
    "fig4": Figure(lambda r, w, j, a: fig4(r, w, jobs=j), FAST,
                   "paper: 8-30% hit rate for both HW and SW register "
                   "caches"),
    "fig9a": Figure(lambda r, w, j, a: fig9(r, 6, w, jobs=j), FAST,
                    "paper means: LTRF +32%, LTRF+ ~+33%, Ideal ~+35%; "
                    "RFC -14%"),
    "fig9b": Figure(lambda r, w, j, a: fig9(r, 7, w, jobs=j), FAST,
                    "paper means: LTRF +28%, LTRF+ +31% on config #7"),
    "fig10": Figure(lambda r, w, j, a: fig10(r, w, jobs=j), FAST,
                    "paper means: RFC 0.649, LTRF 0.646, LTRF+ 0.539"),
    "fig11": Figure(lambda r, w, j, a: fig11(r, w, jobs=j, **_arch(a)),
                    FAST, "paper means: BL 1x, RFC 2.1x, LTRF 5.3x, "
                    "LTRF+ 6.2x", arch_aware=True),
    "fig12": Figure(lambda r, w, j, a: fig12(r, w, jobs=j, **_arch(a)),
                    FAST_SWEEP, "paper: 8-reg intervals degrade at high "
                    "latency; 16 is the sweet spot", arch_aware=True),
    "fig13": Figure(lambda r, w, j, a: fig13(r, w, jobs=j, **_arch(a)),
                    FAST_SWEEP, "paper: 4->8 active warps +36.9% on slow "
                    "MRFs; >8 flat", arch_aware=True),
    "fig14": Figure(lambda r, w, j, a: fig14(r, w, jobs=j, **_arch(a)),
                    FAST_SWEEP, "paper tolerable: BL 1x, RFC ~2x, SHRF ~2x, "
                    "LTRF-strand ~3x, LTRF 5.3x", arch_aware=True),
    "table4": Figure(lambda r, w, j, a: table4(w), None,
                     "paper: real 31.2/7/45, optimal 34.7/9/53 (real = 89% "
                     "of optimal on average)"),
    "overheads": Figure(lambda r, w, j, a: overheads(r, w, jobs=j), FAST,
                        _SECTION_4_3),
    "storage": Figure(lambda r, w, j, a: storage_report(), None,
                      _SECTION_4_3),
}
