"""The evaluation workload suites.

Mirrors the paper's setup (Section 5): 35 workloads drawn from CUDA SDK,
Rodinia, and Parboil, classified register-sensitive / register-
insensitive by whether register file capacity limits their TLP, with a
14-workload evaluation subset (nine register-sensitive, five
register-insensitive -- the paper picks the same split).

Each entry is a :class:`~repro.workloads.generator.WorkloadSpec` whose
register demands are calibrated so the *suite-level* statistics land
near Table 1 of the paper (Maxwell: average demand ~2.3x a 256KB file,
maximum ~5.9x; Fermi: ~1.4x / ~2.5x of 128KB), and whose memory/compute
mixes produce the hit-rate and latency-tolerance behaviours the
evaluation section reports.  The *names* identify which real benchmark
each synthetic stands in for; the behaviour is synthetic by design.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.kernel import Kernel
from repro.workloads.generator import WorkloadSpec

SENSITIVE = "register-sensitive"
INSENSITIVE = "register-insensitive"


def _spec(name: str, category: str, registers: int, fermi: int,
          **overrides) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, category=category, registers=registers,
        registers_fermi=fermi, **overrides,
    )


#: All 35 workloads (name -> spec).  The 14 with rich parameterisation
#: form the evaluation subset below.
SUITE: Dict[str, WorkloadSpec] = {spec.name: spec for spec in [
    # --- Rodinia ---------------------------------------------------------
    _spec("backprop", SENSITIVE, 96, 34, loop_trips=22, segments=4, cold_fraction=0.45,
          seed=11),
    _spec("hotspot", SENSITIVE, 88, 37, loop_trips=26, segments=3, cold_fraction=0.40,
          diamond=True, seed=12),
    _spec("srad", SENSITIVE, 120, 42, loop_trips=20, segments=4, cold_fraction=0.50,
          use_sfu=True, seed=13),
    _spec("lud", SENSITIVE, 104, 38, loop_trips=24, segments=3, cold_fraction=0.35,
          inner_trips=4, seed=14),
    _spec("nw", SENSITIVE, 72, 30, loop_trips=28, segments=3, cold_fraction=0.55,
          diamond=True, seed=15),
    _spec("gaussian", SENSITIVE, 64, 27, loop_trips=30, segments=3, cold_fraction=0.50,
          seed=16),
    _spec("pathfinder", SENSITIVE, 80, 32, loop_trips=26, segments=3,
          cold_fraction=0.60, diamond=True, seed=17),
    _spec("lavamd", SENSITIVE, 160, 43, loop_trips=18, segments=4, cold_fraction=0.40,
          use_sfu=True,
          inner_trips=3, seed=18),
    _spec("cfd", SENSITIVE, 136, 40, loop_trips=20, segments=4, cold_fraction=0.55,
          use_sfu=True, seed=19),
    _spec("btree", INSENSITIVE, 28, 18, loop_trips=30, segments=2, cold_fraction=0.70,
          diamond=True, seed=20),
    _spec("kmeans", INSENSITIVE, 24, 14, loop_trips=32, segments=2, cold_fraction=0.15,
          inner_trips=5, seed=21),
    _spec("bfs", INSENSITIVE, 20, 13, loop_trips=30, segments=2, cold_fraction=0.75,
          diamond=True, seed=22),
    _spec("streamcluster", INSENSITIVE, 32, 19, loop_trips=28, segments=2,
          cold_fraction=0.35, seed=23),
    _spec("heartwall", SENSITIVE, 92, 35, seed=24),
    _spec("myocyte", SENSITIVE, 148, 45, seed=25),
    _spec("particlefilter", SENSITIVE, 76, 29, seed=26),
    _spec("nn", INSENSITIVE, 22, 14, seed=27),
    # --- Parboil -------------------------------------------------------------
    _spec("histo", INSENSITIVE, 26, 16, loop_trips=30, segments=2, cold_fraction=0.25,
          use_shared=True, seed=28),
    _spec("cutcp", SENSITIVE, 84, 32, use_sfu=True, seed=29),
    _spec("lbm", SENSITIVE, 188, 54, seed=30),
    _spec("mri-q", SENSITIVE, 68, 27, use_sfu=True, seed=31),
    _spec("mri-gridding", SENSITIVE, 112, 38, seed=32),
    _spec("sad", INSENSITIVE, 36, 21, seed=33),
    _spec("sgemm", SENSITIVE, 114, 42, seed=34),
    _spec("spmv", INSENSITIVE, 30, 18, seed=35),
    _spec("stencil", SENSITIVE, 66, 29, seed=36),
    _spec("tpacf", SENSITIVE, 98, 37, seed=37),
    # --- CUDA SDK ----------------------------------------------------------------
    _spec("blackscholes", SENSITIVE, 86, 34, use_sfu=True, seed=38),
    _spec("matrixmul", SENSITIVE, 108, 40, seed=39),
    _spec("scalarprod", INSENSITIVE, 34, 19, seed=40),
    _spec("reduction", INSENSITIVE, 18, 12, seed=41),
    _spec("transpose", INSENSITIVE, 24, 14, seed=42),
    _spec("convolution", SENSITIVE, 94, 35, seed=43),
    _spec("sortingnetworks", INSENSITIVE, 40, 22, seed=44),
    _spec("montecarlo", SENSITIVE, 78, 30, use_sfu=True, seed=45),
]}

#: The paper's evaluation subset: nine register-sensitive, five
#: register-insensitive workloads (Section 5, "Benchmarks").
EVALUATION_SENSITIVE: List[str] = [
    "backprop", "hotspot", "srad", "lud", "nw",
    "gaussian", "pathfinder", "lavamd", "cfd",
]
EVALUATION_INSENSITIVE: List[str] = [
    "btree", "kmeans", "bfs", "streamcluster", "histo",
]
EVALUATION: List[str] = EVALUATION_INSENSITIVE + EVALUATION_SENSITIVE

def workload_names() -> List[str]:
    """Names of the 35-workload paper suite (not scenario instances)."""
    return list(SUITE)


def get_kernel(name: str) -> Kernel:
    """Build (and memoise) the kernel for any registered workload name.

    Resolves through the default :class:`~repro.workloads.registry.
    WorkloadRegistry`, so beyond the suite this accepts scenario-family
    instances (``regpressure-128``) and ``.kernel.json`` paths.
    Callers must not mutate the returned kernel; compile passes clone.
    """
    from repro.workloads.registry import default_registry
    return default_registry().get_kernel(name)
