"""Command-line interface to the reproduction.

Usage (after ``pip install -e .``):

    python -m repro.cli list-workloads [--family regpressure]
    python -m repro.cli list-archs
    python -m repro.cli simulate backprop --policy LTRF --arch tfet-8x
    python -m repro.cli simulate regpressure-128 --policy LTRF
    python -m repro.cli simulate bp.kernel.json --policy LTRF
    python -m repro.cli simulate backprop --arch my-sm.arch.json
    python -m repro.cli compile backprop --regions strand
    python -m repro.cli export-kernel backprop -o bp.kernel.json
    python -m repro.cli export-arch maxwell-like -o m.arch.json
    python -m repro.cli experiment fig9a fig10 table4 --jobs 4
    python -m repro.cli experiment fig14 --arch my-sm.arch.json
    python -m repro.cli sweep backprop --policies BL,LTRF,LTRF+ --jobs 4
    python -m repro.cli sweep backprop --arch maxwell-like,my.arch.json
    python -m repro.cli store stats
    python -m repro.cli store verify
    python -m repro.cli store compact
    python -m repro.cli report -o report/ [--baseline-policy BL]
    python -m repro.cli diff-runs /path/to/storeA /path/to/storeB

Workload arguments resolve through the registry
(:mod:`repro.workloads.registry`): any suite name, any scenario-family
instance (``<family>-<parameter>``), or a ``.kernel.json`` path.
Architecture arguments resolve the same way through
:mod:`repro.arch.registry`: a built-in name (``list-archs``) or a
``.arch.json`` path.  Both registries share one mechanism
(:mod:`repro.registry`), so a path ending in ``.json`` goes wherever a
name goes; there is no separate file option.  Every subcommand prints
plain text; experiment names mirror the paper's tables and figures
(the experiment index is :data:`repro.experiments.FIGURES`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, NoReturn, Optional

from repro.analysis import (
    build_report,
    diff_runs,
    discover_bench_files,
    write_report,
)
from repro.arch import ARCH_FILE_SUFFIX, save_arch
from repro.arch.registry import default_arch_registry
from repro.compiler import compile_kernel
from repro.experiments import FIGURES, Runner, render_sweep_table
from repro.experiments.runner import default_cache_dir
from repro.ir.serialize import KERNEL_FILE_SUFFIX, save_kernel
from repro.policies import POLICIES
from repro.registry import is_file_name
from repro.store import Query, ResultStore, StoreError, check_workload_name
from repro.workloads import UnknownWorkloadError, default_registry

def _add_workload_argument(command) -> None:
    """Workload selection shared by simulate/sweep.

    The workload is deliberately *not* an argparse ``choices`` list:
    the registry resolves scenario-family instances and kernel files
    that no static list can enumerate, and unknown names get
    nearest-match suggestions instead of a raw choices dump.
    """
    command.add_argument(
        "workload", nargs="?", default=None,
        help="registered workload, scenario instance (e.g. "
             "regpressure-128), or .kernel.json path",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LTRF (ASPLOS 2018) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_workloads = sub.add_parser(
        "list-workloads",
        help="list the 35-workload suite and scenario families",
    )
    list_workloads.add_argument(
        "--family", default=None, metavar="FAMILY",
        help="describe one scenario family (e.g. regpressure)",
    )
    sub.add_parser("list-policies", help="list register-file policies")
    sub.add_parser(
        "list-experiments", help="list reproducible tables/figures"
    )

    simulate = sub.add_parser("simulate", help="run one simulation")
    _add_workload_argument(simulate)
    simulate.add_argument("--policy", default="LTRF",
                          choices=sorted(POLICIES))
    simulate.add_argument("--arch", default="maxwell-like", metavar="NAME",
                          help="architecture by registry name (see "
                               "list-archs) or .arch.json path "
                               "(default: maxwell-like)")
    simulate.add_argument("--latency", type=float, default=None,
                          help="override the MRF latency multiple")

    compile_cmd = sub.add_parser("compile", help="show prefetch regions")
    compile_cmd.add_argument(
        "workload",
        help="registered workload, scenario instance, or .kernel.json path",
    )
    compile_cmd.add_argument("--regions", default="register-interval",
                             choices=("register-interval", "strand"))
    compile_cmd.add_argument("--max-registers", type=int, default=16)

    export = sub.add_parser(
        "export-kernel",
        help="serialize a workload's kernel to a .kernel.json file",
    )
    export.add_argument(
        "workload",
        help="registered workload or scenario instance to export",
    )
    export.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="output path (default <workload>.kernel.json)")

    sub.add_parser(
        "list-archs", help="list named architecture descriptions"
    )
    export_arch = sub.add_parser(
        "export-arch",
        help="serialize a named architecture to a .arch.json file",
    )
    export_arch.add_argument(
        "arch",
        help="registry name (see list-archs) or .arch.json path to "
             "re-export",
    )
    export_arch.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="output path (default <arch>.arch.json)",
    )

    experiment = sub.add_parser("experiment",
                                help="regenerate paper tables/figures")
    experiment.add_argument("names", nargs="+",
                            choices=sorted(FIGURES) + ["all"])
    experiment.add_argument("--jobs", type=int, default=1,
                            help="worker processes for simulation grids")
    experiment.add_argument(
        "--arch", default=None, metavar="NAME",
        help="architecture to sweep (latency-tolerance figures only): "
             "registry name or .arch.json path",
    )

    sweep = sub.add_parser("sweep", help="latency-tolerance sweep")
    _add_workload_argument(sweep)
    sweep.add_argument("--policies", default="BL,RFC,LTRF,LTRF+",
                       help="comma-separated policy names")
    sweep.add_argument("--arch", default="maxwell-like", metavar="NAMES",
                       help="comma-separated architecture axis: registry "
                            "names and/or .arch.json paths")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep grid")

    serve = sub.add_parser(
        "serve",
        help="run the sweep service: an HTTP API over the jobs layer "
             "(POST /sweeps, GET /jobs/<id>, GET /results, "
             "GET /report/<id>)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port; 0 picks a free one "
                            "(default: 8642)")
    serve.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store root (default: $LTRF_CACHE_DIR or ./.ltrf_cache)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="sweep jobs executing concurrently (default: 2)",
    )

    store = sub.add_parser(
        "store", help="inspect/maintain the on-disk result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    descriptions = {
        "stats": "record/architecture/run-log counts and size",
        "verify": "full consistency scan (payloads that do not decode, "
                  "SQLite integrity check); exits 1 on failure",
        "compact": "VACUUM the database, dropping the space replaced "
                   "records left",
    }
    for name, description in descriptions.items():
        command = store_sub.add_parser(name, help=description)
        command.add_argument(
            "--dir", default=None, metavar="DIR",
            help="store root (default: $LTRF_CACHE_DIR or ./.ltrf_cache)",
        )

    report = sub.add_parser(
        "report",
        help="render an HTML+CSV report over the result store (IPC "
             "deltas, telemetry, store health, BENCH perf trajectory); "
             "exits 1 if the store holds no records",
    )
    report.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store root (default: $LTRF_CACHE_DIR or ./.ltrf_cache)",
    )
    report.add_argument(
        "-o", "--output", default="report", metavar="DIR",
        help="output directory for report.html + CSVs (default: ./report)",
    )
    report.add_argument(
        "--baseline-policy", default="BL", metavar="POLICY",
        help="policy the IPC delta columns normalise against "
             "(default: BL)",
    )
    report.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="directory scanned for BENCH_*.json perf-history files "
             "(default: current directory)",
    )

    diff = sub.add_parser(
        "diff-runs",
        help="pair the records of two stores and attribute every "
             "difference to a cause (config/kernel/payload)",
    )
    diff.add_argument("store_a", metavar="A", help="store root of run A")
    diff.add_argument("store_b", metavar="B", help="store root of run B")
    return parser


class _CliError(SystemExit):
    """Clean one-line CLI failure: the message has already been
    printed to stderr; carries the exit code (2, or 1 for a failed
    store verify / empty report)."""


def _fail(message: str, code: int = 2) -> NoReturn:
    """The one CLI failure path, shared by every subcommand: print
    ``error: <message>`` to stderr and exit with ``code`` (2 for
    usage/environment errors; 1 for a failed verification or an empty
    report -- "ran fine, found a problem")."""
    print(f"error: {message}", file=sys.stderr)
    raise _CliError(code)


def _resolved(lookup, *args, **kwargs):
    """``lookup(*args, **kwargs)``, failing cleanly on a ValueError.

    Resolution *and* materialisation happen here so every failure mode
    -- a typo'd name (difflib suggestions), an out-of-range scenario
    parameter, a missing or malformed kernel or architecture file, a
    latency multiple or register budget the model refuses -- fails
    fast with a clean one-line error instead of argparse's choices
    dump or a traceback from deep inside the runner: all are
    ValueErrors.  A built object is memoised by its registry, so the
    subsequent simulate/compile pays nothing extra.
    """
    try:
        return lookup(*args, **kwargs)
    except ValueError as error:
        _fail(str(error))


def _resolve_workload(name: Optional[str]) -> str:
    """Validate a workload selection and return its registry name."""
    if name is None:
        _fail("a workload name is required")
    _resolved(check_workload_name, name)
    _resolved(default_registry().get_kernel, name)
    return name


def _make_runner() -> Runner:
    """Construct the cached runner, failing cleanly on a bad cache dir.

    ``default_cache_dir`` raises ValueError on ``LTRF_CACHE_DIR=""``
    (set but empty -- almost always a misquoted export), and
    ``ResultStore`` raises StoreError on an unreadable or mismatched
    STORE_FORMAT marker; surface both as a one-line error instead of a
    traceback, matching the `store` subcommands.
    """
    try:
        return Runner()
    except (ValueError, StoreError) as error:
        _fail(str(error))


def _interrupted(runner: Runner) -> NoReturn:
    """Ctrl-C during a grid: one-line resume hint, exit 130.

    Everything that completed before the interrupt is already flushed
    (records are stored as each chunk delivers), so re-running the
    same command resumes from the store instead of starting over.
    """
    stats = runner.stats
    # Unique points of the grid that are neither served from the store
    # (at plan or execute time) nor simulated.
    remaining = max(0, stats.batch_requests - stats.batch_deduplicated
                    - stats.hits - stats.simulated)
    print(f"\ninterrupted: completed points are flushed to "
          f"{runner.cache_dir}; about {remaining} dispatched point(s) "
          "remain -- re-run the same command to resume", file=sys.stderr)
    raise _CliError(130)


def _cmd_simulate(args) -> None:
    workload = _resolve_workload(args.workload)
    # The default architecture is the same 272KB normalisation baseline
    # the experiments use (MRF + the 16KB RFC budget), so printed IPC
    # numbers are directly comparable to the figures.
    config = _resolved(default_arch_registry().get_config, args.arch)
    if args.latency is not None:
        config = _resolved(config.with_latency_multiple, args.latency)
    runner = _make_runner()
    result = runner.simulate(workload, args.policy, config)
    print(f"workload           {workload}")
    print(f"policy             {args.policy}")
    print(f"arch               {args.arch} "
          f"({config.mrf_size_kb}KB, {config.mrf_latency_multiple}x)")
    print(f"resident warps     {result.resident_warps}")
    print(f"cycles             {result.cycles}")
    print(f"instructions       {result.instructions}")
    print(f"IPC                {result.ipc:.3f}")
    print(f"MRF accesses       {result.mrf_accesses}")
    print(f"RFC hit rate       {result.rfc_hit_rate:.2f}")
    print(f"L1 hit rate        {result.l1_hit_rate:.2f}")
    print(f"(de)activations    {result.activations}/{result.deactivations}")
    print(f"engine             {runner.render_telemetry()}")


def _cmd_compile(args) -> None:
    kernel = _resolved(default_registry().get_kernel, args.workload)
    compiled = _resolved(compile_kernel, kernel, region_kind=args.regions,
                         max_registers=args.max_registers)
    print(f"{args.workload}: {compiled.partition.region_count()} "
          f"{args.regions} region(s), "
          f"{compiled.prefetch_count} PREFETCH operation(s)")
    print(f"code size: +{compiled.code_size.embedded_bit_overhead:.1%} "
          f"(embedded bit) / "
          f"+{compiled.code_size.explicit_instruction_overhead:.1%} "
          f"(explicit instruction)")
    for region in compiled.partition.regions:
        regs = ",".join(f"r{r}" for r in sorted(region.registers))
        print(f"  region {region.id:3d} header={region.header:16s} "
              f"|WS|={region.working_set_size:2d} {{{regs}}}")


def _cmd_experiment(names: List[str], jobs: int,
                    arch: Optional[str] = None) -> None:
    selected = sorted(FIGURES) if "all" in names else names
    if arch is not None:
        aware = [name for name in sorted(FIGURES) if FIGURES[name].arch_aware]
        unsupported = [name for name in selected if name not in aware]
        if unsupported:
            _fail(f"--arch only applies to the latency-sweep figures "
                  f"({', '.join(aware)}); "
                  f"{unsupported[0]!r} reproduces a fixed paper "
                  "configuration")
        # Fail fast, before any simulation.
        _resolved(default_arch_registry().get_config, arch)
    runner = _make_runner()
    try:
        for name in selected:
            print(FIGURES[name].run(runner, jobs=jobs, arch=arch).render())
            print()
    except KeyboardInterrupt:
        runner.log_run(f"experiment {' '.join(selected)} (interrupted)")
        _interrupted(runner)
    runner.log_run(f"experiment {' '.join(selected)}")
    print(f"[engine] {runner.render_telemetry()}")


def _cmd_sweep(args) -> None:
    workload = _resolve_workload(args.workload)
    # The grid is checked and expanded by the job layer, so `repro
    # sweep` and `POST /sweeps` refuse the same input with the same
    # text, all before anything is simulated.  ``--jobs`` stays out of
    # the spec: 0 or 1 runs serially here.
    from repro.jobs import JobSpec, JobSpecError

    try:
        spec = JobSpec(
            workloads=(workload,),
            policies=tuple(name.strip() for name in args.policies.split(",")),
            archs=tuple(name.strip() for name in args.arch.split(",")),
        ).validate()
    except JobSpecError as error:
        _fail(str(error))
    runner = _make_runner()
    try:
        runner.simulate_many(spec.to_requests(), jobs=args.jobs)
    except KeyboardInterrupt:
        runner.log_run(f"sweep {workload} (interrupted)")
        _interrupted(runner)
    # One shared renderer with the job tracker (`repro serve`), so the
    # service's completed-job table is byte-identical to this output.
    print(render_sweep_table(runner, workload, spec.policies, spec.archs))
    runner.log_run(f"sweep {workload}")
    print(f"[engine] {runner.render_telemetry()}")


def _cmd_serve(args) -> None:
    """Run the HTTP sweep service over one store until signalled."""
    root = _store_root(args)
    if args.job_workers < 1:
        _fail("--job-workers must be at least 1")
    from repro.service import ServiceApp, serve

    try:
        app = ServiceApp(root, job_workers=args.job_workers)
    except (StoreError, OSError) as error:
        _fail(str(error))
    try:
        code = serve(app, host=args.host, port=args.port)
    except (OSError, OverflowError) as error:  # port taken or out of range
        app.close()
        _fail(f"cannot serve on {args.host}:{args.port}: {error}")
    if code:
        raise _CliError(code)


def _export(registry, name: str, output: Optional[str], noun: str,
            suffix: str, save) -> None:
    """The writer ``export-kernel`` and ``export-arch`` share: resolve
    ``name`` through ``registry`` and save it to ``output``.

    A name routes to a file loader iff it ends in .json -- everywhere,
    including pool workers, which only ever see the name string -- so
    writing any other suffix would produce a file this same tool
    refuses to consume.  The suggested name completes the canonical
    suffix: ``bt.kernel`` gets ``.json``, ``bt`` all of ``.kernel.json``.
    """
    value, fingerprint = _resolved(registry.resolve, name)
    if output is None:
        output = f"{name.replace('/', '_')}{suffix}"
    elif not is_file_name(output):
        stem = suffix[:-len(".json")]
        example = output + (".json" if output.endswith(stem) else suffix)
        _fail(f"{noun} files must end in .json (got {output!r}); "
              f"e.g. {example}")
    try:
        save(value, output)
    except OSError as error:
        _fail(f"cannot write {output!r}: {error}")
    print(f"exported {name} -> {output} (fingerprint {fingerprint})")


def _cmd_list_archs() -> None:
    registry = default_arch_registry()
    for name in registry.names():
        provider = registry.provider(name)
        config = registry.get_config(name)
        print(f"{name:16s} {config.mrf_size_kb:5d}KB "
              f"{config.mrf_banks:3d} banks "
              f"{config.mrf_latency_multiple:4.2f}x  "
              f"{provider.description}")
    print()
    print("(use with --arch, or export-arch <name> to start a "
          "custom .arch.json)")


def _store_root(args) -> str:
    """Resolve the store root for a ``store`` subcommand."""
    if args.dir is not None:
        return args.dir
    try:
        return default_cache_dir()
    except ValueError as error:
        _fail(str(error))


def _open_store(root: str) -> ResultStore:
    """Open the existing store at ``root`` without mutating it.

    A missing directory, a missing STORE_FORMAT marker, or a bad marker
    all fail with a one-line error instead of silently initialising a
    store there and reporting an empty "OK".
    """
    if not os.path.isdir(root):
        _fail(f"no result store at {root!r} (nothing simulated "
              "yet, or wrong --dir/$LTRF_CACHE_DIR?)")
    try:
        return ResultStore(root, create=False)
    except (StoreError, OSError) as error:
        _fail(str(error))


def _cmd_store(args) -> None:
    root = _store_root(args)
    if args.store_command == "stats":
        # Through the query API, like every other reader: `store stats`
        # and run_all_experiments' [store] line render the same
        # StoreStats (SQL counts), so they agree by construction.
        query = Query(_open_store(root))
        print(query.stats().render())
    elif args.store_command == "verify":
        store = _open_store(root)
        report = store.verify()
        print(report.render())
        if not report.ok:
            raise _CliError(1)
    elif args.store_command == "compact":
        print(_open_store(root).compact().render())


def _cmd_report(args) -> None:
    root = _store_root(args)
    query = Query(_open_store(root))
    report = build_report(
        query,
        baseline_policy=args.baseline_policy,
        bench_paths=discover_bench_files(args.bench_dir),
    )
    if report.record_count == 0:
        _fail(f"store at {root!r} holds no records; run a sweep or "
              "experiment first", code=1)
    try:
        paths = write_report(report, args.output)
    except OSError as error:
        _fail(f"cannot write report to {args.output!r}: {error}")
    print(report.summary_text())
    for name in sorted(paths):
        print(f"  wrote {paths[name]}")


def _cmd_diff_runs(args) -> None:
    query_a = Query(_open_store(args.store_a))
    query_b = Query(_open_store(args.store_b))
    print(diff_runs(query_a, query_b).render())


def _cmd_list_workloads(args) -> None:
    registry = default_registry()
    if args.family is not None:
        try:
            family = registry.family(args.family)
        except UnknownWorkloadError as error:
            _fail(str(error))
        print(f"family    {family.prefix}")
        print(f"about     {family.description}")
        print(f"parameter {family.parameter}")
        print(f"naming    {family.prefix}-<parameter>, e.g. "
              + ", ".join(family.examples))
        return
    # List what the registry can actually resolve -- including specs
    # registered at runtime -- not just the built-in suite dict.
    for name in registry.names():
        provider = registry.provider(name)
        spec = getattr(provider, "spec", None)
        if spec is not None:
            print(f"{name:16s} {spec.category:22s} "
                  f"regs={spec.registers:3d} (fermi {spec.registers_fermi})")
        else:
            category = provider.category or "category on build"
            print(f"{name:16s} {category:22s} {provider.description}")
    print()
    print("scenario families (use <family>-<parameter>, "
          "or --family <name> for details):")
    for family in registry.families():
        print(f"{family.prefix:16s} {family.description} "
              f"[{family.low}..{family.high}]")


def main(argv: List[str] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-workloads":
            _cmd_list_workloads(args)
        elif args.command == "list-policies":
            for name in sorted(POLICIES):
                print(name)
        elif args.command == "list-experiments":
            for name in sorted(FIGURES):
                print(name)
        elif args.command == "simulate":
            _cmd_simulate(args)
        elif args.command == "compile":
            _cmd_compile(args)
        elif args.command == "export-kernel":
            _export(default_registry(), args.workload, args.output,
                    "kernel", KERNEL_FILE_SUFFIX, save_kernel)
        elif args.command == "export-arch":
            _export(default_arch_registry(), args.arch, args.output,
                    "architecture", ARCH_FILE_SUFFIX, save_arch)
        elif args.command == "list-archs":
            _cmd_list_archs()
        elif args.command == "experiment":
            _cmd_experiment(args.names, args.jobs, args.arch)
        elif args.command == "sweep":
            _cmd_sweep(args)
        elif args.command == "serve":
            _cmd_serve(args)
        elif args.command == "store":
            _cmd_store(args)
        elif args.command == "report":
            _cmd_report(args)
        elif args.command == "diff-runs":
            _cmd_diff_runs(args)
    except _CliError as error:
        return int(error.code)
    except KeyboardInterrupt:
        # Grid commands print a resume hint before this (see
        # _interrupted); for everything else a clean one-liner still
        # beats a KeyboardInterrupt traceback.
        print("\ninterrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
