"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments import FIGURES


def flat_json_dir(tmp_path, name="flat-cache"):
    """A cache from before the result store: one flat ``*.json`` file
    per entry, and no STORE_FORMAT marker."""
    import json

    root = tmp_path / name
    root.mkdir()
    (root / "btree__BL__0123abcd__0__kfeedface.json").write_text(
        json.dumps({"workload": "btree", "policy": "BL", "ipc": 1.0})
    )
    return str(root)


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    assert "backprop" in out and "btree" in out


def test_list_policies(capsys):
    main(["list-policies"])
    out = capsys.readouterr().out
    assert "LTRF+" in out and "BL" in out


def test_list_experiments(capsys):
    main(["list-experiments"])
    out = capsys.readouterr().out
    assert out.split() == sorted(FIGURES)
    for name in ("fig9a", "table4", "storage"):
        assert name in out


def test_compile_command(capsys):
    main(["compile", "btree", "--max-registers", "16"])
    out = capsys.readouterr().out
    assert "region" in out and "PREFETCH" in out


def test_compile_strands(capsys):
    main(["compile", "btree", "--regions", "strand"])
    assert "strand region" in capsys.readouterr().out


def test_simulate_command(capsys):
    main(["simulate", "btree", "--policy", "BL"])
    out = capsys.readouterr().out
    assert "IPC" in out and "MRF accesses" in out


def test_experiment_registry_is_complete():
    expected = {"table1", "table2", "table4", "fig2", "fig3", "fig4",
                "fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13",
                "fig14", "overheads"}
    assert expected <= set(FIGURES)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_experiment_jobs_flag(capsys):
    assert main(["experiment", "table1", "--jobs", "2"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_cold_simulate_reports_the_validation_build(capsys, tmp_path):
    """The CLI builds a kernel to validate the workload before any
    runner exists; the telemetry line still reports that build."""
    from repro.ir import save_kernel
    from repro.workloads import get_kernel

    path = str(tmp_path / "fresh.kernel.json")
    save_kernel(get_kernel("btree"), path)
    assert main(["simulate", path, "--policy", "BL"]) == 0
    assert "static work: 1 kernel build(s)" in capsys.readouterr().out


def test_simulate_uses_baseline_config(capsys):
    # Configuration #1 must be the 272KB normalisation baseline the
    # figures use, not a bare GPUConfig().
    main(["simulate", "btree", "--policy", "BL"])
    out = capsys.readouterr().out
    assert "272KB" in out


def _printed_ipc(output):
    for line in output.splitlines():
        if line.startswith("IPC"):
            return line.split()[-1]
    raise AssertionError(f"no IPC line in {output!r}")


class TestStoreCommand:
    """The `store stats|verify|compact` maintenance surface."""

    def _populated(self, tmp_path):
        from repro.arch import GPUConfig
        from repro.experiments import Runner
        root = str(tmp_path / "store")
        runner = Runner(cache_dir=root)
        runner.simulate(
            "btree", "BL", GPUConfig(max_resident_warps=8, active_warps=4)
        )
        runner.result_store.close()
        return root

    def test_stats(self, capsys, tmp_path):
        root = self._populated(tmp_path)
        assert main(["store", "stats", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "records     1\n" in out and "ltrf-store v2" in out

    def test_verify_ok(self, capsys, tmp_path):
        root = self._populated(tmp_path)
        assert main(["store", "verify", "--dir", root]) == 0
        assert "verdict     OK" in capsys.readouterr().out

    def test_verify_fails_on_undecodable_payload(self, capsys, tmp_path):
        import os
        import sqlite3

        from repro.store.result_store import DATABASE_FILE
        root = self._populated(tmp_path)
        with sqlite3.connect(os.path.join(root, DATABASE_FILE),
                             isolation_level=None) as connection:
            connection.execute("UPDATE records SET payload = '{tampered'")
        assert main(["store", "verify", "--dir", root]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "CORRUPT     1 row(s)" in out

    def test_jsonl_store_refused_by_every_command(self, capsys, tmp_path,
                                                  monkeypatch):
        """A store of the replaced JSONL format fails every command
        that opens it with one line naming the remedy, exit 2."""
        import json
        import os

        root = tmp_path / "old"
        root.mkdir()
        (root / "STORE_FORMAT").write_text(json.dumps(
            {"format": "ltrf-store", "version": 1, "shards": 16}))
        monkeypatch.setenv("LTRF_CACHE_DIR", str(root))
        for argv in (["store", "stats"], ["store", "verify"],
                     ["store", "compact"], ["simulate", "btree"],
                     ["sweep", "btree", "--policies", "BL"],
                     ["experiment", "table1"],
                     ["report", "-o", str(tmp_path / "out")],
                     ["diff-runs", str(root), str(root)],
                     ["serve", "--port", "0"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1, (argv, captured.err)
            assert lines[0].startswith(f"error: {root} holds a JSONL "
                                       "result store")
            assert "delete it, or point LTRF_CACHE_DIR/--dir elsewhere, " \
                "and re-run cold" in lines[0]
        assert sorted(os.listdir(root)) == ["STORE_FORMAT"]

    def test_compact(self, capsys, tmp_path):
        root = self._populated(tmp_path)
        assert main(["store", "compact", "--dir", root]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_stats_on_missing_store(self, capsys, tmp_path):
        assert main(["store", "stats", "--dir",
                     str(tmp_path / "nothing-here")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_inspection_never_initialises_a_store(self, capsys, tmp_path):
        """`store stats`/`verify`/`compact` on a directory of flat
        ``*.json`` files (a cache from before the result store) must
        not write a STORE_FORMAT marker there, and must fail instead of
        reporting an empty store as OK."""
        import os

        root = flat_json_dir(tmp_path)
        for command in ("stats", "verify", "compact"):
            assert main(["store", command, "--dir", root]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "not a result store" in err
            assert "migrate" not in err
        assert not os.path.exists(os.path.join(root, "STORE_FORMAT"))

    def test_store_migrate_is_gone(self, capsys, tmp_path):
        root = flat_json_dir(tmp_path)
        for argv in (["store", "migrate", "--dir", root],
                     ["store", "migrate", "--dir", str(tmp_path), root],
                     ["store", "migrate", "--delete-legacy"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "invalid choice: 'migrate'" in capsys.readouterr().err

    def test_empty_cache_env_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("LTRF_CACHE_DIR", "")
        assert main(["store", "stats"]) == 2
        assert "set but empty" in capsys.readouterr().err
        assert main(["simulate", "btree", "--policy", "BL"]) == 2
        assert "set but empty" in capsys.readouterr().err


class TestReportingCommands:
    """The `report` and `diff-runs` analysis surface."""

    def _swept(self, tmp_path, name="store"):
        from repro.arch import GPUConfig
        from repro.experiments import Runner
        root = str(tmp_path / name)
        runner = Runner(cache_dir=root)
        for policy in ("BL", "LTRF"):
            runner.simulate(
                "btree", policy,
                GPUConfig(max_resident_warps=8, active_warps=4),
            )
        runner.log_run("cli-test")
        runner.result_store.close()
        return root

    def test_report_writes_artifacts(self, capsys, tmp_path):
        import os
        root = self._swept(tmp_path)
        out = str(tmp_path / "out")
        assert main(["report", "--dir", root, "-o", out,
                     "--bench-dir", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "2 record(s)" in printed
        for name in ("report.html", "records.csv", "deltas.csv",
                     "bench_trajectory.csv"):
            assert name in printed
            assert os.path.exists(os.path.join(out, name))

    def test_report_on_empty_store_exits_1(self, capsys, tmp_path):
        from repro.store import ResultStore
        root = str(tmp_path / "empty")
        ResultStore(root, create=True).close()
        assert main(["report", "--dir", root,
                     "-o", str(tmp_path / "out")]) == 1
        assert "holds no records" in capsys.readouterr().err

    def test_report_on_missing_store_exits_2(self, capsys, tmp_path):
        assert main(["report", "--dir", str(tmp_path / "gone"),
                     "-o", str(tmp_path / "out")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_diff_runs_identical_stores(self, capsys, tmp_path):
        root_a = self._swept(tmp_path, "a")
        root_b = self._swept(tmp_path, "b")
        assert main(["diff-runs", root_a, root_b]) == 0
        out = capsys.readouterr().out
        assert "2 unchanged, 0 changed" in out
        assert "agree on every grid point" in out

    def test_diff_runs_missing_store_exits_2(self, capsys, tmp_path):
        root = self._swept(tmp_path)
        assert main(["diff-runs", root, str(tmp_path / "gone")]) == 2
        assert "no result store" in capsys.readouterr().err


class TestErrorContract:
    """Every CLI failure goes through the shared `_fail` helper:
    exactly one `error:`-prefixed stderr line and exit code 2 (or 1
    for ran-fine-found-a-problem outcomes like a failed verify)."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "backprp"],                       # unknown workload
        ["simulate", "kernel.txt"],                    # not a .json name
        ["simulate", "btree", "--arch", "maxwel-like"],
        ["store", "stats", "--dir", "/nonexistent-store-dir"],
        ["report", "--dir", "/nonexistent-store-dir"],
        ["diff-runs", "/nonexistent-a", "/nonexistent-b"],
        ["export-kernel", "btree", "-o", "bt.kernel"],
        ["list-workloads", "--family", "nope"],
        ["sweep", "btree", "--policies", "BL,NOPE"],
        ["sweep", "btree", "--policies", "BL,"],
        ["simulate", "btree", "--latency", "0.5"],
        ["simulate", "btree", "--latency", "nan"],
        ["compile", "btree", "--max-registers", "2"],
        ["serve", "--port", "99999"],
    ])
    def test_exit_2_with_error_prefix(self, capsys, monkeypatch, tmp_path,
                                      argv):
        """Bad input is refused before anything is simulated: the
        store is left without a record."""
        from repro.store import ResultStore

        store = tmp_path / "store"
        monkeypatch.setenv("LTRF_CACHE_DIR", str(store))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if store.exists():
            opened = ResultStore(str(store), create=False)
            assert opened.stats().records == 0
            opened.close()

    def test_serve_on_a_bound_port(self, capsys, tmp_path):
        """A port another socket holds is one error line naming the
        address, not an OSError traceback."""
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            assert main(["serve", "--port", str(port),
                         "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot serve on 127.0.0.1:{port}: ")
        assert "already in use" in err.lower()
        assert "Traceback" not in err

    def test_no_tool_prints_errors_to_stdout(self, capsys):
        assert main(["simulate", "backprp"]) == 2
        captured = capsys.readouterr()
        assert "error:" not in captured.out


class TestWorkloadFrontend:
    """Registry-backed workload resolution on the CLI."""

    def test_simulate_scenario_family_instance(self, capsys):
        assert main(["simulate", "depchain-16", "--policy", "BL"]) == 0
        out = capsys.readouterr().out
        assert "depchain-16" in out and "IPC" in out

    def test_export_then_simulate_kernel_file_same_ipc(self, capsys,
                                                       tmp_path):
        path = str(tmp_path / "bt.kernel.json")
        assert main(["export-kernel", "btree", "-o", path]) == 0
        exported = capsys.readouterr().out
        assert path in exported and "fingerprint" in exported
        assert main(["simulate", "btree", "--policy", "BL"]) == 0
        by_name = _printed_ipc(capsys.readouterr().out)
        assert main(["simulate", path, "--policy", "BL"]) == 0
        by_file = _printed_ipc(capsys.readouterr().out)
        assert by_name == by_file

    def test_sweep_kernel_path_matches_the_name(self, capsys, tmp_path):
        """``sweep`` takes a kernel path where a name goes, and the
        exported kernel sweeps to the named workload's curve."""
        path = str(tmp_path / "bt.kernel.json")
        assert main(["export-kernel", "btree", "-o", path]) == 0
        capsys.readouterr()
        assert main(["sweep", "btree", "--policies", "BL"]) == 0
        by_name = capsys.readouterr().out.splitlines()
        assert main(["sweep", path, "--policies", "BL"]) == 0
        by_path = capsys.readouterr().out.splitlines()
        assert by_name[0].startswith("BL") and by_name[-1].startswith(
            "[engine]")
        assert by_path[:-1] == by_name[:-1]

    @pytest.mark.parametrize("argv", [["simulate", "--policy", "BL"],
                                      ["sweep", "--policies", "BL"]])
    def test_non_utf8_kernel_path_fails_cleanly(self, capsys, tmp_path,
                                                argv):
        """A path that is not valid UTF-8 cannot be stored under, so it
        is refused with one line before anything is simulated."""
        import os

        from repro.ir import save_kernel
        from repro.workloads import get_kernel

        path = str(tmp_path / os.fsdecode(b"bt\xff.kernel.json"))
        save_kernel(get_kernel("btree"), path)
        assert main(argv[:1] + [path] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: workload ")
        assert "not valid UTF-8" in captured.err
        assert captured.err.count("\n") == 1

    def test_unknown_workload_suggests_nearest(self, capsys):
        assert main(["simulate", "backprp"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "backprop" in err

    def test_sweep_unknown_workload_suggests_nearest(self, capsys):
        assert main(["sweep", "kmean"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "kmeans" in err

    def test_bare_family_name_suggests_instances(self, capsys):
        assert main(["simulate", "regpressure"]) == 2
        assert "regpressure-" in capsys.readouterr().err

    def test_out_of_range_family_parameter(self, capsys):
        assert main(["simulate", "regpressure-9999"]) == 2
        assert "outside" in capsys.readouterr().err

    def test_kernel_file_with_plain_json_suffix(self, capsys, tmp_path):
        """export -o foo.json must be loadable back by its path."""
        path = str(tmp_path / "bt.json")
        assert main(["export-kernel", "btree", "-o", path]) == 0
        capsys.readouterr()
        assert main(["simulate", path, "--policy", "BL"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_list_workloads_includes_runtime_registrations(self, capsys):
        from repro.workloads import WorkloadSpec, default_registry
        registry = default_registry()
        registry.register_spec(WorkloadSpec(
            "zz-runtime-test", "register-sensitive", 77, 30, seed=77,
        ))
        try:
            assert main(["list-workloads"]) == 0
            assert "zz-runtime-test" in capsys.readouterr().out
        finally:
            # No public unregister; keep the process-wide registry
            # clean for other tests.
            registry._providers.pop("zz-runtime-test")

    def test_missing_kernel_file_fails_cleanly(self, capsys):
        assert main(["simulate", "/nonexistent/x.kernel.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err

    def test_corrupt_kernel_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.kernel.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_blocks_payload_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "shape.kernel.json"
        path.write_text('{"schema": "ltrf-kernel", "schema_version": 1, '
                        '"name": "x", "category": "register-sensitive", '
                        '"blocks": ["oops"]}')
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("output, suggested", [
        ("bt.kernel", "bt.kernel.json"), ("bt", "bt.kernel.json"),
        ("bt.arch", "bt.arch.kernel.json"),
    ])
    def test_export_rejects_non_json_output(self, capsys, output,
                                            suggested):
        assert main(["export-kernel", "btree", "-o", output]) == 2
        err = capsys.readouterr().err
        assert "must end in .json" in err
        assert err.endswith(f"; e.g. {suggested}\n")

    def test_export_to_unwritable_path_fails_cleanly(self, capsys):
        assert main(["export-kernel", "btree", "-o",
                     "/nonexistent-dir/x.kernel.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err

    def test_simulate_requires_some_workload(self, capsys):
        assert main(["simulate"]) == 2
        assert "a workload name is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_kernel_file_option_removed(self, capsys, command):
        """A .json path goes wherever a workload name goes."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "btree", "--kernel-file", "x.kernel.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel-file" in (
            capsys.readouterr().err
        )

    def test_compile_scenario_family_instance(self, capsys):
        assert main(["compile", "divergence-25"]) == 0
        assert "region" in capsys.readouterr().out

    def test_list_workloads_shows_families(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "scenario families" in out
        for prefix in ("divergence", "stream", "regpressure", "depchain"):
            assert prefix in out

    def test_list_workloads_family_detail(self, capsys):
        assert main(["list-workloads", "--family", "regpressure"]) == 0
        out = capsys.readouterr().out
        assert "regpressure-<parameter>" in out
        assert "registers" in out

    def test_list_workloads_unknown_family(self, capsys):
        assert main(["list-workloads", "--family", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestArchFrontend:
    """Registry-backed architecture resolution on the CLI."""

    def test_list_archs(self, capsys):
        assert main(["list-archs"]) == 0
        out = capsys.readouterr().out
        for name in ("maxwell-like", "tfet-8x", "dwm-8x", "table2-6",
                     "narrow-crossbar"):
            assert name in out
        assert "272KB" in out                 # the baseline's capacity
        assert "export-arch" in out           # the next-step hint

    def test_export_then_simulate_arch_file_same_ipc(self, capsys,
                                                     tmp_path):
        """The acceptance criterion: a round-tripped .arch.json must
        reproduce the registry architecture's IPC byte-identically."""
        path = str(tmp_path / "m.arch.json")
        assert main(["export-arch", "maxwell-like", "-o", path]) == 0
        exported = capsys.readouterr().out
        assert path in exported and "fingerprint" in exported
        assert main(["simulate", "btree", "--policy", "BL"]) == 0
        by_name = _printed_ipc(capsys.readouterr().out)
        assert main(["simulate", "btree", "--policy", "BL",
                     "--arch", path]) == 0
        by_file = _printed_ipc(capsys.readouterr().out)
        assert by_name == by_file

    def test_simulate_named_arch(self, capsys):
        assert main(["simulate", "btree", "--policy", "BL",
                     "--arch", "tfet-8x"]) == 0
        out = capsys.readouterr().out
        assert "tfet-8x" in out and "IPC" in out

    def test_unknown_arch_suggests_nearest(self, capsys):
        assert main(["simulate", "btree", "--arch", "maxwel-like"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "maxwell-like" in err

    def test_missing_arch_file_fails_cleanly(self, capsys):
        assert main(["simulate", "btree", "--arch",
                     "/nonexistent/x.arch.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err

    def test_corrupt_arch_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.arch.json"
        path.write_text('{"schema": "ltrf-arch", "schema_version": 1, '
                        '"mrf_bank": 8}')
        assert main(["simulate", "btree", "--arch", str(path)]) == 2
        err = capsys.readouterr().err
        assert "mrf_bank" in err and "Traceback" not in err

    def test_numeric_config_option_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "btree", "--config", "6"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_arch_file_option_removed(self, capsys):
        """A .json path goes wherever an --arch name goes."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "btree", "--arch-file", "x.arch.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --arch-file" in (
            capsys.readouterr().err
        )

    def test_simulate_table2_arch(self, capsys):
        """Table 2's configurations are selected by registry name."""
        assert main(["simulate", "btree", "--policy", "BL",
                     "--arch", "table2-6"]) == 0
        out = capsys.readouterr().out
        assert "table2-6" in out and "IPC" in out

    @pytest.mark.parametrize("output, suggested", [
        ("m.arch", "m.arch.json"), ("m", "m.arch.json"),
    ])
    def test_export_arch_rejects_non_json_output(self, capsys, output,
                                                 suggested):
        assert main(["export-arch", "maxwell-like", "-o", output]) == 2
        err = capsys.readouterr().err
        assert "must end in .json" in err
        assert err.endswith(f"; e.g. {suggested}\n")

    def test_export_arch_unknown_name(self, capsys):
        assert main(["export-arch", "maxwel-like"]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_export_arch_to_unwritable_path_fails_cleanly(self, capsys):
        assert main(["export-arch", "maxwell-like", "-o",
                     "/nonexistent-dir/m.arch.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err

    def test_sweep_over_two_arch_files(self, capsys, tmp_path):
        from repro.arch import GPUConfig
        from repro.arch.serialize import save_arch
        fast = str(tmp_path / "fast.arch.json")
        lean = str(tmp_path / "lean.arch.json")
        save_arch(GPUConfig(max_resident_warps=8, active_warps=4), fast)
        save_arch(GPUConfig(max_resident_warps=8, active_warps=4,
                            mrf_banks=8), lean)
        assert main(["sweep", "btree", "--policies", "BL",
                     "--arch", f"{fast},{lean}"]) == 0
        out = capsys.readouterr().out
        assert f"BL@{fast}" in out and f"BL@{lean}" in out
        assert out.count("tolerates") == 2

    def test_sweep_unknown_arch_fails_before_simulating(self, capsys):
        assert main(["sweep", "btree", "--arch", "maxwel-like"]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_experiment_arch_only_for_sweep_figures(self, capsys):
        assert main(["experiment", "fig3", "--arch", "tfet-8x"]) == 2
        err = capsys.readouterr().err
        assert "fig11" in err and "fixed paper configuration" in err

    def test_experiment_unknown_arch_fails_fast(self, capsys):
        assert main(["experiment", "fig14", "--arch", "maxwel-like"]) == 2
        assert "did you mean" in capsys.readouterr().err


class TestFaultToleranceCli:
    """The fault-tolerance surface: no backend knobs, no store merge,
    and graceful interruption."""

    @pytest.mark.parametrize("command", [
        ["experiment", "fig11"], ["sweep", "btree"], ["serve"],
    ], ids=lambda command: command[0])
    def test_backend_and_hosts_are_gone(self, capsys, command):
        for extra in (["--backend", "local"], ["--backend", "subprocess"],
                      ["--hosts", "h1,h2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(command + extra)
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {extra[0]}" in err

    def test_worker_chunk_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["worker-chunk", str(tmp_path / "spec.json")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'worker-chunk'" in capsys.readouterr().err

    def test_store_merge_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["store", "merge", "--dir", str(tmp_path / "dest"),
                  str(tmp_path / "source")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'merge'" in capsys.readouterr().err
        assert not (tmp_path / "dest").exists()

    def test_simulate_sms_is_gone(self, capsys):
        """The CLI simulates one SM, the unit the paper reports."""
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "btree", "--policy", "BL", "--sms", "4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --sms" in capsys.readouterr().err

    def test_interrupted_sweep_exits_130_with_resume_hint(
            self, capsys, monkeypatch, tmp_path):
        """Ctrl-C mid-grid: no traceback, exit 130, and a one-line
        hint naming the store and the points remaining: the unique
        points neither served from the store nor simulated."""
        from repro.experiments import Runner
        monkeypatch.setenv("LTRF_CACHE_DIR", str(tmp_path / "store"))

        def interrupt(self, requests, jobs=None):
            requests = list(requests)
            assert len(requests) == 14
            self.stats.batch_requests += len(requests)
            self.stats.batch_dispatched += len(requests)
            self.stats.hits += 2             # flushed by another writer
            self.stats.simulated += 3        # three points "completed"
            raise KeyboardInterrupt

        monkeypatch.setattr(Runner, "simulate_many", interrupt)
        assert main(["sweep", "btree", "--policies", "BL,RFC"]) == 130
        err = capsys.readouterr().err
        assert "interrupted: completed points are flushed to" in err
        assert "re-run the same command to resume" in err
        assert "about 9 dispatched point(s) remain" in err

    def test_interrupted_experiment_exits_130(self, capsys, monkeypatch,
                                              tmp_path):
        from repro.experiments import Runner
        monkeypatch.setenv("LTRF_CACHE_DIR", str(tmp_path / "store"))

        def interrupt(self, requests, jobs=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(Runner, "simulate_many", interrupt)
        assert main(["experiment", "fig9a"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestReportingErrorHints:
    """`report`/`diff-runs` on a directory that is not a store (here a
    cache of flat ``*.json`` files from before the result store) must
    exit 2 through `_fail`, never a traceback, and leave it as is."""

    def test_report_on_flat_json_dir_fails_cleanly(self, capsys,
                                                   tmp_path):
        import os

        root = flat_json_dir(tmp_path)
        assert main(["report", "--dir", root,
                     "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not a result store" in err
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(root, "STORE_FORMAT"))

    def test_diff_runs_on_flat_json_dir_fails_cleanly(self, capsys,
                                                      tmp_path):
        root = flat_json_dir(tmp_path)
        assert main(["diff-runs", root, root]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not a result store" in err
        assert "Traceback" not in err


class TestServeCommand:
    """Argument validation of `repro serve` (the served routes are
    covered in tests/service/)."""

    def test_rejects_zero_workers(self, capsys, tmp_path):
        assert main(["serve", "--dir", str(tmp_path / "store"),
                     "--job-workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--job-workers" in err

    def test_rejects_bad_store_root(self, capsys, monkeypatch):
        monkeypatch.setenv("LTRF_CACHE_DIR", "")
        assert main(["serve"]) == 2
        assert "set but empty" in capsys.readouterr().err

    def test_rejects_unreadable_store_before_serving(self, capsys, tmp_path):
        (tmp_path / "STORE_FORMAT").write_text("not json\n")
        assert main(["serve", "--dir", str(tmp_path), "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unreadable store marker" in err
