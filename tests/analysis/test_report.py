"""Tests for repro.analysis.report: the `repro report` engine."""

import csv
import json
import os

from repro.analysis import build_report, discover_bench_files, write_report
from repro.experiments import Runner
from repro.experiments.latency_tolerance import sweep_requests
from repro.store import Query

SMALL = dict(max_resident_warps=8, active_warps=4)


def sweep_runner(tmp_path):
    runner = Runner(cache_dir=str(tmp_path / "store"))
    runner.simulate_many([
        request
        for policy in ("BL", "LTRF")
        for request in sweep_requests(
            policy, "btree", grid=(1.0, 3.0), **SMALL
        )
    ])
    runner.log_run("report-test sweep")
    return runner


def append_corrupt_line(tmp_path):
    """Append one interior corrupt line to a record segment (the
    trailing newline keeps it from reading as a torn tail)."""
    segments = [
        os.path.join(directory, name)
        for directory, _, names in os.walk(tmp_path / "store")
        for name in names
        if name.endswith(".jsonl") and "shard-" in directory
    ]
    assert segments
    with open(segments[0], "a") as handle:
        handle.write("{this is not json}\n")


def write_bench(path, medians):
    path.write_text(json.dumps({
        "machine_info": {"node": "test"},
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}}
            for name, median in medians.items()
        ],
    }))


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestBuildReport:
    def test_delta_rows_pivot_policies(self, tmp_path):
        report = build_report(sweep_runner(tmp_path).results())
        assert report.policies == ["BL", "LTRF"]
        assert report.baseline_policy == "BL"
        assert len(report.delta_rows) == 2            # one per latency
        assert [row.latency for row in report.delta_rows] == [1.0, 3.0]
        for row in report.delta_rows:
            assert set(row.ipc) == {"BL", "LTRF"}
            assert row.arch_label().endswith("x")     # latency-resolved

    def test_pre_arch_fingerprint_key_is_an_unparsed_row(self, tmp_path):
        """A record under a key from before the arch fingerprint is
        still counted, as a row of its own with no architecture."""
        runner = sweep_runner(tmp_path)
        record = runner.results().records()[0]
        old = record.key.replace(f"__a{record.arch_fingerprint}__",
                                 "__0123456789abcdef__")
        runner.result_store.put(old, dict(record.payload))
        report = build_report(runner.results())
        assert report.record_count == 5
        (row,) = [row for row in report.delta_rows
                  if row.arch_label() == "(unparsed key)"]
        assert row.workload == "btree"
        assert row.ipc == {record.policy: record.ipc}

    def test_telemetry_aggregated_from_run_logs(self, tmp_path):
        report = build_report(sweep_runner(tmp_path).results())
        assert len(report.runs) == 1
        assert report.telemetry["simulations"] == 4
        assert 0 <= report.telemetry["compile_cache_hit_rate"] <= 1

    def test_missing_baseline_noted(self, tmp_path):
        report = build_report(sweep_runner(tmp_path).results(),
                              baseline_policy="NOPE")
        assert report.baseline_policy is None
        assert any("'NOPE' absent" in note for note in report.notes)

    def test_corrupt_lines_surface_in_notes(self, tmp_path):
        sweep_runner(tmp_path).result_store.close()
        append_corrupt_line(tmp_path)
        report = build_report(Query.open(str(tmp_path / "store")))
        assert report.stats.corrupt_lines >= 1
        assert any("corrupt line(s)" in note for note in report.notes)
        assert "corrupt line(s)" in report.summary_text()

    def test_store_health_needs_no_full_replay(self, tmp_path, monkeypatch):
        """Store health is read off the live index the records came
        from; only `store verify` replays every segment."""
        from repro.analysis import render_html
        from repro.store import ResultStore

        sweep_runner(tmp_path).result_store.close()
        append_corrupt_line(tmp_path)

        def no_replay(store, shard):
            raise AssertionError("the report replayed the store")

        monkeypatch.setattr(ResultStore, "_scan_shard_full", no_replay)
        report = build_report(Query.open(str(tmp_path / "store")))
        assert report.stats.corrupt_lines == 1
        assert any(note.startswith("store damage: 1 corrupt line(s)")
                   for note in report.notes)
        assert '<td class="t">corrupt lines</td><td>1</td>' \
            in render_html(report)

    def test_fault_tolerance_counters_aggregate_and_render(
            self, tmp_path):
        runner = sweep_runner(tmp_path)
        runner.stats.chunk_retries = 3
        runner.stats.chunk_timeouts = 1
        runner.stats.chunks_quarantined = 2
        runner.stats.backend_degradations = 1
        runner.log_run("chaotic sweep")
        report = build_report(runner.results())
        assert report.telemetry["chunk_retries"] == 3
        assert report.telemetry["chunk_timeouts"] == 1
        assert report.telemetry["chunks_quarantined"] == 2
        assert report.telemetry["backend_degradations"] == 1
        paths = write_report(report, str(tmp_path / "out"))
        html = open(paths["report.html"]).read()
        assert "chunk retries" in html and "quarantined" in html

    def test_pre_backend_run_logs_read_as_zero(self, tmp_path):
        """Run logs written before the distributed backend existed
        carry none of the fault-tolerance keys; they must aggregate
        as zero, not crash the report."""
        runner = sweep_runner(tmp_path)
        runner.result_store.append_run_log({
            "label": "old-format run", "time": 1700000000,
            "simulations": 7, "cache_hits": 0, "host_seconds": 0.5,
        })
        report = build_report(runner.results())
        assert report.telemetry["chunk_retries"] == 0
        assert report.telemetry["chunk_timeouts"] == 0
        assert report.telemetry["chunks_quarantined"] == 0
        assert report.telemetry["backend_degradations"] == 0
        paths = write_report(report, str(tmp_path / "out"))
        assert "old-format run" in open(paths["report.html"]).read()

    def test_replay_era_run_logs_still_render(self, tmp_path):
        """Run logs written while the simulator had a replay engine
        carry four replay counters; their other counters still sum,
        and the report renders without a replay row."""
        runner = sweep_runner(tmp_path)
        before = build_report(runner.results()).telemetry["simulations"]
        runner.result_store.append_run_log({
            "label": "replay-era run", "time": 1700000000,
            "simulations": 7, "cache_hits": 0, "host_seconds": 0.5,
            "replays_served": 3, "replays_recorded": 1,
            "replay_fallbacks_static": 2, "replay_fallbacks_diverged": 1,
        })
        report = build_report(runner.results())
        assert report.telemetry["simulations"] == before + 7
        paths = write_report(report, str(tmp_path / "out"))
        text = open(paths["report.html"]).read()
        assert "replay-era run" in text
        assert "replay:" not in text

    def test_bench_trajectory(self, tmp_path):
        write_bench(tmp_path / "BENCH_1.json", {"bench::a": 1.5})
        write_bench(tmp_path / "BENCH_2.json",
                    {"bench::a": 1.0, "bench::b": 3.0})
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        paths = discover_bench_files(str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "BENCH_1.json", "BENCH_2.json", "BENCH_broken.json",
        ]
        report = build_report(sweep_runner(tmp_path).results(),
                              bench_paths=paths)
        assert [label for label, _ in report.bench_files] == [
            "BENCH_1.json", "BENCH_2.json",
        ]
        assert report.bench_files[1][1]["bench::a"] == 1.0
        assert any("BENCH_broken.json" in note for note in report.notes)


class TestWriteReport:
    def test_artifacts_written(self, tmp_path):
        write_bench(tmp_path / "BENCH_x.json", {"bench::a": 2.0})
        report = build_report(
            sweep_runner(tmp_path).results(),
            bench_paths=discover_bench_files(str(tmp_path)),
        )
        out = str(tmp_path / "out")
        paths = write_report(report, out)
        assert sorted(os.path.basename(p) for p in paths.values()) == [
            "bench_trajectory.csv", "deltas.csv", "records.csv",
            "report.html",
        ]

        records = read_csv(paths["records.csv"])
        assert records[0][:3] == ["key", "workload", "policy"]
        assert len(records) == 5                      # header + 4 rows

        deltas = read_csv(paths["deltas.csv"])
        assert deltas[0] == ["workload", "arch", "latency", "seed",
                             "BL_ipc", "LTRF_ipc", "LTRF_vs_BL"]
        for row in deltas[1:]:
            ratio = float(row[-1])
            assert abs(ratio - float(row[5]) / float(row[4])) < 1e-9

        bench = read_csv(paths["bench_trajectory.csv"])
        assert bench[0] == ["benchmark", "BENCH_x.json"]
        assert bench[1] == ["bench::a", "2.0"]

        html = open(paths["report.html"]).read()
        for section in ("Policy-vs-policy IPC", "Engine telemetry",
                        "Store health", "Perf trajectory"):
            assert section in html
        assert "report-test sweep" in html            # the logged run
        assert "cycles skipped" in html
        assert "pool retries" in html
        assert "compile cache hit rate" in html

    def test_corrupt_lines_rendered_in_html(self, tmp_path):
        sweep_runner(tmp_path).result_store.close()
        append_corrupt_line(tmp_path)
        report = build_report(Query.open(str(tmp_path / "store")))
        paths = write_report(report, str(tmp_path / "out"))
        html = open(paths["report.html"]).read()
        assert "corrupt line" in html
        assert "note: store damage" in html


class TestRenderHtml:
    """`render_html` is the public rendering surface shared by
    `write_report` and the service's GET /report/<id>."""

    def test_matches_the_written_report_byte_for_byte(self, tmp_path):
        from repro.analysis import render_html

        runner = sweep_runner(tmp_path)
        report = build_report(Query(runner.result_store))
        html = render_html(report)
        assert html.lstrip().lower().startswith("<!doctype html") \
            or "<html" in html.lower()
        paths = write_report(report, str(tmp_path / "out"))
        with open(paths["report.html"], encoding="utf-8") as handle:
            assert handle.read() == html
