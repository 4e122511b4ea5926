"""Tests for the benchmark's own machinery, not for the program.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for _path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import pytest  # noqa: E402

import benchlib  # noqa: E402
import run  # noqa: E402
import service_mix  # noqa: E402
import storegen  # noqa: E402
import tracer  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("count, level", [
        (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_level_with_ten_beyond(self, count, level):
        found = benchlib.tail_percentile([float(n) for n in range(count)])
        assert (found[0] if found else None) == level

    def test_value_is_nearest_rank(self):
        values = [float(n) for n in range(1, 101)]
        assert benchlib.tail_percentile(values) == (90.0, 90.0)
        assert benchlib.tail_percentile(list(reversed(values))) == (90.0, 90.0)

    def test_exactly_ten_samples_lie_beyond(self):
        values = list(range(1, 201))
        level, value = benchlib.tail_percentile(values)
        assert sum(1 for v in values if v > value) == 10
        assert level == 95.0


class TestSpeedProbe:
    def test_slowness_is_mean_sample_over_reference(self):
        reference = benchlib.PROBE_REFERENCE_S
        assert benchlib.slowness([]) == 1.0
        assert benchlib.slowness([(0.0, reference), (1.0, 3 * reference)]) \
            == pytest.approx(2.0)

    def test_slowness_keeps_only_samples_in_the_window(self):
        reference = benchlib.PROBE_REFERENCE_S
        samples = [(0.0, 9 * reference), (1.0, reference),
                   (2.0, 3 * reference), (3.0, 9 * reference)]
        assert benchlib.slowness(samples, 1.0, 2.0) == pytest.approx(2.0)
        assert benchlib.slowness(samples, 5.0, 6.0) == 1.0

    def test_stop_restores_the_affinity(self):
        before = os.sched_getaffinity(0)
        probe = benchlib.SpeedProbe().start()
        assert len(os.sched_getaffinity(0)) == 1
        benchlib._probe_kernel()
        factor = probe.stop()
        assert os.sched_getaffinity(0) == before
        assert factor > 0


class TestSeededInputs:
    def test_request_plan_repeats_per_seed(self):
        assert service_mix.request_plan(3, 120) == \
            service_mix.request_plan(3, 120)
        assert service_mix.request_plan(3, 120) != \
            service_mix.request_plan(4, 120)

    def test_request_plan_has_the_exact_mix(self):
        kinds = [kind for kind, _ in service_mix.request_plan(7, 160)]
        assert (kinds.count("hot"), kinds.count("cold"),
                kinds.count("query")) == (112, 32, 16)

    def test_cold_seeds_are_fresh(self):
        seeds = [payload["seed"] for kind, payload
                 in service_mix.request_plan(5, 200) if kind == "cold"]
        assert len(seeds) == len(set(seeds))

    def test_sim_seeds(self):
        seeds = storegen.sim_seeds(9)
        assert seeds == storegen.sim_seeds(9)
        assert seeds[0] == 0 and len(set(seeds)) == len(seeds)

    def test_generated_store_repeats_per_seed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(storegen, "SIM_SEED_COUNT", 2)
        first = storegen.generate_store(str(tmp_path / "a"), 5)
        again = storegen.generate_store(str(tmp_path / "b"), 5)
        other = storegen.generate_store(str(tmp_path / "c"), 6)
        assert first == again
        assert first["digest"] != other["digest"]
        assert first["records"] == 2 * 14 * len(storegen.POLICIES) * 7
        sizes = benchlib.StoreSize(str(tmp_path / "a"))
        assert sizes.count() == first["records"]
        sizes.close()


class TestMetricNames:
    NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+\Z")

    def all_metrics(self):
        return list(run.E2E_METRICS) + list(tracer.LAYER_METRICS)

    def test_names_are_well_formed_and_unique(self):
        names = [name for name, _, _ in self.all_metrics()]
        assert len(names) == len(set(names))
        for name in names:
            assert self.NAME_PATTERN.match(name), name

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        assert [w["name"] for w in declared["workloads"]] == \
            list(run.WORKLOADS)
        assert [(m["name"], m["unit"], m["better"])
                for m in declared["end_to_end"]] == list(run.E2E_METRICS)
        assert [(m["name"], m["unit"], m["better"])
                for m in declared["per_layer"]] == list(tracer.LAYER_METRICS)

    def test_every_layer_metric_is_reported(self):
        empty = {"spans": {}, "attrib": {}, "counters": {}, "missing": []}
        metrics = tracer.layer_metrics(empty, {})
        assert list(metrics) == [name for name, _, _ in tracer.LAYER_METRICS]


def _repro_namespaces():
    """Every repro module and class namespace, copied."""
    import repro.cli  # noqa: F401 - load every layer
    import repro.service  # noqa: F401

    spaces = {}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        spaces[module.__name__] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and \
                    value.__module__.startswith("repro"):
                spaces[f"{value.__module__}.{value.__qualname__}"] = \
                    dict(vars(value))
    return spaces


class TestTracer:
    def test_uninstall_restores_every_wrapped_function(self):
        before = _repro_namespaces()
        with tracer.Tracer() as active:
            assert active.patched
            from repro.store.result_store import ResultStore
            assert "__wrapped__" in dir(ResultStore.get)
        after = _repro_namespaces()
        assert before.keys() == after.keys()
        for name, space in before.items():
            for attr, value in space.items():
                assert after[name][attr] is value, f"{name}.{attr}"

    def test_restores_after_an_exception(self):
        from repro.experiments.runner import Runner
        original = vars(Runner)["lookup"]
        with pytest.raises(RuntimeError):
            with tracer.Tracer():
                assert vars(Runner)["lookup"] is not original
                raise RuntimeError("boom")
        assert vars(Runner)["lookup"] is original

    def test_nothing_is_missing_in_this_program(self):
        active = tracer.Tracer().install()
        try:
            assert active.missing == []
        finally:
            active.uninstall()

    def test_spans_count_calls_and_self_time(self, tmp_path):
        from repro.store import Query, ResultStore

        store = ResultStore(str(tmp_path / "store"))
        with tracer.Tracer() as active:
            store.put("k1", {"x": 1})
            store.get("k1")
            Query(store).records()
            snapshot = active.snapshot()
        spans = snapshot["spans"]
        assert spans["store.put"][0] == 1
        assert spans["store.query"][0] == 1
        # One direct get plus the query's own get of the only key.
        assert spans["store.get"][0] == 2
        calls, total, own = spans["store.query"]
        assert 0.0 <= own <= total
        assert snapshot["attrib"]["store.query|store"][0] == 1
