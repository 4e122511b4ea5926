"""Tests for JobSpec: strict construction, validation, expansion."""

import os

import pytest

from repro.experiments.latency_tolerance import sweep_requests
from repro.jobs import JobSpec, JobSpecError

SMALL = {"max_resident_warps": 8, "active_warps": 4}


class TestFromDict:
    def test_scalars_promote_to_one_element_axes(self):
        spec = JobSpec.from_dict({"workloads": "btree",
                                  "policies": "BL", "grid": 2.0})
        assert spec.workloads == ("btree",)
        assert spec.policies == ("BL",)
        assert spec.grid == (2.0,)

    @pytest.mark.parametrize("key, value", [
        ("polices", ["BL"]),
        ("engine", "dense"),
    ])
    def test_unknown_key_is_an_error(self, key, value):
        with pytest.raises(JobSpecError,
                           match=rf"unknown job spec key\(s\): {key} "):
            JobSpec.from_dict({"workloads": "btree", key: value})

    def test_workloads_required(self):
        with pytest.raises(JobSpecError, match="workloads"):
            JobSpec.from_dict({"policies": ["BL"]})

    def test_rejects_non_object_payload(self):
        with pytest.raises(JobSpecError, match="JSON object"):
            JobSpec.from_dict(["btree"])

    def test_rejects_bool_where_int_is_meant(self):
        with pytest.raises(JobSpecError, match="seed"):
            JobSpec.from_dict({"workloads": "btree", "seed": True})

    def test_rejects_seed_outside_64_bits(self):
        """The store keeps a seed as a signed 64-bit integer."""
        for seed in (2 ** 63, -2 ** 63 - 1):
            spec = JobSpec.from_dict({"workloads": "btree", "seed": seed})
            with pytest.raises(JobSpecError,
                               match="seed must be a signed 64-bit"):
                spec.validate()
        for seed in (2 ** 63 - 1, -2 ** 63):
            JobSpec.from_dict({"workloads": "btree", "seed": seed}).validate()

    def test_rejects_bad_grid(self):
        """A latency multiple is finite and at least 1; NaN and
        infinity, which JSON can carry, fail here and not in the MRF."""
        for grid in ([1.0, -2.0], [], [0.5], [float("nan")],
                     [float("inf")], [1.0, float("-inf")]):
            with pytest.raises(JobSpecError, match="grid"):
                JobSpec.from_dict({"workloads": "btree", "grid": grid})
            with pytest.raises(JobSpecError, match="grid"):
                JobSpec(workloads=("btree",), grid=tuple(grid)).validate()

    def test_rejects_backend_key(self):
        """Misses always run on the process pool; naming a backend is
        an unknown key, not a silently ignored one."""
        for backend in ("local", "subprocess"):
            with pytest.raises(JobSpecError,
                               match=r"unknown job spec key\(s\): backend"):
                JobSpec.from_dict({"workloads": "btree",
                                   "backend": backend})

    def test_rejects_bad_overrides_shape(self):
        with pytest.raises(JobSpecError, match="overrides"):
            JobSpec.from_dict({"workloads": "btree", "overrides": [1]})

    def test_roundtrips_through_to_dict(self):
        spec = JobSpec.from_dict({
            "workloads": ["btree", "kmeans"], "policies": ["BL", "LTRF"],
            "grid": [1.0, 3.0], "seed": 7, "jobs": 2,
            "overrides": SMALL, "label": "round trip",
        })
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestValidate:
    def test_accepts_a_runnable_spec(self):
        spec = JobSpec(workloads=("btree",), policies=("BL", "LTRF"),
                       grid=(1.0, 3.0), overrides=SMALL)
        assert spec.validate() is spec

    @pytest.mark.parametrize("field, value, match", [
        ("policies", ("NOPE",), "unknown policy"),
        ("workloads", ("btreee",), "btree"),
        ("archs", ("pascal-ish",), "pascal-ish"),
        ("jobs", 0, "jobs"),
        ("jobs", (os.cpu_count() or 1) + 1,
         f"jobs must be at most {os.cpu_count() or 1}, the machine's CPU "
         f"count, got {(os.cpu_count() or 1) + 1}"),
        ("overrides", {"mrf_latency_multiple": 2.0},
         "the grid sets the latency"),
    ])
    def test_rejects_unresolvable_names(self, field, value, match):
        kwargs = {"workloads": ("btree",), field: value}
        spec = JobSpec(**kwargs)
        with pytest.raises(JobSpecError, match=match):
            spec.validate()

    def test_rejects_a_workload_path_that_is_not_utf8(self, tmp_path):
        """The kernel file exists, but its name cannot be stored under."""
        from repro.ir import save_kernel
        from repro.workloads import get_kernel

        path = str(tmp_path / os.fsdecode(b"bt\xff.kernel.json"))
        save_kernel(get_kernel("btree"), path)
        with pytest.raises(JobSpecError, match="not valid UTF-8"):
            JobSpec(workloads=(path,)).validate()

    def test_rejects_bad_override_field(self):
        spec = JobSpec(workloads=("btree",),
                       overrides={"warp_speed": 9})
        with pytest.raises(JobSpecError, match="warp_speed"):
            spec.validate()


class TestToRequests:
    def test_expands_in_cli_sweep_order(self):
        """A job and the equivalent CLI sweep build the same grid in
        the same order, so their store keys dedupe pairwise."""
        spec = JobSpec(workloads=("btree", "kmeans"),
                       policies=("BL", "LTRF"), grid=(1.0, 3.0),
                       seed=5, overrides=SMALL)
        expected = [
            request
            for workload in ("btree", "kmeans")
            for policy in ("BL", "LTRF")
            for request in sweep_requests(policy, workload, (1.0, 3.0),
                                          seed=5, **SMALL)
        ]
        assert spec.to_requests() == expected
        assert all(request.seed == 5 for request in spec.to_requests())

    def test_describe_names_the_axes(self):
        spec = JobSpec(workloads=("btree",), policies=("BL",),
                       grid=(1.0, 2.0), archs=("maxwell-like",))
        text = spec.describe()
        assert "btree" in text and "BL" in text and "2 point(s)" in text
