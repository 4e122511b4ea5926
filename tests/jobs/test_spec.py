"""Tests for JobSpec: strict construction, validation, expansion."""

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

    def test_rejects_bad_grid(self):
        with pytest.raises(JobSpecError, match="grid"):
            JobSpec.from_dict({"workloads": "btree", "grid": [1.0, -2.0]})
        with pytest.raises(JobSpecError, match="grid"):
            JobSpec.from_dict({"workloads": "btree", "grid": []})

    def test_rejects_bad_overrides_shape(self):
        with pytest.raises(JobSpecError, match="overrides"):
            JobSpec.from_dict({"workloads": "btree", "overrides": [1]})

    def test_roundtrips_through_to_dict(self):
        spec = JobSpec.from_dict({
            "workloads": ["btree", "kmeans"], "policies": ["BL", "LTRF"],
            "grid": [1.0, 3.0], "seed": 7, "backend": "local", "jobs": 2,
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
        ("backend", "carrier-pigeon", "unknown backend"),
        ("workloads", ("btreee",), "btree"),
        ("archs", ("pascal-ish",), "pascal-ish"),
        ("jobs", 0, "jobs"),
        ("backend", "ssh", "unknown backend"),
    ])
    def test_rejects_unresolvable_names(self, field, value, match):
        kwargs = {"workloads": ("btree",), field: value}
        spec = JobSpec(**kwargs)
        with pytest.raises(JobSpecError, match=match):
            spec.validate()

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
