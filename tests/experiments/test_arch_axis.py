"""Tests for the architecture axis: fingerprinted keys and sweeps."""

from repro.arch import GPUConfig
from repro.arch.serialize import arch_fingerprint, save_arch
from repro.experiments import Runner, SimRequest
from repro.experiments.latency_tolerance import sweep_requests

#: Small pools so each simulation finishes quickly.
SMALL = GPUConfig(max_resident_warps=8, active_warps=4)
SMALLER = GPUConfig(max_resident_warps=8, active_warps=4, mrf_banks=8)


class TestArchKeyedStore:
    def test_arch_axis_grid_keys_and_store_integrity(self, tmp_path):
        """A 2-arch x 2-workload x 2-latency grid through simulate_many:
        every store key carries the arch fingerprint segment, and the
        store passes a full consistency scan afterwards."""
        arch_paths = []
        for index, config in enumerate((SMALL, SMALLER)):
            path = str(tmp_path / f"arch{index}.arch.json")
            save_arch(config, path)
            arch_paths.append(path)
        runner = Runner(cache_dir=str(tmp_path / "store"))
        grid = [
            request
            for arch in arch_paths
            for workload in ("btree", "kmeans")
            for request in sweep_requests(
                "BL", workload, grid=(1.0, 2.0), arch=arch
            )
        ]
        assert len(grid) == 8
        records = runner.simulate_many(grid)
        assert len(records) == 8
        expected_fps = {
            arch_fingerprint(SMALL.with_latency_multiple(m))
            for m in (1.0, 2.0)
        } | {
            arch_fingerprint(SMALLER.with_latency_multiple(m))
            for m in (1.0, 2.0)
        }
        seen_fps = set()
        for request in grid:
            key = runner.request_key(request)
            assert "__a" in key
            seen_fps.add(key.split("__a", 1)[1].split("__", 1)[0])
        assert seen_fps == expected_fps
        report = runner.result_store.verify()
        assert report.ok
        assert report.stats.records == 8

    def test_archs_differing_in_one_field_never_alias(self, tmp_path):
        """Two architectures one field apart must key -- and therefore
        cache -- separately (the aliasing class the content fingerprint
        exists to prevent)."""
        runner = Runner(cache_dir=str(tmp_path))
        near = SMALL.scaled(rfc_banks=8)
        base_key = runner.request_key(SimRequest("btree", "BL", SMALL))
        near_key = runner.request_key(SimRequest("btree", "BL", near))
        assert base_key != near_key
        runner.simulate("btree", "BL", SMALL)
        runner.simulate("btree", "BL", near)
        # Both ran: the second was not served from the first's entry.
        assert runner.stats.simulated == 2
        assert runner.result_store.get(base_key) is not None
        assert runner.result_store.get(near_key) is not None

    def test_pre_arch_fingerprint_key_is_unparsed_and_resimulated(
            self, tmp_path):
        """A record stored under the key format from before the arch
        fingerprint (a sha1 config hash where ``a<fp>`` now stands) is
        an unparsed row that queries still count, and a runner
        simulates that point cold next to it."""
        warm = Runner(cache_dir=str(tmp_path / "warm"))
        record = warm.simulate("btree", "BL", SMALL)
        new_key = warm.request_key(SimRequest("btree", "BL", SMALL))
        # SMALL's key in the old format, with the config hash the old
        # runner computed for it.
        old_key = new_key.replace(f"__a{arch_fingerprint(SMALL)}__",
                                  "__d5c92efe19ccdeed__")
        assert old_key != new_key
        runner = Runner(cache_dir=str(tmp_path / "old"))
        runner.result_store.put(old_key, warm.result_store.get(new_key))
        (row,) = runner.results().records()
        assert (row.key, row.key_ok) == (old_key, False)
        assert (row.workload, row.policy) == ("btree", "BL")

        assert runner.simulate("btree", "BL", SMALL) == record
        assert runner.stats.simulated == 1
        assert runner.stats.hits == 0
        rows = {row.key: row.key_ok for row in runner.results().records()}
        assert rows == {old_key: False, new_key: True}

    def test_composed_family_sweeps_over_custom_arch(self, tmp_path):
        """The divergence-P+stream-K composed scenarios cross with a
        non-default .arch.json through the ordinary sweep machinery."""
        path = str(tmp_path / "custom.arch.json")
        save_arch(SMALLER, path)
        runner = Runner(cache_dir=str(tmp_path / "store"))
        grid = [
            request
            for workload in ("divergence-25+stream-2",
                             "divergence-75+stream-4")
            for request in sweep_requests(
                "BL", workload, grid=(1.0, 3.0), arch=path
            )
        ]
        records = runner.simulate_many(grid)
        assert len(records) == 4
        assert all(record.ipc > 0 for record in records)
        fingerprint = arch_fingerprint(SMALLER)
        for request in grid:
            assert request.config.mrf_banks == SMALLER.mrf_banks
            key = runner.request_key(request)
            expected = arch_fingerprint(
                SMALLER.with_latency_multiple(
                    request.config.mrf_latency_multiple
                )
            )
            assert f"__a{expected}__" in key
        # The 1.0x point is the file's own architecture, verbatim.
        assert f"__a{fingerprint}__" in runner.request_key(grid[0])
