"""Tests for the worker-chunk wire format and in-worker durability."""

import json
import os

import pytest

from repro.arch import GPUConfig
from repro.experiments import Runner, SimRequest
from repro.launchers.base import Chunk
from repro.launchers.subproc import align_results, spec_environment
from repro.launchers.worker import (
    ChunkSpecError,
    encode_chunk_spec,
    load_chunk_result,
    load_chunk_spec,
    run_worker_chunk,
)

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


@pytest.fixture(autouse=True)
def _forget_worker_identity():
    """run_worker_chunk marks its process as a worker (LTRF_WORKER_ID);
    running it in-process for these tests must not leak that identity
    into the rest of the suite (it would arm the fault harness)."""
    yield
    os.environ.pop("LTRF_WORKER_ID", None)


def make_items(runner=None):
    runner = runner or Runner(cache_dir=None)
    requests = [SimRequest("btree", "BL", SMALL),
                SimRequest("btree", "RFC", SMALL)]
    return [(runner.request_key(request), request)
            for request in requests]


def write_spec(tmp_path, items, chunk=0, attempt=0, store_dir=None):
    output = str(tmp_path / "result.json")
    spec = encode_chunk_spec(chunk, attempt, "w1", items,
                             output=output, store_dir=store_dir)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    return str(path), output


class TestSpecRoundtrip:
    def test_encode_load_execute(self, tmp_path):
        items = make_items()
        spec_path, output = write_spec(tmp_path, items)
        spec = load_chunk_spec(spec_path)
        result = run_worker_chunk(spec)
        assert result["chunk"] == 0
        assert [entry["key"] for entry in result["results"]] \
            == [key for key, _ in items]
        entries = load_chunk_result(output, expect_chunk=0,
                                    expect_attempt=0)
        aligned = align_results(
            Chunk(id=0, items=items), entries
        )
        assert len(aligned) == 2
        record, telemetry, cached = aligned[0]
        assert record.workload == "btree" and not cached
        assert telemetry is not None
        # The worker's records match an in-process simulation exactly.
        direct = Runner(cache_dir=None).simulate_many(
            [request for _, request in items]
        )
        assert [entry[0] for entry in aligned] == direct

    def test_spec_carries_full_arch_not_a_registry_name(self, tmp_path):
        items = make_items()
        spec = encode_chunk_spec(0, 0, "w1", items, output="out.json")
        for entry in spec["requests"]:
            assert isinstance(entry["arch"], dict)
            assert entry["arch"].get("schema") == "ltrf-arch"

    def test_rejects_wrong_format_and_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ChunkSpecError, match="not a chunk spec"):
            load_chunk_spec(str(path))
        path.write_text(json.dumps({"format": "ltrf-chunk",
                                    "version": 99}))
        with pytest.raises(ChunkSpecError, match="version"):
            load_chunk_spec(str(path))

    def test_rejects_missing_fields_loudly(self, tmp_path):
        items = make_items()
        spec_path, _ = write_spec(tmp_path, items)
        payload = json.loads((tmp_path / "spec.json").read_text())
        del payload["requests"][0]["arch"]
        (tmp_path / "spec.json").write_text(json.dumps(payload))
        with pytest.raises(ChunkSpecError, match="arch"):
            load_chunk_spec(str(spec_path))

    def test_stale_result_from_earlier_attempt_rejected(self, tmp_path):
        items = make_items()
        spec_path, output = write_spec(tmp_path, items, attempt=0)
        run_worker_chunk(load_chunk_spec(spec_path))
        with pytest.raises(ChunkSpecError, match="attempt"):
            load_chunk_result(output, expect_chunk=0, expect_attempt=1)

    def test_align_flags_silently_dropped_work(self):
        items = make_items()
        chunk = Chunk(id=0, items=items)
        with pytest.raises(ChunkSpecError, match="missing"):
            align_results(chunk, [])     # worker returned nothing


class TestSpecEnvironment:
    """A spec carries only the allow-listed variables to its worker."""

    def test_spec_forwards_only_the_allow_list(self, monkeypatch):
        monkeypatch.setenv("LTRF_COMPILE_CACHE", "0")
        monkeypatch.delenv("LTRF_FAULT_PLAN", raising=False)
        monkeypatch.setenv("LTRF_CHUNK_TIMEOUT", "30")
        assert spec_environment() == {"LTRF_COMPILE_CACHE": "0"}

    def test_worker_applies_only_the_allow_list(self, tmp_path,
                                                monkeypatch):
        """A spec cannot set anything else in the worker, such as the
        directory its store defaults to."""
        monkeypatch.setenv("LTRF_COMPILE_CACHE", "1")
        cache_dir = os.environ["LTRF_CACHE_DIR"]
        items = make_items()
        spec = encode_chunk_spec(
            0, 0, "w1", items, output=str(tmp_path / "result.json"),
            env={"LTRF_COMPILE_CACHE": "0",
                 "LTRF_CACHE_DIR": str(tmp_path / "elsewhere")},
        )
        result = run_worker_chunk(spec)
        assert len(result["results"]) == len(items)
        assert os.environ["LTRF_COMPILE_CACHE"] == "0"
        assert os.environ["LTRF_CACHE_DIR"] == cache_dir


class TestWorkerDurability:
    def test_retry_serves_flushed_records_from_the_store(self, tmp_path):
        """A chunk retried after a mid-chunk kill repeats none of the
        dead attempt's flushed work: every record the first attempt
        stored comes back ``cached`` on the second."""
        store_dir = str(tmp_path / "store")
        items = make_items(Runner(cache_dir=store_dir))
        spec_path, output = write_spec(tmp_path, items,
                                       store_dir=store_dir)
        first = run_worker_chunk(load_chunk_spec(spec_path))
        assert all(not entry["cached"] for entry in first["results"])

        retry_path, retry_output = write_spec(
            tmp_path, items, attempt=1, store_dir=store_dir
        )
        second = run_worker_chunk(load_chunk_spec(retry_path))
        assert all(entry["cached"] for entry in second["results"])
        assert [entry["record"] for entry in second["results"]] \
            == [entry["record"] for entry in first["results"]]
