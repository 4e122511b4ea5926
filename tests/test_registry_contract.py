"""The contract both registries keep through the one shared mechanism.

Every test runs on a fresh :class:`WorkloadRegistry` and a fresh
:class:`ArchRegistry`: file routing, short names, the stat-signature
memo, duplicate registration and the unknown-name error behave the
same for kernels and architectures.
"""

import os
import pickle
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.arch import GPUConfig
from repro.arch.registry import ArchRegistry, UnknownArchError
from repro.arch.serialize import arch_fingerprint, save_arch
from repro.ir import kernel_fingerprint, save_kernel
from repro.registry import Provider, Registry
from repro.workloads import UnknownWorkloadError, WorkloadRegistry, get_kernel


@dataclass
class Format:
    registry: Callable[[], Registry]
    save: Callable
    fingerprint: Callable
    first: Callable
    second: Callable
    error: type


FORMATS = {
    "workload": Format(
        WorkloadRegistry, save_kernel, kernel_fingerprint,
        lambda: get_kernel("btree"), lambda: get_kernel("kmeans"),
        UnknownWorkloadError,
    ),
    "arch": Format(
        ArchRegistry, save_arch, arch_fingerprint,
        lambda: GPUConfig(mrf_size_kb=512),
        lambda: GPUConfig(mrf_size_kb=1024),
        UnknownArchError,
    ),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    return FORMATS[request.param]


def rewrite(fmt, value, path):
    """Save ``value`` over ``path`` with a stat signature guaranteed
    to differ from the previous one, even on coarse clocks."""
    status = os.stat(path)
    fmt.save(value, path)
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 1))


def test_unregistered_json_path_resolves(fmt, tmp_path):
    path = str(tmp_path / "plain.json")
    fmt.save(fmt.first(), path)
    registry = fmt.registry()
    provider = registry.provider(path)
    assert provider.path == path and "file" in repr(provider)
    value, fingerprint = registry.resolve(path)
    assert fingerprint == fmt.fingerprint(fmt.first())
    assert registry.resolve(path)[0] is value        # memoised


def test_register_file_gives_a_short_name(fmt, tmp_path):
    path = str(tmp_path / "x.json")
    fmt.save(fmt.first(), path)
    registry = fmt.registry()
    registry.register_file(path, name="short")
    assert registry.names() == ["short"]
    assert registry.fingerprint("short") == fmt.fingerprint(fmt.first())


def test_rewritten_file_is_reread_and_refingerprinted(fmt, tmp_path):
    """A replaced file must never be served (or keyed) stale."""
    path = str(tmp_path / "live.json")
    fmt.save(fmt.first(), path)
    registry = fmt.registry()
    before, _ = registry.resolve(path)
    rewrite(fmt, fmt.second(), path)
    after, fingerprint = registry.resolve(path)
    assert after is not before
    assert fingerprint == fmt.fingerprint(fmt.second())


def test_unstattable_file_is_not_memoised(fmt, tmp_path, monkeypatch):
    """Without a stat signature a rewrite would go undetected, so the
    file is rebuilt on every lookup and its fingerprint follows the
    object each lookup returns."""
    path = str(tmp_path / "w.json")
    fmt.save(fmt.first(), path)
    registry = fmt.registry()
    monkeypatch.setattr(Registry, "_file_signature",
                        staticmethod(lambda path: None))
    first, first_fp = registry.resolve(path)
    second, second_fp = registry.resolve(path)
    assert first is not second                       # rebuilt
    assert first_fp == second_fp == fmt.fingerprint(fmt.first())
    fmt.save(fmt.second(), path)
    assert registry.fingerprint(path) == fmt.fingerprint(fmt.second())


def test_missing_file_fails_loudly(fmt, tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        fmt.registry().resolve(str(tmp_path / "absent.json"))


def test_duplicate_name_rejected_and_replace_drops_memo(fmt):
    registry = fmt.registry()
    registry.register(Provider("x", "builtin", fmt.first))
    with pytest.raises(ValueError, match="already registered"):
        registry.register(Provider("x", "builtin", fmt.second))
    assert registry.fingerprint("x") == fmt.fingerprint(fmt.first())
    registry.register(Provider("x", "builtin", fmt.second), replace=True)
    assert registry.fingerprint("x") == fmt.fingerprint(fmt.second())


def test_unknown_name_error_pickles_with_suggestions(fmt):
    """Pool workers re-raise this across process boundaries (a
    non-picklable exception breaks the whole executor)."""
    registry = fmt.registry()
    registry.register(Provider("alpha-design", "builtin", fmt.first))
    with pytest.raises(fmt.error) as excinfo:
        registry.resolve("alpha-desing")
    assert excinfo.value.suggestions == ["alpha-design"]
    assert "did you mean: alpha-design?" in str(excinfo.value)
    clone = pickle.loads(pickle.dumps(excinfo.value))
    assert type(clone) is fmt.error
    assert clone.name == "alpha-desing"
    assert clone.suggestions == ["alpha-design"]
    assert str(clone) == str(excinfo.value)


def test_registered_name_lookups_never_stat(fmt, monkeypatch):
    registry = fmt.registry()
    registry.register(Provider("x", "builtin", fmt.first))
    registry.resolve("x")
    calls = []
    real_stat = os.stat

    def counting_stat(*args, **kwargs):
        calls.append(args)
        return real_stat(*args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    for _ in range(3):
        registry.resolve("x")
    assert calls == []
