"""The ``repro cache`` maintenance subcommand."""

import json

import pytest

from repro.cli import main
from repro.engine import (ResultCache, corrupt_cache_entry,
                          execute_request, request_key)
from repro.experiments import kernel_request
from repro.benchsuite import KERNELS_BY_NAME
from repro.machine import standard_machine
from repro.remat import RenumberMode


@pytest.fixture
def cache_dir(tmp_path):
    """A cache directory with two valid entries."""
    cache = ResultCache(tmp_path)
    kernel = KERNELS_BY_NAME["zeroin"]
    for mode in (RenumberMode.CHAITIN, RenumberMode.REMAT):
        request = kernel_request(kernel, standard_machine(), mode)
        assert cache.put(request_key(request), execute_request(request))
    return tmp_path


def first_key(cache_dir) -> str:
    return ResultCache(cache_dir).entries()[0].stem


class TestStats:
    def test_empty(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 0
        assert report["quarantined_entries"] == 0

    def test_populated(self, cache_dir, capsys):
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 2
        assert report["bytes"] > 0


class TestVerify:
    def test_clean_cache_exits_zero(self, cache_dir, capsys):
        assert main(["cache", "verify", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "2 ok, 0 corrupt" in capsys.readouterr().out

    def test_corrupt_entry_exits_nonzero(self, cache_dir, capsys):
        corrupt_cache_entry(ResultCache(cache_dir), first_key(cache_dir),
                            "flip")
        assert main(["cache", "verify", "--cache-dir",
                     str(cache_dir)]) == 1
        assert "1 ok, 1 corrupt" in capsys.readouterr().out


class TestGc:
    def test_sweeps_quarantine(self, cache_dir, capsys):
        cache = ResultCache(cache_dir)
        corrupt_cache_entry(cache, first_key(cache_dir), "truncate")
        assert cache.get(first_key(cache_dir)) is None  # → quarantine/
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 quarantined" in capsys.readouterr().out
        assert ResultCache(cache_dir).quarantined_entries() == []

    def test_flat_layout_entry_is_not_served_and_gc_deletes_it(
            self, cache_dir, capsys):
        """An entry at the pre-shard flat layout (``<key>.pkl`` directly
        under the store) answers no request, and ``gc`` removes it."""
        key = first_key(cache_dir)
        cache = ResultCache(cache_dir)
        flat = cache_dir / f"{key}.pkl"
        cache.locate(key).rename(flat)
        assert cache.get(key) is None
        assert key not in cache
        assert len(cache) == 1
        assert cache.stats.corrupt == 0
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "1 flat-layout entries" in capsys.readouterr().out
        assert not flat.exists()
        assert len(ResultCache(cache_dir)) == 1
