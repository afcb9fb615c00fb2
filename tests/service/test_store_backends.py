"""Conformance suite for the summary store's tiers.

One parametrized battery runs against both configurations the store
supports -- memory-only and memory over the disk tier -- covering
round-tripping, cross-instance visibility, hit/miss accounting on the shared
:class:`StoreStats` record, and safety under concurrent get/admit.
"""

import os
import threading

import pytest

from repro.core.lattice import default_lattice
from repro.service.store import STORE_FORMAT, SummaryStore, serialize_summary

BACKENDS = ["memory", "disk"]

LATTICE = default_lattice()


def _payload(tag="x"):
    return {"format": STORE_FORMAT, "members": [tag], "procedures": {}}


def _read(store, key):
    """``store.get`` of ``key``, serialized back to its payload (``None`` on a miss)."""
    summary = store.get(key, LATTICE)
    return None if summary is None else serialize_summary(summary)


@pytest.fixture(params=BACKENDS)
def store_env(request, tmp_path):
    """(kind, make_store) where make_store() builds a fresh SummaryStore
    facade over the *same* persistent tier each time it is called."""
    kind = request.param
    if kind == "memory":
        return kind, lambda: SummaryStore(capacity=64)
    return kind, lambda: SummaryStore(capacity=64, cache_dir=str(tmp_path / "tier"))


class TestBackendConformance:
    def test_kind_is_reported(self, store_env):
        kind, make = store_env
        store = make()
        assert store.backend_kind == kind

    def test_round_trip_within_one_instance(self, store_env):
        _, make = store_env
        store = make()
        assert _read(store, "k" * 64) is None
        store.admit_payload("k" * 64, _payload("a"))
        assert _read(store, "k" * 64) == _payload("a")
        assert ("k" * 64) in store

    def test_cross_instance_visibility(self, store_env):
        kind, make = store_env
        writer = make()
        writer.admit_payload("c" * 64, _payload("shared"))
        reader = make()
        found = _read(reader, "c" * 64)
        if kind == "memory":
            assert found is None  # memory-only stores are per-instance by design
        else:
            assert found == _payload("shared")

    def test_stats_accounting(self, store_env):
        kind, make = store_env
        store = make()
        _read(store, "m" * 64)
        assert store.stats.misses == 1
        store.admit_payload("m" * 64, _payload())
        assert store.stats.puts == 1
        _read(store, "m" * 64)
        assert store.stats.hits == 1
        assert store.stats.memory_hits == 1  # served from the LRU, not the tier
        if kind == "memory":
            return
        # A fresh facade over the same tier records a disk hit and promotes
        # the entry into its own memory tier.
        fresh = make()
        assert _read(fresh, "m" * 64) == _payload()
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 0
        _read(fresh, "m" * 64)
        assert fresh.stats.memory_hits == 1  # promotion worked

    def test_concurrent_get_admit(self, store_env):
        _, make = store_env
        store = make()
        errors = []

        def worker(tag):
            try:
                for i in range(30):
                    key = f"{tag}{i % 7}".ljust(64, "f")
                    store.admit_payload(key, _payload(f"{tag}{i}"))
                    got = _read(store, key)
                    assert got is not None and got["format"] == STORE_FORMAT
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in "abcd"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


# ---------------------------------------------------------------------------
# Disk-tier behaviour
# ---------------------------------------------------------------------------


def test_disk_backend_quarantines_corruption(tmp_path):
    store = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    store.admit_payload("q" * 64, _payload())
    path = store._disk_path("q" * 64)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{ not json")
    fresh = SummaryStore(capacity=8, cache_dir=str(tmp_path))
    assert _read(fresh, "q" * 64) is None
    assert fresh.stats.quarantined == 1
    assert os.path.exists(path + ".corrupt") and not os.path.exists(path)
