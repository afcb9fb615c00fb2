"""Program registry: content addressing, LRU bounds, thread safety."""

from concurrent.futures import ThreadPoolExecutor

from repro.server.registry import ProgramRegistry


def test_make_id_depends_on_all_inputs():
    base = ProgramRegistry.make_id("asm", "mov eax, 1", "env")
    assert base == ProgramRegistry.make_id("asm", "mov eax, 1", "env")
    assert base != ProgramRegistry.make_id("c", "mov eax, 1", "env")
    assert base != ProgramRegistry.make_id("asm", "mov eax, 2", "env")
    assert base != ProgramRegistry.make_id("asm", "mov eax, 1", "other-env")
    # The separator keeps (kind+source) splits from colliding.
    assert ProgramRegistry.make_id("a", "bc") != ProgramRegistry.make_id("ab", "c")


def test_get_admit_and_stats():
    registry = ProgramRegistry(capacity=4)
    assert registry.get("missing") is None
    registry.admit("k1", "types-1")
    assert registry.get("k1") == "types-1"
    assert "k1" in registry and len(registry) == 1
    snapshot = registry.snapshot()
    assert snapshot["hits"] == 1 and snapshot["misses"] == 1
    assert 0 < snapshot["hit_rate"] < 1


def test_lru_eviction_order():
    registry = ProgramRegistry(capacity=2)
    registry.admit("a", 1)
    registry.admit("b", 2)
    registry.get("a")  # refresh a; b is now least recent
    registry.admit("c", 3)
    assert registry.get("b") is None
    assert registry.get("a") == 1 and registry.get("c") == 3
    assert registry.evictions == 1


def test_concurrent_admits_and_gets_are_safe():
    registry = ProgramRegistry(capacity=64)

    def worker(base: int) -> int:
        found = 0
        for i in range(200):
            key = f"k{(base * 7 + i) % 100}"
            registry.admit(key, key)
            if registry.get(key) is not None:
                found += 1
        return found

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(8)))
    assert all(count > 0 for count in results)
    assert len(registry) <= 64


def _counting_build():
    built = []

    def build(types):
        built.append(types)
        return f"encoded {types}".encode()

    return built, build


def test_reply_is_built_once_per_entry():
    registry = ProgramRegistry(capacity=4)
    registry.admit("k", "types-1")
    built, build = _counting_build()
    first = registry.reply("k", registry.get("k"), build)
    assert registry.reply("k", registry.get("k"), build) is first
    assert first == b"encoded types-1" and built == ["types-1"]


def test_readmission_drops_the_cached_reply():
    registry = ProgramRegistry(capacity=4)
    registry.admit("k", "types-1")
    built, build = _counting_build()
    registry.reply("k", "types-1", build)
    registry.admit("k", "types-2")  # a session edit or corpus batch re-admits
    assert registry.reply("k", registry.get("k"), build) == b"encoded types-2"
    assert built == ["types-1", "types-2"]
    # The first writer kept by admit_if_absent keeps its bytes too.
    assert registry.admit_if_absent("k", "types-3") == "types-2"
    assert registry.reply("k", "types-2", build) == b"encoded types-2"
    assert built == ["types-1", "types-2"]


def test_eviction_drops_the_cached_reply():
    registry = ProgramRegistry(capacity=1)
    registry.admit("a", "types-a")
    built, build = _counting_build()
    registry.reply("a", "types-a", build)
    registry.admit("b", "types-b")
    assert "a" not in registry and registry.evictions == 1
    registry.admit("a", "types-a")  # same object, but a new entry: rebuilt
    registry.reply("a", "types-a", build)
    assert built == ["types-a", "types-a"]


def test_reply_for_a_replaced_entry_is_not_cached():
    registry = ProgramRegistry(capacity=4)
    registry.admit("k", "types-2")
    built, build = _counting_build()
    # A caller still holding the types an entry no longer has gets its reply,
    # but the entry does not take it.
    assert registry.reply("k", "types-1", build) == b"encoded types-1"
    assert registry.reply("k", "types-2", build) == b"encoded types-2"
    registry.reply("gone", "types-x", build)
    assert "gone" not in registry
    assert built == ["types-1", "types-2", "types-x"]
