"""The CoE runtime's LRU expert cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coe.expert import ExpertProfile
from repro.coe.runtime import CoERuntime
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.transformer import TransformerConfig

TINY = TransformerConfig("tiny", hidden=64, layers=2, heads=4, kv_heads=4,
                         intermediate=128, vocab=100)
EXPERT_BYTES = TINY.weight_bytes


def _expert(i, mutable=0.0):
    return ExpertProfile(f"e{i}", "chat", model=TINY, mutable_fraction=mutable)


#: Every expert the tests activate, placed by each runtime.
LIBRARY = [_expert(i) for i in range(10)]


def _capped(hierarchy, hbm_bytes):
    """A runtime over ``hierarchy`` with an ``hbm_bytes`` expert region."""
    return CoERuntime(LIBRARY, hierarchy.with_capacities({"hbm": hbm_bytes}))


def _runtime(capacity_experts=2, downgrade_time=None):
    return _capped(
        MemoryHierarchy.from_edge_times(lambda b: b / 1e9, downgrade_time),
        capacity_experts * EXPERT_BYTES,
    )


class TestLRUSemantics:
    def test_first_request_misses_then_hits(self):
        rt = _runtime()
        e = _expert(0)
        assert not rt.activate(e).hit
        assert rt.activate(e).hit
        assert rt.stats.hit_rate == 0.5

    def test_hit_costs_nothing(self):
        rt = _runtime()
        e = _expert(0)
        rt.activate(e)
        event = rt.activate(e)
        assert event.time_s == 0.0
        assert event.bytes_up == 0

    def test_lru_evicts_the_oldest(self):
        rt = _runtime(capacity_experts=2)
        e0, e1, e2 = _expert(0), _expert(1), _expert(2)
        rt.activate(e0)
        rt.activate(e1)
        event = rt.activate(e2)
        assert event.evicted == ("e0",)
        assert rt.resident_experts == ["e1", "e2"]

    def test_recency_refresh_protects_from_eviction(self):
        rt = _runtime(capacity_experts=2)
        e0, e1, e2 = _expert(0), _expert(1), _expert(2)
        rt.activate(e0)
        rt.activate(e1)
        rt.activate(e0)  # refresh e0: now e1 is oldest
        event = rt.activate(e2)
        assert event.evicted == ("e1",)

    def test_oversized_expert_rejected(self):
        rt = _capped(MemoryHierarchy.from_edge_times(lambda b: 0.0), 10)
        with pytest.raises(ValueError):
            rt.activate(_expert(0))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            _capped(MemoryHierarchy.from_edge_times(lambda b: 0.0), -1)


class TestReadOnlyCopyback:
    def test_read_only_weights_skip_copyback(self):
        rt = _runtime(capacity_experts=1)
        rt.activate(_expert(0, mutable=0.0))
        event = rt.activate(_expert(1, mutable=0.0))
        assert event.bytes_down == 0

    def test_mutable_state_pays_copyback(self):
        rt = _runtime(capacity_experts=1)
        rt.activate(_expert(0, mutable=0.5))
        event = rt.activate(_expert(1))
        assert event.bytes_down == pytest.approx(0.5 * EXPERT_BYTES, rel=0.01)

    def test_copyback_time_included(self):
        slow_down = _runtime(capacity_experts=1,
                             downgrade_time=lambda b: 100.0)
        slow_down.activate(_expert(0, mutable=0.5))
        event = slow_down.activate(_expert(1))
        assert event.time_s > 100.0


class TestInvariants:
    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=60),
           st.integers(1, 5))
    def test_residency_never_exceeds_budget(self, requests, capacity):
        rt = _runtime(capacity_experts=capacity)
        experts = [_expert(i) for i in range(10)]
        for idx in requests:
            rt.activate(experts[idx])
            assert rt.resident_bytes <= rt.hbm_budget
            assert len(rt.resident_experts) <= capacity

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_request_accounting_balances(self, requests):
        rt = _runtime(capacity_experts=2)
        experts = [_expert(i) for i in range(4)]
        for idx in requests:
            rt.activate(experts[idx])
        assert rt.stats.hits + rt.stats.misses == len(requests)
        assert rt.stats.bytes_up == rt.stats.misses * EXPERT_BYTES


class TestFailureInjection:
    """A failed DMA copy must leave the cache exactly as it was."""

    class _FlakyDMA:
        def __init__(self, fail_after=1):
            self.calls = 0
            self.fail_after = fail_after

        def __call__(self, num_bytes):
            self.calls += 1
            if self.calls > self.fail_after:
                raise IOError("simulated DMA failure")
            return num_bytes / 1e9

    def test_failed_copy_preserves_residents(self):
        dma = self._FlakyDMA(fail_after=2)
        rt = _capped(MemoryHierarchy.from_edge_times(dma), 2 * EXPERT_BYTES)
        e0, e1, e2 = _expert(0), _expert(1), _expert(2)
        rt.activate(e0)
        rt.activate(e1)
        with pytest.raises(IOError):
            rt.activate(e2)  # third copy fails after evicting e0
        # The cache is exactly as before the failed activation.
        assert rt.resident_experts == ["e0", "e1"]
        assert rt.resident_bytes == 2 * EXPERT_BYTES

    def test_failed_copy_preserves_lru_order(self):
        dma = self._FlakyDMA(fail_after=2)
        rt = _capped(MemoryHierarchy.from_edge_times(dma), 2 * EXPERT_BYTES)
        e0, e1, e2, e3 = (_expert(i) for i in range(4))
        rt.activate(e0)
        rt.activate(e1)
        with pytest.raises(IOError):
            rt.activate(e2)
        # After recovery, a successful DMA evicts e0 (still the oldest).
        dma.fail_after = float("inf")
        event = rt.activate(e3)
        assert event.evicted == ("e0",)

    def test_failed_copy_rolls_back_eviction_stats(self):
        dma = self._FlakyDMA(fail_after=1)
        rt = _capped(MemoryHierarchy.from_edge_times(dma), EXPERT_BYTES)
        rt.activate(_expert(0))
        with pytest.raises(IOError):
            rt.activate(_expert(1))
        assert rt.stats.evictions == 0

    def test_retry_after_failure_succeeds(self):
        dma = self._FlakyDMA(fail_after=1)
        rt = _capped(MemoryHierarchy.from_edge_times(dma), EXPERT_BYTES)
        rt.activate(_expert(0))
        with pytest.raises(IOError):
            rt.activate(_expert(1))
        dma.fail_after = float("inf")  # DMA recovered
        event = rt.activate(_expert(1))
        assert not event.hit
        assert rt.resident_experts == ["e1"]

    def test_failed_request_counted_with_failure_marker(self):
        """Convention: a failed activate still counts as a request, gets a
        ``failures`` tick, and contributes nothing to the copy totals."""
        dma = self._FlakyDMA(fail_after=1)
        rt = _capped(MemoryHierarchy.from_edge_times(dma), EXPERT_BYTES)
        rt.activate(_expert(0))
        bytes_up_before = rt.stats.bytes_up
        switch_before = rt.stats.switch_time_s
        with pytest.raises(IOError):
            rt.activate(_expert(1))
        assert rt.stats.requests == 2
        assert rt.stats.failures == 1
        assert rt.stats.hits == 0
        assert rt.stats.misses == 2  # failures are a subset of misses
        assert rt.stats.bytes_up == bytes_up_before
        assert rt.stats.bytes_down == 0
        assert rt.stats.switch_time_s == switch_before

    def test_failure_restores_resident_byte_counter(self):
        dma = self._FlakyDMA(fail_after=2)
        rt = _capped(MemoryHierarchy.from_edge_times(dma), 2 * EXPERT_BYTES)
        rt.activate(_expert(0))
        rt.activate(_expert(1))
        with pytest.raises(IOError):
            rt.activate(_expert(2))
        assert rt.resident_bytes == sum(
            e.weight_bytes for e in rt._resident.values()
        )


class TestByteAccounting:
    """The O(1) resident-byte counter must always equal the true sum."""

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=80),
           st.integers(1, 5))
    def test_counter_matches_sum_under_churn(self, requests, capacity):
        rt = _runtime(capacity_experts=capacity)
        experts = [_expert(i) for i in range(10)]
        for idx in requests:
            rt.activate(experts[idx])
            assert rt.resident_bytes == sum(
                e.weight_bytes for e in rt._resident.values()
            )

    def test_would_evict_previews_lru_victims_without_mutation(self):
        rt = _runtime(capacity_experts=2)
        e0, e1, e2 = _expert(0), _expert(1), _expert(2)
        rt.activate(e0)
        rt.activate(e1)
        assert rt.would_evict(e2) == ("e0",)
        assert rt.would_evict(e0) == ()  # already resident
        assert rt.resident_experts == ["e0", "e1"]  # untouched
        assert rt.stats.evictions == 0

    def test_flush_resets_counter(self):
        rt = _runtime(capacity_experts=3)
        for i in range(3):
            rt.activate(_expert(i))
        assert rt.resident_bytes == 3 * EXPERT_BYTES
        rt.flush()
        assert rt.resident_bytes == 0
        assert rt.resident_experts == []
