"""Tests for the micro-architectural frontend model."""

import pytest

from repro.hwmodel import (
    SetAssociativeCache,
    SkylakeParams,
    measure_frontend,
    record_heatmap,
    render_heatmap,
    simulate_frontend,
)
from repro.hwmodel.frontend import DEFAULT_PARAMS
from repro.profiles import generate_trace


class TestCache:
    def test_first_access_misses(self):
        cache = SetAssociativeCache(4, 2)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = SetAssociativeCache(1, 2)
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 0 is now MRU
        cache.access(2)      # evicts 1
        assert cache.access(0)
        assert not cache.access(1)

    def test_sets_isolated(self):
        cache = SetAssociativeCache(2, 1)
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        assert cache.access(0)
        assert cache.access(1)

    def test_probe_does_not_touch(self):
        cache = SetAssociativeCache(1, 2)
        cache.access(0)
        assert cache.probe(0)
        assert not cache.probe(5)
        assert cache.hits == 0 or cache.hits == 0  # probe counted nothing
        assert cache.misses == 1

    def test_capacity(self):
        assert SetAssociativeCache(8, 4).capacity == 32

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 1)

    def test_reset_counters(self):
        cache = SetAssociativeCache(2, 2)
        cache.access(0)
        cache.reset_counters()
        assert cache.misses == 0


class TestScaledParams:
    def test_scaling_shrinks_sets(self):
        scaled = DEFAULT_PARAMS.scaled(8)
        assert scaled.l1i_sets == DEFAULT_PARAMS.l1i_sets // 8
        assert scaled.l1i_ways == DEFAULT_PARAMS.l1i_ways
        assert scaled.btb_sets == DEFAULT_PARAMS.btb_sets // 8

    def test_scaling_validates(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.scaled(0)

    def test_never_below_one_set(self):
        scaled = DEFAULT_PARAMS.scaled(10_000)
        assert scaled.l1i_sets == 1


class TestFrontend:
    def test_counters_populated(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        counters = simulate_frontend(exe, trace)
        assert counters.blocks == 30_000
        assert counters.instructions > counters.blocks
        assert counters.taken_branches == trace.num_branches
        assert counters.cycles > 0
        assert counters.ipc > 0

    def test_counter_labels(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=5_000, seed=1)
        counters = simulate_frontend(exe, trace)
        for label in ("I1", "I2", "I3", "T1", "T2", "B1", "B2", "DSB"):
            assert counters.counter(label) >= 0

    def test_smaller_cache_more_misses(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        big = simulate_frontend(exe, trace, DEFAULT_PARAMS)
        small = simulate_frontend(exe, trace, DEFAULT_PARAMS.scaled(16))
        assert small.l1i_miss >= big.l1i_miss
        assert small.cycles > big.cycles

    def test_dsb_can_be_disabled(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=5_000, seed=1)
        counters = simulate_frontend(exe, trace, simulate_dsb=False)
        assert counters.dsb_miss == 0

    def test_prefetch_reduces_misses(self, pipeline_result):
        from dataclasses import replace

        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        on = simulate_frontend(exe, trace, DEFAULT_PARAMS.scaled(8))
        off = simulate_frontend(
            exe, trace, replace(DEFAULT_PARAMS.scaled(8), next_line_prefetch=False)
        )
        assert on.l1i_miss < off.l1i_miss

    def test_hugepages_reduce_itlb_misses(self, pipeline_result):
        from dataclasses import replace as dc_replace

        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        normal = simulate_frontend(exe, trace, DEFAULT_PARAMS.scaled(8))
        huge_exe = dc_replace(exe, hugepages=True)
        huge_exe.rebuild_block_index()
        huge = simulate_frontend(huge_exe, trace, DEFAULT_PARAMS.scaled(8))
        assert huge.itlb_miss < normal.itlb_miss


class TestPerFunctionAttribution:
    def test_totals_bit_identical_with_attribution_on(self, pipeline_result):
        exe = pipeline_result.optimized.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        plain = simulate_frontend(exe, trace)
        attributed = simulate_frontend(exe, trace, by_function=True)
        # The gated scorecard must not move when attribution is on:
        # per-function accounting reads the same event stream, it never
        # re-simulates it.
        assert attributed.as_dict() == plain.as_dict()
        assert plain.per_function == {}
        assert attributed.per_function

    def test_measure_frontend_is_trace_then_simulate(self, pipeline_result):
        """``measure_frontend`` is exactly the protocol it names: a
        block-budgeted trace, then one simulation -- totals and the
        per-function attribution included."""
        exe = pipeline_result.optimized.executable
        params = DEFAULT_PARAMS.scaled(8)
        measured = measure_frontend(exe, max_blocks=20_000, seed=5,
                                    params=params, by_function=True)
        trace = generate_trace(exe, max_blocks=20_000, seed=5)
        direct = simulate_frontend(exe, trace, params, by_function=True)
        assert measured.as_dict() == direct.as_dict()
        assert measured.per_function
        assert measured.per_function == direct.per_function

    def test_shares_sum_to_totals(self, pipeline_result):
        exe = pipeline_result.optimized.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        c = simulate_frontend(exe, trace, by_function=True)
        per = c.per_function.values()
        # Instructions are fractional (size/avg-bytes), so summation
        # order costs a few ulps; every integer counter is exact.
        assert sum(f.instructions for f in per) == pytest.approx(
            c.instructions, rel=1e-12)
        assert sum(f.blocks for f in per) == c.blocks
        assert sum(f.l1i_miss for f in per) == c.l1i_miss
        assert sum(f.itlb_miss for f in per) == c.itlb_miss
        assert sum(f.dsb_miss for f in per) == c.dsb_miss
        assert sum(f.taken_branches for f in per) == c.taken_branches
        assert sum(f.baclears for f in per) == c.baclears
        # Cycles are modelled per function with the same linear formula,
        # so the shares sum to the total up to float association.
        assert sum(f.cycles for f in per) == pytest.approx(c.cycles)

    def test_functions_cover_the_trace(self, pipeline_result):
        exe = pipeline_result.optimized.executable
        trace = generate_trace(exe, max_blocks=10_000, seed=1)
        c = simulate_frontend(exe, trace, by_function=True)
        visited = {exe.block_at(addr).func for addr in trace.block_addrs}
        assert set(c.per_function) == visited


class TestHeatmap:
    def test_shape_and_counts(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=20_000, seed=2)
        heatmap = record_heatmap(exe, trace, time_buckets=32, addr_bucket_bytes=1024)
        assert heatmap.counts.shape[0] == 32
        assert heatmap.counts.sum() == 20_000

    def test_band_height_leq_footprint(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=20_000, seed=2)
        heatmap = record_heatmap(exe, trace, addr_bucket_bytes=1024)
        assert 0 < heatmap.band_height(0.9) <= heatmap.occupied_addr_range()

    def test_optimized_band_tighter(self, pipeline_result):
        res = pipeline_result
        t_base = generate_trace(res.baseline.executable, max_blocks=30_000, seed=2)
        t_opt = generate_trace(res.optimized.executable, max_blocks=30_000, seed=2)
        h_base = record_heatmap(res.baseline.executable, t_base, addr_bucket_bytes=1024)
        h_opt = record_heatmap(res.optimized.executable, t_opt, addr_bucket_bytes=1024)
        assert h_opt.occupied_addr_range() <= h_base.occupied_addr_range()

    def test_render(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=5_000, seed=2)
        art = render_heatmap(record_heatmap(exe, trace))
        assert "addr base" in art
        assert len(art.splitlines()) > 2

    def test_empty_trace_rejected(self, pipeline_result):
        from repro.profiles import Trace

        with pytest.raises(ValueError):
            record_heatmap(pipeline_result.baseline.executable, Trace())
