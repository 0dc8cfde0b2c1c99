"""One background model for both substrates.

:class:`~repro.lsm.background.BackgroundTerms` is held bitwise equal to
the two forms it replaced — the engine's rate, utilizations and
stateful CPU/disk models, and the analytic segment's inline block —
written out in ``tests/oracles.py`` without importing it.  The cases
after the equivalence pin what the CPU and disk model tests used to
check of the mechanism: background load takes cores and bandwidth,
clamped so the foreground never starves.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.cassandra import LEVELED, SIZE_TIERED
from repro.lsm.background import BackgroundTerms, compaction_rate
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.hardware import DEFAULT_SERVER, HardwareSpec

from .conftest import MB, make_knobs
from .oracles import (
    BACKGROUND_TERMS,
    ORACLE_COMPACTOR_STREAM_BYTES,
    ORACLE_LEVELED_MIN_COMPACTION_BYTES,
    oracle_compaction_input_rate,
    oracle_engine_terms,
    oracle_segment_terms,
)

KNOBS = st.builds(
    make_knobs,
    compaction_method=st.sampled_from([SIZE_TIERED, LEVELED]),
    concurrent_compactors=st.integers(1, 8),
    compaction_throughput_bytes=st.sampled_from([0, 64 * 1024, 16 * MB, 96 * MB, 1e9]),
    concurrent_reads=st.integers(1, 256),
    concurrent_writes=st.integers(1, 256),
)
HARDWARE = st.builds(
    HardwareSpec,
    name=st.just("box"),
    cpu_cores=st.integers(1, 64),
    cpu_ghz=st.floats(0.5, 5.0),
    ram_bytes=st.just(1024 * MB),
    disk_seq_bandwidth=st.floats(1e6, 2e9),
    disk_rand_iops=st.floats(100.0, 1e6),
    disk_count=st.integers(1, 8),
    net_bandwidth=st.just(125.0 * MB),
)
COSTS = st.sampled_from(
    [DEFAULT_COSTS, replace(DEFAULT_COSTS, compaction_cpu_per_byte=5e-8, contention_quadratic=0.4)]
)
#: Idle, a full-bandwidth flush writer pool, and past saturation.
FLUSH_RATES = st.one_of(st.just(0.0), st.floats(0.0, 4e9))


def terms(bg):
    return tuple(getattr(bg, name) for name in BACKGROUND_TERMS)


@settings(max_examples=300, deadline=None)
@given(
    knobs=KNOBS,
    hardware=HARDWARE,
    costs=COSTS,
    queued=st.integers(0, 12),  # up to well past concurrent_compactors
    flush_rate=FLUSH_RATES,
)
def test_equals_the_engine_relay_and_the_analytic_inline_block(
    knobs, hardware, costs, queued, flush_rate
):
    shared = terms(BackgroundTerms(knobs, hardware, costs, queued, flush_rate))
    assert shared == oracle_engine_terms(knobs, hardware, costs, queued, flush_rate)
    assert shared == oracle_segment_terms(knobs, hardware, costs, queued, flush_rate)
    assert compaction_rate(knobs, queued) == oracle_compaction_input_rate(knobs, queued)


class TestBackgroundTerms:
    def test_idle_leaves_the_whole_server(self):
        knobs = make_knobs()
        idle = BackgroundTerms(knobs, DEFAULT_SERVER, DEFAULT_COSTS, 0, 0.0)
        assert idle.compaction_rate == 0.0
        assert idle.cores == DEFAULT_SERVER.cpu_cores
        assert idle.seq_bandwidth == DEFAULT_SERVER.disk_seq_bandwidth
        assert idle.rand_iops == DEFAULT_SERVER.disk_rand_iops * DEFAULT_SERVER.disk_count

    def test_compaction_takes_cores_and_bandwidth(self):
        knobs = make_knobs(compaction_throughput_bytes=16 * MB)
        idle = BackgroundTerms(knobs, DEFAULT_SERVER, DEFAULT_COSTS, 0, 0.0)
        busy = BackgroundTerms(knobs, DEFAULT_SERVER, DEFAULT_COSTS, 2, 0.0)
        rate = 2 * 16 * MB
        assert busy.compaction_rate == rate
        cpu_util = rate * DEFAULT_COSTS.compaction_cpu_per_byte / DEFAULT_SERVER.cpu_cores
        assert busy.cores == pytest.approx(DEFAULT_SERVER.cpu_cores * (1.0 - cpu_util))
        seq_util = rate * DEFAULT_COSTS.compaction_io_factor / DEFAULT_SERVER.disk_seq_bandwidth
        assert busy.seq_bandwidth == pytest.approx(
            DEFAULT_SERVER.disk_seq_bandwidth * (1.0 - seq_util)
        )
        assert busy.read_contention > idle.read_contention
        assert busy.rand_iops == idle.rand_iops  # compaction streams, it does not seek

    def test_flush_writers_take_sequential_bandwidth(self):
        knobs = make_knobs()
        flushing = BackgroundTerms(knobs, DEFAULT_SERVER, DEFAULT_COSTS, 0, 45 * MB)
        assert flushing.seq_bandwidth == pytest.approx(DEFAULT_SERVER.disk_seq_bandwidth - 45 * MB)
        assert flushing.cores == DEFAULT_SERVER.cpu_cores

    def test_cpu_saturation_is_clamped(self):
        """Past saturation the background holds 60 % of the CPU: the
        foreground never fully starves."""
        knobs = make_knobs(concurrent_compactors=8, compaction_throughput_bytes=1e12)
        costs = replace(DEFAULT_COSTS, compaction_cpu_per_byte=1e-6)
        bg = BackgroundTerms(knobs, DEFAULT_SERVER, costs, 8, 0.0)
        assert bg.cores == pytest.approx(0.4 * DEFAULT_SERVER.cpu_cores)

    def test_seq_saturation_is_clamped(self):
        """Past saturation the background holds 90 % of the sequential
        bandwidth, from compaction streams and flush writers alike."""
        knobs = make_knobs(concurrent_compactors=8, compaction_throughput_bytes=1e12)
        for queued, flush_rate in ((8, 0.0), (0, 1e12), (8, 1e12)):
            bg = BackgroundTerms(knobs, DEFAULT_SERVER, DEFAULT_COSTS, queued, flush_rate)
            assert bg.seq_bandwidth == pytest.approx(0.1 * DEFAULT_SERVER.disk_seq_bandwidth)

    def test_random_iops_span_every_disk(self):
        """Point reads seek on every disk of the array, and background
        streams leave the random-IOPS budget whole."""
        knobs = make_knobs(compaction_throughput_bytes=16 * MB)
        for disk_count in (1, 4):
            hardware = replace(DEFAULT_SERVER, disk_count=disk_count)
            iops = hardware.disk_rand_iops * disk_count
            for queued, flush_rate in ((0, 0.0), (2, 45 * MB)):
                bg = BackgroundTerms(knobs, hardware, DEFAULT_COSTS, queued, flush_rate)
                assert bg.rand_iops == iops
                assert 10 / bg.rand_iops == pytest.approx(10 / iops)

    def test_at_least_half_a_core(self):
        """Clock speed scales the core count from the 3.0 GHz reference,
        down to a floor of half a core."""
        slow = replace(DEFAULT_SERVER, cpu_cores=1, cpu_ghz=1.0)
        knobs = make_knobs()
        assert BackgroundTerms(knobs, slow, DEFAULT_COSTS, 0, 0.0).cores == 0.5
        fast = replace(slow, cpu_ghz=6.0)
        assert BackgroundTerms(knobs, fast, DEFAULT_COSTS, 0, 0.0).cores == 2.0

    def test_leveled_floor(self):
        """Leveled compaction escalates past the user throttle up to its
        floor, capped by the active compactors' streams; size-tiered
        keeps the throttle."""
        for queued in (1, 2, 5):
            leveled = make_knobs(compaction_method=LEVELED, compaction_throughput_bytes=64 * 1024)
            tiered = replace(leveled, compaction_method=SIZE_TIERED)
            active = min(queued, leveled.concurrent_compactors)
            assert compaction_rate(leveled, queued) == min(
                ORACLE_LEVELED_MIN_COMPACTION_BYTES, active * ORACLE_COMPACTOR_STREAM_BYTES
            )
            assert compaction_rate(tiered, queued) == active * 64 * 1024

    def test_per_compactor_throttle(self):
        """The throughput knob throttles each compactor: the rate grows
        with the active count, which stops at ``concurrent_compactors``
        however long the queue."""
        knobs = make_knobs(concurrent_compactors=3, compaction_throughput_bytes=8 * MB)
        rates = [compaction_rate(knobs, queued) for queued in range(7)]
        assert rates == [0.0, 8 * MB, 16 * MB, 24 * MB, 24 * MB, 24 * MB, 24 * MB]
        fast = replace(knobs, compaction_throughput_bytes=1e12)
        assert compaction_rate(fast, 9) == 3 * ORACLE_COMPACTOR_STREAM_BYTES
