"""Unit tests for the simulated clock and cost profiles."""

import pytest

from repro.storage.simclock import (
    CLOUD_ESSD,
    DATACENTER_LAN,
    HDD_5400RPM,
    RAM_DISK,
    DeviceProfile,
    SimClock,
    Stopwatch,
)


class TestProfiles:
    def test_read_cost_scales_with_size(self):
        small = HDD_5400RPM.read_cost(1024)
        large = HDD_5400RPM.read_cost(1024 * 1024)
        assert large > small

    def test_seek_dominates_small_hdd_reads(self):
        cost = HDD_5400RPM.read_cost(512)
        assert cost == pytest.approx(HDD_5400RPM.seek_latency_s, rel=0.01)

    def test_essd_is_faster_than_hdd(self):
        assert CLOUD_ESSD.read_cost(4096) < HDD_5400RPM.read_cost(4096)

    def test_ram_profile_is_nearly_free(self):
        assert RAM_DISK.read_cost(1024) < 1e-6

    def test_network_transfer_cost_includes_rtt(self):
        assert DATACENTER_LAN.transfer_cost(0) == DATACENTER_LAN.rtt_s


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_charges_accumulate(self):
        clock = SimClock()
        clock.charge(1.0)
        clock.charge(0.5)
        assert clock.now == pytest.approx(1.5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge(-1.0)

    def test_monotone_over_many_charges(self):
        clock = SimClock()
        last = 0.0
        for __ in range(100):
            clock.charge_read(CLOUD_ESSD, 4096)
            assert clock.now >= last
            last = clock.now

    def test_device_and_network_charges_compose(self):
        clock = SimClock()
        clock.charge_read(HDD_5400RPM, 1024)
        clock.charge_transfer(DATACENTER_LAN, 1024)
        expected = HDD_5400RPM.read_cost(1024) + DATACENTER_LAN.transfer_cost(1024)
        assert clock.now == pytest.approx(expected)

    def test_reset(self):
        clock = SimClock()
        clock.charge(2.0)
        clock.reset()
        assert clock.now == 0.0


class TestStopwatch:
    def test_measures_span(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.charge(0.25)
        assert watch.elapsed == pytest.approx(0.25)

    def test_restart(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.charge(1.0)
        watch.restart()
        clock.charge(0.5)
        assert watch.elapsed == pytest.approx(0.5)


class TestFork:
    def test_branches_start_at_the_fork_and_join_at_the_slowest(self):
        clock = SimClock()
        clock.charge(1.0)
        starts = []
        with clock.fork() as fork:
            for cost in (0.5, 2.0, 0.25):
                with fork.branch():
                    starts.append(clock.now)
                    clock.charge(cost)
        assert starts == [1.0, 1.0, 1.0]
        assert clock.now == 3.0
        assert (fork.start, fork.end) == (1.0, 3.0)

    def test_a_fork_without_branches_does_not_move_the_clock(self):
        clock = SimClock()
        clock.charge(0.5)
        with clock.fork():
            pass
        assert clock.now == 0.5

    def test_nested_forks(self):
        clock = SimClock()
        with clock.fork() as outer:
            with outer.branch():
                clock.charge(1.0)
                with clock.fork() as inner:
                    for cost in (3.0, 1.0):
                        with inner.branch():
                            assert clock.now == 1.0
                            clock.charge(cost)
                assert clock.now == 4.0
            with outer.branch():
                assert clock.now == 0.0
                clock.charge(2.0)
        assert clock.now == 4.0

    def test_an_exception_joins(self):
        clock = SimClock()
        with pytest.raises(RuntimeError):
            with clock.fork() as fork:
                with fork.branch():
                    clock.charge(2.0)
                with fork.branch():
                    clock.charge(0.5)
                    raise RuntimeError("peer failed")
        assert clock.now == 2.0

    def test_an_early_return_joins(self):
        clock = SimClock()

        def round_until_rejected() -> str:
            with clock.fork() as fork:
                for cost in (1.0, 3.0, 5.0):
                    with fork.branch():
                        clock.charge(cost)
                    if cost == 3.0:
                        return "rejected"
            return "done"

        assert round_until_rejected() == "rejected"
        assert clock.now == 3.0

    def test_charges_after_the_join_stay_monotone(self):
        clock = SimClock()
        with clock.fork() as fork:
            for cost in (2.0, 1.0):
                with fork.branch():
                    clock.charge(cost)
        last = clock.now
        for __ in range(10):
            clock.charge_transfer(DATACENTER_LAN, 4096)
            assert clock.now > last
            last = clock.now


class TestCustomProfile:
    def test_metadata_cost(self):
        profile = DeviceProfile("custom", 1e-3, 1e6, 1e-4)
        clock = SimClock()
        clock.charge_metadata(profile)
        assert clock.now == pytest.approx(1e-4)

    def test_write_cost_formula(self):
        profile = DeviceProfile("custom", 0.01, 1000.0, 0.0)
        assert profile.write_cost(500) == pytest.approx(0.01 + 0.5)


class TestWritePenalty:
    def test_writes_cost_more_than_reads_on_hdd(self):
        assert HDD_5400RPM.write_cost(4096) > HDD_5400RPM.read_cost(4096)

    def test_default_profile_is_symmetric(self):
        profile = DeviceProfile("sym", 1e-3, 1e6, 1e-4)
        assert profile.write_cost(100) == profile.read_cost(100)

    def test_penalty_scales_linearly(self):
        base = DeviceProfile("a", 1e-3, 1e6, 0.0, write_penalty=1.0)
        double = DeviceProfile("b", 1e-3, 1e6, 0.0, write_penalty=2.0)
        assert double.write_cost(500) == pytest.approx(2 * base.write_cost(500))
