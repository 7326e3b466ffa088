"""Tests for the simulation substrate (repro.sim)."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    DelayLog,
    DiurnalTrace,
    NetworkModel,
    PoissonArrivals,
    QueryRecord,
    SimServer,
    Simulation,
    StepTrace,
    TrafficLedger,
    UniformArrivals,
    arrivals_from_rate_fn,
    linear_fit,
    md1_delay,
    md1_wait,
    min_p_for_delay,
    mm1_wait,
    percentile,
    utilisation,
)
from repro.sim.energy import PowerProfile, measure_energy
from repro.sim.network import RTT_VECTOR_MIN


class TestSimulationEngine:
    def test_events_run_in_time_order(self):
        sim = Simulation()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_run_in_schedule_order(self):
        sim = Simulation()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_cancel(self):
        sim = Simulation()
        hit = []
        ev = sim.schedule(1.0, lambda: hit.append(1))
        ev.cancel()
        sim.run()
        assert not hit

    def test_run_until(self):
        sim = Simulation()
        hit = []
        sim.schedule(1.0, lambda: hit.append(1))
        sim.schedule(5.0, lambda: hit.append(2))
        sim.run(until=2.0)
        assert hit == [1]
        assert sim.now == 2.0

    def test_events_scheduled_during_run(self):
        sim = Simulation()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.5, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulation().schedule(-1.0, lambda: None)


class TestSimServer:
    def test_service_time(self):
        s = SimServer("s", speed=100.0, fixed_overhead=0.5)
        assert s.service_time(50.0) == pytest.approx(1.0)

    def test_serial_queueing(self):
        s = SimServer("s", speed=10.0)
        f1 = s.submit(0.0, 10.0)  # 1s of work
        f2 = s.submit(0.0, 10.0)
        assert f1 == pytest.approx(1.0)
        assert f2 == pytest.approx(2.0)

    def test_idle_gap_not_counted(self):
        s = SimServer("s", speed=10.0)
        s.submit(0.0, 10.0)
        f = s.submit(5.0, 10.0)  # arrives after idle period
        assert f == pytest.approx(6.0)

    def test_estimate_matches_submit(self):
        s = SimServer("s", speed=10.0, fixed_overhead=0.1)
        est = s.estimate_finish(0.0, 20.0)
        assert s.submit(0.0, 20.0) == pytest.approx(est)

    def test_multi_lane(self):
        s = SimServer("s", speed=10.0, cores=2)
        f1 = s.submit(0.0, 10.0)
        f2 = s.submit(0.0, 10.0)
        f3 = s.submit(0.0, 10.0)
        assert f1 == pytest.approx(1.0)
        assert f2 == pytest.approx(1.0)  # second lane
        assert f3 == pytest.approx(2.0)  # queues behind lane 1

    def test_utilisation(self):
        s = SimServer("s", speed=10.0)
        s.submit(0.0, 50.0)  # 5s busy
        assert s.utilisation(10.0) == pytest.approx(0.5)

    def test_failed_server_rejects(self):
        s = SimServer("s", speed=1.0)
        s.fail()
        with pytest.raises(RuntimeError):
            s.submit(0.0, 1.0)

    def test_recover(self):
        s = SimServer("s", speed=1.0)
        s.fail()
        s.recover(3.0)
        assert s.submit(3.0, 1.0) == pytest.approx(4.0)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            SimServer("s", speed=0.0)

    def test_trace_recording(self):
        s = SimServer("s", speed=10.0)
        s.keep_trace = True
        s.submit(0.0, 10.0, query_id=9)
        assert len(s.trace) == 1
        assert s.trace[0].query_id == 9
        assert s.trace[0].service == pytest.approx(1.0)


class TestWorkloads:
    def test_poisson_rate(self):
        arr = PoissonArrivals(100.0, seed=1)
        times = arr.times(5000)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(100.0, rel=0.1)

    def test_poisson_monotonic(self):
        times = PoissonArrivals(10.0, seed=2).times(100)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_poisson_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_uniform_arrivals(self):
        times = UniformArrivals(2.0).times(4)
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_diurnal_peak_to_trough(self):
        trace = DiurnalTrace(base_rate=10.0, period=100.0, peak_to_trough=3.0)
        rates = [trace.rate(t) for t in range(100)]
        assert max(rates) / min(rates) == pytest.approx(3.0, rel=0.05)

    def test_step_trace(self):
        trace = StepTrace([(0.0, 1.0), (10.0, 5.0)])
        assert trace.rate(5.0) == 1.0
        assert trace.rate(15.0) == 5.0
        assert trace.rate(-1.0) == 0.0

    def test_thinned_arrivals_follow_rate(self):
        trace = StepTrace([(0.0, 50.0), (50.0, 200.0)])
        times = arrivals_from_rate_fn(trace.rate, 100.0, max_rate=200.0, seed=3)
        first_half = sum(1 for t in times if t < 50)
        second_half = sum(1 for t in times if t >= 50)
        assert second_half > 2.5 * first_half


class TestQueueing:
    def test_md1_wait_zero_at_no_load(self):
        assert md1_wait(0.0, 1.0) == 0.0

    def test_md1_wait_grows_with_load(self):
        waits = [md1_wait(rho, 1.0) for rho in (0.2, 0.5, 0.8)]
        assert waits[0] < waits[1] < waits[2]

    def test_md1_saturation(self):
        assert math.isinf(md1_wait(1.0, 1.0))
        assert math.isinf(md1_delay(2.0, 1.0))

    def test_md1_half_of_mm1(self):
        assert md1_wait(0.5, 1.0) == pytest.approx(mm1_wait(0.5, 1.0) / 2)

    def test_utilisation(self):
        assert utilisation(10.0, 0.05, servers=1) == pytest.approx(0.5)

    def test_min_p_for_delay_finds_feasible(self):
        p = min_p_for_delay(
            target_delay=0.5,
            dataset_size=1000.0,
            total_speed=10000.0,
            n_servers=10,
            query_rate=1.0,
        )
        assert p is not None
        assert 1 <= p <= 10

    def test_min_p_increases_with_load(self):
        kwargs = dict(
            target_delay=0.5,
            dataset_size=1000.0,
            total_speed=10000.0,
            n_servers=10,
        )
        p_light = min_p_for_delay(query_rate=0.5, **kwargs)
        p_heavy = min_p_for_delay(query_rate=5.0, **kwargs)
        assert p_heavy >= p_light

    def test_min_p_infeasible_returns_none(self):
        assert (
            min_p_for_delay(
                target_delay=1e-9,
                dataset_size=1e9,
                total_speed=10.0,
                n_servers=2,
                query_rate=100.0,
            )
            is None
        )


class TestTracing:
    def test_linear_fit_recovers_line(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [1.0, 3.0, 5.0, 7.0]
        slope, intercept = linear_fit(xs, ys)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_linear_fit_edge_cases(self):
        assert linear_fit([], []) == (0.0, 0.0)
        assert linear_fit([1.0], [5.0]) == (0.0, 5.0)

    def test_percentile(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0
        assert percentile(data, 50) == pytest.approx(2.5)

    def test_exploding_detection(self):
        log = DelayLog()
        for i in range(50):
            # Delay grows 0.5s per second of arrival time: exploding.
            log.add(QueryRecord(i, arrival=float(i), finish=float(i) + 0.5 * i))
        assert log.is_exploding()
        assert math.isinf(log.mean_delay())

    def test_stable_not_exploding(self):
        log = DelayLog()
        for i in range(50):
            log.add(QueryRecord(i, arrival=float(i), finish=float(i) + 0.2))
        assert not log.is_exploding()
        assert log.mean_delay() == pytest.approx(0.2)

    def test_yield_fraction(self):
        log = DelayLog()
        log.add(QueryRecord(0, 0.0, 1.0))
        log.dropped = 3
        assert log.yield_fraction() == pytest.approx(0.25)


class TestNetworkAndEnergy:
    def test_rtt_positive(self):
        nm = NetworkModel.data_center(seed=1)
        for _ in range(100):
            assert nm.sample_rtt() >= 0.0

    def test_zero_model(self):
        assert NetworkModel.zero().sample_rtt() == 0.0

    def test_wide_area_slower(self):
        assert NetworkModel.wide_area().rtt > NetworkModel.data_center().rtt

    @pytest.mark.parametrize(
        "n",
        [0, 1, RTT_VECTOR_MIN - 1, RTT_VECTOR_MIN, 311, 312, 313, 624, 625, 8192],
    )
    @pytest.mark.parametrize(
        "make",
        [
            NetworkModel.data_center,
            NetworkModel.wide_area,
            lambda seed: replace(NetworkModel.zero(), rng=random.Random(seed)),
            # jitter above the rtt: the clip at 0.0 fires on a third of draws
            lambda seed: NetworkModel(0.001, 0.003, random.Random(seed)),
        ],
        ids=["data_center", "wide_area", "zero", "clipped"],
    )
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sample_rtts_is_the_scalar_stream(self, make, n, seed):
        # MT19937 refills its 624-word block every 312 doubles; n straddles
        # that and the vector crossover.  Two calls in a row also start the
        # second draw mid-block.
        np = pytest.importorskip("numpy")
        bulk, scalar = make(seed), make(seed)
        bulk.rng.gauss(0.0, 1.0)  # leaves a pending gauss_next behind
        scalar.rng.gauss(0.0, 1.0)
        for _ in range(2):
            got = bulk.sample_rtts(n)
            want = [scalar.sample_rtt() for _ in range(n)]
            assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
            assert bulk.rng.getstate() == scalar.rng.getstate()
        if bulk.jitter > bulk.rtt and n >= 311:
            assert 0.0 in want

    def test_ledger_totals(self):
        ledger = TrafficLedger()
        ledger.record_query(4)
        ledger.record_result(4)
        ledger.record_update(3)
        assert ledger.total_messages == 11
        assert ledger.total_bytes > 0

    def test_ledger_merge(self):
        a, b = TrafficLedger(), TrafficLedger()
        a.record_query(2)
        b.record_query(3)
        assert a.merged(b).query_messages == 5

    def test_energy_idle_vs_busy(self):
        idle = SimServer("i", 10.0, power_idle=100.0, power_busy=200.0)
        busy = SimServer("b", 10.0, power_idle=100.0, power_busy=200.0)
        busy.submit(0.0, 100.0)  # 10s of work
        report = measure_energy([idle, busy], elapsed=10.0)
        # idle server: 1000 J; busy server: 2000 J.
        assert report.total_joules == pytest.approx(3000.0)

    def test_energy_savings(self):
        cheap = SimServer("c", 10.0, power_idle=100.0, power_busy=200.0)
        dear = SimServer("d", 10.0, power_idle=100.0, power_busy=200.0)
        dear.submit(0.0, 100.0)
        r_cheap = measure_energy([cheap], 10.0)
        r_dear = measure_energy([dear], 10.0)
        assert r_cheap.savings_vs(r_dear) == pytest.approx(0.5)

    def test_power_profile_interpolation(self):
        prof = PowerProfile(100.0, 300.0)
        assert prof.power(0.0) == 100.0
        assert prof.power(1.0) == 300.0
        assert prof.power(0.5) == 200.0
        assert prof.power(2.0) == 300.0  # clamped
