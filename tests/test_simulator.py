"""Cluster dynamics against direct formula evaluation.

Oracles here re-evaluate the queueing curve by hand: with jitter disabled
the simulator must reproduce l = (base + network) / (1 - rho) exactly,
with rho capped, the saturation ceiling applied, and memory pressure as a
multiplier.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesched.domain import (CPU_MAX, CPU_MIN, MEM_MAX, MEM_MIN, ActionVector,
                              DimensionError, NormalizationConfig, ServiceSpec,
                              ValidationError, _adopt, action_from_unit, make_node)
from edgesched import simulator
from edgesched.rng import stream
from edgesched.simulator import RHO_CAP, ClusterSim, LatencyModel, SimConfig
from edgesched.workload import TraceRecord, constant_source, trace_source, write_trace
from conftest import assert_equals_constructed


def quiet(**kwargs):
    """Latency model without measurement jitter."""
    return LatencyModel(jitter_sigma=0.0, **kwargs)


# rate-matrix rows: window 0 plus 5 steps, or plus the stock 20 steps
ROWS = 6
STOCK_ROWS = 21


def one_service_config(cpu_cost=0.1, l_target=150.0,
                       latency=None, init_cpu=1.0, init_mem=512.0,
                       mem_floor=64.0, mem_per_qps=0.0, tier="edge"):
    node = make_node(0, tier)
    svc = ServiceSpec(name="svc", home_node=0,
                      cpu_cost_per_request=cpu_cost, mem_floor=mem_floor,
                      mem_per_qps=mem_per_qps, initial_cpu_request=init_cpu,
                      initial_mem_request=init_mem)
    return SimConfig(services=[svc], nodes=[node], l_target=l_target,
                     latency=latency if latency is not None else quiet())


class TestReset:
    def test_installs_initial_requests(self):
        cfg = SimConfig(latency=quiet())
        sim = ClusterSim(cfg, constant_source(100.0, cfg.n_services, STOCK_ROWS))
        obs, raw = sim.reset(seed=0)
        expected = ActionVector(cpu_alloc=[s.initial_cpu_request for s in cfg.services],
                                mem_alloc=[s.initial_mem_request for s in cfg.services])
        np.testing.assert_array_equal(sim.initial_action.vec, expected.vec)
        # one service per node: window 0 grants the initial requests in full
        np.testing.assert_allclose(raw.cpu_alloc, expected.cpu_alloc)
        np.testing.assert_allclose(raw.mem_alloc, expected.mem_alloc)
        assert obs.vec.shape == (4 * cfg.n_services,)

    def test_zero_rate_latency_at_floor(self):
        cfg = SimConfig(latency=quiet())
        sim = ClusterSim(cfg, constant_source(0.0, cfg.n_services, STOCK_ROWS))
        _, raw = sim.reset(seed=3)
        np.testing.assert_allclose(raw.cpu_used, 0.0)
        floors = np.array([20.0 + n.base_network_latency
                           for n in cfg.nodes])[[s.home_node for s in cfg.services]]
        np.testing.assert_allclose(raw.latency_ms, floors)

    def test_same_seed_bitwise_identical(self):
        cfg = SimConfig()  # default jitter on: determinism must still hold
        wl = constant_source(100.0, cfg.n_services, STOCK_ROWS)
        a = ClusterSim(cfg, wl)
        b = ClusterSim(cfg, wl)
        oa, ra = a.reset(seed=11)
        ob, rb = b.reset(seed=11)
        np.testing.assert_array_equal(ra.latency_ms, rb.latency_ms)
        np.testing.assert_array_equal(oa.vec, ob.vec)


class TestLatencyFormula:
    def test_half_utilization_edge(self):
        # rho = 0.5 on an edge node: (20 + 5) / 0.5 = 50 ms
        cfg = one_service_config(cpu_cost=0.05)
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        sim.reset(seed=0)
        _, _, raw = sim.step(ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0]))
        assert raw.latency_ms[0] == pytest.approx(50.0, abs=1e-12)
        assert raw.cpu_used[0] == pytest.approx(0.5)

    def test_rho_capped_at_saturation(self):
        # demand / alloc = 2.0 clamps to rho_cap and the cap kicks in
        cfg = one_service_config(cpu_cost=0.2)
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        sim.reset(seed=0)
        _, _, raw = sim.step(ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0]))
        assert RHO_CAP == 0.99
        assert raw.latency_ms[0] == cfg.latency.saturation_cap_ms

    def test_idle_service_at_floor(self):
        cfg = one_service_config()
        sim = ClusterSim(cfg, constant_source(0.0, 1, ROWS))
        sim.reset(seed=0)
        _, _, raw = sim.step(ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0]))
        assert raw.latency_ms[0] == pytest.approx(25.0)
        assert raw.cpu_used[0] == 0.0

    def test_cloud_network_floor(self):
        cfg = one_service_config(tier="cloud", cpu_cost=0.05)
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        sim.reset(seed=0)
        _, _, raw = sim.step(ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0]))
        assert raw.latency_ms[0] == pytest.approx((20.0 + 40.0) / 0.5)

    def test_formula_oracle_grid(self):
        # sweep allocations and recompute the whole chain independently
        cfg = one_service_config(cpu_cost=0.08, mem_floor=256.0, mem_per_qps=4.0)
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        for alloc in (0.2, 0.5, 0.9, 1.3, 2.0):
            for mem in (128.0, 300.0, 2048.0):
                sim.reset(seed=0)
                _, _, raw = sim.step(ActionVector(cpu_alloc=[alloc], mem_alloc=[mem]))
                demand = 10.0 * 0.08
                rho = min(demand / alloc, RHO_CAP)
                expected = min(25.0 / (1.0 - rho), 1000.0)
                if mem < 256.0 + 4.0 * 10.0:
                    expected = min(expected * 2.0, 1000.0)
                assert raw.latency_ms[0] == pytest.approx(expected, abs=1e-9), (alloc, mem)

    def test_mem_pressure_multiplier(self):
        cfg = one_service_config(cpu_cost=0.05, mem_floor=600.0)
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        sim.reset(seed=0)
        _, _, raw = sim.step(ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0]))
        # starved memory doubles the 50 ms queueing latency
        assert raw.latency_ms[0] == pytest.approx(100.0)
        assert raw.mem_used[0] == pytest.approx(512.0)  # capped at alloc

    @given(lo=st.floats(0.15, 1.0), hi_delta=st.floats(0.01, 1.0),
           qps=st.floats(0.0, 40.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_allocation(self, lo, hi_delta, qps):
        cfg = one_service_config(cpu_cost=0.05)
        sim = ClusterSim(cfg, constant_source(qps, 1, 4))
        hi = min(lo + hi_delta, 2.0)
        sim.reset(seed=0)
        _, _, raw_lo = sim.step(ActionVector(cpu_alloc=[lo], mem_alloc=[512.0]))
        sim.reset(seed=0)
        _, _, raw_hi = sim.step(ActionVector(cpu_alloc=[hi], mem_alloc=[512.0]))
        assert raw_hi.latency_ms[0] <= raw_lo.latency_ms[0] + 1e-12

    def test_jitter_respects_bounds(self):
        cfg = dataclasses.replace(one_service_config(cpu_cost=0.19),
                                  latency=LatencyModel(jitter_sigma=0.5))
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        sim.reset(seed=0)
        for _ in range(sim.episode_len):
            _, done, raw = sim.step(ActionVector(cpu_alloc=[2.0], mem_alloc=[512.0]))
            assert 25.0 <= raw.latency_ms[0] <= 1000.0
            if done:
                sim.reset(seed=1)


class TestEpisodeProtocol:
    def test_done_exactly_at_episode_len(self):
        cfg = one_service_config()
        sim = ClusterSim(cfg, constant_source(10.0, 1, 5))
        sim.reset(seed=0)
        action = ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0])
        flags = [sim.step(action)[1] for _ in range(4)]
        assert flags == [False, False, False, True]

    def test_step_after_done_rejected(self):
        cfg = one_service_config()
        sim = ClusterSim(cfg, constant_source(10.0, 1, 2))
        sim.reset(seed=0)
        action = ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0])
        sim.step(action)
        with pytest.raises(ValidationError):
            sim.step(action)

    def test_step_before_reset_rejected(self):
        cfg = one_service_config()
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        with pytest.raises(ValidationError):
            sim.step(ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0]))

    def test_dimension_mismatch_rejected(self):
        cfg = one_service_config()
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        sim.reset(seed=0)
        with pytest.raises(ValidationError):
            sim.step(ActionVector(cpu_alloc=[1.0, 1.0], mem_alloc=[512.0, 512.0]))

    def test_nan_action_rejected(self):
        # ActionVector clamps inf into the box, but NaN passes the clamp
        cfg = one_service_config()
        sim = ClusterSim(cfg, constant_source(10.0, 1, ROWS))
        sim.reset(seed=0)
        with pytest.raises(ValidationError, match="non-finite"):
            sim.step(ActionVector(cpu_alloc=[np.nan], mem_alloc=[512.0]))

    def test_trajectory_determinism(self):
        cfg = SimConfig()
        wl = constant_source(200.0, cfg.n_services, STOCK_ROWS)
        rng = np.random.default_rng(5)
        actions = [ActionVector(cpu_alloc=rng.uniform(0.1, 2.0, 8),
                                mem_alloc=rng.uniform(64, 2048, 8))
                   for _ in range(STOCK_ROWS - 1)]
        def rollout():
            sim = ClusterSim(cfg, wl)
            sim.reset(seed=77)
            out = []
            for a in actions:
                obs, done, raw = sim.step(a)
                out.append((obs.vec.copy(), raw.latency_ms.copy(), done))
            return out
        for (va, la, da), (vb, lb, db) in zip(rollout(), rollout()):
            np.testing.assert_array_equal(va, vb)
            np.testing.assert_array_equal(la, lb)
            assert da == db

    def test_batched_episodes_match_one_by_one(self):
        """A reset with a tuple of seeds steps one episode per row, each row
        with the bytes of that episode alone, jitter included."""
        cfg = SimConfig()
        sim = ClusterSim(cfg, constant_source(300.0, cfg.n_services, ROWS))
        seeds = (5, 2**64 - 1, 0)  # episode seeds span the full 64 bits
        units = np.random.default_rng(3).uniform(-1.0, 1.0, (ROWS - 1, len(seeds), 16))
        obs, raw = sim.reset(seeds)
        assert obs._block.shape == (3, 4, 8) and raw.latency_ms.shape == (3, 8)
        batched = [raw] + [sim.step(action_from_unit(u))[2] for u in units]
        for e, seed in enumerate(seeds):
            alone = [sim.reset(seed)[1]] + [sim.step(action_from_unit(u[e]))[2] for u in units]
            for got, want in zip(batched, alone, strict=True):
                assert got._block[e].tobytes() == want._block.tobytes()
        sim.reset(seeds)
        with pytest.raises(DimensionError, match="episode axis"):
            sim.step(action_from_unit(np.zeros((2, 16))))
        with pytest.raises(ValidationError, match="at least one seed"):
            sim.reset(())

    @pytest.mark.parametrize("seeds", [7, (7,), (5, 2**64 - 1, 0)],
                             ids=["one-seed", "batch-of-one", "batch"])
    def test_jitter_equals_successive_draws_of_each_episode_stream(self, seeds):
        """Each window's latency is the quiet latency times 1 + sigma * z, capped,
        with z the next standard_normal(N) draw of the episode's env stream."""
        sigma = 0.3
        cfg = SimConfig()
        loud = dataclasses.replace(cfg, latency=LatencyModel(jitter_sigma=sigma))
        rates = constant_source(300.0, cfg.n_services, ROWS)
        sims = [ClusterSim(dataclasses.replace(cfg, latency=quiet()), rates),
                ClusterSim(loud, rates)]
        batch = seeds if isinstance(seeds, tuple) else (seeds,)
        units = np.random.default_rng(4).uniform(-1.0, 1.0, (ROWS - 1, len(batch), 16))
        if not isinstance(seeds, tuple):
            units = units[:, 0]
        quiet_raw, loud_raw = ([sim.reset(seeds)[1]]
                               + [sim.step(action_from_unit(u))[2] for u in units]
                               for sim in sims)
        home = {n.node_id: n for n in cfg.nodes}
        floor = np.array([cfg.latency.base_service_ms + home[s.home_node].base_network_latency
                          for s in cfg.services])
        draws = [stream(seed, "env") for seed in batch]
        for q, got in zip(quiet_raw, loud_raw, strict=True):
            z = np.array([rng.standard_normal(cfg.n_services) for rng in draws])
            want = q.latency_ms * (1.0 + sigma * z.reshape(q.latency_ms.shape))
            want = want.clip(floor, cfg.latency.saturation_cap_ms)
            assert got.latency_ms.tobytes() == want.tobytes()

    def test_reset_without_jitter_builds_no_env_stream(self, monkeypatch):
        made = []

        def counting(*parts):
            made.append(parts)
            return stream(*parts)

        monkeypatch.setattr(simulator, "stream", counting)
        cfg = SimConfig()
        rates = constant_source(300.0, cfg.n_services, ROWS)
        sim = ClusterSim(dataclasses.replace(cfg, latency=quiet()), rates)
        sim.reset(3)
        sim.reset((0, 1, 2))
        assert made == []
        ClusterSim(cfg, rates).reset((0, 1, 2))  # jitter on: one stream per episode
        assert made == [(0, "env"), (1, "env"), (2, "env")]

    def test_observations_in_unit_box(self):
        cfg = SimConfig()
        sim = ClusterSim(cfg, constant_source(350.0, cfg.n_services, STOCK_ROWS))
        sim.reset(seed=0)
        rng = np.random.default_rng(8)
        for _ in range(sim.episode_len):
            a = ActionVector(cpu_alloc=rng.uniform(0.1, 2.0, 8),
                             mem_alloc=rng.uniform(64, 2048, 8))
            obs, done, _ = sim.step(a)
            assert np.all(obs.vec >= 0.0) and np.all(obs.vec <= 1.0)


class TestWorkloadShape:
    @pytest.mark.parametrize("workload", [np.full(6, 10.0), constant_source(10.0, 1, 1),
                                          constant_source(10.0, 2, 6)],
                             ids=["one-d", "one-row", "wrong-services"])
    def test_rejects_rate_matrix_of_wrong_shape(self, workload):
        with pytest.raises(DimensionError, match=r"needs \(rows >= 2, 1\)"):
            ClusterSim(one_service_config(), workload)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), -50.0],
                             ids=["nan", "inf", "minus-inf", "negative"])
    def test_rejects_rate_matrix_with_bad_entry(self, rate):
        workload = np.full((3, 1), 10.0)
        workload[1, 0] = rate
        with pytest.raises(ValidationError, match="rates must be finite and >= 0"):
            ClusterSim(one_service_config(), workload)

    @pytest.mark.parametrize("rows", [2, 3, 7])
    def test_episode_len_is_rows_minus_one(self, rows):
        sim = ClusterSim(one_service_config(), constant_source(10.0, 1, rows))
        assert sim.episode_len == rows - 1
        sim.reset(seed=0)
        action = ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0])
        assert [sim.step(action)[1] for _ in range(rows - 1)] == [False] * (rows - 2) + [True]
        with pytest.raises(ValidationError, match="episode is complete"):
            sim.step(action)


class TestNodeCapacity:
    def _two_on_one_node(self, cpu_capacity):
        node = make_node(0, "edge", cpu_capacity=cpu_capacity)
        svcs = [ServiceSpec(name=f"s{i}", home_node=0,
                            cpu_cost_per_request=0.05, mem_floor=64.0,
                            mem_per_qps=0.0, initial_cpu_request=0.5,
                            initial_mem_request=256.0) for i in range(2)]
        return SimConfig(services=svcs, nodes=[node], latency=quiet())

    def test_proportional_scale_down(self):
        cfg = self._two_on_one_node(cpu_capacity=2.0)
        sim = ClusterSim(cfg, constant_source(10.0, 2, ROWS))
        request = ActionVector(cpu_alloc=[2.0, 2.0], mem_alloc=[256.0, 256.0])
        granted_cpu, granted_mem = sim.grant(request)
        np.testing.assert_allclose(granted_cpu, [1.0, 1.0])

    def test_refloor_after_scaling(self):
        # scaling can push a tiny request below the box floor; it re-floors
        cfg = self._two_on_one_node(cpu_capacity=0.2)
        sim = ClusterSim(cfg, constant_source(10.0, 2, ROWS))
        request = ActionVector(cpu_alloc=[0.1, 2.0], mem_alloc=[256.0, 256.0])
        granted_cpu, _ = sim.grant(request)
        scale = 0.2 / 2.1
        assert granted_cpu[0] == pytest.approx(0.1)  # floored back up
        assert granted_cpu[1] == pytest.approx(2.0 * scale)

    def test_within_capacity_untouched(self):
        cfg = self._two_on_one_node(cpu_capacity=4.0)
        sim = ClusterSim(cfg, constant_source(10.0, 2, ROWS))
        request = ActionVector(cpu_alloc=[1.5, 1.5], mem_alloc=[256.0, 256.0])
        granted_cpu, granted_mem = sim.grant(request)
        np.testing.assert_allclose(granted_cpu, [1.5, 1.5])
        np.testing.assert_allclose(granted_mem, [256.0, 256.0])

    def test_granted_never_exceeds_requested(self):
        cfg = self._two_on_one_node(cpu_capacity=1.0)
        sim = ClusterSim(cfg, constant_source(10.0, 2, ROWS))
        rng = np.random.default_rng(3)
        for _ in range(50):
            req = ActionVector(cpu_alloc=rng.uniform(0.1, 2.0, 2),
                               mem_alloc=rng.uniform(64, 2048, 2))
            cpu, mem = sim.grant(req)
            assert np.all(cpu <= req.cpu_alloc + 1e-12)
            assert np.all(mem <= req.mem_alloc + 1e-12)

    def test_raw_metrics_carry_granted_alloc(self):
        cfg = self._two_on_one_node(cpu_capacity=2.0)
        sim = ClusterSim(cfg, constant_source(10.0, 2, ROWS))
        sim.reset(seed=0)
        _, _, raw = sim.step(ActionVector(cpu_alloc=[2.0, 2.0], mem_alloc=[256.0, 256.0]))
        np.testing.assert_allclose(raw.cpu_alloc, [1.0, 1.0])  # granted: half the request
        # utilization and usage follow the grant
        demand = 10.0 / 2 * 0.05
        np.testing.assert_allclose(raw.cpu_used, [min(demand, 1.0)] * 2)


def loop_grant(cfg, action):
    """Reference for ClusterSim.grant: the per-node loop it replaced."""
    cpu = action.cpu_alloc.copy()
    mem = action.mem_alloc.copy()
    for node in cfg.nodes:
        members = np.array([i for i, s in enumerate(cfg.services)
                            if s.home_node == node.node_id], dtype=int)
        if members.size == 0:
            continue
        total_cpu = cpu[members].sum()
        if total_cpu > node.cpu_capacity:
            cpu[members] *= node.cpu_capacity / total_cpu
        total_mem = mem[members].sum()
        if total_mem > node.mem_capacity:
            mem[members] *= node.mem_capacity / total_mem
    return np.maximum(cpu, CPU_MIN), np.maximum(mem, MEM_MIN)


class TestGrantMatchesLoop:
    """grant() sums and scales every node's members at once; per node it must
    give the loop's bits, whose sums a reordered reduction can change in the
    last place once a node holds 3 or more members (9 or more for some gathers)."""

    @given(counts=st.lists(st.integers(0, 14), min_size=1, max_size=6)
           .filter(lambda c: 1 <= sum(c) <= 40),
           seed=st.integers(0, 2**32 - 1))
    @example(counts=[3], seed=0)
    @example(counts=[9, 2, 0, 14, 1, 14], seed=1)
    @example(counts=[40], seed=2)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_bit_equal_to_per_node_loop(self, counts, seed):
        rng = np.random.default_rng(seed)
        # services land on their nodes in a shuffled order, so members interleave
        homes = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        nodes = [make_node(i, "edge", cpu_capacity=rng.uniform(0.1, 16.0),
                           mem_capacity=rng.uniform(64.0, 32768.0))
                 for i in range(len(counts))]
        services = [ServiceSpec(name=f"s{i}", home_node=int(home),
                                cpu_cost_per_request=0.05, mem_floor=64.0, mem_per_qps=0.0,
                                initial_cpu_request=0.5, initial_mem_request=256.0)
                    for i, home in enumerate(homes)]
        cfg = SimConfig(services=services, nodes=nodes, latency=quiet())
        n = cfg.n_services
        sim = ClusterSim(cfg, constant_source(10.0, n, ROWS))
        actions = [ActionVector(cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                                mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n)) for _ in range(5)]
        # each alone, then all five as one batch with a leading episode axis
        batch = sim.grant(_adopt(ActionVector, np.stack([a._block for a in actions])))
        for e, action in enumerate(actions):
            for got, in_batch, want in zip(sim.grant(action), batch, loop_grant(cfg, action)):
                assert np.array_equal(got, want) and np.array_equal(in_batch[e], want)


# One spec constructor per numeric field that enters from outside the step loop.
SPEC_BUILDERS = {
    "cpu_capacity": lambda x: make_node(0, "edge", cpu_capacity=x),
    "mem_capacity": lambda x: make_node(0, "cloud", mem_capacity=x),
    "base_network_latency": lambda x: make_node(0, "edge", base_network_latency=x),
    "cpu_cost_per_request": lambda x: one_service_config(cpu_cost=x),
    "mem_floor": lambda x: one_service_config(mem_floor=x),
    "mem_per_qps": lambda x: one_service_config(mem_per_qps=x),
    "base_service_ms": lambda x: LatencyModel(base_service_ms=x, saturation_cap_ms=x),
    "saturation_cap_ms": lambda x: LatencyModel(saturation_cap_ms=x),
    "mem_pressure_multiplier": lambda x: LatencyModel(mem_pressure_multiplier=x),
    "jitter_sigma": lambda x: LatencyModel(jitter_sigma=x),
    "l_max": lambda x: NormalizationConfig(l_max=x),
    "q_max": lambda x: NormalizationConfig(q_max=x),
    "l_target": lambda x: one_service_config(l_target=x),
}


class TestConfigValidation:
    def test_l_target(self):
        with pytest.raises(ValidationError):
            one_service_config(l_target=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", list(SPEC_BUILDERS))
    def test_non_finite_spec_values_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            SPEC_BUILDERS[field](bad)

    def test_negative_network_latency_rejected(self):
        with pytest.raises(ValidationError, match="latency >= 0"):
            make_node(0, "edge", base_network_latency=-1.0)

    def test_home_node_must_exist(self):
        node = make_node(0, "edge")
        svc = ServiceSpec(name="s", home_node=3,
                          cpu_cost_per_request=0.05, mem_floor=64.0,
                          mem_per_qps=0.0, initial_cpu_request=0.5,
                          initial_mem_request=256.0)
        with pytest.raises(ValidationError):
            SimConfig(services=[svc], nodes=[node])


# Strategies for the step invariants below: valid specs, box actions with
# the corners drawn often, and constant or trace workloads that may be idle.
box_cpu = st.one_of(st.sampled_from([CPU_MIN, CPU_MAX]), st.floats(CPU_MIN, CPU_MAX))
box_mem = st.one_of(st.sampled_from([MEM_MIN, MEM_MAX]), st.floats(MEM_MIN, MEM_MAX))
qps_values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1000.0))


@st.composite
def topologies(draw):
    nodes = [make_node(i, draw(st.sampled_from(["edge", "cloud"])),
                       cpu_capacity=draw(st.floats(0.1, 16.0)),
                       mem_capacity=draw(st.floats(64.0, 32768.0)),
                       base_network_latency=draw(st.floats(0.0, 100.0)))
             for i in range(draw(st.integers(1, 3)))]
    services = [ServiceSpec(name=f"s{i}",
                            home_node=draw(st.integers(0, len(nodes) - 1)),
                            cpu_cost_per_request=draw(st.floats(0.0, 0.2)),
                            mem_floor=draw(st.floats(0.0, 1024.0)),
                            mem_per_qps=draw(st.floats(0.0, 20.0)),
                            initial_cpu_request=draw(box_cpu),
                            initial_mem_request=draw(box_mem))
                for i in range(draw(st.integers(1, 4)))]
    base = draw(st.floats(0.5, 100.0))
    latency = LatencyModel(base_service_ms=base,
                           saturation_cap_ms=base + draw(st.floats(0.0, 2000.0)),
                           mem_pressure_multiplier=draw(st.floats(1.0, 4.0)),
                           jitter_sigma=draw(st.sampled_from([0.0, 0.02, 0.5])))
    return SimConfig(services=services, nodes=nodes, latency=latency)


class TestStepInvariants:
    """Why RawMetrics and StateVector need no checks of their own: from
    validated specs, workloads and a finite box action, every block the
    step loop builds is finite and in range, and step is the one place a
    non-finite action can enter."""

    @given(cfg=topologies(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_metrics_and_states_hold_by_construction(self, cfg, data):
        n, steps = cfg.n_services, data.draw(st.integers(1, 6), label="steps")
        with tempfile.TemporaryDirectory() as tmp:
            if data.draw(st.booleans(), label="trace"):
                path = Path(tmp) / "trace.csv"
                write_trace([TraceRecord(t, i, data.draw(qps_values))
                             for t in range(steps + 1) for i in range(n)], path)
                workload = trace_source(path, n, steps + 1)
            else:
                workload = constant_source(data.draw(qps_values, label="rate"), n,
                                           steps + 1)
        sim = ClusterSim(cfg, workload)
        obs, raw = sim.reset(seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
        windows = [(obs, raw)]
        for _ in range(sim.episode_len):
            action = ActionVector(
                cpu_alloc=data.draw(st.lists(box_cpu, min_size=n, max_size=n)),
                mem_alloc=data.draw(st.lists(box_mem, min_size=n, max_size=n)))
            obs, _, raw = sim.step(action)
            windows.append((obs, raw))
        for obs, raw in windows:
            # the step path adopts these blocks; they match the public constructors
            assert_equals_constructed(raw)
            assert_equals_constructed(obs)
            block = np.array([getattr(raw, f.name) for f in dataclasses.fields(raw)])
            assert np.isfinite(block).all() and (block >= 0).all()
            assert (raw.cpu_alloc > 0).all() and (raw.mem_alloc > 0).all()
            assert np.isfinite(obs.vec).all()
            assert ((obs.vec >= 0.0) & (obs.vec <= 1.0)).all()

        sim.reset(seed=0)
        cpu = np.full(n, 1.0)
        cpu[data.draw(st.integers(0, n - 1), label="nan at")] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            sim.step(ActionVector(cpu_alloc=cpu, mem_alloc=np.full(n, 512.0)))
