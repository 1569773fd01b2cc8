"""Reward components against a hand-rolled scalar oracle."""

import numpy as np
import pytest

from edgesched.domain import (CPU_MAX, CPU_MIN, MEM_MAX, MEM_MIN,
                              ActionVector, RawMetrics, ValidationError)
from edgesched.rewards import (EpisodeMetrics, RewardWeights, episode_metrics,
                               latency_penalty, migration_cost,
                               resource_waste, slo_satisfaction, total_reward)
from edgesched.rng import stream
from tests.conftest import make_action, make_raw


def oracle_total(raw, action, prev_action, l_target, w):
    """Pure-python reevaluation of the four components, no numpy."""
    n = len(raw.latency_ms)
    r_l = 0.0
    r_s = 0.0
    r_r = 0.0
    r_m = 0.0
    for i in range(n):
        excess = max(0.0, float(raw.latency_ms[i]) - l_target)
        if w.normalize_latency_excess:
            excess /= l_target
        r_l -= excess
        if raw.latency_ms[i] <= l_target:
            r_s += 1.0
        cpu_idle = (raw.cpu_alloc[i] - raw.cpu_used[i]) / raw.cpu_alloc[i]
        mem_idle = (raw.mem_alloc[i] - raw.mem_used[i]) / raw.mem_alloc[i]
        r_r -= min(1.0, max(0.0, cpu_idle)) + min(1.0, max(0.0, mem_idle))
        r_m -= abs(action.cpu_alloc[i] - prev_action.cpu_alloc[i]) / (CPU_MAX - CPU_MIN)
        r_m -= abs(action.mem_alloc[i] - prev_action.mem_alloc[i]) / (MEM_MAX - MEM_MIN)
    return w.alpha * r_l + w.beta * r_r + w.lam * r_s + w.mu * r_m


class TestComponents:
    def test_latency_zero_below_objective(self):
        assert latency_penalty([10.0, 149.9, 150.0], 150.0) == 0.0

    def test_latency_normalized_excess(self):
        # 75ms over a 150ms objective costs half a unit
        assert latency_penalty([225.0], 150.0) == pytest.approx(-0.5)
        assert latency_penalty([225.0, 300.0], 150.0) == pytest.approx(-1.5)

    def test_latency_raw_ms_flag(self):
        assert latency_penalty([225.0], 150.0, normalize=False) == pytest.approx(-75.0)

    def test_waste_idle_fractions(self):
        a = make_action(n=2, cpu=1.0, mem=1024.0)
        r = resource_waste(a.cpu_alloc, a.mem_alloc, cpu_used=[0.5, 0.8], mem_used=[512.0, 512.0])
        assert r == pytest.approx(-(0.5 + 0.5 + 0.2 + 0.5))

    def test_waste_clamped_when_demand_exceeds_alloc(self):
        a = make_action(n=1, cpu=1.0, mem=1024.0)
        # overuse is a latency problem, not negative waste
        r = resource_waste(a.cpu_alloc, a.mem_alloc, cpu_used=[5.0], mem_used=[4096.0])
        assert r == 0.0

    def test_slo_count_ties_satisfy(self):
        assert slo_satisfaction([150.0, 150.1, 10.0], 150.0) == 2.0

    def test_migration_zero_for_held_action(self):
        a = make_action()
        assert migration_cost(a, a) == 0.0

    def test_migration_unit_box_scale(self):
        a = ActionVector(cpu_alloc=[CPU_MIN], mem_alloc=[MEM_MIN])
        b = ActionVector(cpu_alloc=[CPU_MAX], mem_alloc=[MEM_MAX])
        # one full sweep of each box counts 1 + 1
        assert migration_cost(a, b) == pytest.approx(-2.0)

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            RewardWeights(alpha=-0.1)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_weights_must_be_finite(self, weight):
        with pytest.raises(ValidationError, match="finite"):
            RewardWeights(lam=weight)


class TestTotalReward:
    def test_worked_example(self):
        raw = RawMetrics(cpu_used=[0.5, 0.8], cpu_alloc=[1.0, 1.0],
                         mem_used=[512.0, 512.0], mem_alloc=[1024.0, 1024.0],
                         latency_ms=[100.0, 200.0], qps=[10.0, 10.0])
        action = make_action(n=2, cpu=1.0, mem=1024.0)
        out = total_reward(raw, action, action, 150.0, RewardWeights())
        assert out.total == pytest.approx(-0.13666666666666666, abs=1e-9)
        assert out.r_latency == pytest.approx(-1.0 / 3.0)
        assert out.r_waste == pytest.approx(-1.7)
        assert out.r_slo == 1.0
        assert out.r_migration == 0.0

    def test_matches_oracle_on_random_tuples(self):
        rng = stream(99, "reward-oracle")
        w = RewardWeights()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            alloc_cpu = rng.uniform(CPU_MIN, CPU_MAX, n)
            alloc_mem = rng.uniform(MEM_MIN, MEM_MAX, n)
            raw = RawMetrics(cpu_used=rng.uniform(0, 3.0, n),
                             cpu_alloc=alloc_cpu,
                             mem_used=rng.uniform(0, 3000.0, n),
                             mem_alloc=alloc_mem,
                             latency_ms=rng.uniform(0, 1000.0, n),
                             qps=rng.uniform(0, 400.0, n))
            action = ActionVector(cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                                  mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n))
            prev = ActionVector(cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                                mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n))
            expected = oracle_total(raw, action, prev, 150.0, w)
            got = total_reward(raw, action, prev, 150.0, w).total
            assert got == pytest.approx(expected, abs=1e-9)

    def test_waste_uses_granted_not_requested(self):
        # raw carries what the cluster granted; the requested action only
        # enters through the churn term
        raw = make_raw(n=1, cpu_used=0.5, cpu_alloc=1.0, mem_used=512.0,
                       mem_alloc=1024.0, latency=100.0)
        fat_request = make_action(n=1, cpu=2.0, mem=2048.0)
        out = total_reward(raw, fat_request, fat_request, 150.0, RewardWeights())
        assert out.r_waste == pytest.approx(-1.0)  # 0.5 cpu + 0.5 mem idle


class TestEpisodeMetrics:
    def test_hand_computed_aggregate(self):
        steps = [
            (make_raw(n=2, latency=100.0, cpu_used=0.5, cpu_alloc=1.0,
                      mem_used=512.0, mem_alloc=1024.0), -0.1),
            (make_raw(n=2, latency=200.0, cpu_used=1.0, cpu_alloc=1.0,
                      mem_used=1024.0, mem_alloc=1024.0), -0.4),
        ]
        m = episode_metrics(steps, l_target=150.0)
        assert m.mean_latency_ms == pytest.approx(150.0)
        assert m.slo_violation_rate == pytest.approx(0.5)
        assert m.resource_efficiency == pytest.approx((0.5 + 1.0) / 2.0)
        assert m.total_reward == pytest.approx(-0.5)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValidationError):
            episode_metrics([], l_target=150.0)

    @staticmethod
    def per_step_reference(trajectory, l_target):
        """Inline copy of the per-step loop episode_metrics ran before it
        reduced stacked arrays."""
        if not trajectory:
            raise ValidationError("trajectory must be non-empty")
        step_latency = []
        step_efficiency = []
        reward_sum = 0.0
        for raw, reward in trajectory:
            step_latency.append(float(raw.latency_ms.mean()))
            cpu_util = np.clip(raw.cpu_used / raw.cpu_alloc, 0.0, 1.0)
            mem_util = np.clip(raw.mem_used / raw.mem_alloc, 0.0, 1.0)
            step_efficiency.append(float(((cpu_util + mem_util) / 2.0).mean()))
            reward_sum += float(reward)
        lat = np.asarray(step_latency)
        return EpisodeMetrics(
            mean_latency_ms=float(lat.mean()),
            resource_efficiency=float(np.mean(step_efficiency)),
            slo_violation_rate=float(np.count_nonzero(lat > l_target) / lat.size),
            total_reward=reward_sum,
        )

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_bytes_match_per_step_reference(self, n):
        rng = stream(n, "episode-metrics")
        over_alloc = 0
        for t in range(1, 21):
            trajectory = []
            for _ in range(t):
                cpu_alloc = rng.uniform(CPU_MIN, CPU_MAX, n)
                mem_alloc = rng.uniform(MEM_MIN, MEM_MAX, n)
                # usage up to 1.5x the grant, so the utilization clip is active
                cpu_used = cpu_alloc * rng.uniform(0.0, 1.5, n)
                mem_used = mem_alloc * rng.uniform(0.0, 1.5, n)
                over_alloc += int(np.count_nonzero(cpu_used > cpu_alloc)
                                  + np.count_nonzero(mem_used > mem_alloc))
                raw = RawMetrics(cpu_used=cpu_used, cpu_alloc=cpu_alloc,
                                 mem_used=mem_used, mem_alloc=mem_alloc,
                                 latency_ms=rng.uniform(20.0, 400.0, n),
                                 qps=rng.uniform(0.0, 300.0, n))
                trajectory.append((raw, float(rng.normal(0.0, 3.0))))
            got = episode_metrics(trajectory, l_target=150.0)
            expect = self.per_step_reference(trajectory, l_target=150.0)
            for field in ("mean_latency_ms", "resource_efficiency",
                          "slo_violation_rate", "total_reward"):
                assert (np.float64(getattr(got, field)).tobytes()
                        == np.float64(getattr(expect, field)).tobytes()), (t, field)
        assert over_alloc > 0

    def test_empty_trajectory_matches_reference(self):
        with pytest.raises(ValidationError) as expected:
            self.per_step_reference([], l_target=150.0)
        with pytest.raises(ValidationError) as got:
            episode_metrics([], l_target=150.0)
        assert str(got.value) == str(expected.value)

    def test_violation_uses_step_mean(self):
        raw = RawMetrics(cpu_used=[0.1, 0.1], cpu_alloc=[1.0, 1.0],
                         mem_used=[64.0, 64.0], mem_alloc=[128.0, 128.0],
                         latency_ms=[100.0, 190.0], qps=[1.0, 1.0])
        m = episode_metrics([(raw, 0.0)], l_target=150.0)
        # one service breaches but the step mean (145) does not
        assert m.slo_violation_rate == 0.0
