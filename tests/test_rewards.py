"""Reward components against a hand-rolled scalar oracle."""

import numpy as np
import pytest

from edgesched.domain import (_BOX_SPAN, CPU_MAX, CPU_MIN, MEM_MAX, MEM_MIN,
                              ActionVector, DimensionError, RawMetrics, ValidationError)
from edgesched.rewards import RewardWeights, episode_metrics, step_metrics, total_reward
from edgesched.rng import stream
from conftest import make_action, make_raw


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


def terms(raw, action=None, prev_action=None, weights=RewardWeights(), l_target=150.0):
    """total_reward's breakdown; the action defaults to one held from the last step."""
    action = make_action(n=raw.n_services) if action is None else action
    prev_action = action if prev_action is None else prev_action
    return total_reward(raw, action, prev_action, l_target, weights)


class TestComponents:
    def test_latency_zero_below_objective(self):
        assert terms(make_raw(n=3, latency=[10.0, 149.9, 150.0])).r_latency == 0.0

    def test_latency_normalized_excess(self):
        # 75ms over a 150ms objective costs half a unit
        assert terms(make_raw(n=1, latency=225.0)).r_latency == pytest.approx(-0.5)
        assert terms(make_raw(n=2, latency=[225.0, 300.0])).r_latency == pytest.approx(-1.5)

    def test_latency_raw_ms_flag(self):
        raw_ms = RewardWeights(normalize_latency_excess=False)
        assert terms(make_raw(n=1, latency=225.0), weights=raw_ms).r_latency \
            == pytest.approx(-75.0)

    def test_waste_idle_fractions(self):
        raw = make_raw(n=2, cpu_alloc=1.0, mem_alloc=1024.0, cpu_used=[0.5, 0.8],
                       mem_used=[512.0, 512.0])
        assert terms(raw).r_waste == pytest.approx(-(0.5 + 0.5 + 0.2 + 0.5))

    def test_waste_clamped_when_demand_exceeds_alloc(self):
        # overuse is a latency problem, not negative waste
        raw = make_raw(n=1, cpu_alloc=1.0, mem_alloc=1024.0, cpu_used=5.0, mem_used=4096.0)
        assert terms(raw).r_waste == 0.0

    def test_slo_count_ties_satisfy(self):
        assert terms(make_raw(n=3, latency=[150.0, 150.1, 10.0])).r_slo == 2.0

    def test_migration_zero_for_held_action(self):
        a = make_action()
        assert terms(make_raw(), a, a).r_migration == 0.0

    def test_migration_unit_box_scale(self):
        a = ActionVector(cpu_alloc=[CPU_MIN], mem_alloc=[MEM_MIN])
        b = ActionVector(cpu_alloc=[CPU_MAX], mem_alloc=[MEM_MAX])
        # one full sweep of each box counts 1 + 1
        assert terms(make_raw(n=1), a, b).r_migration == pytest.approx(-2.0)

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            RewardWeights(alpha=-0.1)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_weights_must_be_finite(self, weight):
        with pytest.raises(ValidationError, match="finite") as exc:
            RewardWeights(lam=weight)
        assert "lam" in str(exc.value)


# The four per-term helpers total_reward called before it read the step's
# blocks itself, copied as they were: the reference for its bytes.
def ref_latency_penalty(latency_ms, l_target, normalize=True):
    excess = np.asarray(latency_ms, dtype=np.float64) - l_target
    np.maximum(0.0, excess, out=excess)
    if normalize:
        excess /= l_target
    return float(-excess.sum())


def ref_resource_waste(cpu_alloc, mem_alloc, cpu_used, mem_used):
    alloc = np.array([cpu_alloc, mem_alloc], dtype=np.float64)
    frac = ((alloc - np.array([cpu_used, mem_used], dtype=np.float64)) / alloc).clip(0.0, 1.0)
    return float(-(frac[0] + frac[1]).sum())


def ref_slo_satisfaction(latency_ms, l_target):
    lat = np.asarray(latency_ms, dtype=np.float64)
    return float(np.count_nonzero(lat <= l_target))


def ref_migration_cost(action, prev_action):
    delta = np.abs(action._block - prev_action._block) / _BOX_SPAN  # rows: cpu, mem
    return float(-(delta[0] + delta[1]).sum())


class TestTermBytes:
    @pytest.mark.parametrize("normalize", [True, False], ids=["objective-units", "raw-ms"])
    def test_terms_match_per_term_reference(self, normalize):
        rng = stream(int(normalize), "reward-terms")
        w = RewardWeights(normalize_latency_excess=normalize)
        at_objective = over_alloc = held = 0
        for trial in range(300):
            n = int(rng.integers(1, 9))
            cpu_alloc = rng.uniform(CPU_MIN, CPU_MAX, n)
            mem_alloc = rng.uniform(MEM_MIN, MEM_MAX, n)
            # usage up to 1.5x the grant, so the idle-fraction clamp is active
            cpu_used = cpu_alloc * rng.uniform(0.0, 1.5, n)
            mem_used = mem_alloc * rng.uniform(0.0, 1.5, n)
            latency = rng.uniform(20.0, 400.0, n)
            latency[rng.random(n) < 0.25] = 150.0
            raw = RawMetrics(cpu_used=cpu_used, cpu_alloc=cpu_alloc, mem_used=mem_used,
                             mem_alloc=mem_alloc, latency_ms=latency,
                             qps=rng.uniform(0.0, 300.0, n))
            action = ActionVector(cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                                  mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n))
            prev = action if trial % 4 == 0 else ActionVector(
                cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n))
            at_objective += int(np.count_nonzero(latency == 150.0))
            over_alloc += int(np.count_nonzero(cpu_used > cpu_alloc)
                              + np.count_nonzero(mem_used > mem_alloc))
            held += prev is action
            got = total_reward(raw, action, prev, 150.0, w)
            want = (ref_latency_penalty(raw.latency_ms, 150.0, normalize),
                    ref_resource_waste(raw.cpu_alloc, raw.mem_alloc,
                                       raw.cpu_used, raw.mem_used),
                    ref_slo_satisfaction(raw.latency_ms, 150.0),
                    ref_migration_cost(action, prev))
            want_total = (w.alpha * want[0] + w.beta * want[1]
                          + w.lam * want[2] + w.mu * want[3])
            for name, value in zip(("r_latency", "r_waste", "r_slo", "r_migration", "total"),
                                   (*want, want_total)):
                assert (np.float64(getattr(got, name)).tobytes()
                        == np.float64(value).tobytes()), (trial, name)
        assert at_objective > 0 and over_alloc > 0 and held > 0

    @pytest.mark.parametrize("n_raw,n_action,n_prev", [
        (1, 3, 3), (3, 1, 1), (2, 3, 3), (3, 3, 1), (3, 1, 3)])
    def test_widths_must_match(self, n_raw, n_action, n_prev):
        with pytest.raises(DimensionError):
            total_reward(make_raw(n=n_raw), make_action(n=n_action), make_action(n=n_prev),
                         150.0, RewardWeights())


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


def reduced(trajectory):
    """A (raw, reward) trajectory as episode_metrics takes it: each step reduced."""
    return [(*step_metrics(raw), reward) for raw, reward in trajectory]


class TestEpisodeMetrics:
    def test_hand_computed_aggregate(self):
        steps = [
            (make_raw(n=2, latency=100.0, cpu_used=0.5, cpu_alloc=1.0,
                      mem_used=512.0, mem_alloc=1024.0), -0.1),
            (make_raw(n=2, latency=200.0, cpu_used=1.0, cpu_alloc=1.0,
                      mem_used=1024.0, mem_alloc=1024.0), -0.4),
        ]
        latency, efficiency, violations, reward = episode_metrics(reduced(steps),
                                                                  l_target=150.0)
        assert latency == pytest.approx(150.0)
        assert violations == pytest.approx(0.5)
        assert efficiency == pytest.approx((0.5 + 1.0) / 2.0)
        assert reward == pytest.approx(-0.5)

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
        return (float(lat.mean()), float(np.mean(step_efficiency)),
                float(np.count_nonzero(lat > l_target) / lat.size), reward_sum)

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
            got = episode_metrics(reduced(trajectory), l_target=150.0)
            expect = self.per_step_reference(trajectory, l_target=150.0)
            assert len(got) == len(expect) == 4
            for field, g, e in zip(("mean_latency_ms", "resource_efficiency",
                                    "slo_violation_rate", "total_reward"), got, expect):
                assert np.float64(g).tobytes() == np.float64(e).tobytes(), (t, field)
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
        _, _, violations, _ = episode_metrics(reduced([(raw, 0.0)]), l_target=150.0)
        # one service breaches but the step mean (145) does not
        assert violations == 0.0
