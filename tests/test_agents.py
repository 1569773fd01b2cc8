"""Policy mechanics: schedules, target construction, delayed updates, baselines."""

import copy

import numpy as np
import pytest

from edgesched.agents import (
    BaseKScheduler,
    DdpgAgent,
    DqnAgent,
    DqnHyper,
    Td3Agent,
    Td3Hyper,
    batch_units_from_domain,
    build_agent,
    epsilon_at,
    exploration_sigma,
)
from edgesched.domain import (
    CPU_MAX,
    CPU_MIN,
    MEM_MAX,
    MEM_MIN,
    ActionVector,
    StateVector,
    ValidationError,
    _adopt,
    action_from_unit,
)
from edgesched.nets import AdamState, Mlp, load_mlp, save_mlp
from edgesched.replay import ReplayBuffer
from edgesched.rng import stream

from conftest import make_raw


def small_hyper(**kw):
    base = dict(hidden=8, batch_size=8, warmup_transitions=0,
                actor_lr=1e-3, critic_lr=1e-3)
    base.update(kw)
    return Td3Hyper(**base)


def make_state(n=1, fill=0.5):
    v = np.full(n, fill)
    return StateVector(cpu_util=v, mem_util=v, latency_norm=v, qps_norm=v)


def fill_buffer(n_services=1, count=32, reward=0.5, done=False, seed=3):
    """Buffer of random-ish but valid transitions for one fixed state shape."""
    rng = stream(seed, "fill")
    buf = ReplayBuffer(capacity=max(count, 64))
    for _ in range(count):
        s = StateVector(*(rng.uniform(0, 1, n_services) for _ in range(4)))
        s2 = StateVector(*(rng.uniform(0, 1, n_services) for _ in range(4)))
        a = action_from_unit(rng.uniform(-1, 1, 2 * n_services))
        buf.add(s.vec, a.vec, reward, s2.vec, done)
    return buf


def snapshot(net):
    return net.flat.copy()


def params_equal(net, snap):
    return np.array_equal(net.flat, snap)


def target_qs(agent, next_states, rng):
    """Each target critic's Q(s', a'), with a' drawn as td_targets draws it from rng."""
    a_next, _ = agent.smoothed_target_action(next_states, rng)
    sa_next = np.concatenate([next_states, a_next], axis=1)
    return [tc.forward(sa_next)[0] for tc in agent.target_critics]


# ---------------------------------------------------------------- schedules

class TestSchedules:
    def test_sigma_at_zero(self):
        assert exploration_sigma(Td3Hyper(), 0) == pytest.approx(0.3, abs=1e-12)

    def test_sigma_at_decay_constant(self):
        # one decay constant in: sigma_init / e
        got = exploration_sigma(Td3Hyper(), 1000)
        assert got == pytest.approx(0.3 / np.e, abs=1e-9)
        assert got == pytest.approx(0.110364, abs=1e-6)

    @pytest.mark.parametrize("t", [0, 1, 17, 250, 999, 5000])
    def test_sigma_closed_form(self, t):
        h = Td3Hyper()
        assert exploration_sigma(h, t) == pytest.approx(
            h.sigma_init * np.exp(-t / h.tau_decay), abs=1e-12)

    def test_sigma_strictly_decreasing(self):
        h = Td3Hyper()
        vals = [exploration_sigma(h, t) for t in range(0, 2000, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_epsilon_endpoints_and_midpoint(self):
        h = DqnHyper()
        assert epsilon_at(h, 0) == pytest.approx(1.0)
        assert epsilon_at(h, 500) == pytest.approx(0.05)
        assert epsilon_at(h, 250) == pytest.approx((1.0 + 0.05) / 2)
        # clamps at the floor past the decay horizon
        assert epsilon_at(h, 10_000) == pytest.approx(0.05)


# ------------------------------------------------------------- td3 actions

class TestSelectAction:
    def test_zero_actor_greedy_is_box_midpoint(self, rng):
        agent = Td3Agent(2, small_hyper(), rng)
        agent.actor.flat[:] = 0.0
        act = agent.act(make_state(2), None, t=0, explore=False, rng=rng)
        # tanh(0) = 0 maps to the center of each allocation range
        np.testing.assert_allclose(act.cpu_alloc, [1.05, 1.05], atol=1e-12)
        np.testing.assert_allclose(act.mem_alloc, [1056.0, 1056.0], atol=1e-12)

    def test_greedy_is_deterministic(self, rng):
        agent = Td3Agent(2, small_hyper(), rng)
        s = make_state(2)
        a1 = agent.act(s, None, t=5, explore=False, rng=stream(1, "a"))
        a2 = agent.act(s, None, t=5, explore=False, rng=stream(2, "b"))
        np.testing.assert_array_equal(a1.vec, a2.vec)

    def test_explore_adds_scheduled_noise(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        s = make_state(1)
        t = 40
        got = agent.act(s, None, t=t, explore=True, rng=stream(9, "n"))
        u = agent.actor.forward(s.vec[None, :])[0][0]
        sigma = exploration_sigma(agent.hyper, t)
        expect = np.clip(u + sigma * stream(9, "n").standard_normal(2), -1, 1)
        np.testing.assert_allclose(got.vec, action_from_unit(expect).vec, atol=1e-12)

    def test_warmup_actions_are_uniform_draws(self, rng):
        agent = Td3Agent(1, small_hyper(warmup_transitions=10), rng)
        got = agent.act(make_state(1), None, t=3, explore=True, rng=stream(4, "w"))
        expect = action_from_unit(stream(4, "w").uniform(-1, 1, 2))
        np.testing.assert_array_equal(got.vec, expect.vec)

    def test_warmup_ignored_when_greedy(self, rng):
        agent = Td3Agent(1, small_hyper(warmup_transitions=10), rng)
        s = make_state(1)
        a1 = agent.act(s, None, t=0, explore=False, rng=stream(1, "x"))
        a2 = agent.act(s, None, t=0, explore=False, rng=stream(2, "y"))
        np.testing.assert_array_equal(a1.vec, a2.vec)

    def test_explored_action_stays_in_box(self, rng):
        agent = Td3Agent(2, small_hyper(sigma_init=5.0), rng)
        for t in range(30):
            act = agent.act(make_state(2), None, t=t, explore=True, rng=rng)
            assert np.all(act.cpu_alloc >= 0.1) and np.all(act.cpu_alloc <= 2.0)
            assert np.all(act.mem_alloc >= 64.0) and np.all(act.mem_alloc <= 2048.0)


class TestTargets:
    def test_smoothing_noise_clipped_every_draw(self, rng):
        agent = Td3Agent(1, small_hyper(smoothing_sigma=0.9), rng)
        batch = rng.uniform(0, 1, (64, 4))
        for _ in range(20):
            a, noise = agent.smoothed_target_action(batch, rng)
            assert noise is not None
            assert np.all(np.abs(noise) <= agent.hyper.smoothing_clip)
            assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_ddpg_targets_have_no_noise(self, rng):
        agent = DdpgAgent(1, small_hyper(), rng)
        batch = rng.uniform(0, 1, (8, 4))
        a, noise = agent.smoothed_target_action(batch, rng)
        assert noise is None
        raw, _ = agent.target_actor.forward(batch)
        np.testing.assert_array_equal(a, np.clip(raw, -1, 1))

    def test_td_targets_match_recomputation(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        b = 16
        rewards = rng.uniform(-2, 1, b)
        next_states = rng.uniform(0, 1, (b, 4))
        dones = (rng.random(b) < 0.3).astype(float)
        rng_copy = copy.deepcopy(rng)
        y = agent.td_targets(rewards, next_states, dones, rng)
        q1, q2 = target_qs(agent, next_states, rng_copy)
        expect = rewards[:, None] + 0.99 * np.minimum(q1, q2) * (1.0 - dones)[:, None]
        np.testing.assert_allclose(y, expect, atol=1e-12)

    def test_terminal_rows_bootstrap_nothing(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        rewards = np.array([0.25, -1.5])
        y = agent.td_targets(rewards, rng.uniform(0, 1, (2, 4)),
                             np.array([1.0, 1.0]), rng)
        np.testing.assert_allclose(y[:, 0], rewards, atol=1e-12)

    def test_target_never_exceeds_either_critic(self, rng):
        # the bootstrapped value implied by y must be <= both target critics
        agent = Td3Agent(2, small_hyper(), rng)
        b = 32
        rewards = rng.uniform(-1, 1, b)
        next_states = rng.uniform(0, 1, (b, 8))
        rng_copy = copy.deepcopy(rng)
        y = agent.td_targets(rewards, next_states, np.zeros(b), rng)
        q1, q2 = target_qs(agent, next_states, rng_copy)
        implied = (y - rewards[:, None]) / agent.hyper.gamma
        assert np.all(implied <= q1 + 1e-9)
        assert np.all(implied <= q2 + 1e-9)


# ------------------------------------------------------------ td3 training

class TestTrainStep:
    def test_small_buffer_is_a_noop(self, rng):
        agent = Td3Agent(1, small_hyper(batch_size=8), rng)
        buf = fill_buffer(count=8)  # size == batch_size: still skipped
        before = [snapshot(agent.actor), snapshot(agent.critics[0])]
        stats = agent.learn(buf, rng)
        assert stats.skipped
        after = [snapshot(agent.actor), snapshot(agent.critics[0])]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_actor_delayed_by_policy_freq(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        buf = fill_buffer(count=32)
        s1 = agent.learn(buf, rng)
        assert not s1.actor_updated and not s1.targets_updated
        assert s1.actor_loss is None and len(s1.critic_losses) == 2
        s2 = agent.learn(buf, rng)
        assert s2.actor_updated and s2.targets_updated
        assert s2.actor_loss is not None
        assert agent.critic_update_count == 2
        assert agent.actor_update_count == 1

    def test_update_counters_over_many_steps(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        buf = fill_buffer(count=32)
        for _ in range(101):
            agent.learn(buf, rng)
        assert agent.critic_update_count == 101
        assert agent.actor_update_count == 101 // agent.hyper.policy_freq == 50

    def test_actor_and_targets_frozen_between_updates(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        buf = fill_buffer(count=32)
        actor_before = snapshot(agent.actor)
        tgt_before = snapshot(agent.target_critics[0])
        agent.learn(buf, rng)  # count=1, not a policy step
        assert params_equal(agent.actor, actor_before)
        assert params_equal(agent.target_actor, actor_before)
        assert params_equal(agent.target_critics[0], tgt_before)

    def test_critics_change_every_step(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        buf = fill_buffer(count=32)
        c_before = snapshot(agent.critics[0])
        agent.learn(buf, rng)
        assert not params_equal(agent.critics[0], c_before)

    def test_soft_update_blends_with_tau(self, rng):
        agent = Td3Agent(1, small_hyper(tau=0.25), rng)
        buf = fill_buffer(count=32)
        agent.learn(buf, rng)
        old_targets = [snapshot(agent.target_actor)] + [
            snapshot(tc) for tc in agent.target_critics]
        agent.learn(buf, rng)  # policy step: soft updates fire
        nets = [(agent.target_actor, agent.actor)] + list(
            zip(agent.target_critics, agent.critics))
        for (tgt, main), old in zip(nets, old_targets):
            np.testing.assert_allclose(tgt.flat, 0.75 * old + 0.25 * main.flat, atol=1e-12)

    def test_twin_critics_are_independent(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        assert len(agent.critics) == 2
        assert not params_equal(agent.critics[0], snapshot(agent.critics[1]))

    def test_targets_start_as_copies(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        assert params_equal(agent.target_actor, snapshot(agent.actor))
        for tc, c in zip(agent.target_critics, agent.critics):
            assert params_equal(tc, snapshot(c))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_aborts(self, rng):
        agent = Td3Agent(1, small_hyper(), rng)
        buf = fill_buffer(count=32)
        agent.critics[0].weights[0][:] = 1e200
        with pytest.raises(ValidationError, match="non-finite"):
            agent.learn(buf, rng)

    def test_bandit_fixed_point(self):
        # single (s, a, r=1, done) tuple: Eq. target collapses to y = 1,
        # so both critics must converge to Q = 1 at that pair
        rng = stream(0, "bandit")
        agent = Td3Agent(1, small_hyper(hidden=16, batch_size=16), rng)
        s = make_state(1, fill=0.5)
        a = ActionVector(cpu_alloc=np.array([1.0]), mem_alloc=np.array([1024.0]))
        buf = ReplayBuffer(64)
        for _ in range(32):
            buf.add(s.vec, a.vec, 1.0, s.vec, True)
        for _ in range(2000):
            agent.learn(buf, rng)
        sa = np.concatenate([s.vec, batch_units_from_domain(a.vec)])[None, :]
        for critic in agent.critics:
            q, _ = critic.forward(sa)
            assert q[0, 0] == pytest.approx(1.0, abs=0.01)


# -------------------------------------------------------------------- ddpg

class TestDdpg:
    def test_construction_degrades_td3(self, rng):
        agent = DdpgAgent(2, small_hyper(policy_freq=2, smoothing_sigma=0.2), rng)
        assert agent.kind == "ddpg"
        assert len(agent.critics) == 1 and len(agent.target_critics) == 1
        assert agent.hyper.smoothing_sigma == 0.0
        assert agent.hyper.policy_freq == 1

    def test_actor_updates_every_step(self, rng):
        agent = DdpgAgent(1, small_hyper(), rng)
        buf = fill_buffer(count=32)
        for k in range(3):
            stats = agent.learn(buf, rng)
            assert stats.actor_updated and stats.targets_updated
        assert agent.actor_update_count == 3

    def test_single_critic_target(self, rng):
        agent = DdpgAgent(1, small_hyper(), rng)
        rewards = np.array([0.5])
        next_states = rng.uniform(0, 1, (1, 4))
        rng_copy = copy.deepcopy(rng)
        y = agent.td_targets(rewards, next_states, np.zeros(1), rng)
        (q,) = target_qs(agent, next_states, rng_copy)
        np.testing.assert_allclose(y, rewards[:, None] + 0.99 * q, atol=1e-12)

    def test_smoothing_divergence_from_td3(self, rng):
        # same learn rng: td3 consumes smoothing draws, ddpg does not,
        # so the streams are offset afterwards
        td3 = Td3Agent(1, small_hyper(), stream(5, "init"))
        ddpg = DdpgAgent(1, small_hyper(), stream(5, "init"))
        batch = np.full((4, 4), 0.5)
        r1, r2 = stream(11, "learn"), stream(11, "learn")
        assert td3.smoothed_target_action(batch, copy.deepcopy(r1))[1] is not None
        assert ddpg.smoothed_target_action(batch, copy.deepcopy(r2))[1] is None
        td3.td_targets(np.zeros(4), batch, np.zeros(4), r1)
        ddpg.td_targets(np.zeros(4), batch, np.zeros(4), r2)
        assert r1.uniform() != r2.uniform()


# --------------------------------------------------------------------- dqn

class TestDqn:
    def test_grid_anchors(self, rng):
        agent = DqnAgent(1, DqnHyper(hidden=8), rng)
        assert agent.cpu_grid[0] == pytest.approx(0.1)
        assert agent.cpu_grid[9] == pytest.approx(2.0)
        assert agent.cpu_grid[3] == pytest.approx(0.1 + 3 * 1.9 / 9, abs=1e-12)
        assert agent.cpu_grid[3] == pytest.approx(0.7333333, abs=1e-6)
        assert agent.mem_grid[0] == pytest.approx(64.0)
        assert agent.mem_grid[9] == pytest.approx(2048.0)

    def test_levels_round_trip_through_actions(self, rng):
        agent = DqnAgent(2, DqnHyper(hidden=8), rng)
        for k in range(10):
            levels = np.array([k, (k + 3) % 10, (k + 5) % 10, k])
            act = agent.levels_to_action(levels)
            back = agent.action_to_levels(act.vec)
            np.testing.assert_array_equal(back, levels)

    def test_greedy_when_epsilon_zero(self, rng):
        hyper = DqnHyper(hidden=8, warmup_transitions=0,
                         epsilon_start=0.0, epsilon_end=0.0)
        agent = DqnAgent(1, hyper, rng)
        s = make_state(1)
        expect = agent.levels_to_action(agent.greedy_levels(s))
        got = agent.act(s, make_raw(1), t=0, explore=True, rng=rng)
        np.testing.assert_array_equal(got.vec, expect.vec)

    def test_full_epsilon_is_uniform_over_levels(self, rng):
        # eps=1 randomizes every head; level frequencies must look uniform
        hyper = DqnHyper(hidden=8, warmup_transitions=0,
                         epsilon_start=1.0, epsilon_end=1.0)
        agent = DqnAgent(1, hyper, rng)
        s = make_state(1)
        draws = 5000
        counts = np.zeros(10)
        for _ in range(draws):
            act = agent.act(s, make_raw(1), t=0, explore=True, rng=rng)
            counts[agent.action_to_levels(act.vec)[0]] += 1
        p = 1.0 / 10
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_learn_loss_matches_manual_td(self, rng):
        agent = DqnAgent(1, DqnHyper(hidden=8, batch_size=8, warmup_transitions=0), rng)
        buf = fill_buffer(count=24, reward=0.3)
        probe = copy.deepcopy(rng)
        batch = buf.sample(8, probe)
        q_next, _ = agent.target_net.forward(batch.next_states)
        best = q_next.reshape(8, 2, 10).max(axis=2)
        y = batch.rewards[:, None] + 0.99 * best * (1.0 - batch.dones)[:, None]
        q_all, _ = agent.q_net.forward(batch.states)
        levels = agent.action_to_levels(batch.actions)
        q_taken = q_all.reshape(8, 2, 10)[np.arange(8)[:, None],
                                          np.arange(2)[None, :], levels]
        expect = float(np.mean((q_taken - y) ** 2))
        stats = agent.learn(buf, rng)
        assert stats.critic_losses[0] == pytest.approx(expect, abs=1e-12)

    def test_hard_sync_cadence(self, rng):
        hyper = DqnHyper(hidden=8, batch_size=8, target_sync_every=5)
        agent = DqnAgent(1, hyper, rng)
        buf = fill_buffer(count=24)
        init_target = snapshot(agent.target_net)
        for k in range(1, 5):
            stats = agent.learn(buf, rng)
            assert not stats.targets_updated
            assert params_equal(agent.target_net, init_target)
        stats = agent.learn(buf, rng)
        assert stats.targets_updated
        assert params_equal(agent.target_net, snapshot(agent.q_net))

    def test_small_buffer_skipped(self, rng):
        agent = DqnAgent(1, DqnHyper(hidden=8, batch_size=16), rng)
        assert agent.learn(fill_buffer(count=16), rng).skipped


@pytest.mark.parametrize("hyper_cls", [Td3Hyper, DqnHyper])
def test_buffer_no_larger_than_batch_rejected(hyper_cls):
    # learn() skips until the buffer holds more than one batch, so such a
    # buffer would never learn
    for capacity in (63, 64):
        with pytest.raises(ValidationError, match="must exceed batch_size"):
            hyper_cls(batch_size=64, buffer_capacity=capacity)
    assert hyper_cls(batch_size=64, buffer_capacity=65).buffer_capacity == 65


# ------------------------------------------------------------------- basek

def split_units(actions):
    """batch_units_from_domain as written on the cpu and mem halves."""
    n = actions.shape[-1] // 2
    u_cpu = (actions[..., :n] - CPU_MIN) / (CPU_MAX - CPU_MIN) * 2.0 - 1.0
    u_mem = (actions[..., n:] - MEM_MIN) / (MEM_MAX - MEM_MIN) * 2.0 - 1.0
    return np.concatenate([u_cpu, u_mem], axis=-1)


def split_levels(actions, levels):
    """DqnAgent.action_to_levels as written on the cpu and mem halves."""
    n = actions.shape[-1] // 2
    k_cpu = np.rint((actions[..., :n] - CPU_MIN) * (levels - 1) / (CPU_MAX - CPU_MIN))
    k_mem = np.rint((actions[..., n:] - MEM_MIN) * (levels - 1) / (MEM_MAX - MEM_MIN))
    return np.clip(np.concatenate([k_cpu, k_mem], axis=-1), 0, levels - 1).astype(int)


@pytest.mark.parametrize("shape", [(2,), (6,), (1, 6), (64, 16), (3, 5, 4)])
def test_box_conversions_match_split_halves_bit_for_bit(shape):
    """The broadcast box maps give the bytes of the per-half expressions,
    signs included, inside and outside the box, for 1-D input and batches."""
    rng = np.random.default_rng(sum(shape))
    n = shape[-1] // 2
    lo = np.repeat([CPU_MIN, MEM_MIN], n)
    hi = np.repeat([CPU_MAX, MEM_MAX], n)
    agent = DqnAgent(n, DqnHyper(hidden=8, levels=7), rng)
    for _ in range(50):
        actions = lo + rng.uniform(-0.6, 1.6, shape) * (hi - lo)
        # the box edges, signed zeros, and the midpoints between grid levels,
        # where rint reads the last bit
        midpoint = lo + (rng.integers(0, 6, 2 * n) + 0.5) * (hi - lo) / 6
        edges = rng.choice(np.stack([lo, hi, np.zeros(2 * n), np.full(2 * n, -0.0), midpoint]),
                           axis=0, size=shape[:-1])
        np.copyto(actions, edges, where=rng.random(shape) < 0.2)
        units = batch_units_from_domain(actions)
        assert units.shape == shape
        assert units.tobytes() == split_units(actions).tobytes()
        levels = agent.action_to_levels(actions)
        assert levels.shape == shape
        assert levels.tobytes() == split_levels(actions, 7).tobytes()


class TestBaseK:
    def test_static_is_constant(self, rng):
        initial = ActionVector(cpu_alloc=np.array([0.6, 0.4]),
                               mem_alloc=np.array([448.0, 320.0]))
        sched = BaseKScheduler(initial)
        for latency in (10.0, 500.0, 999.0):
            out = sched.act(None, make_raw(2, latency=latency, cpu_used=latency / 1000),
                            t=0, explore=False, rng=None)
            np.testing.assert_array_equal(out.vec, initial.vec)

    def test_threshold_scales_up_under_pressure(self):
        sched = BaseKScheduler(ActionVector(np.array([1.0]), np.array([1024.0])),
                               mode="threshold")
        raw = make_raw(1, cpu_used=0.9, cpu_alloc=1.0, mem_used=512.0,
                       mem_alloc=1024.0)
        out = sched.act(None, raw, t=0, explore=False, rng=None)
        assert out.cpu_alloc[0] == pytest.approx(1.2)
        assert out.mem_alloc[0] == pytest.approx(1024.0)  # util 0.5: in band

    def test_threshold_scales_down_when_idle(self):
        sched = BaseKScheduler(ActionVector(np.array([1.0]), np.array([1024.0])),
                               mode="threshold")
        raw = make_raw(1, cpu_used=0.2, cpu_alloc=1.0, mem_used=200.0,
                       mem_alloc=1024.0)
        out = sched.act(None, raw, t=0, explore=False, rng=None)
        assert out.cpu_alloc[0] == pytest.approx(0.8)
        assert out.mem_alloc[0] == pytest.approx(1024.0 * 0.8)

    def test_threshold_clamps_to_box(self):
        sched = BaseKScheduler(ActionVector(np.array([1.0]), np.array([1024.0])),
                               mode="threshold")
        raw = make_raw(1, cpu_used=1.71, cpu_alloc=1.9)
        # 1.9 * 1.2 = 2.28 exceeds the 2.0 cap
        out = sched.act(None, raw, t=0, explore=False, rng=None)
        assert out.cpu_alloc[0] == pytest.approx(2.0)

    def test_never_learns(self, rng):
        sched = BaseKScheduler(ActionVector(np.array([1.0]), np.array([1024.0])))
        assert sched.learn(fill_buffer(count=4), rng).skipped
        assert not sched.trainable

    def test_mode_validation(self):
        iv = ActionVector(np.array([1.0]), np.array([1024.0]))
        with pytest.raises(ValidationError):
            BaseKScheduler(iv, mode="adaptive")


# ------------------------------------------------------------- divergence

@pytest.mark.parametrize("column", ["state", "next_state", "reward"])
@pytest.mark.parametrize("kind", ["td3", "ddpg", "dqn"])
def test_non_finite_replay_column_caught_at_parameter_check(rng, kind, column):
    # the only check in learn() is on the parameters right after each step
    agent = {"td3": lambda: Td3Agent(1, small_hyper(), rng),
             "ddpg": lambda: DdpgAgent(1, small_hyper(), rng),
             "dqn": lambda: DqnAgent(1, DqnHyper(hidden=8, batch_size=8,
                                                  warmup_transitions=0), rng)}[kind]()
    fill = stream(3, "fill")
    buf = ReplayBuffer(64)
    for _ in range(32):
        s, s2, r = fill.uniform(0, 1, 4), fill.uniform(0, 1, 4), np.array([0.5])
        {"state": s, "next_state": s2, "reward": r}[column][0] = np.nan
        buf.add(s, action_from_unit(fill.uniform(-1, 1, 2)).vec, r[0], s2, False)
    with pytest.raises(ValidationError, match="non-finite parameters"):
        agent.learn(buf, rng)


@pytest.mark.parametrize("kind", ["td3", "ddpg", "dqn"])
def test_learn_hands_each_optimizer_one_gradient_vector(rng, monkeypatch, kind):
    # backward writes into the optimizer's own vector, so no update allocates one
    handed = []
    step = AdamState.step

    def spy(opt, p, g):
        handed.append((opt, p, g))
        step(opt, p, g)

    monkeypatch.setattr(AdamState, "step", spy)
    agent = build_agent(kind, 1, rng, td3=small_hyper(policy_freq=1),
                        dqn=DqnHyper(hidden=8, batch_size=8, warmup_transitions=0))
    buf = fill_buffer()
    for _ in range(2):
        assert not agent.learn(buf, rng).skipped
    nets = [agent.q_net] if kind == "dqn" else [*agent.critics, agent.actor]
    opts = [agent.opt] if kind == "dqn" else [*agent.critic_opts, agent.actor_opt]
    for net, opt in zip(nets, opts):
        vectors = [(p, g) for owner, p, g in handed if owner is opt]
        assert len(vectors) == 2
        assert all(p is net.flat and g is opt.grad for p, g in vectors)
    assert len(handed) == 2 * len(opts)


@pytest.mark.parametrize("kind", ["td3", "ddpg", "dqn"])
def test_learn_asks_backward_only_for_gradients_it_reads(rng, monkeypatch, kind):
    # the actor step reads only critic 0's input gradient, so it passes no vector;
    # every other call fills its optimizer's vector and skips the input gradient
    calls = []
    backward = Mlp.backward

    def spy(net, cache, output_gradient, grad=None):
        calls.append((net, grad))
        return backward(net, cache, output_gradient, grad)

    monkeypatch.setattr(Mlp, "backward", spy)
    agent = build_agent(kind, 1, rng, td3=small_hyper(policy_freq=1),
                        dqn=DqnHyper(hidden=8, batch_size=8, warmup_transitions=0))
    assert not agent.learn(fill_buffer(), rng).skipped
    if kind == "dqn":
        want = [(agent.q_net, agent.opt.grad)]
    else:
        want = [*((c, opt.grad) for c, opt in zip(agent.critics, agent.critic_opts)),
                (agent.critics[0], None), (agent.actor, agent.actor_opt.grad)]
    assert len(calls) == len(want)
    assert all(net is want_net and grad is want_grad
               for (net, grad), (want_net, want_grad) in zip(calls, want))


@pytest.mark.parametrize("kind", ["td3", "ddpg", "dqn"])
def test_greedy_acts_keep_each_action(rng, kind):
    """Two batched greedy acts each return a block of its own."""
    agent = build_agent(kind, 2, rng, td3=small_hyper(),
                        dqn=DqnHyper(hidden=8, batch_size=8, warmup_transitions=0))
    obs = [_adopt(StateVector, stream(k, "obs").uniform(0, 1, (3, 4, 2))) for k in (1, 2)]
    first = agent.act(obs[0], None, t=0, explore=False, rng=None)
    before = first._block.copy()
    second = agent.act(obs[1], None, t=0, explore=False, rng=None)
    assert not np.shares_memory(first._block, second._block)
    assert first._block.tobytes() == before.tobytes()  # the prev_action the reward reads
    assert second._block.tobytes() != before.tobytes()


# ---------------------------------------------------------------- plumbing

class TestBuildAndPersist:
    def test_dispatch(self, rng):
        initial = ActionVector(np.array([1.0]), np.array([1024.0]))
        assert isinstance(build_agent("td3", 1, rng), Td3Agent)
        assert isinstance(build_agent("ddpg", 1, rng), DdpgAgent)
        assert isinstance(build_agent("dqn", 1, rng), DqnAgent)
        assert isinstance(build_agent("basek", 1, rng, initial_action=initial),
                          BaseKScheduler)

    def test_basek_requires_initial(self, rng):
        with pytest.raises(ValidationError, match="initial"):
            build_agent("basek", 1, rng)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValidationError, match="unknown agent kind"):
            build_agent("sarsa", 1, rng)

    def test_policy_round_trip(self, rng, tmp_path):
        agent = Td3Agent(2, small_hyper(), rng)
        path = tmp_path / "actor.bin"
        save_mlp(agent.policy_net(), path)
        twin = Td3Agent(2, small_hyper(), stream(99, "other"))
        twin.load_policy(load_mlp(path))
        s = make_state(2, fill=0.37)
        a1 = agent.act(s, None, t=0, explore=False, rng=rng)
        a2 = twin.act(s, None, t=0, explore=False, rng=rng)
        np.testing.assert_array_equal(a1.vec, a2.vec)
        # targets follow the loaded policy
        assert params_equal(twin.target_actor, snapshot(twin.actor))

    def test_load_rejects_wrong_architecture(self, rng, tmp_path):
        agent = Td3Agent(2, small_hyper(), rng)
        other = Td3Agent(3, small_hyper(), rng)
        path = tmp_path / "actor.bin"
        save_mlp(other.policy_net(), path)
        with pytest.raises(ValidationError, match="architecture"):
            agent.load_policy(load_mlp(path))

    def test_unit_projection_round_trip(self, rng):
        acts = np.stack([action_from_unit(rng.uniform(-1, 1, 6)).vec
                         for _ in range(10)])
        units = batch_units_from_domain(acts)
        assert np.all(units >= -1 - 1e-12) and np.all(units <= 1 + 1e-12)
        back = np.stack([action_from_unit(u).vec for u in units])
        np.testing.assert_allclose(back, acts, atol=1e-9)
