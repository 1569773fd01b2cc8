"""Top-level acceptance suite: ten criteria, one verdict line each.

Every test emits `criterion NN <slug>: PASS|FAIL (<evidence>)` before its
assertion; the lines are echoed in the terminal summary of a normal run
(see conftest) and inline under -s. Oracles here are written independently of
the library code they check: finite differences for gradients, a scalar
brute-force reward evaluation, fixed-point and bias probes for learning.
"""

import copy
import csv
import io
import json
import runpy
import time
from pathlib import Path

import conftest
import numpy as np
import pytest

from edgesched.agents import (
    DdpgAgent,
    Td3Agent,
    Td3Hyper,
    batch_units_from_domain,
)
from edgesched.cli import main as cli_main
from edgesched.configio import SCENARIO_PRESETS, ExperimentConfig
from edgesched.domain import (
    CPU_MAX,
    CPU_MIN,
    MEM_MAX,
    MEM_MIN,
    ActionVector,
    NodeSpec,
    ServiceSpec,
    StateVector,
    action_from_unit,
)
from edgesched.harness import (
    METRICS_HEADER,
    load_run,
    run_campaign,
    run_evaluation,
    run_lanes,
    train_one_seed,
)
from edgesched.nets import Mlp, soft_update
from edgesched.replay import ReplayBuffer
from edgesched.rewards import RewardWeights, total_reward
from edgesched.rng import stream
from edgesched.simulator import LatencyModel, SimConfig
from edgesched.workload import TraceRecord, write_trace

ROOT = Path(__file__).resolve().parent.parent


def verdict(num, slug, ok, detail):
    line = f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.VERDICTS.append(line)


# ---------------------------------------------------------------------------
# 1: every cited constant loads as a default


def test_criterion_01_default_constants():
    h = Td3Hyper()
    w = RewardWeights()
    cfg = ExperimentConfig()
    checks = {
        "gamma=0.99": h.gamma == 0.99,
        "tau=0.005": h.tau == 0.005,
        "smoothing sigma=0.2": h.smoothing_sigma == 0.2,
        "smoothing clip=0.5": h.smoothing_clip == 0.5,
        "policy_freq=2": h.policy_freq == 2,
        "sigma_init=0.3": h.sigma_init == 0.3,
        "tau_decay=1000": h.tau_decay == 1000.0,
        "alpha=0.5": w.alpha == 0.5,
        "beta=0.1": w.beta == 0.1,
        "lambda=0.2": w.lam == 0.2,
        "mu=0.1": w.mu == 0.1,
        "cpu box [0.1,2.0]": (CPU_MIN, CPU_MAX) == (0.1, 2.0),
        "mem box [64,2048]": (MEM_MIN, MEM_MAX) == (64.0, 2048.0),
        "l_target=150": cfg.sim.l_target == 150.0,
        "episodes M=50": cfg.episodes == 50,
        "steps T=20": cfg.steps_per_episode == 20,
        "normal load 100": SCENARIO_PRESETS.get("normal_100") == 100.0,
        "high load 300": SCENARIO_PRESETS.get("high_300") == 300.0,
    }
    bad = [name for name, ok in checks.items() if not ok]
    verdict(1, "default-constants",
            not bad, f"{len(checks)} constants exact" if not bad else f"wrong: {bad}")
    assert not bad, f"constants off from their defaults: {bad}"


# ---------------------------------------------------------------------------
# 2: analytic gradients vs central finite differences


def _fd_objective(net, x, proj):
    out, _ = net.forward(x)
    return float(np.sum(proj * out))


def test_criterion_02_gradient_check():
    eps = 1e-5
    shapes = [(3, 8, 2, "tanh"), (5, 16, 1, "linear")]
    worst = 0.0
    nets_checked = 0
    for in_dim, hidden, out_dim, act in shapes:
        for trial in range(5):
            rng = stream(trial, "accept-fd")
            net = Mlp.create(in_dim, hidden, out_dim, act, rng)
            x = rng.normal(size=(1, in_dim))
            proj = rng.normal(size=(1, out_dim))
            _, cache = net.forward(x)
            flat_g = net.backward(cache, proj, grad=np.empty(net.flat.size))
            x_grad = net.backward(cache, proj)
            flat_p = net.flat
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + eps
                up = _fd_objective(net, x, proj)
                flat_p[j] = orig - eps
                dn = _fd_objective(net, x, proj)
                flat_p[j] = orig
                numeric = (up - dn) / (2 * eps)
                denom = max(abs(flat_g[j]), abs(numeric), 1e-8)
                worst = max(worst, abs(flat_g[j] - numeric) / denom)
            for j in range(in_dim):
                bumped = x.copy()
                bumped[0, j] += eps
                up = _fd_objective(net, bumped, proj)
                bumped[0, j] -= 2 * eps
                dn = _fd_objective(net, bumped, proj)
                numeric = (up - dn) / (2 * eps)
                denom = max(abs(x_grad[0, j]), abs(numeric), 1e-8)
                worst = max(worst, abs(x_grad[0, j] - numeric) / denom)
            nets_checked += 1
    ok = worst < 1e-4
    verdict(2, "gradient-check",
            ok, f"{nets_checked} nets, max rel err {worst:.2e} < 1e-4")
    assert ok, f"max relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# 3: reward equals an independently coded brute force


def _brute_force_reward(raw, action, prev, target, w):
    """Scalar re-derivation of all four terms, no shared code with rewards."""
    r_l = r_r = r_s = r_m = 0.0
    for i in range(len(raw.latency_ms)):
        lat = float(raw.latency_ms[i])
        if lat > target:
            r_l -= (lat - target) / target
        else:
            r_s += 1.0
        for used, alloc in ((float(raw.cpu_used[i]), float(raw.cpu_alloc[i])),
                            (float(raw.mem_used[i]), float(raw.mem_alloc[i]))):
            idle = (alloc - used) / alloc
            r_r -= min(max(idle, 0.0), 1.0)
        r_m -= abs(float(action.cpu_alloc[i]) - float(prev.cpu_alloc[i])) / (2.0 - 0.1)
        r_m -= abs(float(action.mem_alloc[i]) - float(prev.mem_alloc[i])) / (2048.0 - 64.0)
    return w.alpha * r_l + w.beta * r_r + w.lam * r_s + w.mu * r_m


def test_criterion_03_reward_oracle():
    from edgesched.domain import RawMetrics

    w = RewardWeights()
    rng = stream(2024, "accept-reward")
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        raw = RawMetrics(cpu_used=rng.uniform(0, 3, n),
                         cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                         mem_used=rng.uniform(0, 3000, n),
                         mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n),
                         latency_ms=rng.uniform(0, 1000, n),
                         qps=rng.uniform(0, 400, n))
        action = ActionVector(cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                              mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n))
        prev = ActionVector(cpu_alloc=rng.uniform(CPU_MIN, CPU_MAX, n),
                            mem_alloc=rng.uniform(MEM_MIN, MEM_MAX, n))
        got = total_reward(raw, action, prev, 150.0, w).total
        expect = _brute_force_reward(raw, action, prev, 150.0, w)
        worst = max(worst, abs(got - expect))

    # worked two-service example: one service over the objective
    raw = RawMetrics(cpu_used=[0.5, 0.8], cpu_alloc=[1.0, 1.0],
                     mem_used=[512.0, 512.0], mem_alloc=[1024.0, 1024.0],
                     latency_ms=[100.0, 200.0], qps=[10.0, 10.0])
    hold = ActionVector(cpu_alloc=np.array([1.0, 1.0]),
                        mem_alloc=np.array([1024.0, 1024.0]))
    example = total_reward(raw, hold, hold, 150.0, w).total
    example_err = abs(example - (-0.13666666666666666))

    ok = worst < 1e-9 and example_err < 1e-9
    verdict(3, "reward-oracle",
            ok, f"1000 tuples max |diff| {worst:.1e}; example {example:.5f}")
    assert worst < 1e-9
    assert example_err < 1e-9


# ---------------------------------------------------------------------------
# 4: policy-update mechanics


def _bandit_buffer(n=32, reward=0.5, done=False):
    s = StateVector(*(np.full(1, 0.5) for _ in range(4)))
    a = ActionVector(cpu_alloc=np.array([1.0]), mem_alloc=np.array([1024.0]))
    buf = ReplayBuffer(64)
    for _ in range(n):
        buf.add(s.vec, a.vec, reward, s.vec, done)
    return buf


def test_criterion_04_update_mechanics():
    rng = stream(4, "accept-mech")
    agent = Td3Agent(1, Td3Hyper(hidden=8, batch_size=8, warmup_transitions=0),
                     rng)
    buf = _bandit_buffer()

    # (a) delayed actor cadence over 101 critic updates
    for _ in range(101):
        agent.learn(buf, rng)
    cadence_ok = (agent.critic_update_count == 101
                  and agent.actor_update_count == 101 // 2)

    # (b) every smoothing draw inside the clip bounds
    noisy = Td3Agent(1, Td3Hyper(hidden=8, smoothing_sigma=0.9), stream(5, "m"))
    states = rng.uniform(0, 1, (64, 4))
    clip_ok = True
    for _ in range(25):
        _, noise = noisy.smoothed_target_action(states, rng)
        clip_ok &= bool(np.all(np.abs(noise) <= 0.5))

    # (c) target bootstraps from the pointwise minimum of the twin critics
    # (the twin target values are recomputed from a copy of the learn rng)
    rewards = rng.uniform(-1, 1, 32)
    next_states = rng.uniform(0, 1, (32, 4))
    rng_copy = copy.deepcopy(rng)
    y = agent.td_targets(rewards, next_states, np.zeros(32), rng)
    a_next, _ = agent.smoothed_target_action(next_states, rng_copy)
    sa_next = np.concatenate([next_states, a_next], axis=1)
    q1, q2 = (tc.forward(sa_next)[0] for tc in agent.target_critics)
    min_ok = (np.allclose(y, rewards[:, None] + 0.99 * np.minimum(q1, q2),
                          atol=1e-12)
              and np.all(y - rewards[:, None] <= 0.99 * q1 + 1e-9)
              and np.all(y - rewards[:, None] <= 0.99 * q2 + 1e-9))

    # (d) soft update is the exact convex combination
    src = Mlp.create(3, 8, 2, "tanh", stream(6, "a"))
    tgt = Mlp.create(3, 8, 2, "tanh", stream(7, "b"))
    old = tgt.flat.copy()
    soft_update(tgt, src, 0.3)
    soft_ok = np.allclose(tgt.flat, 0.7 * old + 0.3 * src.flat, atol=1e-12)

    # (e) exploration noise closed form one decay constant in
    from edgesched.agents import exploration_sigma
    sigma_ok = abs(exploration_sigma(Td3Hyper(), 1000) - 0.3 / np.e) < 1e-9

    parts = {"cadence": cadence_ok, "clip": clip_ok, "twin-min": min_ok,
             "soft-update": soft_ok, "sigma-decay": sigma_ok}
    bad = [k for k, ok in parts.items() if not ok]
    verdict(4, "update-mechanics",
            not bad, "cadence 50/101, clip, twin-min, soft-update, sigma"
            if not bad else f"failed: {bad}")
    assert not bad, f"mechanics failed: {bad}"


# ---------------------------------------------------------------------------
# 5: terminal-bandit fixed point for both continuous learners


def _bandit_run(cls, seed):
    """One run_lanes job of criterion 05: (kind, seed, both Q at the probe, all within 0.01)."""
    rng = stream(seed, "accept-bandit")
    agent = cls(1, Td3Hyper(hidden=16, batch_size=16,
                            warmup_transitions=0), rng)
    buf = _bandit_buffer(reward=1.0, done=True)
    for _ in range(2000):
        agent.learn(buf, rng)
    s = StateVector(*(np.full(1, 0.5) for _ in range(4)))
    a = ActionVector(cpu_alloc=np.array([1.0]), mem_alloc=np.array([1024.0]))
    sa = np.concatenate([s.vec, batch_units_from_domain(a.vec)])[None, :]
    qs = [float(c.forward(sa)[0][0, 0]) for c in agent.critics]
    return cls.kind, seed, qs, all(abs(q - 1.0) <= 0.01 for q in qs)


def test_criterion_05_bandit_fixed_point():
    results = run_lanes(_bandit_run, [(cls, seed) for cls in (Td3Agent, DdpgAgent)
                                      for seed in (0, 1, 2)])
    ok = all(r[3] for r in results)
    spread = max(abs(q - 1.0) for r in results for q in r[2])
    verdict(5, "bandit-fixed-point",
            ok, f"6/6 runs at Q=1 within 0.01 (worst |Q-1| {spread:.1e})"
            if ok else f"failures: {[(r[0], r[1]) for r in results if not r[3]]}")
    assert ok


# ---------------------------------------------------------------------------
# 6: twin-min lowers value-estimate bias on a known-Q batch


def _bias_run(seed):
    """One run_lanes job of criterion 06: the mean probe Q of TD3 and of DDPG."""
    # every transition loops with zero-mean noisy reward and done=False,
    # so the true Q of any (s, a) is exactly 0
    data_rng = stream(seed, "accept-bias-data")
    n = 256
    states = data_rng.uniform(0, 1, (n, 4))
    units = data_rng.uniform(-1, 1, (n, 2))
    rewards = data_rng.normal(0.0, 1.0, n)
    buf = ReplayBuffer(n)
    for i in range(n):
        sv = StateVector(*(states[i, j:j + 1] for j in range(4)))
        buf.add(sv.vec, action_from_unit(units[i]).vec, float(rewards[i]), sv.vec,
                False)
    probe = np.concatenate([states, units], axis=1)
    biases = []
    for cls in (Td3Agent, DdpgAgent):
        agent = cls(1, Td3Hyper(hidden=32, batch_size=64,
                                warmup_transitions=0),
                    stream(seed, "accept-bias-init"))
        train_rng = stream(seed, "accept-bias-train")
        for _ in range(600):
            agent.learn(buf, train_rng)
        q, _ = agent.critics[0].forward(probe)
        biases.append(float(q.mean()))
    return biases


def test_criterion_06_overestimation_bias():
    biases = run_lanes(_bias_run, [(seed,) for seed in range(20)])
    m_td3 = float(np.mean([td3 for td3, _ in biases]))
    m_ddpg = float(np.mean([ddpg for _, ddpg in biases]))
    ok = m_td3 <= m_ddpg
    verdict(6, "overestimation-bias",
            ok, f"mean bias over 20 seeds: twin {m_td3:+.4f} <= single {m_ddpg:+.4f}"
            if ok else f"twin {m_td3:+.4f} > single {m_ddpg:+.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 7: the policy actually learns an SLO threshold


def _threshold_sim():
    """One service whose objective holds exactly when cpu_alloc >= 1.0.

    Latency floor is 25 + 5 ms and utilization is 0.8 cores of demand, so
    l = 30/(1 - 0.8/alloc) <= 150 exactly when alloc >= 1.0. Memory demand
    sits at the box floor and can never add pressure.
    """
    node = NodeSpec(0, "edge")
    svc = ServiceSpec(name="solo", home_node=0,
                      cpu_cost_per_request=0.04, mem_floor=64.0, mem_per_qps=0.0,
                      initial_cpu_request=0.5, initial_mem_request=256.0)
    return SimConfig(services=[svc], nodes=[node], l_target=150.0,
                     latency=LatencyModel(base_service_ms=25.0, jitter_sigma=0.0))


def test_criterion_07_slo_learning(tmp_path):
    write_trace([TraceRecord(0, 0, 20.0)], tmp_path / "steady.csv")
    scenario = f"trace:{tmp_path / 'steady.csv'}"
    sim = _threshold_sim()
    hyper = Td3Hyper(hidden=64, actor_lr=5e-4, critic_lr=5e-4)
    out = tmp_path / "td3"
    cfg = ExperimentConfig(algorithm="td3", episodes=50, steps_per_episode=20,
                           scenario=scenario, seeds=(0, 1, 2, 3),
                           output_dir=str(out), sim=sim, td3=hyper)
    run_campaign([cfg])
    # without jitter the static baseline's rollout does not depend on the seed
    assert sim.latency.jitter_sigma == 0.0
    base_cfg = ExperimentConfig(algorithm="basek", episodes=1, steps_per_episode=20,
                                scenario=scenario, seeds=(0,), output_dir=str(out), sim=sim)
    base = run_evaluation(base_cfg, None, episodes=1)[0]
    outcomes = []
    for seed in cfg.seeds:
        ev = run_evaluation(cfg, out / f"params_seed{seed}.bin",
                            episodes=1, seeds=(seed,))[0]
        outcomes.append((seed, ev.slo_violation_rate, ev.total_reward,
                         base.total_reward,
                         ev.slo_violation_rate == 0.0
                         and ev.total_reward > base.total_reward))
    wins = sum(1 for o in outcomes if o[4])
    ok = wins >= 3
    detail = ", ".join(f"seed {s}: viol={v:.2f} r={r:.2f} vs base {b:.2f}"
                       for s, v, r, b, _ in outcomes)
    verdict(7, "slo-learning", ok, f"{wins}/4 seeds ({detail})")
    assert ok, detail


# ---------------------------------------------------------------------------
# 8: qualitative ordering on the full cluster at both load levels


CAMPAIGN_EPISODES = 60
CAMPAIGN = runpy.run_path(str(ROOT / "scripts" / "run_campaign.py"))


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Train every algorithm on both load scenarios, four seeds each."""
    root = tmp_path_factory.mktemp("campaign")
    configs = CAMPAIGN["campaign_configs"](root, CAMPAIGN_EPISODES, (0, 1, 2, 3),
                                           hidden=128, lr=5e-4)
    started = time.perf_counter()
    dirs = run_campaign(configs)
    jobs = [(config.scenario, config.algorithm) for config in configs]
    return dict(zip(jobs, dirs)), time.perf_counter() - started


def _last10(run_dir, metric):
    summary = load_run(run_dir)
    return {seed: float(np.mean([getattr(r, metric)
                                 for r in summary.by_seed[seed]][-10:]))
            for seed in summary.seeds}


def test_criterion_08_scheduler_ordering(campaign):
    dirs, wall = campaign
    lat = {algo: _last10(dirs[("normal_100", algo)], "mean_latency_ms")
           for algo in ("td3", "ddpg", "basek")}
    viol = {algo: _last10(dirs[("high_300", algo)], "slo_violation_rate")
            for algo in ("td3", "basek")}
    seeds = sorted(lat["td3"])
    beats_basek = sum(lat["td3"][s] < lat["basek"][s] for s in seeds)
    matches_ddpg = sum(lat["td3"][s] <= lat["ddpg"][s] for s in seeds)
    fewer_viol = sum(viol["td3"][s] < viol["basek"][s] for s in seeds)
    in_budget = wall < 15 * 60
    ok = beats_basek >= 3 and matches_ddpg >= 3 and fewer_viol >= 3 and in_budget
    verdict(8, "scheduler-ordering", ok,
            f"normal_100 latency: td3<basek {beats_basek}/4, td3<=ddpg "
            f"{matches_ddpg}/4; high_300 violations: td3<basek {fewer_viol}/4; "
            f"campaign {wall:.0f}s")
    assert beats_basek >= 3, lat
    assert matches_ddpg >= 3, lat
    assert fewer_viol >= 3, viol
    assert in_budget, f"campaign took {wall:.0f}s"


# ---------------------------------------------------------------------------
# 9: bit-level reproducibility and replay-buffer statistics


def test_criterion_09_determinism_and_replay(tmp_path):
    cfg = ExperimentConfig(episodes=2, steps_per_episode=4, seeds=(7,),
                           td3=Td3Hyper(hidden=8, batch_size=4,
                                        warmup_transitions=4))
    train_one_seed(cfg, 7, tmp_path / "a")
    train_one_seed(cfg, 7, tmp_path / "b")

    def stripped(path):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    csv_ok = (stripped(tmp_path / "a" / "metrics_seed7.csv")
              == stripped(tmp_path / "b" / "metrics_seed7.csv"))
    params_ok = ((tmp_path / "a" / "params_seed7.bin").read_bytes()
                 == (tmp_path / "b" / "params_seed7.bin").read_bytes())

    # FIFO: a capacity-2 ring must forget the first of three transitions
    s = StateVector(*(np.full(1, 0.5) for _ in range(4)))
    a = ActionVector(cpu_alloc=np.array([1.0]), mem_alloc=np.array([1024.0]))
    ring = ReplayBuffer(2)
    for r in (1.0, 2.0, 3.0):
        ring.add(s.vec, a.vec, r, s.vec, False)
    seen = set(ring.sample(200, stream(1, "fifo")).rewards.tolist())
    fifo_ok = seen == {2.0, 3.0}

    # uniformity: each of four items within 3 sigma of its expected count
    quad = ReplayBuffer(4)
    for r in (0.0, 1.0, 2.0, 3.0):
        quad.add(s.vec, a.vec, r, s.vec, False)
    draws = quad.sample(10000, stream(2, "freq")).rewards
    counts = np.array([(draws == r).sum() for r in (0.0, 1.0, 2.0, 3.0)])
    sigma = np.sqrt(10000 * 0.25 * 0.75)
    freq_ok = bool(np.all(np.abs(counts - 2500) <= 3 * sigma))

    parts = {"csv": csv_ok, "params": params_ok, "fifo": fifo_ok,
             "uniform": freq_ok}
    bad = [k for k, v in parts.items() if not v]
    verdict(9, "determinism-and-replay", not bad,
            f"csv+params byte-identical (wall clock aside), fifo, "
            f"counts {counts.tolist()}" if not bad else f"failed: {bad}")
    assert not bad, f"failed: {bad}"


# ---------------------------------------------------------------------------
# 10: the shipped command line runs the whole loop


def test_criterion_10_cli_pipeline(tmp_path, capsys):
    cfg_path = tmp_path / "smoke.json"
    cfg_path.write_text(json.dumps({
        "episodes": 2,
        "steps_per_episode": 4,
        "seeds": [0],
        "td3": {"hidden": 8, "batch_size": 4, "warmup_transitions": 4},
    }), encoding="utf-8")
    td3_dir, base_dir = tmp_path / "td3", tmp_path / "basek"

    codes = [cli_main(["train", "--config", str(cfg_path), "--algo", "td3",
                       "--out", str(td3_dir)]),
             cli_main(["train", "--config", str(cfg_path), "--algo", "basek",
                       "--out", str(base_dir)])]
    capsys.readouterr()

    codes.append(cli_main(["eval", "--config", str(cfg_path),
                           "--params", str(td3_dir / "params_seed0.bin"),
                           "--episodes", "2"]))
    eval_out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(eval_out)))
    schema_ok = (rows[0] == METRICS_HEADER and len(rows) == 3
                 and all(np.isfinite([float(v) for v in r[2:]]).all()
                         for r in rows[1:]))

    codes.append(cli_main(["compare", "--runs", str(td3_dir), str(base_dir)]))
    table = capsys.readouterr().out
    table_ok = "scenario: normal_100" in table and "mean_latency_ms" in table

    ok = codes == [0, 0, 0, 0] and schema_ok and table_ok
    verdict(10, "cli-pipeline", ok,
            f"exit codes {codes}, eval rows {len(rows) - 1}, table ok")
    assert codes == [0, 0, 0, 0]
    assert schema_ok
    assert table_ok
