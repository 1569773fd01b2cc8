"""Control policies: TD3, DDPG, a factored DQN, and static/threshold baselines.

All learning agents share one interface: act(obs, raw, t, explore, rng) for
action selection and learn(buffer, rng) for one gradient step. Continuous
agents think in the [-1, 1] unit box and are mapped to core/MB allocations
at the boundary; the replay buffer always stores domain-unit actions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    _BOX_LO,
    _BOX_SPAN,
    ActionVector,
    RawMetrics,
    StateVector,
    ValidationError,
    _adopt,
    action_from_unit,
    check_fields,
)
from .nets import AdamState, Mlp, soft_update
from .replay import ReplayBuffer

__all__ = [
    "TrainStats",
    "Td3Hyper",
    "DqnHyper",
    "Td3Agent",
    "DdpgAgent",
    "DqnAgent",
    "BaseKScheduler",
    "build_agent",
    "exploration_sigma",
    "epsilon_at",
    "batch_units_from_domain",
    "AGENT_KINDS",
    "BASEK_MODES",
]

AGENT_KINDS = ("td3", "ddpg", "dqn", "basek")
BASEK_MODES = ("static", "threshold")
_GRID_ROWS = np.array([[0], [1]])  # picks the cpu grid for row 0, the mem grid for row 1


@dataclass(frozen=True)
class TrainStats:
    """Outcome of one learn() call."""

    skipped: bool = False
    critic_losses: tuple[float, ...] = ()
    actor_loss: float | None = None
    actor_updated: bool = False
    targets_updated: bool = False


def _check_learner(hyper: Td3Hyper | DqnHyper, owner: str, *rates: str) -> None:
    """The checks every replay learner's hyperparameters share; rates name its learning rates."""
    check_fields(hyper, owner)
    if bad := [name for name in rates if getattr(hyper, name) <= 0]:
        raise ValidationError(f"{owner}.{bad[0]} must be positive")
    if not (0.0 <= hyper.gamma <= 1.0):
        raise ValidationError(f"gamma must be in [0, 1], got {hyper.gamma}")
    if hyper.batch_size < 1 or hyper.warmup_transitions < 0:
        raise ValidationError("bad batch_size/warmup_transitions")
    if hyper.hidden < 1 or hyper.buffer_capacity < 1:
        raise ValidationError("bad hidden width or buffer capacity")
    if hyper.buffer_capacity <= hyper.batch_size:  # learn() needs more than a batch stored
        raise ValidationError(
            f"buffer_capacity {hyper.buffer_capacity} must exceed batch_size {hyper.batch_size}")


@dataclass(frozen=True)
class Td3Hyper:
    """Twin-critic deterministic policy gradient hyperparameters."""

    gamma: float = 0.99
    tau: float = 0.005
    policy_freq: int = 2
    smoothing_sigma: float = 0.2
    smoothing_clip: float = 0.5
    sigma_init: float = 0.3
    tau_decay: float = 1000.0
    batch_size: int = 64
    warmup_transitions: int = 200
    hidden: int = 256
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    buffer_capacity: int = 100000

    def __post_init__(self):
        _check_learner(self, "td3", "actor_lr", "critic_lr")
        if self.policy_freq < 1:
            raise ValidationError(f"policy_freq must be >= 1, got {self.policy_freq}")
        if self.smoothing_clip <= 0:
            raise ValidationError("smoothing_clip must be positive")
        if self.smoothing_sigma < 0 or self.sigma_init < 0:
            raise ValidationError("noise scales must be >= 0")
        if self.tau_decay <= 0:
            raise ValidationError("tau_decay must be positive")
        if not (0.0 <= self.tau <= 1.0):
            raise ValidationError(f"tau must be in [0, 1], got {self.tau}")


@dataclass(frozen=True)
class DqnHyper:
    """Factored discrete-control hyperparameters."""

    gamma: float = 0.99
    levels: int = 10
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 500
    target_sync_every: int = 100
    batch_size: int = 64
    warmup_transitions: int = 200
    hidden: int = 256
    lr: float = 3e-4
    buffer_capacity: int = 100000

    def __post_init__(self):
        _check_learner(self, "dqn", "lr")
        if self.levels < 2:
            raise ValidationError(f"need >= 2 allocation levels, got {self.levels}")
        if not (0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0):
            raise ValidationError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if self.epsilon_decay_steps < 1 or self.target_sync_every < 1:
            raise ValidationError("bad epsilon_decay_steps/target_sync_every")


def exploration_sigma(hyper: Td3Hyper, t: int) -> float:
    """Action-noise scale at global environment step t: sigma_init * exp(-t/tau_decay)."""
    return hyper.sigma_init * float(np.exp(-t / hyper.tau_decay))


def epsilon_at(hyper: DqnHyper, t: int) -> float:
    """Linear epsilon decay from epsilon_start to epsilon_end over decay_steps."""
    frac = min(t / hyper.epsilon_decay_steps, 1.0)
    return hyper.epsilon_start - (hyper.epsilon_start - hyper.epsilon_end) * frac


def _box_view(actions: np.ndarray) -> np.ndarray:
    """A (..., 2N) array of allocations as (..., 2, N): cpu row, then mem row."""
    return actions.reshape(*actions.shape[:-1], 2, -1)


def batch_units_from_domain(actions: np.ndarray) -> np.ndarray:
    """Map a (B, 2N) array of core/MB allocations into the [-1, 1] unit box."""
    return ((_box_view(actions) - _BOX_LO) / _BOX_SPAN * 2.0 - 1.0).reshape(actions.shape)


class Td3Agent:
    """Deterministic actor with twin critics, smoothed delayed targets.

    n_critics=1 with smoothing disabled and policy_freq=1 degrades this to
    the single-critic variant; both paths share the same update code, so
    the min-over-critics target is exercised identically.
    """

    kind = "td3"
    trainable = True

    def __init__(self, n_services: int, hyper: Td3Hyper,
                 init_rng: np.random.Generator, n_critics: int = 2):
        if n_services < 1:
            raise ValidationError("need at least one service")
        if n_critics < 1:
            raise ValidationError("need at least one critic")
        self.n_services = n_services
        self.state_dim = 4 * n_services
        self.action_dim = 2 * n_services
        self.hyper = hyper
        self.actor = Mlp.create(self.state_dim, hyper.hidden, self.action_dim,
                                "tanh", init_rng)
        self.critics = [Mlp.create(self.state_dim + self.action_dim, hyper.hidden,
                                   1, "linear", init_rng)
                        for _ in range(n_critics)]
        self.target_actor = self.actor.copy()
        self.target_critics = [c.copy() for c in self.critics]
        self.actor_opt = AdamState(self.actor.flat.size, learning_rate=hyper.actor_lr)
        self.critic_opts = [AdamState(c.flat.size, learning_rate=hyper.critic_lr)
                            for c in self.critics]
        self.critic_update_count = 0
        self.actor_update_count = 0

    def act(self, obs: StateVector, raw: RawMetrics, t: int, explore: bool,
            rng: np.random.Generator) -> ActionVector:
        """Greedy actor output, plus decaying Gaussian noise when exploring.

        The first warmup_transitions exploration steps are uniform over the
        unit box to seed the buffer before the policy drives the cluster.
        A greedy act takes a batch of observations too: its rows go
        through the actor as a stack of one-row inputs, into the actor's
        kept arrays (reuse). An exploring act leaves learn()'s kept arrays.
        """
        if explore and t < self.hyper.warmup_transitions:
            return action_from_unit(rng.uniform(-1.0, 1.0, self.action_dim))
        u = self.actor.forward(obs.vec[..., None, :], reuse=not explore)[0][..., 0, :]
        if explore:
            sigma = exploration_sigma(self.hyper, t)
            u = u + sigma * rng.standard_normal(self.action_dim)
        return action_from_unit(u)

    def smoothed_target_action(self, next_states: np.ndarray,
                               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
        """Target-actor batch output with clipped Gaussian smoothing noise."""
        a, _ = self.target_actor.forward(next_states, reuse=True)
        noise = None
        if self.hyper.smoothing_sigma > 0:
            noise = rng.normal(0.0, self.hyper.smoothing_sigma, size=a.shape).clip(
                -self.hyper.smoothing_clip, self.hyper.smoothing_clip)
            a = a + noise
        return a.clip(-1.0, 1.0), noise

    def td_targets(self, rewards: np.ndarray, next_states: np.ndarray,
                   dones: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Bootstrapped targets y = r + gamma * min_i Q'_i(s', a') * (1 - done)."""
        a_next, _ = self.smoothed_target_action(next_states, rng)
        sa_next = np.concatenate([next_states, a_next], axis=1)
        q_min = np.minimum.reduce([c.forward(sa_next, reuse=True)[0] for c in self.target_critics])
        return rewards[:, None] + self.hyper.gamma * q_min * (1.0 - dones)[:, None]

    def learn(self, buffer: ReplayBuffer, rng: np.random.Generator) -> TrainStats:
        """One critic update, with a delayed actor/target update when due.

        Batch activations go into each network's kept arrays (forward with
        reuse) and parameter gradients into each optimizer's grad vector, so
        only the soft target updates allocate a network-sized temporary.
        """
        if len(buffer) <= self.hyper.batch_size:
            return TrainStats(skipped=True)
        batch = buffer.sample(self.hyper.batch_size, rng)
        b = len(batch)
        unit_actions = batch_units_from_domain(batch.actions)
        y = self.td_targets(batch.rewards, batch.next_states, batch.dones, rng)
        sa = np.concatenate([batch.states, unit_actions], axis=1)
        losses = []
        for critic, opt in zip(self.critics, self.critic_opts):
            q, cache = critic.forward(sa, reuse=True)
            err = q - y
            loss = float(np.mean(err ** 2))
            opt.step(critic.flat, critic.backward(cache, 2.0 * err / b, grad=opt.grad))
            critic.check_finite()
            losses.append(loss)
        self.critic_update_count += 1

        if self.critic_update_count % self.hyper.policy_freq != 0:
            return TrainStats(critic_losses=tuple(losses))

        # delayed actor step: ascend mean Q_1(s, mu(s)) through the frozen critic
        u, actor_cache = self.actor.forward(batch.states, reuse=True)
        sa_pi = np.concatenate([batch.states, u], axis=1)
        q_pi, critic_cache = self.critics[0].forward(sa_pi, reuse=True)
        actor_loss = float(-np.mean(q_pi))
        # only the input gradient of critic 0: its parameters stay frozen here
        sa_grad = self.critics[0].backward(critic_cache, -np.ones((b, 1)) / b)
        self.actor_opt.step(self.actor.flat, self.actor.backward(
            actor_cache, sa_grad[:, self.state_dim:], grad=self.actor_opt.grad))
        self.actor.check_finite()
        self.actor_update_count += 1

        soft_update(self.target_actor, self.actor, self.hyper.tau)
        for tc, c in zip(self.target_critics, self.critics):
            soft_update(tc, c, self.hyper.tau)
        return TrainStats(critic_losses=tuple(losses), actor_loss=actor_loss,
                          actor_updated=True, targets_updated=True)

    def policy_net(self) -> Mlp:
        return self.actor

    def load_policy(self, net: Mlp) -> None:
        if net.layer_sizes != self.actor.layer_sizes or net.output_activation != "tanh":
            raise ValidationError("loaded network does not match the actor architecture")
        self.actor = net
        self.target_actor = net.copy()


class DdpgAgent(Td3Agent):
    """Single critic, no target smoothing, actor updated every step."""

    kind = "ddpg"

    def __init__(self, n_services: int, hyper: Td3Hyper, init_rng: np.random.Generator):
        super().__init__(
            n_services,
            replace(hyper, smoothing_sigma=0.0, policy_freq=1),
            init_rng,
            n_critics=1,
        )


class DqnAgent:
    """Per-dimension discrete control: 2N heads, each over a fixed level grid.

    A joint grid over all allocation dimensions would have levels^(2N)
    actions; factoring per head keeps the network one forward pass while
    each head still sees the full state.
    """

    kind = "dqn"
    trainable = True

    def __init__(self, n_services: int, hyper: DqnHyper, init_rng: np.random.Generator):
        if n_services < 1:
            raise ValidationError("need at least one service")
        self.n_services = n_services
        self.state_dim = 4 * n_services
        self.n_heads = 2 * n_services
        self.hyper = hyper
        # row 0 the cpu levels, row 1 the mem levels, each spanning its box
        self._grids = _BOX_LO + np.arange(hyper.levels) * _BOX_SPAN / (hyper.levels - 1)
        self.cpu_grid, self.mem_grid = self._grids
        self.q_net = Mlp.create(self.state_dim, hyper.hidden,
                                self.n_heads * hyper.levels, "linear", init_rng)
        self.target_net = self.q_net.copy()
        self.opt = AdamState(self.q_net.flat.size, learning_rate=hyper.lr)
        self.train_step_count = 0

    def levels_to_action(self, levels: np.ndarray) -> ActionVector:
        """The grid values of 2N level indices, N cpu levels then N mem levels,
        per episode row."""
        return _adopt(ActionVector,
                      self._grids[_GRID_ROWS, levels.reshape(*levels.shape[:-1], 2, -1)])

    def action_to_levels(self, actions: np.ndarray) -> np.ndarray:
        """Nearest grid index per dimension for a (B, 2N) domain-unit batch."""
        k = np.rint((_box_view(actions) - _BOX_LO) * (self.hyper.levels - 1) / _BOX_SPAN)
        return np.clip(k.reshape(actions.shape), 0, self.hyper.levels - 1).astype(int)

    def greedy_levels(self, state: StateVector, reuse: bool = False) -> np.ndarray:
        """Each head's best level; a batch's rows go through as one-row inputs,
        with reuse into the q-net's kept arrays (see Mlp.forward)."""
        q = self.q_net.forward(state.vec[..., None, :], reuse=reuse)[0]
        return np.argmax(q.reshape(*q.shape[:-2], self.n_heads, self.hyper.levels), axis=-1)

    def act(self, obs: StateVector, raw: RawMetrics, t: int, explore: bool,
            rng: np.random.Generator) -> ActionVector:
        if explore and t < self.hyper.warmup_transitions:
            levels = rng.integers(0, self.hyper.levels, size=self.n_heads)
            return self.levels_to_action(levels)
        levels = self.greedy_levels(obs, reuse=not explore)
        if explore:
            eps = epsilon_at(self.hyper, t)
            randomize = rng.random(self.n_heads) < eps
            if randomize.any():
                levels = levels.copy()
                levels[randomize] = rng.integers(0, self.hyper.levels,
                                                 size=int(randomize.sum()))
        return self.levels_to_action(levels)

    def learn(self, buffer: ReplayBuffer, rng: np.random.Generator) -> TrainStats:
        """Per-head TD(0) update with a periodically hard-synced target net; its
        activations and gradients reuse arrays as in Td3Agent.learn."""
        if len(buffer) <= self.hyper.batch_size:
            return TrainStats(skipped=True)
        batch = buffer.sample(self.hyper.batch_size, rng)
        b = len(batch)
        h, nl = self.n_heads, self.hyper.levels
        levels = self.action_to_levels(batch.actions)

        q_next, _ = self.target_net.forward(batch.next_states, reuse=True)
        best_next = q_next.reshape(b, h, nl).max(axis=2)
        y = batch.rewards[:, None] + self.hyper.gamma * best_next * (1.0 - batch.dones)[:, None]

        q_all, cache = self.q_net.forward(batch.states, reuse=True)
        q_grid = q_all.reshape(b, h, nl)
        rows = np.arange(b)[:, None]
        heads = np.arange(h)[None, :]
        q_taken = q_grid[rows, heads, levels]
        err = q_taken - y
        loss = float(np.mean(err ** 2))
        grad_grid = np.zeros((b, h, nl))
        grad_grid[rows, heads, levels] = 2.0 * err / (b * h)
        self.opt.step(self.q_net.flat, self.q_net.backward(
            cache, grad_grid.reshape(b, h * nl), grad=self.opt.grad))
        self.q_net.check_finite()
        self.train_step_count += 1
        synced = self.train_step_count % self.hyper.target_sync_every == 0
        if synced:
            soft_update(self.target_net, self.q_net, 1.0)
        return TrainStats(critic_losses=(loss,), targets_updated=synced)

    def policy_net(self) -> Mlp:
        return self.q_net

    def load_policy(self, net: Mlp) -> None:
        if net.layer_sizes != self.q_net.layer_sizes or net.output_activation != "linear":
            raise ValidationError("loaded network does not match the value-net architecture")
        self.q_net = net
        self.target_net = net.copy()


class BaseKScheduler:
    """Non-learning allocator: static initial requests, or a threshold rule.

    Threshold mode nudges each allocation by +/-20 percent when measured
    utilization leaves the [0.3, 0.8] band; static mode ignores the input
    entirely.
    """

    kind = "basek"
    trainable = False
    step_frac = 0.2
    high_util = 0.8
    low_util = 0.3

    def __init__(self, initial: ActionVector, mode: str = "static"):
        if mode not in BASEK_MODES:
            raise ValidationError(f"unknown baseline mode {mode!r}")
        self.initial = initial
        self.mode = mode

    def act(self, obs: StateVector, raw: RawMetrics, t: int, explore: bool,
            rng: np.random.Generator) -> ActionVector:
        if self.mode == "static":
            return self.initial
        rows = raw._block
        alloc = rows[..., 1:4:2, :].copy()  # rows: cpu, mem
        util = rows[..., 0:4:2, :] / alloc
        np.multiply(alloc, 1.0 + self.step_frac, out=alloc, where=util > self.high_util)
        np.multiply(alloc, 1.0 - self.step_frac, out=alloc, where=util < self.low_util)
        return _adopt(ActionVector, alloc)

    def learn(self, buffer: ReplayBuffer, rng: np.random.Generator) -> TrainStats:
        return TrainStats(skipped=True)


def build_agent(kind: str, n_services: int, init_rng: np.random.Generator,
                td3: Td3Hyper | None = None, dqn: DqnHyper | None = None,
                initial_action: ActionVector | None = None,
                basek_mode: str = "static"):
    """Construct any of the four policies behind the common interface."""
    if kind == "td3":
        return Td3Agent(n_services, td3 or Td3Hyper(), init_rng)
    if kind == "ddpg":
        return DdpgAgent(n_services, td3 or Td3Hyper(), init_rng)
    if kind == "dqn":
        return DqnAgent(n_services, dqn or DqnHyper(), init_rng)
    if kind == "basek":
        if initial_action is None:
            raise ValidationError("baseline scheduler needs the initial allocation")
        return BaseKScheduler(initial_action, mode=basek_mode)
    raise ValidationError(f"unknown agent kind {kind!r}; expected one of {AGENT_KINDS}")
