"""Desk-scale training demonstrations.

Two demos live here:

* a tabular categorical policy over a synthetic function-calling task,
  optimized with the clipped group-relative objective against the real
  reward pipeline (the policy renders template text, the scorer parses it);
* a distillation-dynamics fit of free student logits against fixed teacher
  top-k distributions, tracking escape mass and entropy per step.

The policy emits structurally valid template text by construction, so its
format reward is always 1 and the learning signal varies only through the
answer term. One decision trajectory is: choose a function, then for each of
its parameters choose a domain value (or the explicit omit action when the
parameter is optional). The log-probability of a trajectory is the sum of
the chosen slots' log-softmax entries, which makes the objective gradient
with respect to the slot tables exact.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from . import divergence as dv
from .chat_format import ToolCall
from .grpo import (
    GrpoConfig,
    LengthMismatch,
    Rollout,
    RolloutGroup,
    check_finite_real,
    filter_homogeneous,
    standardize_advantages,
)
from .reward import total_reward
from .toy_task import ToyTask, render_call_text

OMIT = "<omit>"


def _check_count(name: str, value: Any, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, not a bool, >= ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer of at least {least}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ToyTrainConfig:
    group_size: int = 8
    learning_rate: float = 2.0
    beta: float = 1e-3
    filter_groups: bool = True
    reward_mode: str = "sim"  # "sim" or "binary"

    def __post_init__(self):
        _check_count("group_size", self.group_size, 2)
        for name in ("learning_rate", "beta"):
            check_finite_real(name, getattr(self, name))
        if not isinstance(self.filter_groups, bool):
            raise ValueError(f"filter_groups must be a bool, got {self.filter_groups!r}")
        if self.reward_mode not in ("sim", "binary"):
            raise ValueError("reward_mode must be 'sim' or 'binary'")
        # built here so that its range checks surface with the config's own; the
        # clip range keeps its default, which cannot act (see ``train_sim_rl``)
        object.__setattr__(self, "_grpo", GrpoConfig(beta=self.beta))

    def grpo(self) -> GrpoConfig:
        return self._grpo

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ToyTrainConfig":
        unknown = sorted(repr(key) for key in set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


@dataclass
class TrainLog:
    """Per-iteration curves; mean_reward is always on the graded scale."""

    mean_reward: list[float] = field(default_factory=list)
    mean_entropy: list[float] = field(default_factory=list)
    filtered_fraction: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.mean_reward)

    def trailing_mean_reward(self, window: int = 50) -> float:
        _check_count("window", window, 1)  # [-0:] would be the whole log
        tail = self.mean_reward[-window:]
        return float(np.mean(tail)) if tail else float("nan")

    def to_csv(self, path: str | Path) -> None:
        lines = ["iteration,mean_reward,mean_entropy,filtered_fraction"]
        for it, (r, h, f) in enumerate(zip(self.mean_reward, self.mean_entropy,
                                           self.filtered_fraction)):
            lines.append(f"{it},{r!r},{h!r},{f!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Decision:
    slot: tuple
    action: int


@dataclass(eq=False)  # hashed by identity, as ``SlotView.rollouts`` keys it
class Trajectory:
    decisions: list[Decision]
    text: str
    reward: float            # training reward (graded or binary)
    graded_reward: float     # graded reward regardless of mode
    logp_ref: np.ndarray     # per-decision log-probabilities of the reference tables


class ToyPolicy:
    """Dense per-prompt logit tables over the task's decision slots.

    Slot keys are ``(prompt_id, "fn")`` for the function choice and
    ``(prompt_id, "arg", function_name, param_name)`` for each value choice.
    ``actions`` holds each slot's action tuple, built here once: the function
    names, or the domain values and, for an optional parameter, OMIT. A task
    edited after the policy is built no longer changes what it renders.
    Tables start at zero (a uniform policy); the initial tables are kept as
    the frozen reference for the KL penalty, with one view of them.
    """

    def __init__(self, task: ToyTask):
        self.task = task
        functions = task.schema.functions
        names = tuple(f.name for f in functions)
        values = [(*task.domains[f.name][pname], *((OMIT,) if spec.has_default else ()))
                  for f in functions for pname, spec in f.parameters.items()]
        self.actions: dict[tuple, tuple] = {}
        self.arg_slots: dict[str, list[list[tuple]]] = {}  # [prompt][function index]
        for prompt in task.prompts:
            pid = prompt.prompt_id
            self.actions[pid, "fn"] = names
            self.arg_slots[pid] = [[(pid, "arg", f.name, pname) for pname in f.parameters]
                                   for f in functions]
            self.actions.update(zip(chain.from_iterable(self.arg_slots[pid]), values))
        self.tables = {slot: np.zeros(len(acts)) for slot, acts in self.actions.items()}
        self.ref_tables = {k: v.copy() for k, v in self.tables.items()}
        self.ref_view = SlotView(self.ref_tables)

    def sample_paths(self, prompt_id: str, n: int, uniforms: Iterator[float],
                     view: SlotView) -> list[tuple[int, ...]]:
        """Draw ``n`` paths' actions from ``view``, a view of ``self.tables``:
        per path a function index, then a value index for each of its
        parameters. Each decision is ``bisect_right`` of the slot's CDF and the
        next of ``uniforms``, from the prompt's CDF lists as ``view.bind`` gives
        them: the comparisons that ``Generator.choice`` makes with that uniform
        in ``searchsorted(side="right")``."""
        fn_cdf, arg_cdfs = view.bind(prompt_id, self.arg_slots[prompt_id])
        draw, paths = uniforms.__next__, []
        for _ in range(n):
            fn = bisect_right(fn_cdf, draw())
            # map pulls from its arguments in order and stops at the first
            # exhausted one: one uniform per parameter, and none past them
            paths.append((fn, *map(bisect_right, arg_cdfs[fn], uniforms)))
        return paths


class SlotView:
    """Softmax, CDF and log-probabilities of every slot table, and the tables'
    mean softmax entropy, derived in one stacked pass per table size.

    Each is bit-identical to its per-table derivation (``dv.softmax``, its
    normalised cumsum, ``z - logsumexp(z)``, ``dv.entropy``). A view holds only
    while its tables do, and so does what it derives from them: each prompt's
    CDF lists (``bind``) and, in ``rollouts``, the ``Rollout`` of each path
    ``sample_group`` drew from it, by ``Trajectory``. Given ``previous``, a
    view of the same tables before the slots in ``changed`` were edited, only
    those slots are derived and the rest are taken from it; the result equals
    a fresh view bit for bit, and ``mean_entropy`` is still the mean over
    every slot in table order. A table holding inf or NaN raises ``ValueError``.
    """

    def __init__(self, tables: dict[tuple, np.ndarray], previous: SlotView | None = None,
                 changed: Iterable[tuple] = ()):
        self.tables = tables
        if previous is None:
            # slot -> (probs, CDF, logps, entropy), the lists in table order
            self._rows: dict[tuple, tuple] = dict.fromkeys(tables)
            changed = tables
        else:
            self._rows = dict(previous._rows)
        by_size: dict[int, list[tuple]] = {}
        for slot in changed:
            by_size.setdefault(tables[slot].size, []).append(slot)
        for slots in by_size.values():
            z = np.array([tables[slot] for slot in slots])
            m = z.max(axis=1, keepdims=True)
            e = np.exp(z - m)
            s = e.sum(axis=1, keepdims=True)
            probs = e / s
            logp = z - (m + np.log(s))
            if not np.isfinite(logp).all():
                raise ValueError("log-probabilities must be finite")
            cdf = probs.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            self._rows.update(zip(slots, zip(probs.tolist(), cdf.tolist(), logp.tolist(),
                                             dv.entropy_rows(probs).tolist())))
        self.mean_entropy = float(np.mean([row[3] for row in self._rows.values()]))
        self._bound: dict[str, tuple] = {}
        self.rollouts: dict[Trajectory, Rollout] = {}

    def bind(self, prompt_id: str, arg_slots: list[list[tuple]]) -> tuple[list, list]:
        """A prompt's function CDF and its ``arg_slots``' CDFs, bound once per view."""
        if prompt_id not in self._bound:
            self._bound[prompt_id] = self.cdf((prompt_id, "fn")), [
                [self.cdf(slot) for slot in slots] for slots in arg_slots]
        return self._bound[prompt_id]

    def probs(self, slot: tuple) -> list[float]:
        return self._rows[slot][0]

    def cdf(self, slot: tuple) -> list[float]:
        """The normalised cumulative sum of ``probs(slot)``, as ``Generator.choice``
        builds it."""
        return self._rows[slot][1]

    def logps(self, decisions: Iterable[Decision]) -> np.ndarray:
        """Per-decision log-probabilities."""
        return np.array([self._rows[d.slot][2][d.action] for d in decisions])


# Uniforms drawn from the generator per block of a run's stream.
UNIFORM_BLOCK = 1024


def uniform_stream(rng: np.random.Generator) -> Iterator[float]:
    """The doubles that successive ``rng.random()`` calls return, in order,
    drawn ``UNIFORM_BLOCK`` at a time as the last block runs out. The stream
    runs ahead of its reader, so ``rng`` belongs to it once it is read."""
    return chain.from_iterable(map(np.ndarray.tolist,
                                   map(rng.random, repeat(UNIFORM_BLOCK))))


def _path(task: ToyTask, policy: ToyPolicy, prompt_id: str, actions: tuple[int, ...],
          reward_mode: str, paths: dict) -> Trajectory:
    """The path of ``actions`` under ``prompt_id``, memoised in ``paths``.

    Its decisions and text follow from the prompt, the actions and
    ``policy.actions``, its rewards also from the task, and its logp_ref
    from ``policy.ref_view``. A memo serves one policy, task and reward
    mode, and must not outlive the call that built it, since a ``ToyTask``
    may be edited in place.
    """
    path = paths.get((prompt_id, actions))
    if path is None:
        fn, *values = actions
        decisions = [Decision((prompt_id, "fn"), fn),
                     *map(Decision, policy.arg_slots[prompt_id][fn], values)]
        arguments = {d.slot[3]: value for d in decisions[1:]
                     if (value := policy.actions[d.slot][d.action]) is not OMIT}
        call = ToolCall(policy.actions[prompt_id, "fn"][fn], arguments)
        text = render_call_text("select the matching tool", [call])
        graded = total_reward(text, task.prompt(prompt_id).ground_truth,
                              task.schema).total
        reward = graded if reward_mode == "sim" else (1.0 if graded == 1.0 else -1.0)
        path = paths[prompt_id, actions] = Trajectory(
            decisions, text, reward, graded, policy.ref_view.logps(decisions))
    return path


def sample_group(policy: ToyPolicy, prompt_id: str, group_size: int,
                 rng: np.random.Generator, reward_mode: str = "sim",
                 paths: dict | None = None, view: SlotView | None = None,
                 uniforms: Iterator[float] | None = None
                 ) -> tuple[RolloutGroup, list[Trajectory]]:
    """Sample a rollout group and keep the decision paths for the update.

    At sampling time logp_old equals logp_new; logp_ref comes from the frozen
    initial tables. The members are drawn by ``ToyPolicy.sample_paths`` from
    ``uniforms``, a ``uniform_stream`` of ``rng`` that the caller keeps across
    calls, or from one ``rng.random()`` call per decision when None. ``paths``
    memoises each distinct path (see ``_path``) and ``view.rollouts`` its
    ``Rollout`` under ``view``, so a repeated draw costs only its random
    numbers. ``paths`` and ``view`` are fresh for the call when None.
    """
    paths = {} if paths is None else paths
    view = SlotView(policy.tables) if view is None else view
    # a callable iterator: rng.random() never returns the sentinel
    uniforms = iter(rng.random, None) if uniforms is None else uniforms
    group, trajectories = RolloutGroup(prompt_id), []
    for actions in policy.sample_paths(prompt_id, group_size, uniforms, view):
        path = paths.get((prompt_id, actions)) or \
            _path(policy.task, policy, prompt_id, actions, reward_mode, paths)
        if (rollout := view.rollouts.get(path)) is None:
            logp = view.logps(path.decisions)
            rollout = view.rollouts[path] = Rollout(
                logp_new=logp, logp_old=logp.copy(), logp_ref=path.logp_ref,
                reward=path.reward)
        group.rollouts.append(rollout)
        trajectories.append(path)
    return group, trajectories


@dataclass
class GroupSample:
    group: RolloutGroup
    trajectories: list[Trajectory]
    advantages: np.ndarray


def objective_and_gradient(policy: ToyPolicy, samples: list[GroupSample],
                           cfg: GrpoConfig, view: SlotView | None = None
                           ) -> tuple[float, dict[tuple, np.ndarray]]:
    """Mean clipped objective over groups and its exact slot-table gradient.

    Each token's contribution to the gradient of the objective J with respect
    to its slot logits z is

        c * (onehot(action) - softmax(z)),
        c = (A * r * [unclipped branch active] - beta * (logp_new - logp_ref))
            / (n_groups * G * T_i)

    where the unclipped branch of min(r*A, clip(r)*A) is active for A >= 0
    when r <= 1 + eps and for A < 0 when r >= 1 - eps.

    ``view`` is a view of ``policy.tables``, fresh when None. Each distinct
    member (its trajectory and rollout, its advantage's bits, as 0.0 ==
    -0.0, and its group size) takes its ratios, KL gaps, token coefficients
    and value term once, in Python floats.
    Each touched slot's (coefficient, action) terms are folded into its
    gradient once at the end, in member and token order: the IEEE operations
    of a per-token numpy loop. The value is the mean of ``grpo_objective`` over
    the groups up to rounding. The gradient holds only the touched slots.
    """
    view = SlotView(policy.tables) if view is None else view
    lo, hi = 1.0 - cfg.epsilon, 1.0 + cfg.epsilon
    members: dict = {}  # (value term, [(slot, (coef, action))]) per distinct member
    folds: dict[tuple, list] = {}  # the (coef, action) terms of each touched slot
    value, n_groups = 0.0, len(samples)
    for sample in samples:
        advantages = np.asarray(sample.advantages, dtype=np.float64)
        size, group_value = sample.group.size, 0.0
        if not size:
            raise ValueError("a group needs at least one rollout")
        if advantages.shape != (size,):
            raise LengthMismatch(f"{advantages.size} advantages for {size} rollouts")
        if len(sample.trajectories) != size:
            raise LengthMismatch(
                f"{len(sample.trajectories)} trajectories for {size} rollouts")
        for traj, rollout, adv, bits in zip(sample.trajectories, sample.group.rollouts,
                                            advantages.tolist(),
                                            advantages.view(np.int64).tolist()):
            key = id(traj), id(rollout), bits, size
            if (member := members.get(key)) is None:
                logp_new = view.logps(traj.decisions)
                if not logp_new.shape == rollout.logp_old.shape == rollout.logp_ref.shape:
                    raise ValueError("log-prob arrays must be 1-d and equally sized")
                gaps = logp_new - np.array((rollout.logp_old, rollout.logp_ref))
                if not np.isfinite(gaps).all():
                    raise ValueError("log-probabilities must be finite")
                ratios, gaps = np.exp(gaps[0]).tolist(), gaps[1].tolist()
                tokens, member_value, token_terms = len(ratios), 0.0, []
                for decision, r, gap in zip(traj.decisions, ratios, gaps):
                    # a running sum: from Python 3.12 the builtin sum() compensates
                    member_value += min(r * adv, min(max(r, lo), hi) * adv) \
                        - cfg.beta * (0.5 * gap * gap)
                    active = (adv >= 0 and r <= hi) or (adv < 0 and r >= lo)
                    coef = (adv * r if active else 0.0) - cfg.beta * gap
                    coef /= n_groups * size * tokens
                    token_terms.append((decision.slot, (coef, decision.action)))
                member = members[key] = member_value / tokens, token_terms
            group_value += member[0]
            for slot, term in member[1]:
                folds.setdefault(slot, []).append(term)
        value += group_value / size / n_groups
    grads = {}
    for slot, slot_terms in folds.items():
        probs = view.probs(slot)
        grad = [0.0] * len(probs)
        for coef, action in slot_terms:
            grad = [g - coef * p for g, p in zip(grad, probs)]
            grad[action] += coef
        grads[slot] = np.array(grad)
    return value, grads


def _advantages(rewards: np.ndarray, memo: dict) -> np.ndarray:
    """Standardized ``rewards``, memoised in ``memo`` by their bytes. An
    unfiltered homogeneous group has no advantage signal and gets zeros."""
    key = rewards.tobytes()
    if key not in memo:
        memo[key] = standardize_advantages(rewards) if rewards.max() != rewards.min() \
            else np.zeros(rewards.size)
    return memo[key]


def train_sim_rl(task: ToyTask, cfg: ToyTrainConfig, iterations: int,
                 seed: int) -> tuple[ToyPolicy, TrainLog]:
    """Optimize a fresh tabular policy with one plain ascent step per batch.

    Each iteration samples one group per prompt from a single sequential
    seeded generator, drops homogeneous groups, standardizes the surviving
    rewards, and ascends the clipped objective once, from the view the batch
    was sampled from: every ratio is 1, so the clip range cannot act and is
    no setting of the trainer. Identical (task, cfg, seed) reproduce the log
    exactly. The run reads its generator's doubles through one
    ``uniform_stream``, and keeps one path memo and one ``SlotView`` per table
    state, i.e. until an update, whose mean entropy it logs and whose
    probabilities the update takes. The next view re-derives only the tables
    the update touched. Each distinct reward vector is standardized once per
    run (see ``_advantages``).
    """
    _check_count("iterations", iterations, 0)
    rng, policy, grpo_cfg = np.random.default_rng(seed), ToyPolicy(task), cfg.grpo()
    uniforms = uniform_stream(rng)
    log, paths, view, advantages = TrainLog(), {}, SlotView(policy.tables), {}
    for _ in range(iterations):
        graded, groups, by_id = [], [], {}
        for prompt in task.prompts:
            group, trajectories = sample_group(policy, prompt.prompt_id,
                                               cfg.group_size, rng, cfg.reward_mode,
                                               paths, view, uniforms)
            graded.extend(t.graded_reward for t in trajectories)
            groups.append(group)
            by_id[prompt.prompt_id] = trajectories
        survivors = filter_homogeneous(groups) if cfg.filter_groups else groups
        samples = [GroupSample(group, by_id[group.prompt_id],
                               _advantages(group.rewards(), advantages))
                   for group in survivors]
        if samples:
            _, grads = objective_and_gradient(policy, samples, grpo_cfg, view)
            for key, grad in grads.items():
                policy.tables[key] += cfg.learning_rate * grad
            view = SlotView(policy.tables, view, grads)
        log.mean_reward.append(float(np.mean(graded)))
        log.mean_entropy.append(view.mean_entropy)
        log.filtered_fraction.append(1.0 - len(survivors) / len(groups))
    return policy, log


def evaluate_policy(policy: ToyPolicy, task: ToyTask, samples_per_prompt: int,
                    seed: int) -> float:
    """Mean graded reward of freshly sampled trajectories, drawn as
    ``sample_group`` draws them from one ``uniform_stream``."""
    _check_count("samples_per_prompt", samples_per_prompt, 1)
    uniforms = uniform_stream(np.random.default_rng(seed))
    view, paths = SlotView(policy.tables), {}
    graded = [_path(task, policy, prompt.prompt_id, actions, "sim", paths).graded_reward
              for prompt in task.prompts
              for actions in policy.sample_paths(prompt.prompt_id, samples_per_prompt,
                                                 uniforms, view)]
    return float(np.mean(graded))


# --- distillation-dynamics demo ---------------------------------------------

@dataclass
class KdCurves:
    """Step-indexed means over positions; index 0 is the initial state."""

    escape_mass: np.ndarray
    entropy: np.ndarray


def adversarial_teacher_family(positions: int = 8, vocab_size: int = 32,
                               k: int = 4, seed: int = 7) -> list[dv.TopKDistribution]:
    """Teacher tops that trip the masked reverse KL.

    Each position concentrates mass on one token but keeps a near-zero
    probability on its k-th entry; the masked objective then pays to move
    student mass outside the top-k set entirely.
    """
    if not 2 <= k <= vocab_size:
        raise ValueError("need 2 <= k <= vocab_size")
    middle = np.full(k - 2, 0.08 / (k - 2)) if k > 2 else np.empty(0)
    profile = np.concatenate([[0.90], middle, [0.0005]])
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(positions):
        idx = rng.choice(vocab_size, size=k, replace=False)
        family.append(dv.TopKDistribution(indices=idx, probs=profile.copy()))
    return family


def kd_fit(teachers: list[dv.TopKDistribution], loss_kind: str, steps: int,
           step_size: float, seed: int, vocab_size: int = 32, m: int = 8,
           lambda_tail: float = dv.DEFAULT_LAMBDA_TAIL) -> KdCurves:
    """Gradient-descend student logits against fixed teachers.

    Students start from seeded standard-normal logits, one row per teacher
    position; curves record the position means of escape mass (student
    probability outside the teacher's top-k) and entropy, each point from the
    ``aux`` of a kernel call, so ``steps=0`` still runs the kernel's checks.
    """
    if loss_kind not in dv.KD_LOSS_KINDS:
        raise ValueError(
            f"unknown loss kind '{loss_kind}', expected one of {dv.KD_LOSS_KINDS}")
    _check_count("steps", steps, 0)
    check_finite_real("step_size", step_size)
    if not teachers:
        raise ValueError("kd_fit needs at least one teacher position")
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(len(teachers), vocab_size))
    escape = np.zeros(steps + 1)
    ent = np.zeros(steps + 1)
    loss = dv.LOSSES[loss_kind]
    # one block of stacked teachers when all share k, else each position's own
    if len({t.k for t in teachers}) == 1:
        blocks = [(slice(None), dv.TopKRows(np.stack([t.indices for t in teachers]),
                                            np.stack([t.probs for t in teachers])))]
    else:
        blocks = [(slice(r, r + 1), t.rows) for r, t in enumerate(teachers)]

    for step in range(steps + 1):
        escapes, entropies = [], []
        for rows, teacher in blocks:
            # aux holds the softmax statistics of the logits before this step
            report = loss.rows(teacher, logits[rows], m, lambda_tail)
            if step < steps:
                logits[rows] -= step_size * report.grad
            escapes += report.aux["escape_mass"].tolist()
            entropies += report.aux["entropy"].tolist()
        # a running sum left to right: from Python 3.12 the builtin sum()
        # compensates rounding, which would change the curves
        escape[step] = reduce(add, escapes, 0.0) / len(escapes)
        ent[step] = reduce(add, entropies, 0.0) / len(entropies)
    return KdCurves(escape_mass=escape, entropy=ent)


def collapse_witness() -> tuple[dv.TopKDistribution, np.ndarray, int]:
    """Frozen three-token instance where the masked reverse KL inverts.

    The teacher endorses tokens {0, 1} (k=2) with a tiny probability on
    token 1; the student is confidently wrong on token 2 (its top-1 set,
    m=1). Under the masked reverse KL the teacher-endorsed logit 1 receives a
    larger gradient than the confident-but-wrong logit 2, i.e. descent pushes
    the endorsed token down while raising the wrong one. The tail penalty in
    the stabilized reverse KL and in the constrained forward-KL loss restores
    grad(wrong) > grad(endorsed).
    """
    teacher = dv.TopKDistribution(indices=np.array([0, 1]),
                                  probs=np.array([0.98, 0.015]))
    student_logits = np.log(np.array([0.1, 0.1, 0.8]))
    return teacher, student_logits, 1
