"""Desk-scale training demonstrations.

Two demos live here:

* a tabular categorical policy over a synthetic function-calling task,
  optimized by the group-relative policy gradient at importance ratio 1
  against the real reward pipeline (the policy renders template text, the
  scorer parses it);
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
from .grpo import (GrpoConfig, check_finite_real, check_group, standardize_advantages,
                   token_terms)
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
        if self.beta < 0:
            raise ValueError("beta must be non-negative")

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
        rows = zip(self.mean_reward, self.mean_entropy, self.filtered_fraction)
        lines = [f"{it},{r!r},{h!r},{f!r}\n" for it, (r, h, f) in enumerate(rows)]
        Path(path).write_text("iteration,mean_reward,mean_entropy,filtered_fraction\n"
                              + "".join(lines), encoding="utf-8")


@dataclass(eq=False)  # one per drawn path: the update keys members by identity
class Trajectory:
    decisions: list[tuple[tuple, int]]  # (slot, action) pairs, in draw order
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
    normalised cumsum, ``z - logsumexp(z)``, ``dv.entropy``); ``mean_entropy``
    is ``np.add.reduce`` of the slots' entropies in table order over their
    count: the sum and the IEEE division of ``np.mean``, so its bits, without
    its per-call cost on a short list. All are taken when the view is built, so
    tables edited in place later leave them as they were; each prompt's CDF
    lists (``bind``) are bound once per view. Given ``previous``, a view of the
    same tables before the slots in ``changed`` were edited, only those slots
    are derived and the rest are taken from it, which equals a fresh view bit
    for bit. A table holding inf or NaN raises ``ValueError``.
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
        entropies = [row[3] for row in self._rows.values()]
        self.mean_entropy = float(np.add.reduce(entropies)) / len(entropies)
        self._bound: dict[str, tuple] = {}

    def bind(self, prompt_id: str, arg_slots: list[list[tuple]]) -> tuple[list, list]:
        """A prompt's function CDF and its ``arg_slots``' CDFs, bound once per view."""
        if prompt_id not in self._bound:
            self._bound[prompt_id] = self.cdf((prompt_id, "fn")), [
                [self.cdf(slot) for slot in slots] for slots in arg_slots]
        return self._bound[prompt_id]

    def probs(self, slot: tuple) -> list[float]:
        return self._rows[slot][0]

    def cdf(self, slot: tuple) -> list[float]:
        """The normalised cumsum of ``probs(slot)``, as ``Generator.choice`` builds it."""
        return self._rows[slot][1]

    def logps(self, decisions: Iterable[tuple[tuple, int]]) -> np.ndarray:
        """Per-decision log-probabilities of ``(slot, action)`` pairs."""
        return np.array([self._rows[slot][2][action] for slot, action in decisions])


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
        decisions = [((prompt_id, "fn"), fn), *zip(policy.arg_slots[prompt_id][fn], values)]
        arguments = {slot[3]: value for slot, action in decisions[1:]
                     if (value := policy.actions[slot][action]) is not OMIT}
        call = ToolCall(policy.actions[prompt_id, "fn"][fn], arguments)
        text = render_call_text("select the matching tool", [call])
        graded = total_reward(text, task.prompt(prompt_id).ground_truth,
                              task.schema).total
        reward = graded if reward_mode == "sim" else (1.0 if graded == 1.0 else -1.0)
        path = paths[prompt_id, actions] = Trajectory(
            decisions, text, reward, graded, policy.ref_view.logps(decisions))
    return path


@dataclass
class DrawnGroup:
    """One prompt's sampled paths, in draw order, and the view they were drawn from."""

    view: SlotView
    trajectories: list[Trajectory]


def sample_group(policy: ToyPolicy, prompt_id: str, group_size: int, reward_mode: str,
                 paths: dict, view: SlotView, uniforms: Iterator[float]) -> DrawnGroup:
    """``group_size`` paths for ``prompt_id``, drawn by ``ToyPolicy.sample_paths``
    from ``view``, a view of ``policy.tables`` that the group names, and from
    ``uniforms``, which the caller keeps across calls (a run keeps one
    ``uniform_stream``). ``paths`` memoises each distinct path (see ``_path``),
    so a repeated draw costs only its random numbers.
    """
    return DrawnGroup(view, [
        paths.get((prompt_id, actions))
        or _path(policy.task, policy, prompt_id, actions, reward_mode, paths)
        for actions in policy.sample_paths(prompt_id, group_size, uniforms, view)])


def objective_and_gradient(samples: list[tuple[DrawnGroup, np.ndarray]], beta: float
                           ) -> dict[tuple, np.ndarray]:
    """Exact slot-table gradient of the mean group-relative objective at the
    table state the minibatch was drawn from, where every importance ratio is 1.

    ``samples`` pairs each drawn group with its members' advantages. Each
    token adds c * (onehot(action) - softmax(z)) to its slot's gradient, c its
    ``grpo.token_terms`` derivative over n_groups * G * T_i, all from one call
    in member and token order, with ``logp`` read once per distinct path from
    the one view all groups were drawn from (else ``ValueError``). Each touched
    slot, in first-touch order, collects its tokens' (c, action) terms in that
    order; each entry j of its gradient then starts at 0.0 and takes, term by
    term, ``g -= c * p_j`` and, where the action is j, ``g += c``: the IEEE
    operations of a per-token numpy loop, with no list built per token.
    """
    if not samples:
        return {}
    cfg, view, n_groups = GrpoConfig(beta=beta), samples[0][0].view, len(samples)
    logps: dict[Trajectory, np.ndarray] = {}  # each distinct path's, from the view
    members, advantages, scales = [], [], []  # and each token's A and divisor, in order
    for group, group_advantages in samples:
        if group.view is not view:
            raise ValueError("the batch's groups were drawn from different views")
        size = len(group.trajectories)
        for traj, adv in zip(group.trajectories,
                             check_group(size, group_advantages).tolist()):
            if traj not in logps:
                logps[traj] = view.logps(traj.decisions)
                if logps[traj].shape != traj.logp_ref.shape:
                    raise ValueError("log-prob arrays must be 1-d and equally sized")
            members.append(traj)
            advantages += [adv] * len(traj.decisions)
            scales += [n_groups * size * len(traj.decisions)] * len(traj.decisions)
    logp = np.concatenate([logps[traj] for traj in members])
    logp_ref = np.concatenate([traj.logp_ref for traj in members])
    if not np.isfinite(logp_ref).all():
        raise ValueError("log-probabilities must be finite")
    coefs = token_terms(logp, logp, logp_ref, np.array(advantages), cfg)[1] / scales
    terms: dict[tuple, list] = {}  # each touched slot's (coef, action), in first-touch order
    for (slot, action), coef in zip(chain.from_iterable(traj.decisions for traj in members),
                                    coefs.tolist()):
        terms.setdefault(slot, []).append((coef, action))
    grads = {}
    for slot, slot_terms in terms.items():
        grad = []
        for j, p in enumerate(view.probs(slot)):
            g = 0.0
            for coef, action in slot_terms:
                g -= coef * p
                if action == j:
                    g += coef
            grad.append(g)
        grads[slot] = np.array(grad)
    return grads


def _advantages(rewards: np.ndarray, memo: dict) -> np.ndarray:
    """Standardized ``rewards``, memoised in ``memo`` by their bytes."""
    key = rewards.tobytes()
    if key not in memo:
        memo[key] = standardize_advantages(rewards)
    return memo[key]


def train_sim_rl(task: ToyTask, cfg: ToyTrainConfig, iterations: int,
                 seed: int) -> tuple[ToyPolicy, TrainLog]:
    """Optimize a fresh tabular policy with one plain ascent step per batch.

    Each iteration samples one group per prompt from a single sequential
    seeded generator, drops homogeneous groups (or, unfiltered, gives them zero
    advantages), standardizes the other rewards, and ascends the group-relative
    objective once, from the view the batch was sampled from: every ratio is 1,
    so no clip range is needed and none is a setting of the trainer. Identical
    (task, cfg, seed) reproduce the log exactly. The run reads its generator's
    doubles through one ``uniform_stream``, and keeps one path memo and one
    ``SlotView`` per table state, i.e. until an update, whose mean entropy it
    logs and whose log-probabilities the update takes. A group is homogeneous
    when Python's ``max`` and ``min`` of its finite rewards agree, as numpy's
    would; only a kept group's rewards become an array (``_advantages``). The
    mean reward is ``np.mean``'s bits, taken as ``SlotView.mean_entropy`` is.
    """
    _check_count("iterations", iterations, 0)
    policy, uniforms = ToyPolicy(task), uniform_stream(np.random.default_rng(seed))
    log, paths, view, advantages = TrainLog(), {}, SlotView(policy.tables), {}
    for _ in range(iterations):
        graded, samples = [], []
        for prompt in task.prompts:
            group = sample_group(policy, prompt.prompt_id, cfg.group_size,
                                 cfg.reward_mode, paths, view, uniforms)
            graded.extend(t.graded_reward for t in group.trajectories)
            rewards = [t.reward for t in group.trajectories]
            if max(rewards) != min(rewards):
                samples.append((group, _advantages(np.array(rewards), advantages)))
            elif not cfg.filter_groups:  # no advantage signal
                samples.append((group, np.zeros(len(rewards))))
        if samples:
            grads = objective_and_gradient(samples, cfg.beta)
            for key, grad in grads.items():
                policy.tables[key] += cfg.learning_rate * grad
            view = SlotView(policy.tables, view, grads)
        log.mean_reward.append(float(np.add.reduce(graded)) / len(graded))
        log.mean_entropy.append(view.mean_entropy)
        log.filtered_fraction.append(1.0 - len(samples) / len(task.prompts))
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
    escape, ent = np.zeros(steps + 1), np.zeros(steps + 1)
    loss = dv.LOSSES[loss_kind]
    # one block of stacked teachers when all share k, else each position's own
    if len({t.k for t in teachers}) == 1:
        blocks = [(logits, dv.TopKRows(np.stack([t.indices for t in teachers]),
                                       np.stack([t.probs for t in teachers])))]
    else:
        blocks = [(logits[r:r + 1], t.rows) for r, t in enumerate(teachers)]

    for step in range(steps + 1):
        escapes, entropies = [], []
        for block, teacher in blocks:  # each block a view of its rows of logits
            # aux holds the softmax statistics of the logits before this step
            report = loss.rows(teacher, block, m, lambda_tail)
            if step < steps:
                block -= step_size * report.grad
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
