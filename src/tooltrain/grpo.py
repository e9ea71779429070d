"""Group-relative advantage computation and the clipped surrogate objective.

A rollout group is the G sampled responses for one prompt. Advantages are the
group rewards standardized with the population standard deviation, so a
zero-variance (homogeneous) group carries no learning signal and is dropped
rather than smoothed. The objective is the clipped importance-weighted
surrogate with a ``0.5 * (log pi - log pi_ref)**2`` KL penalty per token,
averaged per rollout over its tokens and then over the group.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class ZeroVariance(ValueError):
    """All rewards in the group are equal; the group should have been filtered."""


class LengthMismatch(ValueError):
    """Advantage count disagrees with the rollout count."""


def check_finite_real(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number, not a bool, within
    the finite float range (so NaN, infinities and an int such as 10**400 fail)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class GrpoConfig:
    epsilon: float = 0.2
    beta: float = 1e-3

    def __post_init__(self):
        for name in ("epsilon", "beta"):
            check_finite_real(name, getattr(self, name))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass
class Rollout:
    """Per-token log-probabilities (current, behavior, reference) and reward."""

    logp_new: np.ndarray
    logp_old: np.ndarray
    logp_ref: np.ndarray
    reward: float

    def __post_init__(self):
        self.logp_new = np.asarray(self.logp_new, dtype=np.float64)
        self.logp_old = np.asarray(self.logp_old, dtype=np.float64)
        self.logp_ref = np.asarray(self.logp_ref, dtype=np.float64)
        shapes = {self.logp_new.shape, self.logp_old.shape, self.logp_ref.shape}
        if len(shapes) != 1 or self.logp_new.ndim != 1:
            raise ValueError("log-prob arrays must be 1-d and equally sized")
        if self.logp_new.size == 0:
            raise ValueError("rollout must contain at least one token")
        if not np.isfinite((self.logp_new, self.logp_old, self.logp_ref)).all():
            raise ValueError("log-probabilities must be finite")


@dataclass
class RolloutGroup:
    prompt_id: str
    rollouts: list[Rollout] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.rollouts)

    def rewards(self) -> np.ndarray:
        return np.array([r.reward for r in self.rollouts], dtype=np.float64)


def standardize_advantages(rewards: Iterable[float]) -> np.ndarray:
    """(R_i - mean) / std with the population standard deviation.

    The output has mean zero and population standard deviation one; e.g.
    rewards [1, 0, 0, 1] standardize to [1, -1, -1, 1] exactly.
    """
    rewards = np.asarray(list(rewards), dtype=np.float64)
    if rewards.size < 2:
        raise ValueError("advantage standardization needs at least two rewards")
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(rewards.std())  # population: divide by G
    # max == min is the homogeneity rule of ``filter_homogeneous``: the float
    # std of equal rewards such as 0.7 can be ~1e-16 rather than zero
    if rewards.max() == rewards.min() or std == 0.0:
        raise ZeroVariance(f"all {rewards.size} rewards equal {rewards[0]}")
    if not np.isfinite(std):  # e.g. [1e308, -1e308] or a non-finite reward
        raise ValueError("reward spread overflows float64")
    return (rewards - rewards.mean()) / std


def filter_homogeneous(groups: Iterable[RolloutGroup]) -> list[RolloutGroup]:
    """Drop zero-reward-variance groups, preserving the order of survivors.

    A group is kept when some reward differs from its first, which for floats
    is ``max != min``; an empty group is dropped, and one holding a NaN is
    kept, since NaN != NaN.
    """
    kept = []
    for group in groups:
        rollouts = group.rollouts
        if rollouts:
            first = rollouts[0].reward
            if any(r.reward != first for r in rollouts):
                kept.append(group)
    return kept


def kl_k2(logp_new, logp_ref):
    """k2 KL estimator: half the squared log-probability gap. Elementwise."""
    diff = np.asarray(logp_new, dtype=np.float64) - np.asarray(logp_ref, dtype=np.float64)
    return 0.5 * diff * diff


def grpo_objective(group: RolloutGroup, advantages: Iterable[float],
                   cfg: GrpoConfig) -> float:
    """Clipped surrogate objective for one group.

    Per token: ratio r = exp(logp_new - logp_old) and
    term = min(r * A, clip(r, 1 - eps, 1 + eps) * A) - beta * k2. Terms are
    averaged over each rollout's tokens, then over the group.
    """
    advantages = np.asarray(list(advantages), dtype=np.float64)
    if not group.size:
        raise ValueError("a group needs at least one rollout")
    if advantages.size != group.size:
        raise LengthMismatch(f"{advantages.size} advantages for {group.size} rollouts")
    rollout_means = np.zeros(group.size)
    for i, rollout in enumerate(group.rollouts):
        ratio = np.exp(rollout.logp_new - rollout.logp_old)
        clipped = np.clip(ratio, 1.0 - cfg.epsilon, 1.0 + cfg.epsilon)
        adv = advantages[i]
        surrogate = np.minimum(ratio * adv, clipped * adv)
        kl = kl_k2(rollout.logp_new, rollout.logp_ref)
        term = surrogate - cfg.beta * kl
        rollout_means[i] = term.mean()
    return float(rollout_means.mean())
