"""Slow exact reference implementations the fast library paths are tested against."""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Any

import numpy as np

import tooltrain.divergence as dv
import tooltrain.toy_trainer as toy_trainer
from tooltrain.chat_format import (
    THINK_CLOSE,
    THINK_OPEN,
    TOOL_CLOSE,
    TOOL_OPEN,
    FormatViolation,
    ParsedGeneration,
    ToolCall,
    _parse_call_payload,
)
from tooltrain.gradcheck import FD_STEP
from tooltrain.grpo import (
    GrpoConfig,
    LengthMismatch,
    Rollout,
    RolloutGroup,
    ZeroVariance,
    grpo_objective,
    kl_k2,
)
from tooltrain.reward import total_reward
from tooltrain.similarity import _is_number
from tooltrain.toy_task import render_call_text


def lcs_length_dp(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, O(|a|*|b|) dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[len(b)]


def rouge_l_f1_dp(pred: str, ref: str) -> float:
    """``rouge_l_f1`` with its LCS from ``lcs_length_dp`` and no cached reference."""
    a, b = pred.lower().split(), ref.lower().split()
    if not a and not b:
        return 1.0
    lcs = lcs_length_dp(a, b)
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(a), lcs / len(b)
    return 2 * precision * recall / (precision + recall)


def canon_nested_recursive(value: Any) -> str:
    """``similarity._canon_nested`` as the recursive renderer it once was: one
    Python frame (and a generator's) per level of nesting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if _is_number(value):
        if isinstance(value, float):
            if value.is_integer():
                return str(int(value))
            return repr(value)
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, list):
        return "[" + ",".join(canon_nested_recursive(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{json.dumps(k)}:{canon_nested_recursive(v)}"
                              for k, v in items) + "}"
    return str(value)


def parse_generation_four_find(raw: str) -> ParsedGeneration:
    """``parse_generation`` as four ``str.find`` scans per tag hit (quadratic)."""
    violations: list[FormatViolation] = []
    think_blocks: list[str] = []
    payloads: list[str] = []
    response_parts: list[str] = []
    think_stray = False

    i = 0
    n = len(raw)
    while i < n:
        hits = [(raw.find(tag, i), tag)
                for tag in (THINK_OPEN, THINK_CLOSE, TOOL_OPEN, TOOL_CLOSE)]
        hits = [(p, tag) for p, tag in hits if p >= 0]
        if not hits:
            response_parts.append(raw[i:])
            break
        pos, tag = min(hits)
        response_parts.append(raw[i:pos])
        if tag == THINK_CLOSE:
            violations.append(FormatViolation(1, "stray </think> without opener"))
            think_stray = True
            response_parts.append(tag)
            i = pos + len(tag)
        elif tag == TOOL_CLOSE:
            violations.append(FormatViolation(2, "stray </tool_call> without opener"))
            response_parts.append(tag)
            i = pos + len(tag)
        elif tag == THINK_OPEN:
            start = pos + len(tag)
            end = raw.find(THINK_CLOSE, start)
            if end < 0:
                violations.append(FormatViolation(1, "unclosed <think> tag"))
                think_stray = True
                response_parts.append(raw[pos:])
                break
            think_blocks.append(raw[start:end])
            i = end + len(THINK_CLOSE)
        else:  # TOOL_OPEN
            start = pos + len(tag)
            end = raw.find(TOOL_CLOSE, start)
            if end < 0:
                violations.append(FormatViolation(2, "unclosed <tool_call> tag"))
                response_parts.append(raw[pos:])
                break
            payloads.append(raw[start:end])
            i = end + len(TOOL_CLOSE)

    if not think_stray and len(think_blocks) != 1:
        violations.append(FormatViolation(
            1, f"expected exactly one think block, found {len(think_blocks)}"))

    tool_calls: list[ToolCall] = []
    for idx, payload in enumerate(payloads):
        call, error = _parse_call_payload(payload)
        if call is not None:
            tool_calls.append(call)
        else:
            violations.append(FormatViolation(3, f"tool_call block {idx}: {error}"))

    return ParsedGeneration(
        think=think_blocks[0] if think_blocks else None,
        tool_calls=tool_calls,
        response_text="".join(response_parts).strip(),
        raw_errors=violations,
    )


class RecomputingSlotView:
    """``toy_trainer.SlotView`` that derives everything afresh on every use:
    a softmax and ``Generator.choice`` per draw, a softmax and cumsum per CDF,
    a softmax per gradient token, a log-normaliser per decision, a softmax
    per table for the entropy and a CDF per slot on every ``bind``. It ignores
    a previous view."""

    def __init__(self, tables, previous=None, changed=()):
        self.tables = tables

    @property
    def mean_entropy(self):
        return mean_entropy_per_table(self.tables)

    def probs(self, slot):
        return dv.softmax(self.tables[slot])

    def cdf(self, slot):
        cdf = dv.softmax(self.tables[slot]).cumsum()
        return (cdf / cdf[-1]).tolist()

    def bind(self, prompt_id, arg_slots):
        return self.cdf((prompt_id, "fn")), [[self.cdf(slot) for slot in slots]
                                             for slots in arg_slots]

    def draw(self, slot, rng):
        probs = dv.softmax(self.tables[slot])
        return int(rng.choice(probs.size, p=probs))

    def logps(self, decisions):
        out = []
        for slot, action in decisions:
            z = self.tables[slot]
            m = z.max()
            out.append(z[action] - float(m + np.log(np.exp(z - m).sum())))
        return np.array(out, dtype=np.float64)


def draw_action(view, slot, rng):
    """One action at ``slot``: ``view.draw`` on a ``RecomputingSlotView``, and on
    a ``toy_trainer.SlotView`` the same draw as ``rng.choice(size,
    p=view.probs(slot))`` from its CDF: ``bisect_right`` makes the comparisons
    of ``searchsorted(side="right")``."""
    if isinstance(view, RecomputingSlotView):
        return view.draw(slot, rng)
    return bisect_right(view.cdf(slot), rng.random())


def central_difference(loss_fn, z, step=FD_STEP):
    """Two-sided difference quotient of a scalar function, one coordinate at a
    time: ``gradcheck.central_differences`` with a loss call per probe."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    for j in range(z.size):
        zp = z.copy()
        zp[j] += step
        zm = z.copy()
        zm[j] -= step
        grad[j] = (loss_fn(zp) - loss_fn(zm)) / (2.0 * step)
    return grad


def topk_indices_argsort(p: np.ndarray, k: int) -> np.ndarray:
    """``divergence.topk_indices`` as a full stable argsort, O(V log V)."""
    p = np.asarray(p)
    if not 1 <= k <= p.size:
        raise ValueError(f"k={k} out of range for size {p.size}")
    # stable argsort of -p keeps ascending-index order among equal values
    return np.argsort(-p, kind="stable")[:k]


def confident_setdiff(teacher: dv.TopKDistribution, q: np.ndarray, m: int) -> np.ndarray:
    """J'_m as ``setdiff1d`` of the student's top-m and the teacher's indices."""
    return np.setdiff1d(topk_indices_argsort(q, m), teacher.indices, assume_unique=True)


# --- the per-row divergence body -------------------------------------------

def _fkl_per_row(teacher: dv.TopKDistribution, q: np.ndarray) -> tuple[float, np.ndarray]:
    p = teacher.probs
    q_top = q[teacher.indices]
    if np.any(q_top == 0.0):
        dead = teacher.indices[q_top == 0.0]
        raise dv.DegenerateStudent(
            f"student probability underflowed at top-k indices {dead.tolist()}")
    grad = q * p.sum()
    grad[teacher.indices] -= p
    live = p > 0.0  # 0 * log 0 is taken at its limit, 0
    return float(np.sum(p[live] * (np.log(p[live]) - np.log(q_top[live])))), grad


def _rkl_per_row(teacher: dv.TopKDistribution, q: np.ndarray) -> tuple[float, np.ndarray]:
    p = teacher.probs
    if np.any(p == 0.0):
        dead = teacher.indices[p == 0.0]
        raise dv.DegenerateTeacher(
            f"teacher probability is zero at top-k indices {dead.tolist()}")
    q_top = q[teacher.indices]
    live = q_top > 0.0
    ratio_term = np.zeros_like(q_top)
    ratio_term[live] = np.log(q_top[live] / p[live]) + 1.0
    grad = -q * float(np.sum(q_top * ratio_term))
    grad[teacher.indices] += q_top * ratio_term
    return float(np.sum(q_top[live] * np.log(q_top[live] / p[live]))), grad


def _tail_per_row(teacher: dv.TopKDistribution, q: np.ndarray,
                  m: int) -> tuple[float, np.ndarray]:
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > q.size:
        raise ValueError(f"m={m} exceeds the vocabulary size {q.size}")
    top = topk_indices_argsort(q, m)
    endorsed = np.zeros(q.size, dtype=bool)
    endorsed[teacher.indices] = True
    confident = top[~endorsed[top]]
    tail_mass = float(q[confident].sum()) if confident.size else 0.0
    grad = -q * tail_mass
    grad[confident] += q[confident]
    return tail_mass, grad


def kernel_per_row(teacher: dv.TopKDistribution, student_logits: np.ndarray, kl=None,
                   m: int | None = None, lambda_tail: float = 1.0) -> dv.LossReport:
    """The divergence kernels one position at a time, with masked 1-d sums:
    ``kl + lambda_tail * tail`` where ``kl`` is ``_fkl_per_row``,
    ``_rkl_per_row`` or None and the tail term is present when ``m`` is given.
    Its aux has no ``confident_size``."""
    if not np.isfinite(lambda_tail):
        raise ValueError(f"lambda={lambda_tail} must be finite")
    if lambda_tail < 0:
        raise ValueError(f"lambda={lambda_tail} must be non-negative")
    z = np.asarray(student_logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("student logits must be a 1-d vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("student logits must be finite")
    if teacher.indices.max() >= z.size:
        raise IndexError(
            f"teacher index {int(teacher.indices.max())} out of bounds "
            f"for vocabulary of size {z.size}")
    q = dv.softmax(z)
    loss, grad = kl(teacher, q) if kl is not None else (0.0, 0.0)
    kl_part, tail_part = loss, 0.0
    if m is not None:
        tail_part, tail_grad = _tail_per_row(teacher, q, m)
        loss, grad = loss + lambda_tail * tail_part, grad + lambda_tail * tail_grad
    aux = {"escape_mass": float(1.0 - q[teacher.indices].sum()), "entropy": dv.entropy(q),
           "kl_part": kl_part, "tail_part": tail_part}
    return dv.LossReport(loss=loss, grad=grad, aux=aux)


# ``divergence.LOSSES`` on ``kernel_per_row``, called the same way.
LOSSES_PER_ROW = {
    "fkl": lambda t, z, m, lam: kernel_per_row(t, z, _fkl_per_row),
    "tail": lambda t, z, m, lam: kernel_per_row(t, z, m=m),
    "ckd": lambda t, z, m, lam: kernel_per_row(t, z, _fkl_per_row, m, lam),
    "rkl": lambda t, z, m, lam: kernel_per_row(t, z, _rkl_per_row),
    "rkl-stab": lambda t, z, m, lam: kernel_per_row(t, z, _rkl_per_row, m, lam),
}


def kd_fit_recording(teachers: list[dv.TopKDistribution], loss_kind: str,
                     steps: int, step_size: float, seed: int, vocab_size: int = 32,
                     m: int = 8, lambda_tail: float = dv.DEFAULT_LAMBDA_TAIL):
    """``toy_trainer.kd_fit`` one position at a time through ``kernel_per_row``,
    with a separate softmax pass over every row after each step to record the
    curves, rather than reading the kernels' ``aux``."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(len(teachers), vocab_size))
    escape = np.zeros(steps + 1)
    ent = np.zeros(steps + 1)

    def record(step: int) -> None:
        e_sum = h_sum = 0.0
        for teacher, z in zip(teachers, logits):
            q = dv.softmax(z)
            e_sum += 1.0 - q[teacher.indices].sum()
            h_sum += dv.entropy(q)
        escape[step] = e_sum / len(teachers)
        ent[step] = h_sum / len(teachers)

    record(0)
    for step in range(1, steps + 1):
        for row, teacher in enumerate(teachers):
            report = LOSSES_PER_ROW[loss_kind](teacher, logits[row], m, lambda_tail)
            logits[row] -= step_size * report.grad
        record(step)
    return escape, ent


def sample_path(policy, prompt_id, rng, view):
    """One trajectory's decisions and call, drawn slot by slot from ``view``,
    with each slot key, decision and argument built as it is drawn."""
    fn_slot = (prompt_id, "fn")
    fn_action = draw_action(view, fn_slot, rng)
    decisions = [(fn_slot, fn_action)]
    fdef = policy.task.schema.functions[fn_action]
    arguments = {}
    for pname in fdef.parameters:
        slot = (prompt_id, "arg", fdef.name, pname)
        action = draw_action(view, slot, rng)
        decisions.append((slot, action))
        value = policy.actions[slot][action]
        if value is not toy_trainer.OMIT:
            arguments[pname] = value
    return decisions, ToolCall(fdef.name, arguments)


def sample_group_unmemoised(policy, prompt_id, group_size, rng, reward_mode="sim"):
    """``toy_trainer.sample_group`` that draws, renders and scores every sampled
    trajectory, repeats included, from a view made for the call, and derives
    each one's reference log-probabilities."""
    view = toy_trainer.SlotView(policy.tables)
    ref_view = toy_trainer.SlotView(policy.ref_view.tables)
    task = policy.task
    trajectories = []
    for _ in range(group_size):
        decisions, call = sample_path(policy, prompt_id, rng, view)
        text = render_call_text("select the matching tool", [call])
        graded = total_reward(text, task.prompt(prompt_id).ground_truth,
                              task.schema).total
        reward = graded if reward_mode == "sim" else (1.0 if graded == 1.0 else -1.0)
        trajectories.append(toy_trainer.Trajectory(
            decisions=decisions, text=text, reward=reward, graded_reward=graded,
            logp_ref=ref_view.logps(decisions)))
    return trajectories


def mean_entropy_per_table(tables) -> float:
    """``SlotView.mean_entropy`` as one softmax and entropy call per table."""
    return float(np.mean([dv.entropy(dv.softmax(z)) for z in tables.values()]))


def grpo_objective_per_rollout(group, advantages, cfg) -> float:
    """``grpo.grpo_objective`` as it was before ``token_terms``: its own group
    checks, then per rollout the ratio, the clip, the surrogate and the k2
    penalty written out, each rollout's mean stored, and their mean."""
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


def standardize_advantages_methods(rewards) -> np.ndarray:
    """``grpo.standardize_advantages`` as it was written with the ndarray
    methods ``std``, ``max``, ``min`` and ``mean``, for 1-d rewards."""
    rewards = np.asarray(list(rewards), dtype=np.float64)
    if rewards.size < 2:
        raise ValueError("advantage standardization needs at least two rewards")
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(rewards.std())
    if rewards.max() == rewards.min() or std == 0.0:
        raise ZeroVariance(f"all {rewards.size} rewards equal {rewards[0]}")
    if not np.isfinite(std):
        raise ValueError("reward spread overflows float64")
    return (rewards - rewards.mean()) / std


def token_terms_np_clip(logp_new, logp_old, logp_ref, advantages, cfg):
    """``grpo.token_terms`` with its clip written as ``np.clip``."""
    ratio, lo, hi = np.exp(logp_new - logp_old), 1.0 - cfg.epsilon, 1.0 + cfg.epsilon
    unclipped = ratio * advantages
    terms = np.minimum(unclipped, np.clip(ratio, lo, hi) * advantages) \
        - cfg.beta * kl_k2(logp_new, logp_ref)
    active = np.where(advantages >= 0, ratio <= hi, ratio >= lo)
    return terms, np.where(active, unclipped, 0.0) - cfg.beta * (logp_new - logp_ref)


def objective_and_gradient_per_token(tables, samples, view, cfg):
    """The mean clipped objective over groups and its slot-table gradient, as
    a numpy loop over tokens: a ``Rollout`` per distinct sampled trajectory,
    whose logp_new comes from ``tables`` as they are now and whose
    logp_old from ``view``, which drew the batch, and ``grpo_objective`` per
    group for the value; per token a softmax and a numpy update of the slot's
    gradient, with the clip active off ratio 1."""
    live = RecomputingSlotView(tables)
    grads = {key: np.zeros_like(z) for key, z in tables.items()}
    value = 0.0
    n_groups = len(samples)
    rollouts = {}
    for group, advantages in samples:
        for traj in group:
            if id(traj) not in rollouts:
                rollouts[id(traj)] = Rollout(
                    logp_new=live.logps(traj.decisions),
                    logp_old=view.logps(traj.decisions),
                    logp_ref=traj.logp_ref, reward=traj.reward)
        group_rollouts = [rollouts[id(traj)] for traj in group]
        value += grpo_objective(RolloutGroup("p", group_rollouts), advantages,
                                cfg) / n_groups

        for i, (traj, roll) in enumerate(zip(group, group_rollouts)):
            adv = advantages[i]
            ratio = np.exp(roll.logp_new - roll.logp_old)
            tokens = len(traj.decisions)
            for t, (slot, action) in enumerate(traj.decisions):
                r = ratio[t]
                active = (adv >= 0 and r <= 1.0 + cfg.epsilon) or \
                    (adv < 0 and r >= 1.0 - cfg.epsilon)
                coef = (adv * r if active else 0.0) \
                    - cfg.beta * (roll.logp_new[t] - roll.logp_ref[t])
                coef /= n_groups * len(group) * tokens
                grads[slot] -= coef * live.probs(slot)
                grads[slot][action] += coef
    return value, grads


def gradient_per_token(samples, view, beta):
    """``objective_and_gradient_per_token``'s gradient, called as
    ``toy_trainer.objective_and_gradient`` is, at the default clip range; the
    live tables are those of ``view``."""
    return objective_and_gradient_per_token(view.tables, samples, view,
                                            GrpoConfig(beta=beta))[1]


def student_logits_asarray(logits: list) -> np.ndarray:
    """``kd``'s conversion of a record's ``student_logits`` as it was before its
    one-pass form: ``np.asarray``, then a check of every entry's type, with a
    nested list left to the kernel's 1-d check."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1 and not set(map(type, logits)) <= {int, float}:
        raise ValueError("student_logits are not all numbers")
    return z


def iter_jsonl_text(path: str):
    """``cli._iter_jsonl`` as it was before its binary reader: text mode, so a fresh
    ``str`` per line, whose blank test is ``str.isspace`` of the line with its end,
    and which the decoder of the file's 8 KB chunks has already checked as UTF-8;
    ``json.loads`` decodes each line without its end, the reference ``_loads`` matches."""
    n = 0  # not enumerate, whose cached tuple would keep the text alive
    with open(path, encoding="utf-8") as handle:
        for line in handle:  # one form of one line: its text, then its object
            n += 1
            if line.isspace():  # strip()'s test of blankness, with no copy
                continue
            try:
                obj = json.loads(line.removesuffix("\n"))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{n}: invalid JSON ({exc.msg})") from exc
            except RecursionError:
                raise ValueError(f"{path}:{n}: invalid JSON (nesting too deep)") from None
            del line
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{n}: expected a JSON object per line")
            yield obj
