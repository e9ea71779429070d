"""Span tracer that wraps tooltrain's public functions at their import sites.

The library is not modified. ``Tracer.install`` replaces each function
listed by ``_targets`` with a wrapper in the namespace its callers look it
up in (for example ``tooltrain.reward.parse_generation``, the name
``total_reward`` calls), records one span per call and puts the original
back on ``uninstall``. A span is ``(name, start_ns, end_ns, parent_index)``; spans are
appended in start order, so a parent always precedes its children. Self time
is a span's duration minus the durations of its direct children.

A target missing from the library (renamed or inlined by a later change) is
skipped, and the metrics that depend on it read zero.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import tooltrain.cli
import tooltrain.divergence
import tooltrain.grpo
import tooltrain.reward
import tooltrain.similarity
import tooltrain.toy_trainer


def _chars(counts, args, result):
    counts["chat_format.parse_generation.chars"] += len(args[0])


def _lcs_cells(counts, args, result):
    # Work of the LCS table the reward asks for, from the inputs alone, so it
    # stays comparable when the LCS algorithm changes.
    counts["similarity.lcs_cells"] += len(args[0].split()) * len(args[1].split())


def _kept_groups(counts, args, result):
    counts["rl.sampled_groups"] += len(args[0])
    counts["rl.kept_groups"] += len(result)


def _targets():
    """(owner, attribute, span name, after-call hook) for every traced call."""
    cli, rw, sim = tooltrain.cli, tooltrain.reward, tooltrain.similarity
    dv, tt = tooltrain.divergence, tooltrain.toy_trainer
    out = [
        (cli, "cmd_score", "cli.score", None),
        (cli, "cmd_kd", "cli.kd", None),
        (cli, "total_reward", "reward.total_reward", None),
        (tt, "total_reward", "reward.total_reward", None),
        (rw, "greedy_match", "reward.greedy_match", None),
        (rw, "parse_generation", "chat_format.parse_generation", _chars),
        (rw, "validate_format", "chat_format.validate_format", None),
        (rw, "rouge_l_f1", "similarity.rouge_l_f1", _lcs_cells),
        (sim, "rouge_l_f1", "similarity.rouge_l_f1", _lcs_cells),
        (rw, "call_similarity", "similarity.call_similarity", None),
        (tt, "grpo_objective", "grpo.grpo_objective", None),
        (tt, "filter_homogeneous", "grpo.filter_homogeneous", _kept_groups),
        (tt, "render_call_text", "toy_task.render_call_text", None),
        (tt, "sample_group", "toy_trainer.sample_group", None),
        (tt, "objective_and_gradient", "toy_trainer.objective_and_gradient", None),
        (tt, "kd_fit", "toy_trainer.kd_fit", None),
    ]
    if hasattr(tt, "ToyPolicy"):
        for method in ("sample_trajectory", "mean_entropy"):
            out.append((tt.ToyPolicy, method,
                        f"toy_trainer.ToyPolicy.{method}", None))
    for fn in ("softmax", "topk_indices") + KERNELS:
        out.append((dv, fn, f"divergence.{fn}", None))
    return out


KERNELS = ("fkl_topk", "tail_penalty", "ckd_loss", "rkl_topk_masked",
           "rkl_topk_stabilized")


class Tracer:
    """Records spans and counters while installed; one instance per process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._undo: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrapped = {}
        for owner, attr, name, hook in _targets():
            if not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            self._replace(owner, attr, self._wrap(name, original, hook))
            wrapped[original] = getattr(owner, attr)
        if hasattr(tooltrain.grpo, "Rollout"):
            rollout = tooltrain.grpo.Rollout
            if hasattr(rollout, "__post_init__"):
                self._replace(rollout, "__post_init__",
                              self._count("grpo.Rollout.inits",
                                          rollout.__post_init__))
        # ``matcher=greedy_match`` is bound as a default argument when the
        # reward functions are defined, so the default is its import site.
        for fn_name in ("total_reward", "tool_call_reward"):
            fn = getattr(tooltrain.reward, fn_name, None)
            defaults = getattr(fn, "__defaults__", None)
            if defaults:
                self._replace(fn, "__defaults__",
                              tuple(wrapped.get(d, d) for d in defaults))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class RepSummary:
    """Per-name aggregates of one traced repetition."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_ns: dict = field(default_factory=lambda: defaultdict(int))
    incl_ns: dict = field(default_factory=lambda: defaultdict(int))
    durations: dict = field(default_factory=lambda: defaultdict(list))
    score_stage_ns: int = 0
    parse_under_score: int = 0
    counts: dict = field(default_factory=dict)


_KEEP_DURATIONS = ("chat_format.parse_generation", "reward.total_reward")


def summarize(spans, counts) -> RepSummary:
    """Derive self time, inclusive time and ancestry aggregates from spans."""
    out = RepSummary(counts=dict(counts))
    child_ns = [0] * len(spans)
    under_group = [False] * len(spans)
    under_score = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_ns[parent] += dur
            pname = spans[parent][0]
            under_group[i] = under_group[parent] or pname == "toy_trainer.sample_group"
            under_score[i] = under_score[parent] or pname == "reward.total_reward"
        out.calls[name] += 1
        out.incl_ns[name] += dur
        if name in _KEEP_DURATIONS:
            out.durations[name].append(dur)
        if name == "reward.total_reward" and under_group[i]:
            out.score_stage_ns += dur
        if name == "chat_format.parse_generation" and under_score[i]:
            out.parse_under_score += 1
    for i, (name, start, end, _) in enumerate(spans):
        out.self_ns[name] += end - start - child_ns[i]
    return out


def _quantile_us(samples, q) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)] / 1e3


def layer_metrics(reps: list[RepSummary], positions_per_rep: int,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics, each a mean per repetition unless it is a ratio or
    a latency quantile (pooled over all traced repetitions)."""
    n = len(reps)

    def mean(get):
        return sum(get(r) for r in reps) / n

    def calls(name):
        return mean(lambda r: r.calls[name])

    def self_s(name):
        return mean(lambda r: r.self_ns[name]) / 1e9

    def incl_s(name):
        return mean(lambda r: r.incl_ns[name]) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def pooled(name):
        return [d for r in reps for d in r.durations[name]]

    m: dict[str, float] = {}
    m["cli.score.self_s"] = self_s("cli.score")
    m["cli.kd.self_s"] = self_s("cli.kd")
    parse = "chat_format.parse_generation"
    m[f"{parse}.calls"] = calls(parse)
    m[f"{parse}.self_s"] = self_s(parse)
    m[f"{parse}.p99_us"] = _quantile_us(pooled(parse), 0.99)
    m[f"{parse}.chars"] = mean(lambda r: r.counts.get(f"{parse}.chars", 0))
    m["chat_format.validate_format.calls"] = calls("chat_format.validate_format")
    m["chat_format.validate_format.self_s"] = self_s("chat_format.validate_format")
    for name in ("similarity.rouge_l_f1", "similarity.call_similarity",
                 "reward.greedy_match", "reward.total_reward",
                 "grpo.grpo_objective"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["similarity.lcs_cells"] = mean(lambda r: r.counts.get("similarity.lcs_cells", 0))
    score = "reward.total_reward"
    m[f"{score}.p50_us"] = _quantile_us(pooled(score), 0.50)
    m[f"{score}.p99_us"] = _quantile_us(pooled(score), 0.99)
    m["reward.parse_per_score"] = ratio(mean(lambda r: r.parse_under_score),
                                        calls(score))
    for kernel in KERNELS:
        name = f"divergence.{kernel}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.ms_per_call"] = ratio(incl_s(name) * 1e3, calls(name))
    m["divergence.softmax.self_s"] = self_s("divergence.softmax")
    m["divergence.softmax.calls_per_position"] = ratio(
        calls("divergence.softmax"), positions_per_rep)
    m["divergence.topk_indices.self_s"] = self_s("divergence.topk_indices")
    m["grpo.Rollout.inits"] = mean(lambda r: r.counts.get("grpo.Rollout.inits", 0))
    for name in ("toy_trainer.sample_group", "toy_trainer.objective_and_gradient",
                 "toy_trainer.ToyPolicy.sample_trajectory",
                 "toy_trainer.ToyPolicy.mean_entropy", "toy_trainer.kd_fit",
                 "toy_task.render_call_text"):
        m[f"{name}.self_s"] = self_s(name)
    score_stage = mean(lambda r: r.score_stage_ns) / 1e9
    m["rl.sample_stage_s"] = incl_s("toy_trainer.sample_group") - score_stage
    m["rl.score_stage_s"] = score_stage
    m["rl.update_stage_s"] = incl_s("toy_trainer.objective_and_gradient")
    m["rl.kept_group_share"] = ratio(
        mean(lambda r: r.counts.get("rl.kept_groups", 0)),
        mean(lambda r: r.counts.get("rl.sampled_groups", 0)))
    m["tracing_overhead"] = overhead
    return m


def write_spans(path, spans) -> None:
    """One span per line: index, name, start_ns, end_ns, parent index."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("index\tname\tstart_ns\tend_ns\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            out.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")
