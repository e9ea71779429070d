"""Composite reward for function-calling generations.

The total reward is gated by the binary format reward: any format violation
scores -1 regardless of content. With a valid format, the score is either the
IoU-style tool-call reward (when the ground truth contains calls) or the
ROUGE-L response reward (when it is plain text), so exactly one of the two
answer components can be nonzero and the total stays in [-1, 1].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

from .chat_format import (
    FormatViolation,
    ParsedGeneration,
    ToolCall,
    ToolSchema,
    parse_generation,
    validate_format,
)
from .similarity import call_similarity, rouge_l_f1


class MalformedGroundTruth(ValueError):
    """Ground truth failed parsing or format validation (corrupt dataset)."""

    def __init__(self, violations: list[FormatViolation]):
        details = "; ".join(f"rule {v.rule_id}: {v.detail}" for v in violations)
        super().__init__(f"ground truth is not format-valid ({details})")
        self.violations = violations


@dataclass(frozen=True)
class CallMatch:
    pred_index: int
    gt_index: int
    similarity: float


@dataclass(frozen=True)
class MatchResult:
    matches: list[CallMatch]
    total_similarity: float


def greedy_match(pred_calls: list[ToolCall], gt_calls: list[ToolCall]) -> MatchResult:
    """Greedy one-to-one matching between predicted and ground-truth calls.

    Predicted calls are visited in source order. Each claims the unmatched
    ground-truth call of the same name with the highest argument similarity;
    on ties the lowest ground-truth index wins (strictly-greater comparison).
    A claimed call is removed from the pool, so the matching is an injection.
    A name match always pairs, even at similarity zero.
    """
    matches: list[CallMatch] = []
    available = set(range(len(gt_calls)))
    total = 0.0
    for pi, pred in enumerate(pred_calls):
        best_score = -1.0
        best_gi = None
        for gi in sorted(available):
            if gt_calls[gi].name != pred.name:
                continue
            score = call_similarity(pred, gt_calls[gi])
            if score > best_score:
                best_score = score
                best_gi = gi
        if best_gi is not None:
            matches.append(CallMatch(pi, best_gi, best_score))
            available.discard(best_gi)
            total += best_score
    return MatchResult(matches=matches, total_similarity=total)


def tool_call_reward(pred_calls: list[ToolCall], gt_calls: list[ToolCall]) -> float:
    """IoU-style call reward: matched similarity over the union size.

    The denominator is |P| + |G| - |matches|, the size of the union induced
    by the matching. Two empty call lists score 1.0.
    """
    return _call_reward(pred_calls, gt_calls)[0]


def _call_reward(pred_calls: list[ToolCall],
                 gt_calls: list[ToolCall]) -> tuple[float, list[CallMatch]]:
    """``tool_call_reward`` together with the matches it was computed from."""
    if not pred_calls and not gt_calls:
        return 1.0, []
    result = greedy_match(pred_calls, gt_calls)
    denom = len(pred_calls) + len(gt_calls) - len(result.matches)
    return result.total_similarity / denom, result.matches


def response_reward(pred_text: str, gt_text: str) -> float:
    """ROUGE-L F1 between predicted and ground-truth response text."""
    return rouge_l_f1(pred_text, gt_text)


@dataclass
class RewardBreakdown:
    """Total reward with its components and per-call match diagnostics."""

    r_format: int
    r_fc: float
    r_response: float
    total: float
    matches: list[CallMatch] = field(default_factory=list)
    violations: list[FormatViolation] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "r_format": self.r_format,
            "r_fc": self.r_fc,
            "r_response": self.r_response,
            "total": self.total,
            "matches": [
                {"pred_index": m.pred_index, "gt_index": m.gt_index,
                 "similarity": m.similarity}
                for m in self.matches
            ],
            "violations": [
                {"rule_id": v.rule_id, "detail": v.detail} for v in self.violations
            ],
        }


@functools.lru_cache(maxsize=16)
def _checked_ground_truth(ground_truth: str, schema: ToolSchema) -> ParsedGeneration:
    """Parse and validate a ground truth once per ``(ground_truth, schema)``.

    Callers score a group's generations one after another, so a few entries
    suffice; keeping hundreds of parses alive costs more in garbage-collector
    passes than it saves. Schemas hash by identity, so a schema must not be
    edited after it has been used for scoring. The cached parse is shared;
    callers must not mutate it. A malformed ground truth raises on every
    call, as ``lru_cache`` does not cache exceptions.
    """
    gt = parse_generation(ground_truth)
    gt_check = validate_format(gt, schema)
    if gt_check.reward != 1:
        raise MalformedGroundTruth(gt_check.violations)
    return gt


def total_reward(raw_generation: str, ground_truth: str,
                 schema: ToolSchema) -> RewardBreakdown:
    """Score a generation against a format-valid ground truth.

    Equivalent to R = (R_format - 1) + R_format * (R_fc + R_response) with
    the call branch taken when the ground truth contains calls and the
    response branch otherwise.

    Raises :class:`MalformedGroundTruth` when the ground truth itself does
    not parse cleanly; that signals a corrupt dataset, not a model failure.
    A ground truth is parsed and validated once per ``(ground_truth,
    schema)`` pair, so an RL group that shares one pays for it once.
    """
    gt = _checked_ground_truth(ground_truth, schema)
    parsed = parse_generation(raw_generation)
    check = validate_format(parsed, schema)
    if check.reward == 0:
        return RewardBreakdown(r_format=0, r_fc=0.0, r_response=0.0,
                               total=-1.0, violations=check.violations)

    if gt.tool_calls:
        r_fc, matches = _call_reward(parsed.tool_calls, gt.tool_calls)
        return RewardBreakdown(r_format=1, r_fc=r_fc, r_response=0.0,
                               total=r_fc, matches=matches)

    r_resp = response_reward(parsed.response_text, gt.response_text)
    return RewardBreakdown(r_format=1, r_fc=0.0, r_response=r_resp, total=r_resp)
