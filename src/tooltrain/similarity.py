"""Sequence and argument similarity metrics.

String similarity is ROUGE-L F1 over lowercased, whitespace-split tokens; its
LCS is bit-parallel, O(|a| * |b| / 64) machine-word operations.
Typed argument values dispatch on type: strings are compared with ROUGE-L,
numbers and booleans by exact equality, everything else (and mixed-type
pairs) by equality of canonical string renderings. Call-level similarity is
the mean contribution over the union of argument keys.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from itertools import chain, repeat
from typing import Any

from .chat_format import ToolCall


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace; empty text gives no tokens."""
    return text.lower().split()


def _masks(b: list[str]) -> dict[str, int]:
    """Bit j of ``masks[y]`` is set where ``b[j] == y``."""
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    return masks


def _lcs(a: list[str], masks: dict[str, int], n: int) -> int:
    """LCS length of ``a`` and the n tokens ``masks`` was built from. Bit j of
    ``v`` is clear where the LCS grows from ``b[:j]`` to ``b[:j+1]``."""
    v = full = (1 << n) - 1
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986;
    Hyyrö 2004): O(|a| * |b| / 64) word operations, not the DP's O(|a| * |b|)."""
    return _lcs(a, _masks(b), len(b))


@functools.lru_cache(maxsize=16)
def _reference(ref: str) -> tuple[dict[str, int], int]:
    """A reference's token masks and token count, built once per distinct
    reference: the generations of a group share one, and a few entries
    suffice because callers score a group's generations one after another.
    The cached masks are shared; callers must not mutate them."""
    tokens = tokenize(ref)
    return _masks(tokens), len(tokens)


def rouge_l_f1(pred: str, ref: str) -> float:
    """ROUGE-L F1 between two strings.

    Both empty counts as perfect agreement (1.0); exactly one empty, or no
    common subsequence at all, scores 0.0.
    """
    pred_tokens = tokenize(pred)
    masks, n_ref = _reference(ref)
    if not pred_tokens and not n_ref:
        return 1.0
    lcs = _lcs(pred_tokens, masks, n_ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(pred_tokens)
    recall = lcs / n_ref
    return 2 * precision * recall / (precision + recall)


def _is_number(value: Any) -> bool:
    # bool is an int subclass; keep it out of the numeric branch.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def canonical_str(value: Any) -> str:
    """Deterministic string rendering used by the fallback comparison.

    Numbers render without a decimal point when integral and in shortest
    round-trip form otherwise; containers render as canonical JSON (sorted
    keys, no whitespace, strings quoted) with the same number treatment
    applied recursively, so e.g. ``[1.0, 2]`` and ``[1, 2]`` render
    identically. A top-level string renders bare, which is what lets a
    mixed string/number pair like ``"3"`` and ``3`` compare equal.
    """
    if isinstance(value, str):
        return value
    return _canon_nested(value)


def _canon_nested(value: Any) -> str:
    """``canonical_str`` of a container or non-string scalar, rendered with an
    explicit stack: ``json.loads`` builds values about 990 levels deep, more
    than a recursive renderer gets frames for."""
    out: list[str] = []
    stack: list[tuple[Iterator[tuple[str, Any]], str]] = []  # open containers
    while True:
        if isinstance(value, list):  # each child with the text that goes before it
            out.append("[")
            children = zip(chain([""], repeat(",")), value)
            stack.append((children, "]"))
        elif isinstance(value, dict):
            out.append("{")
            children = ((("," if i else "") + json.dumps(k) + ":", v)
                        for i, (k, v) in enumerate(sorted(value.items())))
            stack.append((children, "}"))
        else:
            out.append(_canon_scalar(value))
        while stack and (item := next(stack[-1][0], None)) is None:
            out.append(stack.pop()[1])  # the container is done: close it
        if not stack:
            return "".join(out)
        prefix, value = item
        out.append(prefix)


def _canon_scalar(value: Any) -> str:
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
    return str(value)


def value_similarity(pred: Any, gold: Any) -> float:
    """Similarity of one argument value pair, in [0, 1]."""
    if isinstance(pred, str) and isinstance(gold, str):
        return rouge_l_f1(pred, gold)
    if isinstance(pred, bool) and isinstance(gold, bool):
        return 1.0 if pred == gold else 0.0
    if _is_number(pred) and _is_number(gold):
        return 1.0 if pred == gold else 0.0
    return 1.0 if canonical_str(pred) == canonical_str(gold) else 0.0


def call_similarity(pred: ToolCall, gold: ToolCall) -> float:
    """Argument-level similarity between two calls, in [0, 1].

    Sums ``value_similarity`` over the intersection of argument keys and
    divides by the size of their union; two empty argument maps are a perfect
    match. Names are ignored here -- name agreement is the matcher's job.
    """
    pred_keys = set(pred.arguments)
    gold_keys = set(gold.arguments)
    union = pred_keys | gold_keys
    if not union:
        return 1.0
    # Sorted, so the float sum does not depend on the process's string hash seed.
    shared = sorted(pred_keys & gold_keys)
    total = sum(value_similarity(pred.arguments[k], gold.arguments[k]) for k in shared)
    return total / len(union)
