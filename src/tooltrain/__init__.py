"""Training utilities for tiny function-calling policies.

The library covers three layers: a graded reward for tool-calling
generations (format gate, IoU-style call matching, ROUGE-L response
scoring), top-k distillation divergences with analytic gradients, and
group-relative policy-optimization primitives, plus a desk-scale trainer
that exercises the whole stack end to end.

The reward layer loads with the package. The divergence and GRPO names load
on first use, and numpy with them, so a process that only scores starts
without numpy.
"""

import importlib

from .chat_format import (
    FormatViolation,
    FunctionDef,
    ParamSpec,
    ParsedGeneration,
    ToolCall,
    ToolSchema,
    parse_generation,
    render_generation,
    validate_format,
)
from .reward import (
    MalformedGroundTruth,
    RewardBreakdown,
    greedy_match,
    response_reward,
    tool_call_reward,
    total_reward,
)
from .similarity import call_similarity, lcs_length, rouge_l_f1, value_similarity

__version__ = "0.1.0"

# Read by the CLI's parser as well as by ``divergence``, which re-exports them.
DEFAULT_TOPM = 100
DEFAULT_LAMBDA_TAIL = 10.0
# The training objectives among ``divergence.LOSSES``, less the tail penalty.
KD_LOSS_KINDS = ("fkl", "rkl", "rkl-stab", "ckd")

# Names of the numpy-backed modules, loaded by ``__getattr__`` on first use.
_LAZY = {
    "divergence": (
        "DegenerateStudent", "DegenerateTeacher", "LossReport", "TopKDistribution",
        "ckd_loss", "entropy", "fkl_topk", "rkl_topk_masked",
        "rkl_topk_stabilized", "softmax", "tail_penalty", "topk_of"),
    "grpo": (
        "GrpoConfig", "LengthMismatch", "Rollout", "RolloutGroup", "ZeroVariance",
        "filter_homogeneous", "grpo_objective", "kl_k2", "standardize_advantages"),
}

__all__ = [
    "FormatViolation", "FunctionDef", "ParamSpec", "ParsedGeneration",
    "ToolCall", "ToolSchema", "parse_generation", "render_generation",
    "validate_format",
    *_LAZY["divergence"], *_LAZY["grpo"],
    "MalformedGroundTruth", "RewardBreakdown", "greedy_match",
    "response_reward", "tool_call_reward", "total_reward",
    "call_similarity", "lcs_length", "rouge_l_f1", "value_similarity",
]


def __getattr__(name: str):
    """Import ``divergence`` or ``grpo`` the first time it or one of its
    names above is read from the package (PEP 562)."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
