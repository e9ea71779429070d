"""Training utilities for tiny function-calling policies.

The library covers three layers: a graded reward for tool-calling
generations (format gate, IoU-style call matching, ROUGE-L response
scoring), top-k distillation divergences with analytic gradients, and
group-relative policy-optimization primitives, plus a desk-scale trainer
that exercises the whole stack end to end.

``import tooltrain`` loads only the constants below. Every submodule and
every name of ``__all__`` loads on first use: the reward layer
(``chat_format``, ``reward``, ``similarity``) with no numpy, the divergence
and GRPO names with numpy. So ``tooltrain score`` loads no numpy, and
``kd``, ``gradcheck`` and ``advantages`` load no reward layer.
"""

import importlib

__version__ = "0.1.0"

# Read by the CLI's parser as well as by ``divergence``, which re-exports them.
DEFAULT_TOPM = 100
DEFAULT_LAMBDA_TAIL = 10.0
# The training objectives among ``divergence.LOSSES``, less the tail penalty.
KD_LOSS_KINDS = ("fkl", "rkl", "rkl-stab", "ckd")

# The public names of each submodule, loaded by ``__getattr__`` on first use.
_LAZY = {
    "chat_format": (
        "FormatViolation", "FunctionDef", "ParamSpec", "ParsedGeneration",
        "ToolCall", "ToolSchema", "parse_generation", "render_generation",
        "validate_format"),
    "divergence": (
        "DegenerateStudent", "DegenerateTeacher", "LossReport", "TopKDistribution",
        "ckd_loss", "entropy", "fkl_topk", "rkl_topk_masked",
        "rkl_topk_stabilized", "softmax", "tail_penalty", "topk_of"),
    "grpo": (
        "GrpoConfig", "LengthMismatch", "Rollout", "RolloutGroup", "ZeroVariance",
        "filter_homogeneous", "grpo_objective", "kl_k2", "standardize_advantages"),
    "reward": (
        "MalformedGroundTruth", "RewardBreakdown", "greedy_match",
        "response_reward", "tool_call_reward", "total_reward"),
    "similarity": ("call_similarity", "lcs_length", "rouge_l_f1", "value_similarity"),
}

__all__ = [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    """Import a submodule of ``_LAZY`` the first time it or one of its names
    is read from the package (PEP 562)."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
