"""Top-k distillation losses and their analytic gradients.

Notation: the teacher distribution p is known only through its top-k entries
(index set I_k, probabilities left un-renormalized so their sum may be below
one); the student produces full logits z with q = softmax(z). J'_m is the
"confident-but-wrong" set: the student's own top-m indices minus I_k. Index
sets are treated as constants under differentiation, so every gradient here
is exact away from top-m membership boundaries.

Losses (all sums over the stated index sets):

* ``fkl_topk``            sum p_i * log(p_i / q_i) over I_k
* ``tail_penalty``        sum q_j over J'_m (L1 mass of confident mistakes)
* ``ckd_loss``            fkl_topk + lambda * tail_penalty
* ``rkl_topk_masked``     sum q_i * log(q_i / p_i) over I_k
* ``rkl_topk_stabilized`` rkl_topk_masked + lambda * tail_penalty

Gradients with respect to a student logit z_j (P = sum of p over I_k,
T = sum of q over J'_m, S = sum over I_k of q_i * (log(q_i/p_i) + 1)):

* FKL:   q_j * P - p_j * [j in I_k]
* tail:  q_j * [j in J'_m] - q_j * T
* RKL:   q_j * ((log(q_j/p_j) + 1) * [j in I_k] - S)

and the composites add linearly. Every gradient sums to zero over the
vocabulary because each loss depends on z only through the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOPK = 100
DEFAULT_TOPM = 100
DEFAULT_LAMBDA_TAIL = 10.0


class DegenerateStudent(ValueError):
    """Student probability underflowed to zero at a teacher top-k index."""


class DegenerateTeacher(ValueError):
    """Teacher top-k probability of zero; top-k of a softmax cannot produce
    this, so it flags a corrupted teacher file."""


def default_truncation(vocab_size: int) -> tuple[int, int]:
    """Default (k, m), capped by the working vocabulary."""
    return min(DEFAULT_TOPK, vocab_size), min(DEFAULT_TOPM, vocab_size)


@dataclass(frozen=True)
class TopKDistribution:
    """Teacher top-k entries: parallel index/probability arrays of length k."""

    indices: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "probs", probs)
        if indices.ndim != 1 or probs.shape != indices.shape:
            raise ValueError("indices and probs must be 1-d arrays of equal length")
        if indices.size == 0:
            raise ValueError("top-k set must be non-empty")
        if len(np.unique(indices)) != indices.size:
            raise ValueError("top-k indices must be distinct")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0) or np.any(probs > 1):
            raise ValueError("top-k probabilities must be finite and within [0, 1]")
        if probs.sum() > 1.0 + 1e-9:
            raise ValueError(f"top-k probabilities sum to {probs.sum()} > 1")

    @property
    def k(self) -> int:
        return int(self.indices.size)

    @property
    def mass(self) -> float:
        return float(self.probs.sum())


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax along the last axis."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(q: np.ndarray) -> float:
    """Shannon entropy in nats; zero-probability entries contribute zero."""
    q = np.asarray(q, dtype=np.float64)
    nz = q[q > 0]
    return float(-np.sum(nz * np.log(nz)))


# Up to this size a full sort of the vector beats selecting the top k first.
FULL_SORT_MAX_SIZE = 256


def topk_indices(p: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, ties broken toward lower index.

    Exactly ``np.argsort(-p, kind="stable")[:k]``, in O(V + k log k) above
    ``FULL_SORT_MAX_SIZE`` entries.
    """
    p = np.asarray(p)
    if not 1 <= k <= p.size:
        raise ValueError(f"k={k} out of range for size {p.size}")
    neg = -p.ravel()
    if neg.size <= FULL_SORT_MAX_SIZE:
        return np.argsort(neg, kind="stable")[:k]
    return _select_smallest(neg, k)


def _select_smallest(neg: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(neg, kind="stable")[:k]``: select by the k-th smallest
    value, then sort only the k selected indices."""
    kth = np.partition(neg, k - 1)[k - 1]
    if kth != kth:  # NaN entries sort last; leave them to the full sort
        return np.argsort(neg, kind="stable")[:k]
    idx = np.flatnonzero(neg <= kth)
    if idx.size > k:  # of the entries tied at the k-th value keep the lowest-indexed
        tied = np.flatnonzero(neg[idx] == kth)
        idx = np.delete(idx, tied[k - idx.size + tied.size:])
    # stable argsort over ascending idx keeps lower indices first among ties
    return idx[np.argsort(neg[idx], kind="stable")]


def topk_of(p: np.ndarray, k: int) -> TopKDistribution:
    """Truncate a full probability vector to its top-k entries."""
    idx = topk_indices(p, k)
    return TopKDistribution(indices=idx, probs=np.asarray(p, dtype=np.float64)[idx])


@dataclass
class LossReport:
    loss: float
    grad: np.ndarray
    aux: dict[str, float]


def _fkl(teacher: TopKDistribution, q: np.ndarray) -> tuple[float, np.ndarray]:
    p = teacher.probs
    q_top = q[teacher.indices]
    if np.any(q_top == 0.0):
        dead = teacher.indices[q_top == 0.0]
        raise DegenerateStudent(
            f"student probability underflowed at top-k indices {dead.tolist()}")
    grad = q * p.sum()
    grad[teacher.indices] -= p
    live = p > 0.0  # 0 * log 0 is taken at its limit, 0
    return float(np.sum(p[live] * (np.log(p[live]) - np.log(q_top[live])))), grad


def _rkl(teacher: TopKDistribution, q: np.ndarray) -> tuple[float, np.ndarray]:
    p = teacher.probs
    if np.any(p == 0.0):
        dead = teacher.indices[p == 0.0]
        raise DegenerateTeacher(
            f"teacher probability is zero at top-k indices {dead.tolist()}")
    q_top = q[teacher.indices]
    live = q_top > 0.0
    ratio_term = np.zeros_like(q_top)
    ratio_term[live] = np.log(q_top[live] / p[live]) + 1.0
    grad = -q * float(np.sum(q_top * ratio_term))
    grad[teacher.indices] += q_top * ratio_term
    return float(np.sum(q_top[live] * np.log(q_top[live] / p[live]))), grad


def _confident(teacher: TopKDistribution, q: np.ndarray, m: int) -> np.ndarray:
    """J'_m: the student's top-m indices outside I_k, in top-m order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    top = student_topm(q, m)
    endorsed = np.zeros(q.size, dtype=bool)
    endorsed[teacher.indices] = True
    return top[~endorsed[top]]


def _tail(teacher: TopKDistribution, q: np.ndarray,
          m: int) -> tuple[float, np.ndarray]:
    confident = _confident(teacher, q, m)
    tail_mass = float(q[confident].sum()) if confident.size else 0.0
    grad = -q * tail_mass
    grad[confident] += q[confident]
    return tail_mass, grad


def _kernel(teacher: TopKDistribution, student_logits: np.ndarray, kl=None,
            m: int | None = None, lambda_tail: float = 1.0) -> LossReport:
    """Body of every public kernel: validate, take the call's one softmax and
    return ``kl + lambda_tail * tail`` in loss and gradient. ``kl`` is
    ``_fkl``, ``_rkl`` or None; the tail term is present when ``m`` is given."""
    if lambda_tail < 0:
        raise ValueError("lambda_tail must be non-negative")
    z = np.asarray(student_logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("student logits must be a 1-d vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("student logits must be finite")
    if teacher.indices.max() >= z.size:
        raise IndexError(
            f"teacher index {int(teacher.indices.max())} out of bounds "
            f"for vocabulary of size {z.size}")
    q = softmax(z)
    loss, grad = kl(teacher, q) if kl is not None else (0.0, 0.0)
    kl_part, tail_part = loss, 0.0
    if m is not None:
        tail_part, tail_grad = _tail(teacher, q, m)
        loss, grad = loss + lambda_tail * tail_part, grad + lambda_tail * tail_grad
    aux = {"escape_mass": float(1.0 - q[teacher.indices].sum()), "entropy": entropy(q),
           "kl_part": kl_part, "tail_part": tail_part}
    return LossReport(loss=loss, grad=grad, aux=aux)


def fkl_topk(teacher: TopKDistribution, student_logits: np.ndarray) -> LossReport:
    """Forward KL restricted to the teacher's top-k set."""
    return _kernel(teacher, student_logits, _fkl)


def student_topm(q: np.ndarray, m: int) -> np.ndarray:
    """The student's own top-m index set (ties toward lower index)."""
    return topk_indices(q, m)


def tail_penalty(teacher: TopKDistribution, student_logits: np.ndarray,
                 m: int) -> LossReport:
    """L1 mass the student places on its top-m set outside the teacher's top-k.

    J'_m is held fixed under differentiation, mirroring the treatment of the
    teacher's index set.
    """
    return _kernel(teacher, student_logits, m=m)


def ckd_loss(teacher: TopKDistribution, student_logits: np.ndarray,
             m: int, lambda_tail: float = DEFAULT_LAMBDA_TAIL) -> LossReport:
    """Top-k forward KL plus a weighted penalty on confident tail mass.

    With lambda_tail = 0 this reduces exactly to ``fkl_topk``. The combined
    gradient splits into three closed forms (P and T as in the module
    docstring):

    * j in I_k:            q_j * (P - lambda * T) - p_j
    * j in J'_m:           q_j * (P + lambda * (1 - T))
    * all other j:         q_j * (P - lambda * T)
    """
    return _kernel(teacher, student_logits, _fkl, m, lambda_tail)


def rkl_topk_masked(teacher: TopKDistribution,
                    student_logits: np.ndarray) -> LossReport:
    """Reverse KL masked to the teacher's top-k set.

    Not a true KL divergence over the vocabulary: student mass outside I_k is
    simply invisible to the loss, which is what makes this objective drift-
    prone. Entries where q_i has underflowed contribute their limit value of
    zero.
    """
    return _kernel(teacher, student_logits, _rkl)


def rkl_topk_stabilized(teacher: TopKDistribution, student_logits: np.ndarray,
                        m: int,
                        lambda_tail: float = DEFAULT_LAMBDA_TAIL) -> LossReport:
    """Masked reverse KL plus the weighted tail penalty.

    The gradient is composed mechanically from the two verified component
    gradients; for a sufficiently large lambda the confident-but-wrong logits
    receive a larger gradient than any top-k logit, which removes the masked
    objective's incentive to push mass outside the teacher's top-k set.
    """
    return _kernel(teacher, student_logits, _rkl, m, lambda_tail)


# Every caller selects a kernel by name here, as f(teacher, student_logits, m,
# lambda_tail). The lambdas look kernels up at call time, so a wrapper set on
# a module attribute sees every call.
LOSSES = {
    "fkl": lambda t, z, m, lam: fkl_topk(t, z),
    "tail": lambda t, z, m, lam: tail_penalty(t, z, m),
    "ckd": lambda t, z, m, lam: ckd_loss(t, z, m, lam),
    "rkl": lambda t, z, m, lam: rkl_topk_masked(t, z),
    "rkl-stab": lambda t, z, m, lam: rkl_topk_stabilized(t, z, m, lam),
}

# The training objectives among them (the tail penalty alone is not one).
KD_LOSS_KINDS = ("fkl", "rkl", "rkl-stab", "ckd")
