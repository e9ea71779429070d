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

One body computes every loss on N stacked positions: a ``TopKRows`` of
teacher indices and probabilities (N, k) and student logits (N, V) give
per-row losses, the (N, V) gradient and per-row aux: ``escape_mass``,
``entropy``, ``kl_part``, ``tail_part`` and ``confident_size`` (|J'_m|, 0
without a tail term). ``TopKRows`` is where a teacher is validated, and it
derives what depends on the teacher alone once, so a caller that steps
students against fixed teachers builds it once. That includes the (N, V)
mask of entries outside I_k that J'_m is read from, built at a call's
vocabulary size V and rebuilt only when V changes. ``TopKDistribution`` is
its one-row form, with read-only arrays. The public kernels are the body's
one-row calls and ``LOSSES[name].rows`` its batched entry; row r of a batch
equals the one-row call on row r bit for bit.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import DEFAULT_LAMBDA_TAIL, DEFAULT_TOPM, KD_LOSS_KINDS  # re-exported here


class DegenerateStudent(ValueError):
    """Student probability underflowed to zero at a teacher top-k index."""


class DegenerateTeacher(ValueError):
    """Teacher top-k probability of zero; top-k of a softmax cannot produce
    this, so it flags a corrupted teacher file."""


class TopKRows:
    """Teacher top-k entries at N positions, indices and probabilities (N, k),
    with what every loss derives from the teacher alone: the row-index column,
    the largest index, P per row, log p, the ``p > 0`` mask and the rows where
    it fails, and, from ``outside(V)``, the (N, V) mask of entries outside the
    top-k, kept for the last V asked for. It holds read-only copies, so a
    later change to the caller's arrays cannot reach it. Its indices are
    non-negative and distinct within a row, its probabilities finite and
    within [0, 1], and each row sums to at most one; the loss raises
    ``IndexError`` for an index past the vocabulary."""

    def __init__(self, indices: np.ndarray, probs: np.ndarray):
        self.indices = np.array(indices, dtype=np.int64)
        self.probs = np.array(probs, dtype=np.float64)
        if self.indices.ndim != 2 or self.probs.shape != self.indices.shape \
                or self.indices.size == 0:
            raise ValueError("teacher indices and probs must be non-empty (N, k) "
                             "arrays of equal shape")
        if self.indices.min() < 0:
            raise ValueError(f"teacher index {int(self.indices.min())} is negative")
        if (np.diff(np.sort(self.indices, axis=1), axis=1) == 0).any():
            raise ValueError("top-k indices must be distinct within a row")
        if not ((self.probs >= 0.0) & (self.probs <= 1.0)).all():  # NaN fails both
            raise ValueError("top-k probabilities must be finite and within [0, 1]")
        self.mass = self.probs.sum(axis=1, keepdims=True)
        over = self.mass[self.mass > 1.0 + 1e-9]
        if over.size:  # name the first row that sums past one
            raise ValueError(f"top-k probabilities sum to {over[0]} > 1")
        self.row_index = np.arange(len(self.indices))[:, None]
        self.high = int(self.indices.max())
        self.live = self.probs > 0.0
        self.dead_rows = np.flatnonzero(~self.live.all(axis=1))
        with np.errstate(divide="ignore"):
            self.log_probs = np.log(self.probs)
        # a dead entry's term is left out of every sum; a finite log there
        # keeps 0 * log 0 from warning
        self.log_probs[~self.live] = 0.0
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        self._outside = None

    def outside(self, size: int) -> np.ndarray:
        """The read-only (N, size) mask of entries outside each row's top-k."""
        outside = self._outside
        if outside is None or outside.shape[1] != size:
            outside = np.ones((len(self.indices), size), dtype=bool)
            outside[self.row_index, self.indices] = False
            outside.flags.writeable = False
            self._outside = outside
        return outside

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, rows: slice) -> TopKRows:
        return TopKRows(self.indices[rows], self.probs[rows])


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class TopKDistribution:
    """Teacher top-k entries at one position: parallel index/probability
    arrays of length k, the read-only row 0 of ``rows``, the one-row
    ``TopKRows`` that validates them."""

    indices: np.ndarray
    probs: np.ndarray
    rows: TopKRows = field(init=False, repr=False)

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if indices.ndim != 1 or probs.shape != indices.shape:
            raise ValueError("indices and probs must be 1-d arrays of equal length")
        if indices.size == 0:
            raise ValueError("top-k set must be non-empty")
        rows = TopKRows(indices[None], probs[None])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "indices", rows.indices[0])
        object.__setattr__(self, "probs", rows.probs[0])

    @property
    def k(self) -> int:
        return int(self.indices.size)

    @property
    def mass(self) -> float:
        return float(self.probs.sum())


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax along the last axis."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def entropy(q: np.ndarray) -> float:
    """Shannon entropy in nats; zero-probability entries contribute zero."""
    q = np.asarray(q, dtype=np.float64)
    nz = q[q > 0]
    return float(-np.sum(nz * np.log(nz)))


def check_lambda(lambda_tail: float) -> None:
    """Raise ``ValueError`` unless the tail weight is finite and non-negative."""
    if not math.isfinite(lambda_tail):
        raise ValueError(f"lambda={lambda_tail} must be finite")
    if lambda_tail < 0:
        raise ValueError(f"lambda={lambda_tail} must be non-negative")


def _row_sums(terms: np.ndarray, live: np.ndarray,
              dead_rows: np.ndarray | None = None) -> np.ndarray:
    """Row sums of ``terms`` over its ``live`` entries. A row with a dead entry
    (one of ``dead_rows``, found from ``live`` if not given) sums its live ones
    packed together, as the 1-d masked sum does; a zero left in place would
    change numpy's pairwise summation order."""
    sums = np.add.reduce(terms, axis=1)
    if dead_rows is None:
        dead_rows = np.flatnonzero(~np.logical_and.reduce(live, axis=1))
    for row in dead_rows:
        sums[row] = np.add.reduce(terms[row][live[row]])
    return sums


def entropy_rows(q: np.ndarray) -> np.ndarray:
    """``entropy`` of each row of a 2-d stack, bit for bit."""
    if np.minimum.reduce(q, axis=None) > 0:  # no log of zero, so nothing to silence
        return -np.add.reduce(q * np.log(q), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = q * np.log(q)
    return -_row_sums(terms, q > 0)


# Up to this size a full sort of the vector beats selecting the top k first.
FULL_SORT_MAX_SIZE = 256


def topk_indices(p: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ties broken
    toward lower index.

    Exactly ``np.argsort(-p, axis=-1, kind="stable")[..., :k]``, in
    O(V + k log k) per row above ``FULL_SORT_MAX_SIZE`` entries.
    """
    p = np.asarray(p)
    size = p.shape[-1]
    if not 1 <= k <= size:
        raise ValueError(f"k={k} out of range for size {size}")
    neg = -p
    if size <= FULL_SORT_MAX_SIZE:
        return neg.argsort(axis=-1, kind="stable")[..., :k]
    if neg.ndim == 1:
        return _select_smallest(neg, k)
    return np.stack([_select_smallest(row, k) for row in neg])


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
    """Loss, gradient and diagnostics at one position, or row-wise at N."""

    loss: float
    grad: np.ndarray
    aux: dict[str, float]


def _fkl(teacher: TopKRows, q, q_top) -> tuple[np.ndarray, np.ndarray]:
    if np.minimum.reduce(q_top, axis=None) == 0.0:
        raise DegenerateStudent("student probability underflowed at top-k indices "
                                f"{teacher.indices[q_top == 0.0].tolist()}")
    grad = q * teacher.mass
    grad[teacher.row_index, teacher.indices] -= teacher.probs
    terms = teacher.probs * (teacher.log_probs - np.log(q_top))
    # 0 * log 0 is taken at its limit, 0
    return _row_sums(terms, teacher.live, teacher.dead_rows), grad


def _rkl(teacher: TopKRows, q, q_top) -> tuple[np.ndarray, np.ndarray]:
    if teacher.dead_rows.size:
        raise DegenerateTeacher("teacher probability is zero at top-k indices "
                                f"{teacher.indices[~teacher.live].tolist()}")
    # an underflowed entry is taken at its limit, 0
    underflow = np.minimum.reduce(q_top, axis=None) == 0.0
    with np.errstate(divide="ignore", invalid="ignore") if underflow else nullcontext():
        log_ratio = np.log(q_top / teacher.probs)
        terms = q_top * log_ratio
    ratio_term = log_ratio + 1.0
    if underflow:
        live = q_top > 0.0
        ratio_term = np.where(live, ratio_term, 0.0)
    weighted = q_top * ratio_term
    grad = q * -np.add.reduce(weighted, axis=1, keepdims=True)
    grad[teacher.row_index, teacher.indices] += weighted
    return _row_sums(terms, live) if underflow else np.add.reduce(terms, axis=1), grad


def _confident(teacher: TopKRows, q: np.ndarray,
               m: int) -> tuple[np.ndarray, np.ndarray]:
    """J'_m, the student's top-m indices outside I_k, as (row, index) pairs
    in row order and, within a row, in top-m order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    top = topk_indices(q, m)
    r, j = teacher.outside(q.shape[1])[teacher.row_index, top].nonzero()
    return r, top[r, j]


def _tail(teacher: TopKRows, q, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols = _confident(teacher, q, m)
    mass_at = q[rows, cols]
    size = np.bincount(rows, minlength=len(q))
    # J'_m differs in size between rows: sum each alone (padding or reduceat change bits)
    ends = size.cumsum().tolist()
    tail_mass = np.array([np.add.reduce(mass_at[a:b])
                          for a, b in zip([0] + ends, ends)])
    grad = q * -tail_mass[:, None]  # (-q) * T without a full-size -q
    grad[rows, cols] += mass_at
    return tail_mass, grad, size


def _rows(teacher: TopKRows, student_logits: np.ndarray, kl, m: int | None,
          lambda_tail: float) -> LossReport:
    """Body of every kernel: ``kl + lambda_tail * tail`` at N positions, from
    a teacher (N, k) and student logits (N, V), with one softmax. ``kl`` is
    ``_fkl``, ``_rkl`` or None; the tail term is present when ``m`` is given.
    Each row equals the body on that row alone, bit for bit: numpy reduces a
    row as it reduces a 1-d vector, and sums over sets whose size differs
    between rows are taken row by row. An error names the bad entries of the
    whole batch: ``LossKind.rows`` replays every row but the last alone before
    it lets a batch's error through, so that error comes from one row."""
    check_lambda(lambda_tail)
    z = np.asarray(student_logits, dtype=np.float64)
    if z.ndim != 2:  # a stack of single positions' vectors
        raise ValueError("student logits must be a 1-d vector")
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError("student logits must be finite")
    if teacher.high >= z.shape[1]:
        raise IndexError(f"teacher index {teacher.high} out of bounds for vocabulary "
                         f"of size {z.shape[1]}")
    q = softmax(z)
    q_top = q[teacher.row_index, teacher.indices]
    loss, grad = kl(teacher, q, q_top) if kl else (np.zeros(len(q)), 0.0)
    kl_part, tail_part, size = loss, np.zeros(len(q)), np.zeros(len(q))
    if m is not None:
        tail_part, tail_grad, size = _tail(teacher, q, m)
        loss, grad = loss + lambda_tail * tail_part, grad + lambda_tail * tail_grad
    aux = {"escape_mass": 1.0 - np.add.reduce(q_top, axis=1),
           "entropy": entropy_rows(q), "kl_part": kl_part, "tail_part": tail_part,
           "confident_size": size}
    return LossReport(loss=loss, grad=grad, aux=aux)


class LossKind(NamedTuple):
    """An entry of ``LOSSES``: its public kernel at one position, and the
    terms of ``kl + lambda_tail * tail`` for the body at many."""

    kernel: Callable  # f(teacher, student_logits, m, lambda_tail)
    kl: Callable | None = None
    tail: bool = False

    def __call__(self, teacher, student_logits, m, lambda_tail) -> LossReport:
        return self.kernel(teacher, student_logits, m, lambda_tail)

    def rows(self, teacher: TopKRows, student_logits, m, lambda_tail) -> LossReport:
        """The loss at N positions: a teacher (N, k), student logits (N, V).
        It raises what one-row calls in row order would."""
        if len(student_logits) != len(teacher):  # numpy would broadcast one row
            raise ValueError(f"student logits have {len(student_logits)} rows, "
                             f"the teacher {len(teacher)}")
        weighted = self.kl is not None and self.tail  # only composites take lambda
        terms = self.kl, m if self.tail else None, lambda_tail if weighted else 1.0
        try:
            return _rows(teacher, student_logits, *terms)
        except (ValueError, IndexError):
            # a later row may fail an earlier check than the first failing row
            # does; alone, that row raises its own (the last row's is this one)
            for r in range(len(teacher) - 1):
                _rows(teacher[r:r + 1], student_logits[r:r + 1], *terms)
            raise

    def row(self, teacher: TopKDistribution, student_logits, m, lambda_tail) -> LossReport:
        """The loss at one position: ``rows`` on the teacher's one-row form."""
        z = np.asarray(student_logits, dtype=np.float64)[None]
        report = self.rows(teacher.rows, z, m, lambda_tail)
        return LossReport(loss=float(report.loss[0]), grad=report.grad[0],
                          aux={key: float(value[0]) for key, value in report.aux.items()})


def fkl_topk(teacher: TopKDistribution, student_logits: np.ndarray) -> LossReport:
    """Forward KL restricted to the teacher's top-k set."""
    return LOSSES["fkl"].row(teacher, student_logits, None, 1.0)


def tail_penalty(teacher: TopKDistribution, student_logits: np.ndarray,
                 m: int) -> LossReport:
    """L1 mass the student places on its top-m set outside the teacher's top-k.

    J'_m is held fixed under differentiation, mirroring the treatment of the
    teacher's index set.
    """
    return LOSSES["tail"].row(teacher, student_logits, m, 1.0)


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
    return LOSSES["ckd"].row(teacher, student_logits, m, lambda_tail)


def rkl_topk_masked(teacher: TopKDistribution,
                    student_logits: np.ndarray) -> LossReport:
    """Reverse KL masked to the teacher's top-k set.

    Not a true KL divergence over the vocabulary: student mass outside I_k is
    simply invisible to the loss, which is what makes this objective drift-
    prone. Entries where q_i has underflowed contribute their limit value of
    zero.
    """
    return LOSSES["rkl"].row(teacher, student_logits, None, 1.0)


def rkl_topk_stabilized(teacher: TopKDistribution, student_logits: np.ndarray,
                        m: int,
                        lambda_tail: float = DEFAULT_LAMBDA_TAIL) -> LossReport:
    """Masked reverse KL plus the weighted tail penalty.

    The gradient is composed mechanically from the two verified component
    gradients; for a sufficiently large lambda the confident-but-wrong logits
    receive a larger gradient than any top-k logit, which removes the masked
    objective's incentive to push mass outside the teacher's top-k set.
    """
    return LOSSES["rkl-stab"].row(teacher, student_logits, m, lambda_tail)


# Every caller selects a kernel by name here, as f(teacher, student_logits, m,
# lambda_tail) at one position or ``.rows`` at many. The lambdas look kernels
# up at call time, so a wrapper set on a module attribute sees every call.
LOSSES = {
    "fkl": LossKind(lambda t, z, m, lam: fkl_topk(t, z), _fkl),
    "tail": LossKind(lambda t, z, m, lam: tail_penalty(t, z, m), tail=True),
    "ckd": LossKind(lambda t, z, m, lam: ckd_loss(t, z, m, lam), _fkl, tail=True),
    "rkl": LossKind(lambda t, z, m, lam: rkl_topk_masked(t, z), _rkl),
    "rkl-stab": LossKind(lambda t, z, m, lam: rkl_topk_stabilized(t, z, m, lam), _rkl,
                         tail=True),
}
