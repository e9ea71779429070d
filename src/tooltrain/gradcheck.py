"""Finite-difference verification of the analytic divergence gradients.

Central differences of the loss value are an oracle that is independent of
the analytic gradient code paths. Instances whose student top-m boundary is
too close for the probe step to leave J'_m membership unchanged are filtered
out (the index sets are constants under differentiation, so the analytic
gradient is only defined away from those boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import divergence as dv

FD_STEP = 1e-5
REL_TOL = 1e-6
GRAD_SUM_TOL = 1e-8
# membership margin in probability space; generous vs the O(q*h) probe shift
TOPM_MARGIN = 1e-4
MAX_TRIES = 200  # draws per instance before the margin counts as out of reach

# Probe rows times vocabulary size per ``rows`` call: up to V=1,024 all 2V
# probes of an instance go in one call, and larger V is probed in blocks.
PROBE_CELLS = 2 * 1024 * 1024


def central_differences(loss: dv.LossKind, teacher: dv.TopKDistribution,
                        z: np.ndarray, m: int, lambda_tail: float) -> np.ndarray:
    """Two-sided difference quotient of ``loss`` at ``z`` per coordinate.

    The 2V probes are copies of ``z`` with one coordinate shifted by +-FD_STEP,
    taken through ``loss.rows`` (one call up to ``PROBE_CELLS``) against one
    ``TopKRows`` of the teacher built per instance; each row equals the loss
    at that probe alone, so every quotient is bit-identical to probing the
    coordinate by itself. A shifted copy, not ``z + FD_STEP * I``, leaves the
    other coordinates as they are (-0.0 + 0.0 would be +0.0).
    """
    z = np.asarray(z, dtype=np.float64)
    per_call = min(z.size, max(1, PROBE_CELLS // (2 * z.size)))
    teachers = dv.TopKRows(np.tile(teacher.indices, (2 * per_call, 1)),
                           np.tile(teacher.probs, (2 * per_call, 1)))
    quotients = []
    for start in range(0, z.size, per_call):
        coords = np.arange(start, min(start + per_call, z.size))
        n = coords.size
        probes = np.tile(z, (2 * n, 1))
        probes[np.arange(n), coords] += FD_STEP
        probes[np.arange(n, 2 * n), coords] -= FD_STEP
        block = teachers if n == per_call else teachers[:2 * n]  # the last may be short
        losses = loss.rows(block, probes, m, lambda_tail).loss
        quotients.append((losses[:n] - losses[n:]) / (2.0 * FD_STEP))
    return np.concatenate(quotients)


def topm_boundary_gap(z: np.ndarray, m: int) -> float:
    """Probability gap between the student's m-th and (m+1)-th entries."""
    q = np.sort(dv.softmax(z))[::-1]
    if m >= q.size:
        return np.inf
    return float(q[m - 1] - q[m])


def random_instance(rng: np.random.Generator, vocab_size: int, k: int, m: int,
                    stats: dict | None = None) -> tuple[dv.TopKDistribution, np.ndarray]:
    """Draw a teacher top-k and student logits clear of the top-m boundary.

    Draws whose top-m boundary gap is inside ``TOPM_MARGIN`` are rejected and
    counted in ``stats["rejected"]`` when a stats dict is passed. A
    ``ValueError`` after ``MAX_TRIES`` rejections means the margin is out of
    reach for this V and m (at V=4,096, m=2,048 no draw clears 1e-4).
    """
    teacher_p = dv.softmax(rng.normal(size=vocab_size) * 2.0)
    teacher = dv.topk_of(teacher_p, k)
    for _ in range(MAX_TRIES):
        z = rng.normal(size=vocab_size) * 1.5
        if topm_boundary_gap(z, m) > TOPM_MARGIN:
            return teacher, z
        if stats is not None:
            stats["rejected"] = stats.get("rejected", 0) + 1
    raise ValueError(f"no draw in {MAX_TRIES} cleared the top-m boundary by "
                     f"{TOPM_MARGIN:g} at V={vocab_size}, m={m}")


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


@dataclass
class SuiteResult:
    max_rel_err: float
    max_grad_sum: float
    instances: int
    rejected: int = 0  # boundary-filtered draws, replaced by fresh ones

    @property
    def passed(self) -> bool:  # a NaN compares false, so it fails
        return self.max_rel_err <= REL_TOL and self.max_grad_sum <= GRAD_SUM_TOL


def run_gradient_suite(seed: int = 0, trials: int = 50, vocab_size: int = 32,
                       k: int = 8, m: int = 16, lambda_tail: float = dv.DEFAULT_LAMBDA_TAIL
                       ) -> dict[str, SuiteResult]:
    """Gradcheck every kernel on one draw of ``trials`` boundary-filtered instances."""
    rng = np.random.default_rng(seed)
    stats: dict = {}
    instances = [random_instance(rng, vocab_size, k, m, stats=stats)
                 for _ in range(trials)]
    results: dict[str, SuiteResult] = {}
    for name, loss_fn in dv.LOSSES.items():
        rel_errs, grad_sums = [], []
        for teacher, z in instances:
            report = loss_fn(teacher, z, m, lambda_tail)
            numeric = central_differences(loss_fn, teacher, z, m, lambda_tail)
            rel_errs.append(relative_error(report.grad, numeric))
            grad_sums.append(abs(float(report.grad.sum())))
        # np.max keeps a NaN, where max(0.0, nan) would drop it
        results[name] = SuiteResult(max_rel_err=float(np.max(rel_errs, initial=0.0)),
                                    max_grad_sum=float(np.max(grad_sums, initial=0.0)),
                                    instances=trials,
                                    rejected=stats.get("rejected", 0))
    return results
