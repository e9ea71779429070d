import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tooltrain
import tooltrain.divergence as dv
import tooltrain.gradcheck as gradcheck
from tooltrain.gradcheck import (
    REL_TOL,
    central_differences,
    random_instance,
    relative_error,
    run_gradient_suite,
    topm_boundary_gap,
)
from tooltrain.toy_trainer import collapse_witness

from oracles import (
    LOSSES_PER_ROW,
    central_difference,
    confident_setdiff,
    topk_indices_argsort,
)


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        np.testing.assert_allclose(dv.softmax(np.zeros(4)), np.full(4, 0.25))

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=16)
        np.testing.assert_allclose(dv.softmax(z), dv.softmax(z + 123.45))

    def test_closed_form_two_logits(self):
        np.testing.assert_allclose(dv.softmax(np.array([0.0, math.log(3)])),
                                   [0.25, 0.75])

    def test_handles_large_logits(self):
        q = dv.softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(q).all() and q.sum() == pytest.approx(1.0)


class TestTopK:
    def test_tie_breaks_to_lower_index(self):
        top = dv.topk_of(np.full(6, 1 / 6), k=2)
        assert top.indices.tolist() == [0, 1]

    def test_one_hot(self):
        p = np.zeros(8)
        p[5] = 1.0
        assert dv.topk_of(p, 1).indices.tolist() == [5]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = dv.softmax(rng.normal(size=8))
            top = dv.topk_of(p, 3)
            oracle = sorted(range(8), key=lambda i: (-p[i], i))[:3]
            assert top.indices.tolist() == oracle
            np.testing.assert_allclose(top.probs, p[oracle])

    @pytest.mark.parametrize("p", [
        np.zeros(7), np.array([-0.0, 0.0, -0.0, 1.0, 0.0]), np.array([0.5]),
        np.array([0.25, np.nan, 0.25, 0.5, np.nan]), np.array([3, 1, 3, 2, 3]),
    ])
    def test_first_and_last_k_equal_the_argsort_oracle(self, p):
        for k in (1, p.size):
            expected = topk_indices_argsort(p, k)
            assert np.array_equal(dv.topk_indices(p, k), expected)
            assert np.array_equal(dv._select_smallest(-p, k), expected)

    def test_wide_vectors_equal_the_argsort_oracle(self):
        rng = np.random.default_rng(2)
        for size in (dv.FULL_SORT_MAX_SIZE + 1, 5000, 151_936):
            for p in (dv.softmax(rng.normal(size=size) * 30),
                      np.round(rng.random(size), 2)):
                for k in (1, 100, size):
                    assert np.array_equal(dv.topk_indices(p, k),
                                          topk_indices_argsort(p, k))

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            dv.TopKDistribution(indices=np.array([1, 1]), probs=np.array([0.4, 0.3]))
        with pytest.raises(ValueError, match="sum"):
            dv.TopKDistribution(indices=np.array([0, 1]), probs=np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="^teacher index -2 is negative$"):
            dv.TopKDistribution(indices=np.array([0, -2]), probs=np.array([0.4, 0.3]))
        # the sign is checked before the entries are, as it was before TopKRows
        with pytest.raises(ValueError, match="^teacher index -2 is negative$"):
            dv.TopKDistribution(indices=np.array([-2, -2]), probs=np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="^indices and probs must be 1-d"):
            dv.TopKDistribution(indices=np.array([[-2]]), probs=np.array([[0.4]]))
        with pytest.raises(ValueError, match="^top-k set must be non-empty$"):
            dv.TopKDistribution(indices=np.array([], dtype=int), probs=np.array([]))


def _topk_vector(data) -> np.ndarray:
    """Vectors rich in exact ties: quantised values, runs of (signed) zeros
    and softmax outputs with underflowed entries."""
    v = data.draw(st.integers(1, 300), label="V")
    kind = data.draw(st.sampled_from(["quantised", "zeros", "softmax"]), label="kind")
    if kind == "quantised":
        return np.array(data.draw(st.lists(st.integers(0, 4), min_size=v,
                                           max_size=v))) / 4.0
    if kind == "zeros":
        values = st.sampled_from([0.0, -0.0, 0.0, -0.0, 0.125, 1.0, np.nan])
        return np.array(data.draw(st.lists(values, min_size=v, max_size=v)))
    logits = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=v,
                                         max_size=v)), dtype=np.float64)
    return dv.softmax(logits * data.draw(st.sampled_from([0.5, 20.0, 200.0])))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_topk_selection_equals_the_full_stable_argsort(data):
    p = _topk_vector(data)
    k = data.draw(st.sampled_from([1, p.size]) | st.integers(1, p.size), label="k")
    expected = topk_indices_argsort(p, k)
    for got in (dv.topk_indices(p, k), dv._select_smallest(-p, k)):
        assert np.array_equal(got, expected)
        assert got.dtype == expected.dtype


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_confident_set_equals_setdiff_in_topm_order(data):
    q = dv.softmax(np.log(_topk_vector(data) + 1e-3))
    indices = data.draw(st.lists(st.integers(0, q.size - 1), min_size=1,
                                 max_size=q.size, unique=True), label="teacher")
    teacher = dv.TopKDistribution(indices=np.array(indices),
                                  probs=np.full(len(indices), 1.0 / len(indices)))
    m = data.draw(st.integers(1, q.size), label="m")
    rows, got = dv._confident(teacher.rows, q[None], m)
    expected = confident_setdiff(teacher, q, m)
    assert not rows.any()
    assert np.array_equal(got, expected)
    assert got.dtype == expected.dtype


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert dv.entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_is_log_c(self):
        assert dv.entropy(np.full(4, 0.25)) == pytest.approx(math.log(4))

    def test_direct_evaluation(self):
        p = np.array([0.75, 0.25])
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert expected == pytest.approx(0.5623, abs=5e-5)
        assert dv.entropy(p) == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 6), width=st.integers(1, 40), data=st.data())
    def test_rows_equal_per_row_entropy(self, rows, width, data):
        # stacks without zeros take the unguarded path, the rest the masked one;
        # the warnings gate fails the test on any RuntimeWarning
        positive = data.draw(st.booleans())
        entries = st.floats(1e-300 if positive else 0.0, 1.0)
        q = np.array(data.draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                                        min_size=rows, max_size=rows)))
        if data.draw(st.booleans()):
            q[data.draw(st.integers(0, rows - 1))] = np.nan
        if not positive and data.draw(st.booleans()):
            q[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, width - 1))] = 0.0
        assert dv.entropy_rows(q).tobytes() == \
            np.array([dv.entropy(row) for row in q]).tobytes()


def uniform_teacher(vocab_size, k):
    """Teacher whose top-k covers all mass, student can match exactly."""
    probs = np.full(k, 1.0 / k)
    return dv.TopKDistribution(indices=np.arange(k), probs=probs)


class TestFklTopk:
    def test_zero_when_student_matches_full_mass_teacher(self):
        teacher = uniform_teacher(4, 4)
        report = dv.fkl_topk(teacher, np.zeros(4))
        assert report.loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(report.grad, 0.0, atol=1e-12)

    def test_non_topk_gradient_is_positive_suppression(self):
        rng = np.random.default_rng(2)
        teacher, z = random_instance(rng, 16, 4, 8)
        report = dv.fkl_topk(teacher, z)
        q = dv.softmax(z)
        outside = np.setdiff1d(np.arange(16), teacher.indices)
        np.testing.assert_allclose(report.grad[outside],
                                   q[outside] * teacher.mass)
        assert (report.grad[outside] > 0).all()

    def test_gradient_gap_at_equal_q_is_exactly_p(self):
        # force equal student probabilities at one top-k and one non-top-k index
        rng = np.random.default_rng(3)
        for _ in range(100):
            teacher, z = random_instance(rng, 32, 8, 16)
            inside = int(teacher.indices[rng.integers(teacher.k)])
            outside = int(rng.choice(np.setdiff1d(np.arange(32), teacher.indices)))
            z[outside] = z[inside]
            report = dv.fkl_topk(teacher, z)
            gap = report.grad[outside] - report.grad[inside]
            p_j = teacher.probs[teacher.indices == inside][0]
            assert abs(gap - p_j) <= 1e-12

    def test_degenerate_student_raises(self):
        teacher = uniform_teacher(4, 2)
        z = np.array([0.0, -800.0, 0.0, 0.0])  # exp(-800) underflows
        with pytest.raises(dv.DegenerateStudent):
            dv.fkl_topk(teacher, z)


class TestTailPenalty:
    def test_zero_when_student_topm_inside_topk(self):
        teacher = uniform_teacher(8, 4)
        z = np.zeros(8)
        z[:4] = 5.0  # student concentrates on the teacher's set
        report = dv.tail_penalty(teacher, z, m=2)
        assert report.loss == 0.0
        np.testing.assert_allclose(report.grad, 0.0)

    def test_confident_wrong_token_pays_its_mass(self):
        teacher = dv.TopKDistribution(indices=np.array([0]), probs=np.array([0.9]))
        q = np.array([0.05, 0.9, 0.05])
        report = dv.tail_penalty(teacher, np.log(q), m=1)
        assert report.loss == pytest.approx(0.9)

    def test_escape_mass_and_entropy_in_aux(self):
        rng = np.random.default_rng(4)
        teacher, z = random_instance(rng, 16, 4, 8)
        report = dv.tail_penalty(teacher, z, m=8)
        q = dv.softmax(z)
        assert report.aux["escape_mass"] == pytest.approx(1 - q[teacher.indices].sum())
        assert report.aux["entropy"] == pytest.approx(dv.entropy(q))


class TestCkdComposition:
    def test_lambda_zero_reduces_to_fkl(self):
        rng = np.random.default_rng(5)
        teacher, z = random_instance(rng, 16, 4, 8)
        combined = dv.ckd_loss(teacher, z, m=8, lambda_tail=0.0)
        fkl = dv.fkl_topk(teacher, z)
        assert combined.loss == pytest.approx(fkl.loss)
        np.testing.assert_allclose(combined.grad, fkl.grad)

    def test_closed_forms_for_three_index_classes(self):
        rng = np.random.default_rng(6)
        lam = 10.0
        for _ in range(50):
            teacher, z = random_instance(rng, 32, 8, 16)
            q = dv.softmax(z)
            report = dv.ckd_loss(teacher, z, m=16, lambda_tail=lam)
            p_sum = teacher.mass
            confident = np.setdiff1d(dv.topk_indices(q, 16), teacher.indices)
            tail_mass = q[confident].sum()
            expected = q * (p_sum - lam * tail_mass)           # other non-top-k
            expected[confident] = q[confident] * (p_sum + lam * (1 - tail_mass))
            expected[teacher.indices] = (
                q[teacher.indices] * (p_sum - lam * tail_mass) - teacher.probs)
            np.testing.assert_allclose(report.grad, expected, atol=1e-12)

    def test_targeted_suppression_exceeds_fkl(self):
        # confident-but-wrong logits must be pushed down harder than under FKL
        rng = np.random.default_rng(7)
        lam = 10.0
        for _ in range(50):
            teacher, z = random_instance(rng, 32, 8, 16)
            q = dv.softmax(z)
            confident = np.setdiff1d(dv.topk_indices(q, 16), teacher.indices)
            if confident.size == 0:
                continue
            gap = (dv.ckd_loss(teacher, z, 16, lam).grad[confident]
                   - dv.fkl_topk(teacher, z).grad[confident])
            tail_mass = q[confident].sum()
            np.testing.assert_allclose(gap, lam * q[confident] * (1 - tail_mass))
            assert (gap > 0).all()

    def test_relaxed_suppression_below_fkl(self):
        rng = np.random.default_rng(8)
        lam = 10.0
        for _ in range(50):
            teacher, z = random_instance(rng, 32, 8, 16)
            q = dv.softmax(z)
            confident = np.setdiff1d(dv.topk_indices(q, 16), teacher.indices)
            if confident.size == 0:
                continue
            others = np.setdiff1d(
                np.setdiff1d(np.arange(32), teacher.indices), confident)
            ckd = dv.ckd_loss(teacher, z, 16, lam).grad[others]
            fkl = dv.fkl_topk(teacher, z).grad[others]
            assert (ckd < fkl).all()



class TestExactComposition:
    """The composites are literally kl + lambda * tail, not just close to it."""

    @pytest.mark.parametrize("composite, kl", [
        (dv.ckd_loss, dv.fkl_topk),
        (dv.rkl_topk_stabilized, dv.rkl_topk_masked),
    ])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 10.0])
    def test_composite_equals_its_components(self, composite, kl, lam):
        rng = np.random.default_rng(13)
        for _ in range(30):
            teacher, z = random_instance(rng, 32, 8, 16)
            whole = composite(teacher, z, 16, lam)
            kl_part, tail = kl(teacher, z), dv.tail_penalty(teacher, z, 16)
            assert whole.loss == kl_part.loss + lam * tail.loss
            assert np.array_equal(whole.grad, kl_part.grad + lam * tail.grad)
            assert whole.aux == {**kl_part.aux, "tail_part": tail.loss,
                                 "confident_size": tail.aux["confident_size"]}

    @pytest.mark.parametrize("name", sorted(dv.LOSSES))
    def test_one_softmax_per_call(self, name, monkeypatch):
        teacher, z = random_instance(np.random.default_rng(14), 32, 8, 16)
        calls = []
        real_softmax = dv.softmax
        monkeypatch.setattr(dv, "softmax", lambda z: calls.append(1) or real_softmax(z))
        dv.LOSSES[name](teacher, z, 16, 10.0)
        assert len(calls) == 1


def _instance(seed: int, vocab_size: int, k: int, logits: str = "normal",
              zero_prob: bool = False) -> tuple[dv.TopKDistribution, np.ndarray]:
    """A teacher, optionally with a p = 0 entry, and student logits that are
    "normal", "ties" (few distinct values), "wide" or "underflow" (a third of
    them 900 below the rest, so the softmax holds exact zeros)."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k)) * rng.uniform(0.5, 1.0)
    if zero_prob:
        probs[rng.integers(k)] = 0.0
    teacher = dv.TopKDistribution(indices=rng.permutation(vocab_size)[:k], probs=probs)
    z = rng.normal(size=vocab_size) * {"wide": 40.0}.get(logits, 3.0)
    if logits == "ties":
        z = rng.integers(0, 3, size=vocab_size).astype(np.float64)
    if logits == "underflow":
        z[rng.permutation(vocab_size)[:vocab_size // 3]] -= 900.0
    return teacher, z


def _outcome(fn, *args):
    """The kernel's result as raw bytes, or its exception class and message."""
    try:
        report = fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    aux = {key: np.float64(value).tobytes() for key, value in report.aux.items()
           if key != "confident_size"}
    return np.float64(report.loss).tobytes(), report.grad.tobytes(), aux


_ORACLE_CASES = {
    "k>=9 pairwise sums": dict(vocab_size=64, k=12),
    "teacher p=0": dict(vocab_size=32, k=6, zero_prob=True),
    "spread above 800": dict(vocab_size=32, k=6, logits="underflow"),
    "V>256 partition top-m": dict(vocab_size=1000, k=20),
    "V>256 with zeros": dict(vocab_size=300, k=9, logits="underflow", zero_prob=True),
}


class TestOneBody:
    """The public kernels are one-row calls of the (N, V) body; both equal
    the per-row oracle bit for bit, raising the same errors."""

    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_kernels_equal_the_per_row_oracle(self, case):
        for seed in range(20):
            teacher, z = _instance(seed, **_ORACLE_CASES[case])
            for name in dv.LOSSES:
                for m, lam in ((1, 10.0), (teacher.k + 3, 0.5)):
                    assert _outcome(dv.LOSSES[name], teacher, z, m, lam) == \
                        _outcome(LOSSES_PER_ROW[name], teacher, z, m, lam), (name, seed)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vocab_size=st.sampled_from([2, 5, 16, 33, 300]),
           k=st.integers(1, 12),
           logits=st.sampled_from(["normal", "ties", "wide", "underflow"]),
           zero_prob=st.booleans(), m=st.integers(-1, 20),
           lam=st.sampled_from([-1.0, 0.0, 0.5, 10.0]))
    def test_every_kernel_equals_the_per_row_oracle(self, seed, vocab_size, k, logits,
                                                     zero_prob, m, lam):
        teacher, z = _instance(seed, vocab_size, min(k, vocab_size), logits, zero_prob)
        for name in dv.LOSSES:
            got = _outcome(dv.LOSSES[name], teacher, z, m, lam)
            assert got == _outcome(LOSSES_PER_ROW[name], teacher, z, m, lam), name
            if isinstance(got[0], bytes):
                tail = dv.LOSSES[name].tail
                size = dv.LOSSES[name](teacher, z, m, lam).aux["confident_size"]
                assert size == (len(confident_setdiff(teacher, dv.softmax(z), m))
                                if tail else 0.0), name

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_equal_one_row_calls(self, data):
        """Row r of a batched call is the one-row call on row r, and a failing
        batch raises what the first failing row raises alone."""
        n = data.draw(st.integers(1, 6), label="N")
        vocab_size = data.draw(st.sampled_from([8, 33, 300]), label="V")
        k = data.draw(st.integers(1, 8), label="k")
        rows = [_instance(data.draw(st.integers(0, 2**32 - 1)), vocab_size, k,
                          data.draw(st.sampled_from(["normal", "ties", "underflow"])),
                          data.draw(st.booleans()))
                for _ in range(n)]
        teachers, z = [t for t, _ in rows], np.stack([zz for _, zz in rows])
        indices = np.stack([t.indices for t in teachers])
        if data.draw(st.booleans(), label="corrupt a row"):
            r = data.draw(st.integers(0, n - 1))
            if data.draw(st.booleans(), label="out of bounds"):
                indices[r, 0] = vocab_size
            else:
                z[r, 0] = np.inf
        teachers = [dv.TopKDistribution(indices=i, probs=t.probs)
                    for i, t in zip(indices, teachers)]
        probs = np.stack([t.probs for t in teachers])
        m = data.draw(st.integers(0, 9), label="m")
        for name, loss in dv.LOSSES.items():
            singles = [_outcome(loss, t, zz, m, 2.0) for t, zz in zip(teachers, z)]
            try:
                batch = loss.rows(dv.TopKRows(indices, probs), z, m, 2.0)
            except (ValueError, IndexError) as exc:
                first_error = next(o for o in singles if not isinstance(o[0], bytes))
                assert (type(exc), str(exc)) == first_error, name
                continue
            for r, single in enumerate(singles):
                report = dv.LossReport(batch.loss[r], batch.grad[r],
                                       {key: v[r] for key, v in batch.aux.items()})
                assert _outcome(lambda: report) == single, (name, r)

    @pytest.mark.parametrize("indices, named", [
        ([[0, 1], [2, 5], [3, 9]], 5), ([[0, 1], [3, 9]], 9), ([[4, 2]], 4),
        ([[1, 0], [2, 3], [0, 4]], 4),
    ])
    def test_rows_reject_indices_from_vocab_size(self, indices, named):
        """The first bad row names its largest index."""
        n = len(indices)
        for name, loss in dv.LOSSES.items():
            with pytest.raises(IndexError) as exc:
                loss.rows(dv.TopKRows(indices, np.full((n, 2), 0.4)), np.zeros((n, 4)),
                          2, 1.0)
            assert str(exc.value) == \
                f"teacher index {named} out of bounds for vocabulary of size 4", name

    @pytest.mark.parametrize("indices, named", [
        ([[0, 1], [2, -1], [-3, 9]], -3), ([[0, 1], [-3, 9]], -3), ([[-3, -2]], -3),
    ])
    def test_negative_index_is_rejected_when_the_teacher_is_built(self, indices, named):
        """A negative index never reaches a loss, where numpy would wrap it to
        the vocabulary's end; the rows name their smallest index."""
        with pytest.raises(ValueError, match=f"^teacher index {named} is negative$"):
            dv.TopKRows(indices, np.full((len(indices), 2), 0.4))

    def test_degenerate_messages(self):
        teacher = dv.TopKDistribution(indices=np.array([3, 1, 2]),
                                      probs=np.array([0.5, 0.0, 0.0]))
        z = np.array([0.0, -900.0, 0.0, -900.0])
        with pytest.raises(dv.DegenerateStudent) as exc:
            dv.fkl_topk(teacher, z)
        assert str(exc.value) == "student probability underflowed at top-k indices [3, 1]"
        with pytest.raises(dv.DegenerateTeacher) as exc:
            dv.rkl_topk_masked(teacher, z)
        assert str(exc.value) == "teacher probability is zero at top-k indices [1, 2]"
        # in a batch the first degenerate row is the one named
        fine = np.array([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(dv.DegenerateStudent) as exc:
            dv.LOSSES["ckd"].rows(dv.TopKRows([[0, 1, 2], [3, 1, 2], [1, 2, 3]],
                                              np.full((3, 3), 0.3)),
                                  np.stack([fine, z, z]), 2, 1.0)
        assert str(exc.value) == "student probability underflowed at top-k indices [3, 1]"


class TestTopKRows:
    def test_reused_teacher_equals_a_fresh_one_per_call(self):
        """One teacher stepped against many student batches, as ``kd_fit``
        does, gives what a teacher built for each call gives, bit for bit; a
        change to the caller's arrays after the build reaches neither, nor a
        ``TopKDistribution`` built from the first row. The batches alternate
        between two vocabulary sizes, so the mask of entries outside the top-k
        that the teacher keeps for one size must not serve the other."""
        teachers = [_instance(seed, 40, 6)[0] for seed in range(4)]
        indices = np.stack([t.indices for t in teachers])
        probs = np.stack([t.probs for t in teachers])
        shared = dv.TopKRows(indices, probs)
        first = dv.TopKDistribution(indices[0], probs[0])
        built_from = indices.copy(), probs.copy()
        indices[:, 0], probs[:] = 39, 0.0
        fresh_first = dv.TopKDistribution(built_from[0][0], built_from[1][0])
        for name, loss in dv.LOSSES.items():
            for batch, logits in enumerate(["normal", "underflow", "ties", "wide"] * 2):
                vocab_size = (40, 48)[batch % 2]
                z = np.stack([_instance(100 * batch + r, vocab_size, 6, logits)[1]
                              for r in range(4)])
                assert _outcome(loss.rows, shared, z, 5, 2.0) == \
                    _outcome(loss.rows, dv.TopKRows(*built_from), z, 5, 2.0), (name, batch)
                assert _outcome(loss, first, z[0], 5, 2.0) == \
                    _outcome(loss, fresh_first, z[0], 5, 2.0), (name, batch)

    def test_arrays_are_read_only(self):
        teacher = dv.TopKRows([[0, 1]], [[0.5, 0.0]])
        for array in (teacher.indices, teacher.probs, teacher.log_probs, teacher.live,
                      teacher.outside(3)):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        one_row = dv.TopKDistribution(np.array([0, 1]), np.array([0.5, 0.0]))
        for array in (one_row.indices, one_row.probs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("teacher_rows, student_rows", [(1, 2), (2, 1), (3, 0)])
    def test_rejects_student_rows_that_differ_from_the_teachers(self, teacher_rows,
                                                                student_rows):
        """A one-row teacher was once broadcast over two student rows, and two
        teacher rows against one student row raised numpy's bare IndexError.
        The count is checked first: the NaN logit, which one row alone would
        name, is not reached."""
        teacher = dv.TopKRows(np.tile([0, 1], (teacher_rows, 1)),
                              np.full((teacher_rows, 2), 0.25))
        z = np.zeros((student_rows, 4))
        z[:, 3] = math.nan
        message = f"^student logits have {student_rows} rows, the teacher {teacher_rows}$"
        for loss in dv.LOSSES.values():
            with pytest.raises(ValueError, match=message):
                loss.rows(teacher, z, 2, 10.0)

    def test_a_student_of_the_wrong_rank_is_named_by_the_shape_each_entry_needs(self):
        """``rows`` needs (N, V) logits and says so, where it once asked for a
        1-d vector; a one-row call still does. The checks before the rank's
        keep their order: the row count, then a composite loss's lambda."""
        rows = dv.TopKRows([[0, 1]], [[0.5, 0.25]])
        one = dv.TopKDistribution(np.array([0, 1]), np.array([0.5, 0.25]))
        for name, loss in dv.LOSSES.items():
            with pytest.raises(ValueError, match=r"^student logits must be an \(N, V\) array$"):
                loss.rows(rows, np.zeros((1, 2, 2)), 2, 1.0)
            with pytest.raises(ValueError, match="^student logits must be a 1-d vector$"):
                loss(one, np.zeros((2, 2)), 2, 1.0)
            with pytest.raises(ValueError, match="^student logits have 2 rows, the teacher 1$"):
                loss.rows(rows, np.zeros((2, 2, 2)), 2, -1.0)
            if name in ("ckd", "rkl-stab"):  # the losses that take lambda
                with pytest.raises(ValueError, match="^lambda=-1.0 must be non-negative$"):
                    loss.rows(rows, np.zeros((1, 2, 2)), 2, -1.0)
                with pytest.raises(ValueError, match="^lambda=-1.0 must be non-negative$"):
                    loss(one, np.zeros((2, 2)), 2, -1.0)

    def test_one_row_teachers_compare_and_hash_by_identity(self):
        # a generated == once raised on the k > 1 arrays' truth value, and
        # hash() once raised TypeError on them
        a = dv.TopKDistribution(np.array([0, 1]), np.array([0.5, 0.25]))
        b = dv.TopKDistribution(np.array([0, 1]), np.array([0.5, 0.25]))
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    @pytest.mark.parametrize("indices, probs", [
        ([0, 1], [0.5, 0.5]), ([[0, 1]], [[0.5, 0.5, 0.0]]),
        (np.zeros((2, 0)), np.zeros((2, 0))),
    ])
    def test_rejects_shapes_other_than_equal_non_empty_n_by_k(self, indices, probs):
        with pytest.raises(ValueError, match="non-empty"):
            dv.TopKRows(indices, probs)

    def test_rejects_a_repeated_index_within_a_row(self):
        """A repeated index would take one of its two -p_j gradient terms."""
        dv.TopKRows([[0, 1], [1, 0]], np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match="distinct within a row"):
            dv.TopKRows([[0, 1], [2, 2]], np.full((2, 2), 0.3))

    @pytest.mark.parametrize("probs, message", [
        ([math.nan, 0.5], "top-k probabilities must be finite and within [0, 1]"),
        ([-0.2, 0.5], "top-k probabilities must be finite and within [0, 1]"),
        ([1.5, 0.5], "top-k probabilities must be finite and within [0, 1]"),
        ([0.9, 0.9], "top-k probabilities sum to 1.8 > 1"),
    ], ids=["nan", "negative", "above one", "sum above one"])
    def test_rejects_what_a_one_row_teacher_rejects(self, probs, message):
        """A NaN, a probability outside [0, 1] or a row summing past one fails
        ``.rows`` of every loss with the message of ``TopKDistribution``,
        whether the first row holds it or only a later one."""
        message = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=message):
            dv.TopKDistribution(np.array([0, 1]), np.array(probs))
        for batch in ([probs], [[0.5, 0.25], probs], [[0.5, 0.25], [0.5, 0.5], probs]):
            n = len(batch)
            for name, loss in dv.LOSSES.items():
                with pytest.raises(ValueError, match=message):
                    loss.rows(dv.TopKRows(np.tile([0, 1], (n, 1)), batch),
                              np.zeros((n, 4)), 2, 10.0)

    @pytest.mark.parametrize("lam, message", [
        (math.nan, "lambda=nan must be finite"), (math.inf, "lambda=inf must be finite"),
        (-1.0, "lambda=-1.0 must be non-negative"),
    ])
    def test_bad_lambda_is_rejected_where_it_weights_a_term(self, lam, message):
        """A composite rejects a NaN, infinite or negative lambda, at one row
        and in a batch, as the oracle does; the other losses ignore it."""
        teacher, z = random_instance(np.random.default_rng(3), 32, 8, 16)
        batch = dv.TopKRows(teacher.indices[None], teacher.probs[None])
        for name, loss in dv.LOSSES.items():
            expected = (ValueError, message) if loss.kl and loss.tail \
                else _outcome(LOSSES_PER_ROW[name], teacher, z, 16, 1.0)
            assert _outcome(loss, teacher, z, 16, lam) == expected, name
            assert _outcome(LOSSES_PER_ROW[name], teacher, z, 16, lam) == expected, name
            assert _outcome(loss.rows, batch, z[None], 16, lam)[0] == expected[0], name


class TestRegistry:
    def test_training_objectives_are_registered(self):
        assert set(dv.KD_LOSS_KINDS) <= set(dv.LOSSES) - {"tail"}
        for name in ("KD_LOSS_KINDS", "DEFAULT_TOPM", "DEFAULT_LAMBDA_TAIL"):
            assert getattr(dv, name) is getattr(tooltrain, name)
        assert list(dv.LOSSES) == ["fkl", "tail", "ckd", "rkl", "rkl-stab"]

    def test_registry_matches_public_kernels(self):
        teacher, z = random_instance(np.random.default_rng(15), 32, 8, 16)
        direct = {
            "fkl": dv.fkl_topk(teacher, z),
            "tail": dv.tail_penalty(teacher, z, 16),
            "ckd": dv.ckd_loss(teacher, z, 16, 2.5),
            "rkl": dv.rkl_topk_masked(teacher, z),
            "rkl-stab": dv.rkl_topk_stabilized(teacher, z, 16, 2.5),
        }
        for name, expected in direct.items():
            got = dv.LOSSES[name](teacher, z, 16, 2.5)
            assert got.loss == expected.loss, name
            assert np.array_equal(got.grad, expected.grad), name
            assert got.aux == expected.aux, name

class TestRkl:
    def test_zero_when_student_matches_full_mass_teacher(self):
        teacher = uniform_teacher(4, 4)
        report = dv.rkl_topk_masked(teacher, np.zeros(4))
        assert report.loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(report.grad, 0.0, atol=1e-12)

    def test_degenerate_teacher_raises(self):
        teacher = dv.TopKDistribution(indices=np.array([0, 1]),
                                      probs=np.array([0.5, 0.0]))
        with pytest.raises(dv.DegenerateTeacher):
            dv.rkl_topk_masked(teacher, np.zeros(4))

    def test_stabilized_lambda_zero_reduces_to_masked(self):
        rng = np.random.default_rng(9)
        teacher, z = random_instance(rng, 16, 4, 8)
        stab = dv.rkl_topk_stabilized(teacher, z, m=8, lambda_tail=0.0)
        masked = dv.rkl_topk_masked(teacher, z)
        assert stab.loss == pytest.approx(masked.loss)
        np.testing.assert_allclose(stab.grad, masked.grad)


class TestCollapseWitness:
    """Frozen 3-token instance from a coarse grid search (see the search test).

    Under the masked reverse KL the teacher-endorsed low-probability token
    gets a larger gradient than the student's confident-but-wrong token, so
    descent raises the wrong logit at the expense of the endorsed one. The
    tail penalty restores grad(confident-wrong) > grad(top-k endorsed).
    """

    def test_masked_rkl_inverts_on_witness(self):
        teacher, z, m = collapse_witness()
        grad = dv.rkl_topk_masked(teacher, z).grad
        endorsed = 1   # in the teacher top-k with tiny probability
        wrong = 2      # student's confident token outside the top-k
        assert grad[endorsed] > grad[wrong]
        # descent direction: the wrong token is promoted, the endorsed one cut
        assert grad[wrong] < 0 < grad[endorsed]

    def test_tail_penalty_restores_ordering(self):
        teacher, z, m = collapse_witness()
        lam = 10.0
        stab = dv.rkl_topk_stabilized(teacher, z, m, lam).grad
        constrained = dv.ckd_loss(teacher, z, m, lam).grad
        assert stab[2] > stab[1]
        assert constrained[2] > constrained[1]

    def test_fkl_never_inverts_on_witness(self):
        teacher, z, _ = collapse_witness()
        grad = dv.fkl_topk(teacher, z).grad
        assert grad[2] > grad[1]

    def test_grid_search_confirms_witness_family(self):
        # derivation oracle: scan 3-token instances (k=2, m=1) for inversions
        found = []
        for p1 in (0.02, 0.015, 0.005):
            for q2 in (0.5, 0.8, 0.9):
                teacher = dv.TopKDistribution(
                    indices=np.array([0, 1]), probs=np.array([0.98, p1]))
                q = np.array([(1 - q2) / 2, (1 - q2) / 2, q2])
                grad = dv.rkl_topk_masked(teacher, np.log(q)).grad
                if grad[1] > grad[2]:
                    found.append((p1, q2))
        assert (0.015, 0.8) in found  # the frozen witness parameters

    def test_witness_gradients_match_finite_differences(self):
        teacher, z, m = collapse_witness()
        for fn in (lambda t, zz: dv.rkl_topk_masked(t, zz),
                   lambda t, zz: dv.rkl_topk_stabilized(t, zz, m, 10.0),
                   lambda t, zz: dv.ckd_loss(t, zz, m, 10.0)):
            analytic = fn(teacher, z).grad
            numeric = central_difference(lambda zz: fn(teacher, zz).loss, z)
            assert relative_error(analytic, numeric) <= REL_TOL


class TestGradientSuite:
    def test_all_losses_match_finite_differences(self):
        results = run_gradient_suite(seed=0, trials=50, vocab_size=32, k=8, m=16)
        assert set(results) == {"fkl", "tail", "ckd", "rkl", "rkl-stab"}
        for name, result in results.items():
            assert result.instances == 50
            assert result.max_rel_err <= REL_TOL, name
            assert result.max_grad_sum <= 1e-8, name

    def test_wide_vocabulary_matches_finite_differences(self):
        # V above FULL_SORT_MAX_SIZE: the probes' top-m goes through _select_smallest
        results = run_gradient_suite(seed=0, trials=3, vocab_size=1024, k=8, m=16)
        for name, result in results.items():
            assert result.instances == 3
            assert result.max_rel_err <= REL_TOL, name
            assert result.max_grad_sum <= 1e-8, name

    @pytest.mark.parametrize("vocab_size, k, m", [(16, 4, 8), (32, 8, 16), (300, 8, 16)])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_batched_quotients_equal_the_per_coordinate_oracle(self, vocab_size, k, m,
                                                               blocked, monkeypatch):
        if blocked:  # calls of a third of the coordinates; at V=16 and 32 a short last
            monkeypatch.setattr(gradcheck, "PROBE_CELLS", 2 * vocab_size * (vocab_size // 3))
        rng = np.random.default_rng(vocab_size)
        for _ in range(2):
            teacher, z = random_instance(rng, vocab_size, k, m)
            for name, loss in dv.LOSSES.items():
                batched = central_differences(loss, teacher, z, m, 10.0)
                oracle = central_difference(lambda zz: loss(teacher, zz, m, 10.0).loss, z)
                assert batched.tobytes() == oracle.tobytes(), name

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_an_error(self, trials):
        # with no instance every loss once passed, with max_rel_err 0.0
        with pytest.raises(ValueError, match=f"^trials={trials} must be at least 1$"):
            run_gradient_suite(trials=trials)

    def test_nan_gradient_fails_the_suite(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a running Python max once passed this kernel
        kind = dv.LOSSES["fkl"]

        def nan_grad(teacher, z, m, lambda_tail):
            report = kind.kernel(teacher, z, m, lambda_tail)
            return dv.LossReport(report.loss, np.full_like(z, np.nan), report.aux)

        monkeypatch.setitem(dv.LOSSES, "fkl", kind._replace(kernel=nan_grad))
        results = run_gradient_suite(seed=0, trials=3, vocab_size=16, k=4, m=8)
        assert math.isnan(results["fkl"].max_rel_err)
        assert math.isnan(results["fkl"].max_grad_sum)
        assert not results["fkl"].passed
        assert all(r.passed for name, r in results.items() if name != "fkl")

    def test_zero_teacher_probability_is_its_limit(self):
        # 0 * log 0 counts as 0: the loss is finite and the gradient still checks
        rng = np.random.default_rng(4)
        for _ in range(20):
            teacher, z = random_instance(rng, 32, 8, 16)
            probs = teacher.probs.copy()
            probs[-1] = 0.0
            zeroed = dv.TopKDistribution(indices=teacher.indices, probs=probs)
            dropped = dv.TopKDistribution(indices=teacher.indices[:-1], probs=probs[:-1])
            assert dv.fkl_topk(zeroed, z).loss == dv.fkl_topk(dropped, z).loss
            for name in ("fkl", "ckd"):
                fn = dv.LOSSES[name]
                report = fn(zeroed, z, 16, 10.0)
                assert np.isfinite(report.loss), name
                numeric = central_difference(
                    lambda zz: fn(zeroed, zz, 16, 10.0).loss, z)
                assert relative_error(report.grad, numeric) <= REL_TOL, name

    def test_gradients_sum_to_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            teacher, z = random_instance(rng, 32, 8, 16)
            for fn in dv.LOSSES.values():
                assert abs(fn(teacher, z, 16, 10.0).grad.sum()) <= 1e-8

    def test_descent_step_decreases_each_loss(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            teacher, z = random_instance(rng, 32, 8, 16)
            for name, fn in dv.LOSSES.items():
                report = fn(teacher, z, 16, 10.0)
                if np.abs(report.grad).max() < 1e-9:
                    continue  # already stationary
                stepped = fn(teacher, z - 1e-3 * report.grad, 16, 10.0)
                assert stepped.loss < report.loss, name

    def test_boundary_margin_filter(self):
        # a student exactly tied at the top-m boundary must be rejected
        z = np.zeros(8)
        assert topm_boundary_gap(z, 4) == 0.0
        rng = np.random.default_rng(12)
        _, z = random_instance(rng, 16, 4, 8)
        assert topm_boundary_gap(z, 8) > 0
