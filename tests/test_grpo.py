import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tooltrain import (
    GrpoConfig,
    LengthMismatch,
    Rollout,
    RolloutGroup,
    ZeroVariance,
    filter_homogeneous,
    grpo_objective,
    kl_k2,
    standardize_advantages,
)
from tooltrain.grpo import token_terms
from tooltrain.toy_trainer import SlotView, Trajectory

from oracles import (
    RecomputingSlotView,
    grpo_objective_per_rollout,
    objective_and_gradient_per_token,
    standardize_advantages_methods,
    token_terms_np_clip,
)


def single_token_rollout(logp_new, logp_old, logp_ref, reward=0.0):
    return Rollout(logp_new=np.array([logp_new]), logp_old=np.array([logp_old]),
                   logp_ref=np.array([logp_ref]), reward=reward)


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its arrays' shapes and bytes, or its exception's
    type and message, with the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
            result = [(a.shape, a.dtype, a.tobytes())
                      for a in (result if isinstance(result, tuple) else (result,))]
        except Exception as exc:  # its type and message are the outcome
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def group_of(rewards, tokens=1):
    rollouts = [Rollout(logp_new=np.full(tokens, -1.0),
                        logp_old=np.full(tokens, -1.0),
                        logp_ref=np.full(tokens, -1.0), reward=r)
                for r in rewards]
    return RolloutGroup(prompt_id="p", rollouts=rollouts)


nan, inf = math.nan, math.inf
# uniform floats, {0, 0.5, 1} grids, signed zeros, non-finite, huge and subnormal
# rewards, and any float, in groups of 2 to 64
_grid = st.sampled_from([0.0, 0.5, 1.0])
_edges = st.sampled_from([0.0, -0.0, nan, inf, -inf, 1e308, -1e308, 1.7e308,
                          5e-324, -5e-324, 1e-310, 2.2250738585072014e-308])
reward_vectors = st.integers(2, 64).flatmap(lambda g: st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=g, max_size=g),
    st.lists(_grid, min_size=g, max_size=g),
    st.lists(st.floats(-1.0, 1.0) | _grid | _edges, min_size=g, max_size=g),
    st.lists(_grid | _edges, min_size=g, max_size=g),
    st.lists(st.floats(), min_size=g, max_size=g)))


class TestAdvantages:
    def test_closed_form_example(self):
        adv = standardize_advantages([1, 0, 0, 1])
        np.testing.assert_array_equal(adv, [1.0, -1.0, -1.0, 1.0])

    def test_zero_variance_raises(self):
        with pytest.raises(ZeroVariance):
            standardize_advantages([0.5] * 6)

    @pytest.mark.parametrize("value", [0.7, 0.1])
    def test_equal_rewards_with_nonzero_float_std_raise(self, value):
        assert np.full(3, value).std() > 0.0  # the float mean is not exactly value
        with pytest.raises(ZeroVariance):
            standardize_advantages([value] * 3)

    @pytest.mark.parametrize("rewards", [[1e308, -1e308, 0.0], [1e308, 1.7e308],
                                         [0.0, float("inf")], [1.0, float("nan")]])
    def test_spread_past_float64_raises(self, rewards):
        with pytest.raises(ValueError, match="^reward spread overflows float64$"):
            standardize_advantages(rewards)
        with pytest.raises(ZeroVariance):
            standardize_advantages([1.7e308] * 2)

    def test_needs_at_least_two(self):
        with pytest.raises(ValueError):
            standardize_advantages([1.0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rewards = rng.uniform(-1, 1, size=rng.integers(2, 9))
            if rewards.max() == rewards.min():
                continue
            shifted = standardize_advantages(rewards + 0.37)
            np.testing.assert_allclose(shifted, standardize_advantages(rewards),
                                       atol=1e-9)

    def test_zero_mean_unit_population_std(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rewards = rng.uniform(-1, 1, size=rng.integers(2, 12))
            if rewards.max() == rewards.min():
                continue
            adv = standardize_advantages(rewards)
            assert abs(adv.mean()) <= 1e-9
            assert abs(adv.std() - 1.0) <= 1e-9  # population std

    @pytest.mark.parametrize("rewards", [[[1, 2], [3, 4]], [[1, 1], [1, 1]],
                                         np.ones((2, 2)), np.array(0.5), [[]]])
    def test_input_that_is_not_1d_is_named_by_its_shape(self, rewards):
        shape = np.shape(rewards)
        with pytest.raises(ValueError, match=f"^advantage standardization needs 1-d "
                                             f"rewards, got shape {re.escape(str(shape))}$"):
            standardize_advantages(rewards)

    @settings(max_examples=200, deadline=None)
    @given(rewards=reward_vectors)
    @example(rewards=[0.7] * 3)
    @example(rewards=[0.1] * 64)
    @example(rewards=[1.7e308] * 2)
    @example(rewards=[1.7e308, 1.6e308])
    @example(rewards=[1e308, 1e308, -1e308, -1e308, 1.0, 0.0, 0.5, 0.25, 1e308])
    @example(rewards=[1.7e308, -1.7e308, -1.7e308])
    @example(rewards=[inf, inf])
    @example(rewards=[inf, -inf])
    @example(rewards=[nan] * 9)
    @example(rewards=[0.0, 5e-324])
    @example(rewards=[5e-324, 1e-323])
    @example(rewards=[-0.0, 0.0])
    @example(rewards=[1e-160, -1e-160, 3e-162])
    @example(rewards=[0.0, 0.5, 1.0, 0.5, 0.0, 1.0, 1.0, 0.5, 0.0])
    def test_equals_the_ndarray_method_form(self, rewards):
        # bytes, exception and RuntimeWarnings; 8 or more rewards take numpy's
        # blocked pairwise sum, and an ndarray skips the list round trip
        want = outcome(standardize_advantages_methods, rewards)
        assert outcome(standardize_advantages, rewards) == want
        assert outcome(standardize_advantages, np.array(rewards)) == want


class TestFilter:
    def test_all_equal_rewards_dropped(self):
        groups = [group_of([1.0, 1.0, 1.0, 1.0])]
        assert filter_homogeneous(groups) == []

    def test_mixed_rewards_kept(self):
        groups = [group_of([1.0, 0.0, 0.5])]
        assert filter_homogeneous(groups) == groups

    def test_empty_input(self):
        assert filter_homogeneous([]) == []

    def test_preserves_order_and_contents(self):
        mixed = [group_of([0.0, 0.0]), group_of([1.0, 0.0]),
                 group_of([-1.0, -1.0]), group_of([0.2, 0.9])]
        kept = filter_homogeneous(mixed)
        assert kept == [mixed[1], mixed[3]]
        assert kept[0] is mixed[1]  # survivors are untouched, not copies

    nan = float("nan")

    @pytest.mark.parametrize("rewards, kept", [
        ([nan, 1.0], True), ([1.0, nan], True),  # NaN != NaN: a NaN group has spread
        ([nan, nan], True), ([-0.0, 0.0], False), ([0.7] * 8, False), ([], False),
    ])
    def test_edge_cases(self, rewards, kept):
        group = group_of(rewards)
        assert filter_homogeneous([group]) == ([group] if kept else [])


class TestKlK2:
    def test_equal_logps(self):
        assert kl_k2(-1.3, -1.3) == 0.0

    def test_half_squared_gap(self):
        assert kl_k2(-1.0, -2.0) == pytest.approx(0.5)

    def test_symmetric_in_sign(self):
        assert kl_k2(-1.0, -2.0) == kl_k2(-2.0, -1.0)

    def test_elementwise(self):
        out = kl_k2(np.array([-1.0, -2.0]), np.array([-2.0, -2.0]))
        np.testing.assert_allclose(out, [0.5, 0.0])


class TestObjective:
    def test_on_policy_identity(self):
        # all ratios one and beta zero: the objective is the mean advantage
        group = group_of([1.0, 0.0, 0.0, 1.0], tokens=3)
        adv = standardize_advantages(group.rewards())
        cfg = GrpoConfig(epsilon=0.2, beta=0.0)
        value = grpo_objective(group, adv, cfg)
        assert value == pytest.approx(adv.mean())

    def test_positive_advantage_clip(self):
        # single token, r = 2, A = 1: min(2, 1.2) = 1.2
        rollout = single_token_rollout(np.log(2.0), 0.0, 0.0)
        group = RolloutGroup("p", [rollout])
        value = grpo_objective(group, [1.0], GrpoConfig(epsilon=0.2, beta=0.0))
        assert value == pytest.approx(1.2)

    def test_negative_advantage_not_rescued(self):
        # single token, r = 2, A = -1: min(-2, -1.2) = -2
        rollout = single_token_rollout(np.log(2.0), 0.0, 0.0)
        group = RolloutGroup("p", [rollout])
        value = grpo_objective(group, [-1.0], GrpoConfig(epsilon=0.2, beta=0.0))
        assert value == pytest.approx(-2.0)

    def test_kl_penalty_subtracts(self):
        rollout = single_token_rollout(-1.0, -1.0, -2.0)
        group = RolloutGroup("p", [rollout])
        with_kl = grpo_objective(group, [0.5], GrpoConfig(epsilon=0.2, beta=0.1))
        without = grpo_objective(group, [0.5], GrpoConfig(epsilon=0.2, beta=0.0))
        assert with_kl == pytest.approx(without - 0.1 * 0.5)

    def test_empty_group_raises(self):
        # the mean of no rollout once warned "Mean of empty slice" and gave NaN
        with pytest.raises(ValueError, match="^a group needs at least one rollout$"):
            grpo_objective(RolloutGroup("p"), [], GrpoConfig())

    def test_returns_a_float(self):
        value = grpo_objective(group_of([1.0, 0.0]), [1.0, -1.0], GrpoConfig())
        assert type(value) is float

    def test_length_mismatch(self):
        group = group_of([1.0, 0.0])
        with pytest.raises(LengthMismatch,
                           match=r"^advantages of shape \(1,\) for 2 rollouts$"):
            grpo_objective(group, [1.0], GrpoConfig())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_advantage_raises(self, bad):
        # a NaN advantage once gave a NaN objective
        with pytest.raises(ValueError, match="^advantages must be finite$"):
            grpo_objective(group_of([1.0, 0.0]), [bad, 1.0], GrpoConfig())

    def test_a_column_of_advantages_raises(self):
        # a (G, 1) array once passed as G advantages, and its message once
        # read "2 advantages for 2 rollouts", which names no mismatch
        for column in ([[1.0], [2.0]], np.array([[1.0], [2.0]])):
            with pytest.raises(LengthMismatch,
                               match=r"^advantages of shape \(2, 1\) for 2 rollouts$"):
                grpo_objective(group_of([1.0, 0.0]), column, GrpoConfig())

    def test_reorder_invariance(self):
        rng = np.random.default_rng(2)
        rollouts = [Rollout(logp_new=rng.uniform(-2, 0, size=3),
                            logp_old=rng.uniform(-2, 0, size=3),
                            logp_ref=rng.uniform(-2, 0, size=3),
                            reward=float(rng.uniform(-1, 1)))
                    for _ in range(5)]
        group = RolloutGroup("p", rollouts)
        adv = standardize_advantages(group.rewards())
        base = grpo_objective(group, adv, GrpoConfig())
        perm = rng.permutation(5)
        shuffled = RolloutGroup("p", [rollouts[i] for i in perm])
        assert grpo_objective(shuffled, adv[perm], GrpoConfig()) \
            == pytest.approx(base)

    def test_unclipped_importance_estimator_single_token(self):
        # with beta = 0 and a huge clip range the T=1 objective is exactly
        # mean_i(r_i * A_i)
        rng = np.random.default_rng(3)
        rollouts = [single_token_rollout(rng.uniform(-2, 0), rng.uniform(-2, 0),
                                         -1.0, reward=float(rng.uniform(-1, 1)))
                    for _ in range(6)]
        group = RolloutGroup("p", rollouts)
        adv = standardize_advantages(group.rewards())
        cfg = GrpoConfig(epsilon=1e9, beta=0.0)
        expected = np.mean([
            np.exp(r.logp_new[0] - r.logp_old[0]) * a
            for r, a in zip(rollouts, adv)])
        assert grpo_objective(group, adv, cfg) == pytest.approx(expected)

    def test_token_mean_per_rollout_normalization(self):
        # a long rollout must not outweigh a short one
        long = Rollout(logp_new=np.full(10, -1.0), logp_old=np.full(10, -1.0),
                       logp_ref=np.full(10, -1.0), reward=1.0)
        short = single_token_rollout(-1.0, -1.0, -1.0, reward=0.0)
        group = RolloutGroup("p", [long, short])
        adv = standardize_advantages(group.rewards())
        value = grpo_objective(group, adv, GrpoConfig(beta=0.0))
        assert value == pytest.approx((adv[0] + adv[1]) / 2)


class TestValidation:
    def test_rollout_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Rollout(logp_new=np.zeros(2), logp_old=np.zeros(3),
                    logp_ref=np.zeros(2), reward=0.0)

    def test_rollout_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Rollout(logp_new=np.array([np.nan]), logp_old=np.zeros(1),
                    logp_ref=np.zeros(1), reward=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GrpoConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            GrpoConfig(beta=-1.0)
        cfg = GrpoConfig()
        assert cfg.epsilon == 0.2 and cfg.beta == 1e-3

    @pytest.mark.parametrize("field", ["epsilon", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       10**400, True, False, "x", None, [0.1]])
    def test_config_rejects_non_finite_or_non_real(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
            GrpoConfig(**{field: value})
        assert getattr(GrpoConfig(**{field: np.float64(0.5)}), field) == 0.5


log_probs = st.floats(-3.0, 0.0, allow_subnormal=False)
signed_advantages = st.sampled_from([0.0, -0.0, 1.0, -1.0]) \
    | st.floats(-3.0, 3.0, allow_subnormal=False)
clip_ranges = st.sampled_from([0.1, 0.2, 0.5])
betas = st.sampled_from([0.0, 1e-3, 0.1])


class TestTokenTerms:
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-3.0, 3.0, allow_subnormal=False), adv=signed_advantages,
           logp_ref=log_probs, epsilon=clip_ranges, beta=betas)
    # A > 0 with r above 1 + eps, A < 0 with r below 1 - eps: the clip acts
    @example(x=-1.0, adv=1.0, logp_ref=-1.0, epsilon=0.2, beta=1e-3)
    @example(x=2.0, adv=-1.0, logp_ref=-1.0, epsilon=0.2, beta=1e-3)
    # the other sides of the clip range, where it cannot act
    @example(x=-1.0, adv=-1.0, logp_ref=-1.0, epsilon=0.2, beta=1e-3)
    @example(x=2.0, adv=1.0, logp_ref=-1.0, epsilon=0.2, beta=1e-3)
    # -0.0 counts as A >= 0, at and off ratio 1
    @example(x=0.0, adv=-0.0, logp_ref=-0.5, epsilon=0.2, beta=0.1)
    @example(x=-1.0, adv=-0.0, logp_ref=-0.5, epsilon=0.2, beta=0.1)
    def test_derivative_is_the_oracle_coefficient(self, x, adv, logp_ref, epsilon, beta):
        # one token at a live slot [0, 0], drawn from a view of [x, 0], so the
        # ratio is (1 + exp(-x)) / 2: from about 0.52 to 10.5, and 1 at x = 0;
        # the oracle's gradient there is coef * ([1, 0] - [0.5, 0.5]), whose
        # first entry is coef / 2 exactly (a zero coefficient loses its sign)
        slot, decisions = ("p", "fn"), [(("p", "fn"), 0)]
        live, view = {slot: np.zeros(2)}, SlotView({slot: np.array([x, 0.0])})
        traj = Trajectory(decisions, "", 0.0, 0.0, np.array([logp_ref]))
        cfg = GrpoConfig(epsilon=epsilon, beta=beta)
        _, grads = objective_and_gradient_per_token(
            live, [([traj], np.array([adv]))], view, cfg)
        _, derivative = token_terms(RecomputingSlotView(live).logps(decisions),
                                    view.logps(decisions), traj.logp_ref, adv, cfg)
        assert derivative.shape == (1,)
        assert derivative[0] == 2 * grads[slot][0]

    @settings(max_examples=150, deadline=None)
    @given(tokens=st.lists(st.tuples(st.floats(-50.0, 0.0), st.floats(-50.0, 0.0),
                                     st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6)),
                           min_size=1, max_size=8),
           epsilon=st.floats(1e-300, 10.0), beta=st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
    def test_derivative_at_ratio_one_is_a_minus_beta_gap(self, tokens, epsilon, beta):
        # the trainer's coefficient before its division, as it once wrote it out
        logp, logp_ref, adv = map(np.array, zip(*tokens))
        _, derivative = token_terms(logp, logp, logp_ref, adv,
                                    GrpoConfig(epsilon=epsilon, beta=beta))
        assert derivative.tobytes() == (adv - beta * (logp - logp_ref)).tobytes()

    @pytest.mark.parametrize("side", ["hi", "lo"])
    @pytest.mark.parametrize("gap", [0.05, 0.2, 0.5, 0.6])
    def test_clip_by_minimum_and_maximum_is_np_clip(self, side, gap):
        # ratios at exactly 1 + eps (or 1 - eps), inside, outside and at 1, and
        # NaN, inf and 0 from non-finite log-probabilities, each with every advantage
        diffs = [gap, -gap, 0.0, 0.5 * gap, -0.5 * gap, 2.0, -2.0, 1000.0, -1000.0,
                 math.inf, -math.inf, math.nan]
        advantages = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan]
        logp_new = np.repeat(diffs, len(advantages)) - 0.5
        logp_old = np.full(logp_new.size, -0.5)
        logp_new[-len(advantages):], logp_old[-len(advantages):] = math.inf, math.inf  # NaN
        adv = np.tile(advantages, len(diffs))
        logp_ref = np.linspace(-2.0, 0.0, logp_new.size)
        with np.errstate(all="ignore"):
            at = np.exp(logp_new - logp_old)[0 if side == "hi" else len(advantages)]
        epsilon = at - 1.0 if side == "hi" else 1.0 - at
        cfg = GrpoConfig(epsilon=epsilon, beta=0.1)
        assert (1.0 + cfg.epsilon if side == "hi" else 1.0 - cfg.epsilon) == at
        want = outcome(token_terms_np_clip, logp_new, logp_old, logp_ref, adv, cfg)
        assert outcome(token_terms, logp_new, logp_old, logp_ref, adv, cfg) == want

    @settings(max_examples=150, deadline=None)
    @given(members=st.lists(st.tuples(st.lists(st.tuples(log_probs, log_probs, log_probs),
                                               min_size=1, max_size=6),
                                      signed_advantages), min_size=1, max_size=6),
           epsilon=clip_ranges, beta=betas)
    # the clip acts on both rollouts: r = exp(0.7) with A = 1, r = exp(-0.7) with A = -1
    @example(members=[([(-0.3, -1.0, -1.0)], 1.0), ([(-1.0, -0.3, -0.5)], -1.0)],
             epsilon=0.2, beta=1e-3)
    def test_objective_equals_the_per_rollout_loop(self, members, epsilon, beta):
        group = RolloutGroup("p", [Rollout(*map(np.array, zip(*tokens)), reward=0.0)
                                   for tokens, _ in members])
        advantages = [adv for _, adv in members]
        cfg = GrpoConfig(epsilon=epsilon, beta=beta)
        value = grpo_objective(group, advantages, cfg)
        assert type(value) is float
        assert np.float64(value).tobytes() == \
            np.float64(grpo_objective_per_rollout(group, advantages, cfg)).tobytes()
