import collections
import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tooltrain.divergence as dv
import tooltrain.toy_trainer as toy_trainer
from tooltrain import ToolSchema
from tooltrain.grpo import GrpoConfig, LengthMismatch, Rollout, standardize_advantages
from tooltrain.toy_task import (
    ToyPrompt,
    ToyTask,
    bundled_default_task,
    bundled_optional_param_task,
    load_task,
    render_call_text,
    save_task,
)
from tooltrain.toy_trainer import (
    OMIT,
    UNIFORM_BLOCK,
    DrawnGroup,
    SlotView,
    ToyPolicy,
    ToyTrainConfig,
    TrainLog,
    adversarial_teacher_family,
    evaluate_policy,
    kd_fit,
    objective_and_gradient,
    sample_group,
    train_sim_rl,
    uniform_stream,
)
from tooltrain.chat_format import ToolCall
from tooltrain.reward import total_reward

from oracles import (
    RecomputingSlotView,
    draw_action,
    gradient_per_token,
    kd_fit_recording,
    mean_entropy_per_table,
    objective_and_gradient_per_token,
    sample_group_unmemoised,
    sample_path,
)


def tiny_task() -> ToyTask:
    schema = ToolSchema.from_dict([
        {"name": "f1", "parameters": {"a": {"type": "int"}}},
        {"name": "f2", "parameters": {"b": {"type": "str", "default": "x"}}},
    ])
    domains = {"f1": {"a": [1, 2]}, "f2": {"b": ["x", "y"]}}
    gt = render_call_text("t", [ToolCall("f1", {"a": 1})])
    return ToyTask(schema=schema, domains=domains,
                   prompts=[ToyPrompt("t0", gt)])


def draw_group(policy, prompt_id, group_size, rng, reward_mode="sim"):
    """``sample_group`` with a fresh memo and view, drawing one ``rng.random()``
    call per decision."""
    # a callable iterator: rng.random() never returns the sentinel
    return sample_group(policy, prompt_id, group_size, reward_mode, {},
                        SlotView(policy.tables), iter(rng.random, None))


def enumerate_expected_reward(policy: ToyPolicy, task: ToyTask,
                              prompt_id: str) -> float:
    """Oracle: exact expectation over the full finite trajectory space."""
    fn_probs = dv.softmax(policy.tables[(prompt_id, "fn")])
    expected = 0.0
    for fi, fdef in enumerate(task.schema.functions):
        slots = [(prompt_id, "arg", fdef.name, pname) for pname in fdef.parameters]
        action_sets = [range(policy.tables[s].size) for s in slots]
        for combo in itertools.product(*action_sets):
            prob = fn_probs[fi]
            args = {}
            for slot, action in zip(slots, combo):
                prob *= dv.softmax(policy.tables[slot])[action]
                value = policy.actions[slot][action]
                if value is not OMIT:
                    args[slot[3]] = value
            text = render_call_text("select the matching tool",
                                    [ToolCall(fdef.name, args)])
            reward = total_reward(text, task.prompt(prompt_id).ground_truth,
                                  task.schema).total
            expected += prob * reward
    return expected


class TestTasks:
    def test_bundled_tasks_validate(self):
        # construction itself runs the format check on every ground truth
        assert len(bundled_default_task().schema.functions) == 4
        assert len(bundled_optional_param_task().prompts) == 1

    def test_task_file_round_trip(self, tmp_path):
        task = bundled_default_task()
        path = tmp_path / "task.json"
        save_task(task, path)
        again = load_task(path)
        assert again.to_dict() == task.to_dict()

    def test_invalid_ground_truth_rejected(self):
        schema = ToolSchema.from_dict([{"name": "f1", "parameters": {}}])
        with pytest.raises(ValueError, match="format-valid"):
            ToyTask(schema=schema, domains={"f1": {}},
                    prompts=[ToyPrompt("p", "no think block")])

    @pytest.mark.parametrize("domains, prompts, message", [
        ([], [ToyPrompt("p", "<think>t</think>ok")], "must cover exactly"),
        ({"f1": ["a"]}, [ToyPrompt("p", "<think>t</think>ok")], "must cover exactly"),
        ({"f1": {"a": 1.5}}, [ToyPrompt("p", "<think>t</think>ok")],
         "^value domain for f1.a is not a list$"),
        ({"f1": {"a": [1]}}, [], "at least one prompt"),
        ({"f1": {"a": [1]}}, [ToyPrompt(float("nan"), "<think>t</think>ok")],
         "string id"),
    ])
    def test_malformed_task_is_value_error(self, domains, prompts, message):
        schema = ToolSchema.from_dict(
            [{"name": "f1", "parameters": {"a": {"type": "int"}}}])
        with pytest.raises(ValueError, match=message):
            ToyTask(schema=schema, domains=domains, prompts=prompts)

    def test_task_without_a_function_rejected(self):
        # SlotView once reduced the empty function slot: numpy's zero-size error
        with pytest.raises(ValueError, match="^a task needs at least one function$"):
            ToyTask(schema=ToolSchema.from_dict([]), domains={},
                    prompts=[ToyPrompt("p", "<think>t</think>ok")])

    def test_domains_must_cover_parameters(self):
        schema = ToolSchema.from_dict(
            [{"name": "f1", "parameters": {"a": {"type": "int"}}}])
        with pytest.raises(ValueError, match="domains"):
            ToyTask(schema=schema, domains={"f1": {}}, prompts=[])


class TestRollouts:
    def test_each_slot_has_one_action_tuple(self):
        task = bundled_default_task()
        policy = ToyPolicy(task)
        assert policy.actions["p1", "fn"] == (
            "get_weather", "convert_currency", "get_time", "translate")
        assert policy.actions["p1", "arg", "get_weather", "units"] == (
            "celsius", "fahrenheit", OMIT)
        assert policy.actions["p1", "arg", "get_weather", "city"] == (
            "paris", "tokyo", "sydney")
        assert list(policy.actions) == list(policy.tables)
        assert all(policy.tables[slot].size == len(actions)
                   for slot, actions in policy.actions.items())
        # the tuples are the policy's own: a later edit of the task leaves them
        task.domains["get_weather"]["city"].append("oslo")
        assert policy.actions["p1", "arg", "get_weather", "city"] == (
            "paris", "tokyo", "sydney")

    def test_rendered_rollouts_always_format_valid(self):
        task = bundled_default_task()
        policy = ToyPolicy(task)
        rng = np.random.default_rng(0)
        for prompt in task.prompts:
            for traj in draw_group(policy, prompt.prompt_id, 16, rng).trajectories:
                breakdown = total_reward(traj.text, prompt.ground_truth, task.schema)
                assert breakdown.r_format == 1
                assert traj.graded_reward == breakdown.total

    def test_seeded_rollout_reproducible(self):
        task = bundled_default_task()
        policy = ToyPolicy(task)
        a = draw_group(policy, "p0", 8, np.random.default_rng(5))
        b = draw_group(policy, "p0", 8, np.random.default_rng(5))
        assert [t.reward for t in a.trajectories] == [t.reward for t in b.trajectories]
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(a.view.logps(ta.decisions),
                                          b.view.logps(tb.decisions))

    def test_one_hot_policy_gives_homogeneous_group(self):
        task = tiny_task()
        policy = ToyPolicy(task)
        policy.tables[("t0", "fn")][0] = 1e3
        policy.tables[("t0", "arg", "f1", "a")][0] = 1e3
        group = draw_group(policy, "t0", 8, np.random.default_rng(1))
        assert {t.reward for t in group.trajectories} == {1.0}

    def test_uniform_policy_matches_enumeration_oracle(self):
        task = tiny_task()
        policy = ToyPolicy(task)  # zero tables: uniform
        exact = enumerate_expected_reward(policy, task, "t0")
        assert exact == pytest.approx(0.25)  # 1/2 * 1/2 chance of the exact call
        rng = np.random.default_rng(2)
        trajectories = draw_group(policy, "t0", 3000, rng).trajectories
        mc = np.mean([t.graded_reward for t in trajectories])
        sigma = np.std([t.graded_reward for t in trajectories]) / np.sqrt(3000)
        assert abs(mc - exact) < 4 * sigma + 1e-3

    def test_logp_ref_frozen_at_init(self):
        task = tiny_task()
        policy = ToyPolicy(task)
        # single-entry drift: a whole-row shift would be softmax-invariant
        policy.tables[("t0", "fn")][0] += 1.5
        group = draw_group(policy, "t0", 4, np.random.default_rng(3))
        for traj in group.trajectories:
            np.testing.assert_array_equal(traj.logp_ref,
                                          policy.ref_view.logps(traj.decisions))
            assert not np.allclose(group.view.logps(traj.decisions)[0], traj.logp_ref[0])


@st.composite
def slot_tables(draw, min_size=1, max_size=11):
    """1-11-way logit tables: plain, scaled up to 50, and near-one-hot."""
    size = draw(st.integers(min_size, max_size))
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    z *= draw(st.sampled_from([1.0, 5.0, 50.0]))
    if draw(st.booleans()):
        z[draw(st.integers(0, size - 1))] += draw(st.floats(20.0, 60.0))
    return z


class TestSlotView:
    @settings(max_examples=300, deadline=None)
    @given(table=slot_tables(), seed=st.integers(0, 2**32 - 1))
    def test_draws_and_logps_equal_the_recomputing_oracle(self, table, seed):
        slot = ("p", "fn")
        view = SlotView({slot: table})
        oracle = RecomputingSlotView({slot: table})
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            action = draw_action(view, slot, rng)
            assert action == oracle.draw(slot, oracle_rng)
            decisions = [(slot, action)]
            np.testing.assert_array_equal(view.logps(decisions),
                                          oracle.logps(decisions))
        np.testing.assert_array_equal(view.probs(slot), oracle.probs(slot))

    @settings(max_examples=200, deadline=None)
    @given(tables=st.lists(slot_tables(2, 6), min_size=1, max_size=24),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_batched_view_equals_the_recomputing_oracle(self, tables, seed, data):
        # many tables of mixed sizes, so each view stacks several sizes
        tables = {("p", "arg", "f", str(i)): z for i, z in enumerate(tables)}
        view, oracle = SlotView(tables), RecomputingSlotView(tables)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for slot, z in tables.items():
            assert np.array(view.probs(slot)).tobytes() == oracle.probs(slot).tobytes()
            for _ in range(4):
                assert draw_action(view, slot, rng) == oracle.draw(slot, oracle_rng)
            decisions = [(slot, action) for action in range(z.size)]
            assert view.logps(decisions).tobytes() == oracle.logps(decisions).tobytes()
        assert view.mean_entropy == mean_entropy_per_table(tables)

        slot = data.draw(st.sampled_from(list(tables)))
        poisoned = tables[slot].copy()
        poisoned[data.draw(st.integers(0, poisoned.size - 1))] = \
            data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            SlotView({**tables, slot: poisoned})

    @settings(max_examples=100, deadline=None)
    @given(tables=st.lists(slot_tables(2, 6), min_size=1, max_size=24), data=st.data())
    def test_incremental_view_equals_a_fresh_view(self, tables, data):
        tables = {("p", "arg", "f", str(i)): z for i, z in enumerate(tables)}
        previous = SlotView(tables)
        changed = data.draw(st.lists(st.sampled_from(list(tables)), unique=True))
        for slot in changed:  # in place, as an update edits the policy's tables
            tables[slot] += data.draw(slot_tables(tables[slot].size, tables[slot].size))

        def derived(v):
            return [np.array(x).tobytes() for slot, z in tables.items()
                    for x in (v.probs(slot), v.cdf(slot),
                              v.logps([(slot, a) for a in range(z.size)]))] \
                + [np.array(v.mean_entropy).tobytes()]
        view = SlotView(tables, previous, changed)
        assert derived(view) == derived(SlotView(tables))

        slot = data.draw(st.sampled_from(list(tables)))
        tables[slot] = tables[slot].copy()
        tables[slot][data.draw(st.integers(0, tables[slot].size - 1))] = \
            data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        with pytest.raises(ValueError, match="^log-probabilities must be finite$"), \
                np.errstate(invalid="ignore"):
            SlotView(tables, view, [slot])

    @pytest.mark.parametrize("mode", ["sim", "binary"])
    @pytest.mark.parametrize("group_size", [4, 8])
    def test_training_equals_the_recomputing_oracle_path(self, mode, group_size,
                                                         monkeypatch):
        task = bundled_default_task()
        cfg = ToyTrainConfig(group_size=group_size, reward_mode=mode)
        policy, log = train_sim_rl(task, cfg, iterations=40, seed=group_size)
        score = evaluate_policy(policy, task, 16, seed=1)
        monkeypatch.setattr(toy_trainer, "SlotView", RecomputingSlotView)
        oracle_policy, oracle_log = train_sim_rl(task, cfg, iterations=40,
                                                 seed=group_size)
        assert log == oracle_log
        for key, table in policy.tables.items():
            np.testing.assert_array_equal(table, oracle_policy.tables[key])
        assert score == evaluate_policy(oracle_policy, task, 16, seed=1)


def train_unmemoised(task, cfg, iterations, seed, monkeypatch, keys=None):
    """``train_sim_rl`` through the oracles: unmemoised sampling, recomputing
    views and the per-token update; ``keys`` collects each sampled
    trajectory's (prompt, actions) memo key. The oracle draws from its own
    generator of ``seed``, one ``random()`` call per decision, and leaves the
    run's uniform stream unread: the doubles the run would have drawn."""
    rng = np.random.default_rng(seed)

    def sample_group(policy, prompt_id, group_size, reward_mode, paths, view, uniforms):
        group = sample_group_unmemoised(policy, prompt_id, group_size, rng, reward_mode)
        if keys is not None:
            keys.update(path_keys(group.trajectories))
        return group

    with monkeypatch.context() as patch:
        patch.setattr(toy_trainer, "sample_group", sample_group)
        patch.setattr(toy_trainer, "SlotView", RecomputingSlotView)
        patch.setattr(toy_trainer, "objective_and_gradient", gradient_per_token)
        return train_sim_rl(task, cfg, iterations, seed)


def evaluate_unmemoised(policy, task, samples_per_prompt, seed):
    rng = np.random.default_rng(seed)
    view = SlotView(policy.tables)
    graded = []
    for prompt in task.prompts:
        for _ in range(samples_per_prompt):
            _, call = sample_path(policy, prompt.prompt_id, rng, view)
            text = render_call_text("select the matching tool", [call])
            graded.append(total_reward(text, prompt.ground_truth, task.schema).total)
    return float(np.mean(graded))


@st.composite
def table_families(draw):
    """1-12 tables of 1-20 entries, logits scaled up to 800 so rows underflow."""
    tables = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 20))
        z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size,
                                   max_size=size)))
        tables.append(z * draw(st.sampled_from([1.0, 10.0, 100.0, 800.0])))
    return tables


def assert_training_equals_the_oracle_path(make_task, cfg, seed, monkeypatch):
    task = make_task()
    policy, log = train_sim_rl(task, cfg, iterations=40, seed=seed)
    oracle_policy, oracle_log = train_unmemoised(task, cfg, 40, seed, monkeypatch)
    for name in ("mean_reward", "mean_entropy", "filtered_fraction"):
        assert np.array_equal(getattr(log, name), getattr(oracle_log, name))
    for key, table in policy.tables.items():
        assert np.array_equal(table, oracle_policy.tables[key])
    assert evaluate_policy(policy, task, 16, seed=1) == \
        evaluate_unmemoised(oracle_policy, task, 16, seed=1)


class TestUniformStream:
    def test_stream_equals_scalar_random_calls(self):
        n = 3 * UNIFORM_BLOCK + 1
        stream = itertools.islice(uniform_stream(np.random.default_rng(11)), n)
        scalar = np.random.default_rng(11)
        assert np.array(list(stream)).tobytes() == \
            np.array([scalar.random() for _ in range(n)]).tobytes()

    def test_group_from_the_stream_equals_the_group_from_scalar_calls(self):
        task = bundled_default_task()
        policy = ToyPolicy(task)
        stream, rng = uniform_stream(np.random.default_rng(3)), np.random.default_rng(3)
        for prompt in task.prompts * 3:
            from_stream = sample_group(policy, prompt.prompt_id, 8, "sim", {},
                                       SlotView(policy.tables), stream).trajectories
            from_rng = draw_group(policy, prompt.prompt_id, 8, rng).trajectories
            assert [t.decisions for t in from_stream] == [t.decisions for t in from_rng]


class TestScoreMemo:
    @pytest.mark.parametrize("make_task", [bundled_default_task,
                                           bundled_optional_param_task])
    @pytest.mark.parametrize("mode", ["sim", "binary"])
    @pytest.mark.parametrize("group_size", [4, 8])
    @pytest.mark.parametrize("filter_groups", [True, False])
    def test_training_equals_the_unmemoised_oracle_path(
            self, make_task, mode, group_size, filter_groups, monkeypatch):
        cfg = ToyTrainConfig(group_size=group_size, reward_mode=mode,
                             filter_groups=filter_groups)
        assert_training_equals_the_oracle_path(make_task, cfg, group_size, monkeypatch)

    @pytest.mark.parametrize("make_task", [bundled_default_task,
                                           bundled_optional_param_task])
    @pytest.mark.parametrize("mode", ["sim", "binary"])
    def test_wide_kl_equals_the_oracle_path(self, make_task, mode, monkeypatch):
        cfg = ToyTrainConfig(reward_mode=mode, filter_groups=False, beta=0.1)
        assert_training_equals_the_oracle_path(make_task, cfg, 6, monkeypatch)

    def test_each_distinct_trajectory_is_scored_once_per_run(self, monkeypatch):
        task, cfg = bundled_default_task(), ToyTrainConfig()
        keys = set()
        _, unwrapped_log = train_unmemoised(task, cfg, 500, 0, monkeypatch, keys)
        calls = []

        def counting_total_reward(*args, **kwargs):
            calls.append(args[:2])  # (text, ground truth)
            return total_reward(*args, **kwargs)

        # a tracer wraps the reward by this name: it sees every scoring and
        # leaves the run as it was
        monkeypatch.setattr(toy_trainer, "total_reward", counting_total_reward)
        _, log = train_sim_rl(task, cfg, 500, 0)
        assert 0 < len(calls) == len(keys) < 500 * len(task.prompts) * cfg.group_size
        assert len(set(calls)) == len(calls)
        assert log == unwrapped_log

    def test_group_without_memo_dedups_within_the_group(self, monkeypatch):
        calls = []
        monkeypatch.setattr(toy_trainer, "total_reward",
                            lambda *a: calls.append(a) or total_reward(*a))
        task = tiny_task()
        trajectories = draw_group(ToyPolicy(task), "t0", 64,
                                  np.random.default_rng(0)).trajectories
        # f1 takes a in {1, 2}; f2 takes b in {x, y} or omits it
        assert len(calls) == len({t.text for t in trajectories}) == 5

    @settings(max_examples=200, deadline=None)
    @given(tables=table_families())
    def test_batched_entropy_equals_per_table_entropy(self, tables):
        expected = float(np.mean([dv.entropy(dv.softmax(z)) for z in tables]))
        assert np.array_equal(SlotView(dict(enumerate(tables))).mean_entropy, expected)

    def test_batched_entropy_on_underflowed_rows(self):
        rows = [np.array([0.0, -800.0, 3.0, 1.0, -900.0, 2.0, 0.5, 0.25, 7.0]),
                np.arange(9) * 100.0, np.linspace(-1, 1, 9)]
        tables = dict(enumerate(rows))
        assert np.array_equal(SlotView(tables).mean_entropy,
                              mean_entropy_per_table(tables))


class FixedDraws:
    """A generator stand-in whose ``random()`` returns the given floats."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def path_keys(trajectories):
    """Each trajectory's path memo key: its prompt and its actions."""
    return {(t.decisions[0][0][0], tuple(action for _, action in t.decisions))
            for t in trajectories}


class TestPathMemo:
    @settings(max_examples=200, deadline=None)
    @given(tables=table_families(),
           uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
    def test_bisect_draw_equals_searchsorted_on_underflowing_tables(self, tables,
                                                                    uniforms):
        for z in tables:
            cdf = dv.softmax(z).cumsum()
            cdf /= cdf[-1]
            # each CDF value and its neighbours, where the side of a tie decides
            edges = [np.nextafter(c, 0.0) for c in cdf] + list(cdf) + \
                [np.nextafter(c, 1.0) for c in cdf]
            draws = [float(u) for u in edges if 0.0 <= u < 1.0] + uniforms
            view = SlotView({"slot": z})
            assert [draw_action(view, "slot", FixedDraws([u])) for u in draws] == \
                cdf.searchsorted(draws, side="right").tolist()

    def test_bindings_follow_the_view(self):
        task, rng = bundled_default_task(), np.random.default_rng(8)
        policy, oracle_policy = ToyPolicy(task), ToyPolicy(task)
        uniforms = rng.random(64).tolist()  # 16 paths of at most 3 decisions
        changed = [slot for slot in policy.tables if slot[0] == "p0"]

        def update():
            for slot in changed:
                policy.tables[slot] += 3.0 * rng.normal(size=policy.tables[slot].size)

        def oracle_paths():
            return oracle_policy.sample_paths("p0", 16, iter(uniforms),
                                              RecomputingSlotView(policy.tables))

        view_a = SlotView(policy.tables)
        drawn_a = policy.sample_paths("p0", 16, iter(uniforms), view_a)
        update()
        view_b = SlotView(policy.tables, view_a, changed)
        drawn_b = policy.sample_paths("p0", 16, iter(uniforms), view_b)
        assert drawn_b == oracle_paths() != drawn_a
        # a view made per call dies with it, and the next may take its address
        for _ in range(3):
            update()
            assert policy.sample_paths("p0", 16, iter(uniforms),
                                       SlotView(policy.tables)) == oracle_paths()

    def test_one_view_keeps_each_memos_paths_apart(self):
        # the same draws under both modes: equal paths whose rewards differ
        policy = ToyPolicy(bundled_default_task())
        view, rewards = SlotView(policy.tables), {}
        for mode in ("sim", "binary"):
            group = sample_group(policy, "p0", 16, mode, {}, view,
                                 iter(np.random.default_rng(4).random, None))
            fresh = draw_group(policy, "p0", 16, np.random.default_rng(4), mode)
            assert group.view is view is not fresh.view
            rewards[mode] = [t.reward for t in group.trajectories]
            assert rewards[mode] == [t.reward for t in fresh.trajectories]
        assert rewards["sim"] != rewards["binary"]

    def test_a_view_dies_with_its_last_reference(self):
        task = bundled_default_task()
        policy, paths = ToyPolicy(task), {}
        uniforms = iter(np.random.default_rng(0).random, None)
        gc.disable()  # only reference counting may free the view
        try:
            for _ in range(2):
                view = SlotView(policy.tables)
                for prompt in task.prompts:
                    sample_group(policy, prompt.prompt_id, 8, "sim", paths, view, uniforms)
                assert paths
                dead = weakref.ref(view)
                del view
                assert dead() is None
        finally:
            gc.enable()

    def test_paths_logps_and_entropies_are_derived_once_per_table_state(
            self, monkeypatch):
        task, cfg, iterations = bundled_default_task(), ToyTrainConfig(), 200
        # the oracle run: the paths drawn at each table state, the distinct
        # paths of each update's kept groups, and the entropy of the tables
        # each iteration starts from
        state, drawn, kept, entropies = [0], set(), [], []

        def oracle_objective(samples, beta):
            kept.append(set().union(*(path_keys(group.trajectories)
                                      for group, _ in samples)))
            state[0] += 1
            return gradient_per_token(samples, beta)

        rng = np.random.default_rng(0)  # the run's seed, whose stream stays unread

        def oracle_sample_group(policy, prompt_id, group_size, mode, paths, view, uniforms):
            if prompt_id == task.prompts[0].prompt_id:
                entropies.append(mean_entropy_per_table(policy.tables))
            group = sample_group_unmemoised(policy, prompt_id, group_size, rng, mode)
            drawn.update((state[0], key) for key in path_keys(group.trajectories))
            return group

        with monkeypatch.context() as patch:
            patch.setattr(toy_trainer, "sample_group", oracle_sample_group)
            patch.setattr(toy_trainer, "objective_and_gradient", oracle_objective)
            oracle_policy, oracle_log = train_sim_rl(task, cfg, iterations, seed=0)
        # each iteration logs the entropy of the tables it leaves behind
        assert oracle_log.mean_entropy == \
            entropies[1:] + [mean_entropy_per_table(oracle_policy.tables)]

        counts, policies, views, ref_paths = collections.Counter(), [], [], []
        phase = ["sampling"]
        rollout_init, view_init, logps = Rollout.__post_init__, SlotView.__init__, \
            SlotView.logps
        objective = toy_trainer.objective_and_gradient

        class RecordedPolicy(ToyPolicy):
            def __init__(self, task):
                super().__init__(task)
                policies.append(self)

        def counted(name, fn):
            return lambda *args: counts.update([name]) or fn(*args)

        def update(samples, beta):
            counts.update(["update"])
            phase[0] = "update"
            try:
                return objective(samples, beta)
            finally:
                phase[0] = "sampling"

        def recorded_view(view, tables, *previous_and_changed):
            views.append(tables)
            view_init(view, tables, *previous_and_changed)

        def recorded_logps(view, decisions):
            if view.tables is policies[0].ref_tables:
                ref_paths.append(tuple(decisions))
            else:
                counts.update([f"live logps while {phase[0]}"])
            return logps(view, decisions)

        monkeypatch.setattr(toy_trainer, "ToyPolicy", RecordedPolicy)
        monkeypatch.setattr(Rollout, "__post_init__", counted("rollout", rollout_init))
        monkeypatch.setattr(SlotView, "__init__", recorded_view)
        monkeypatch.setattr(SlotView, "logps", recorded_logps)
        monkeypatch.setattr(toy_trainer, "objective_and_gradient", update)
        log = train_sim_rl(task, cfg, iterations, seed=0)[1]

        assert log == oracle_log
        # no Rollout at all: each drawn path is its one Trajectory
        assert counts["rollout"] == 0
        # live log-probs only in the updates, once per distinct kept path
        assert counts["live logps while sampling"] == 0
        assert counts["live logps while update"] == sum(map(len, kept)) > 0
        # reference log-probs once per distinct path for the whole run
        assert len(ref_paths) == len(set(ref_paths)) == len({key for _, key in drawn})
        # one view per table state and one of the reference tables per run
        assert [tables is policies[0].ref_tables for tables in views].count(True) == 1
        assert [tables is policies[0].tables for tables in views].count(True) == \
            counts["update"] + 1 == len(kept) + 1 < iterations
        assert len(views) == len(kept) + 2


class TestPolicyGradient:
    @pytest.mark.parametrize("beta", [1e-3, 0.1])
    def test_matches_finite_differences_on_frozen_minibatch(self, beta):
        # the tables leave the reference before sampling, so the KL penalty is
        # non-trivial while every ratio at the sampling tables is 1; the value
        # differenced is the oracle's grpo_objective, not the code under test
        task = bundled_optional_param_task()
        policy = ToyPolicy(task)
        rng = np.random.default_rng(0)
        for key, table in policy.tables.items():
            policy.tables[key] = table + 0.5 * rng.normal(size=table.size)
        for seed in range(10):  # first seed whose group has reward spread
            group = draw_group(policy, "opt0", 8, np.random.default_rng(seed))
            rewards = np.array([t.reward for t in group.trajectories])
            if rewards.max() != rewards.min():
                break
        samples = [(group, standardize_advantages(rewards))]
        grads = objective_and_gradient(samples, beta)
        cfg = GrpoConfig(beta=beta)

        step = 1e-6
        for key, table in policy.tables.items():
            for idx in range(table.size):
                original = table[idx]
                table[idx] = original + step
                up, _ = objective_and_gradient_per_token(policy.tables, samples, cfg)
                table[idx] = original - step
                down, _ = objective_and_gradient_per_token(policy.tables, samples, cfg)
                table[idx] = original
                numeric = (up - down) / (2 * step)
                got = grads[key][idx] if key in grads else 0.0
                assert abs(numeric - got) <= 1e-5 * max(1.0, abs(numeric)), (key, idx)


def on_policy_minibatch(make_task, seed, offset):
    """One group per prompt plus a copy of the first with every member twice,
    zero advantages for a homogeneous group, all drawn from one view after the
    live tables move off the reference by ``offset`` standard normals per
    entry: every ratio at the live tables is 1, and the KL gaps are not 0."""
    task = make_task()
    policy = ToyPolicy(task)
    rng = np.random.default_rng(seed)
    for key, table in policy.tables.items():
        policy.tables[key] = table + offset * rng.normal(size=table.size)
    view, samples, uniforms = SlotView(policy.tables), [], iter(rng.random, None)
    for prompt in task.prompts:
        group = sample_group(policy, prompt.prompt_id, 8, "sim", {}, view, uniforms)
        rewards = np.array([t.reward for t in group.trajectories])
        advantages = standardize_advantages(rewards) \
            if rewards.max() != rewards.min() else np.zeros(rewards.size)
        samples.append((group, advantages))
    first, first_advantages = samples[0]
    samples.append((DrawnGroup(view, first.trajectories * 2),
                    np.concatenate([first_advantages] * 2)))
    return policy, samples


advantage_values = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-3.0, 3.0)


@st.composite
def wide_batches(draw):
    """Slot sizes of 1 to 64 actions, paths as (slot index, action) decisions over
    them, and groups as (path index, advantage) members, for hand-built batches."""
    sizes = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4))
    decisions = st.integers(0, len(sizes) - 1).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(0, sizes[s] - 1)))
    paths = draw(st.lists(st.lists(decisions, min_size=1, max_size=5),
                          min_size=1, max_size=6))
    members = st.tuples(st.integers(0, len(paths) - 1), advantage_values)
    return sizes, paths, draw(st.lists(st.lists(members, min_size=1, max_size=8),
                                       min_size=1, max_size=4))


# slot 0 (64 actions) is hit by 13 tokens, 10 of them on action 5; slot 1 has one
WIDE_BATCH = ([64, 1, 7],
              [[(0, 5), (1, 0), (2, 3)], [(0, 5), (2, 3)], [(0, 63), (0, 5)]],
              [[(0, 1.0), (1, -0.0), (2, -2.5)], [(0, 0.0), (1, 0.7), (2, -0.7), (0, 1.0)],
               [(2, -1.0), (1, 0.5), (0, 2.0)]])


def member_pool(offset):
    """A group of six members sampled on the optional-parameter task after
    the policy's tables moved off the reference by ``offset`` standard
    normals per entry."""
    policy, rng = ToyPolicy(bundled_optional_param_task()), np.random.default_rng(2)
    for key, table in policy.tables.items():
        policy.tables[key] = table + offset * rng.normal(size=table.size)
    return draw_group(policy, "opt0", 6, rng)


class TestUpdateOracle:
    @pytest.mark.parametrize("make_task", [bundled_default_task,
                                           bundled_optional_param_task])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("offset", [0.05, 1.0])
    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.1])
    def test_gradient_equals_the_per_token_oracle(self, make_task, seed, offset, beta):
        _, samples = on_policy_minibatch(make_task, seed, offset)
        grads = objective_and_gradient(samples, beta)
        oracle_grads = gradient_per_token(samples, beta)
        assert grads.keys() <= oracle_grads.keys()
        for key, oracle_grad in oracle_grads.items():
            if key in grads:
                assert grads[key].tobytes() == oracle_grad.tobytes(), key
            else:
                assert oracle_grad.tobytes() == np.zeros_like(oracle_grad).tobytes(), key

    @settings(max_examples=60, deadline=None)
    @given(groups=st.lists(st.lists(st.tuples(st.integers(0, 5), advantage_values),
                                    min_size=2, max_size=7), min_size=1, max_size=5),
           offset=st.sampled_from([0.0, 0.05, 1.0]), beta=st.sampled_from([0.0, 1e-3, 0.1]))
    # one member shared by groups of sizes 2 and 3
    @example(groups=[[(0, 1.0), (1, -1.0)], [(0, 1.0), (1, -1.0), (2, 0.5)]],
             offset=0.05, beta=1e-3)
    # one member repeated within groups, with equal and with unequal advantages
    @example(groups=[[(0, 1.0), (0, 1.0), (1, -2.0)], [(0, 0.7), (0, -0.7), (1, 0.0)]],
             offset=1.0, beta=0.1)
    # one member with a 0.0 and a -0.0 advantage in one call
    @example(groups=[[(0, 0.0), (1, 1.0)], [(0, -0.0), (1, -1.0)]], offset=0.0, beta=0.0)
    def test_shared_members_equal_the_per_token_oracle(self, groups, offset, beta):
        pool = member_pool(offset)
        samples = [(DrawnGroup(pool.view, [pool.trajectories[i] for i, _ in members]),
                    np.array([adv for _, adv in members]))
                   for members in groups]
        grads = objective_and_gradient(samples, beta)
        oracle_grads = gradient_per_token(samples, beta)
        assert grads.keys() <= oracle_grads.keys()
        for key, oracle_grad in oracle_grads.items():
            got = grads.get(key, np.zeros_like(oracle_grad))
            assert got.tobytes() == oracle_grad.tobytes(), key

    @settings(max_examples=60, deadline=None)
    @given(batch=wide_batches(), seed=st.integers(0, 3), beta=st.sampled_from([0.0, 1e-3]))
    @example(batch=WIDE_BATCH, seed=0, beta=0.0)
    @example(batch=WIDE_BATCH, seed=1, beta=1e-3)
    def test_wide_slots_equal_the_per_token_oracle(self, batch, seed, beta):
        # the bundled tasks' slots hold 2 to 4 actions; these hold up to 64
        sizes, paths, groups = batch
        rng, slots = np.random.default_rng(seed), [("w", i) for i in range(len(sizes))]
        view = SlotView({slot: rng.normal(size=n) for slot, n in zip(slots, sizes)})
        ref_view = SlotView({slot: rng.normal(size=n) for slot, n in zip(slots, sizes)})
        trajectories = []
        for path in paths:
            decisions = [(slots[s], action) for s, action in path]
            trajectories.append(toy_trainer.Trajectory(decisions, "", 0.0, 0.0,
                                                       ref_view.logps(decisions)))
        samples = [(DrawnGroup(view, [trajectories[i] for i, _ in members]),
                    np.array([adv for _, adv in members])) for members in groups]
        grads = objective_and_gradient(samples, beta)
        touched = dict.fromkeys(slot for group, _ in samples
                                for traj in group.trajectories for slot, _ in traj.decisions)
        assert list(grads) == list(touched)  # first-touch token order
        for key, oracle_grad in gradient_per_token(samples, beta).items():
            got = grads.get(key, np.zeros_like(oracle_grad))
            assert got.tobytes() == oracle_grad.tobytes(), key

    def test_minibatches_cover_both_advantage_signs(self):
        advantages = [adv for make_task in (bundled_default_task,
                                            bundled_optional_param_task)
                      for seed in range(4) for offset in (0.05, 1.0)
                      for _, group_adv in on_policy_minibatch(make_task, seed, offset)[1]
                      for adv in group_adv.tolist()]
        assert min(advantages) < 0 < max(advantages) and 0.0 in advantages

    def test_a_batch_from_two_views_raises(self):
        # the update is exact at ratio 1 only, at the tables that drew the batch
        policy, samples = on_policy_minibatch(bundled_default_task, 0, 0.05)
        other = draw_group(policy, "p0", 8, np.random.default_rng(1))
        assert other.view is not samples[0][0].view
        with pytest.raises(ValueError, match="^the batch's groups were drawn from "
                                             "different views$"):
            objective_and_gradient([*samples, (other, np.ones(8))], 1e-3)

    def test_tables_edited_after_sampling_leave_the_gradient(self):
        # the gradient is taken at the view's table state, not at the live tables
        policy, samples = on_policy_minibatch(bundled_default_task, 0, 0.05)
        before = objective_and_gradient(samples, 1e-3)
        rng = np.random.default_rng(1)
        for table in policy.tables.values():
            table += rng.normal(size=table.size)
        after = objective_and_gradient(samples, 1e-3)
        assert before.keys() == after.keys()
        for key, grad in before.items():
            assert grad.tobytes() == after[key].tobytes(), key

    @pytest.mark.parametrize("update", [objective_and_gradient, gradient_per_token])
    @pytest.mark.parametrize("fault", ["advantage count", "length", "nan logp_ref"])
    def test_malformed_minibatches_raise(self, update, fault):
        _, samples = on_policy_minibatch(bundled_default_task, 0, 0.05)
        group, advantages = samples[0]
        trajectories = list(group.trajectories)
        first, error = trajectories[0], ValueError
        if fault == "advantage count":
            advantages, error = advantages[:-1], LengthMismatch
        elif fault == "length":
            trajectories[0] = dataclasses.replace(
                first, logp_ref=np.append(first.logp_ref, 0.0))
        else:
            trajectories[0] = dataclasses.replace(
                first, logp_ref=np.full(first.logp_ref.size, math.nan))
        broken = (DrawnGroup(group.view, trajectories), advantages)
        with pytest.raises(error, match="advantages|equally sized|finite"):
            update([broken], ToyTrainConfig().beta)

    @pytest.mark.parametrize("update", [objective_and_gradient, gradient_per_token])
    def test_empty_group_raises(self, update):
        # its value was once group_value / 0, a ZeroDivisionError
        _, samples = on_policy_minibatch(bundled_default_task, 0, 0.05)
        empty = (DrawnGroup(samples[0][0].view, []), np.zeros(0))
        with pytest.raises(ValueError, match="^a group needs at least one rollout$"):
            update([*samples, empty], ToyTrainConfig().beta)

    @pytest.mark.parametrize("beta", [-1e-3, math.nan])
    def test_a_bad_beta_raises(self, beta):
        # the update's token coefficients take beta through a GrpoConfig
        _, samples = on_policy_minibatch(bundled_default_task, 0, 0.05)
        with pytest.raises(ValueError, match="^beta must be"):
            objective_and_gradient(samples, beta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_advantage_raises(self, bad):
        # the clip test once dropped a NaN's term and kept the KL term; at ratio
        # 1 it would reach the tables
        _, samples = on_policy_minibatch(bundled_default_task, 0, 0.05)
        samples[0][1][3] = bad
        with pytest.raises(ValueError, match="^advantages must be finite$"):
            objective_and_gradient(samples, 1e-3)


class TestTraining:
    @pytest.mark.parametrize("make_task", [bundled_default_task,
                                           bundled_optional_param_task])
    @pytest.mark.parametrize("kwargs", [
        {}, {"reward_mode": "binary", "filter_groups": False}, {"beta": 0.1},
    ], ids=["default", "binary unfiltered", "wide kl"])
    def test_every_update_ratio_is_one(self, make_task, kwargs, monkeypatch):
        # one update per batch, from the view that drew it, which holds the
        # live tables, so the clip range cannot act; an inner-epoch loop must
        # fail here
        task, drawn, members = make_task(), [], []

        def recorded_sample_group(*args):
            drawn.append(sample_group(*args))
            return drawn[-1]

        def checked_update(samples, beta):
            view, this_round = drawn[-1].view, drawn[-len(task.prompts):]
            live = SlotView(view.tables)
            for group, _ in samples:
                assert any(group is drawn_group for drawn_group in this_round)
                assert group.view is view
                members.extend(view.logps(traj.decisions).tobytes()
                               == live.logps(traj.decisions).tobytes()
                               for traj in group.trajectories)
            return objective_and_gradient(samples, beta)

        monkeypatch.setattr(toy_trainer, "sample_group", recorded_sample_group)
        monkeypatch.setattr(toy_trainer, "objective_and_gradient", checked_update)
        train_sim_rl(task, ToyTrainConfig(**kwargs), iterations=60, seed=0)
        assert len(members) > 100 and all(members)

    @pytest.mark.parametrize("make_task", [bundled_default_task,
                                           bundled_optional_param_task])
    @pytest.mark.parametrize("mode", ["sim", "binary"])
    @pytest.mark.parametrize("filter_groups", [True, False])
    def test_bookkeeping_equals_numpy(self, make_task, mode, filter_groups, monkeypatch):
        # the trainer decides homogeneity with Python's max and min and takes
        # its two means without np.mean; each must equal numpy's, bit for bit
        task, drawn, updates, iterations = make_task(), [], {}, 40
        cfg = ToyTrainConfig(reward_mode=mode, filter_groups=filter_groups)

        def recorded_sample_group(*args):
            drawn.append(sample_group(*args))
            return drawn[-1]

        def recorded_update(samples, beta):
            updates[len(drawn)] = samples
            return objective_and_gradient(samples, beta)

        monkeypatch.setattr(toy_trainer, "sample_group", recorded_sample_group)
        monkeypatch.setattr(toy_trainer, "objective_and_gradient", recorded_update)
        policy, log = train_sim_rl(task, cfg, iterations, seed=1)
        n = len(task.prompts)
        assert len(drawn) == iterations * n and len(log) == iterations
        # the view each iteration's entropy is logged from: the next draw's,
        # and after the last iteration the final tables
        views = [group.view for group in drawn[n::n]]
        assert log.mean_entropy[-1] == mean_entropy_per_table(policy.tables)
        homogeneous = 0
        for i in range(iterations):
            groups = drawn[i * n:(i + 1) * n]
            graded = [t.graded_reward for group in groups for t in group.trajectories]
            assert log.mean_reward[i].hex() == float(np.mean(graded)).hex()
            kept, want = [], []
            for group in groups:
                rewards = np.array([t.reward for t in group.trajectories])
                if rewards.max() != rewards.min():
                    kept.append(group)
                    want.append(standardize_advantages(rewards).tobytes())
                elif not filter_groups:
                    kept.append(group)
                    want.append(np.zeros(cfg.group_size).tobytes())
                homogeneous += rewards.max() == rewards.min()
            samples = updates.get((i + 1) * n, [])
            assert [id(group) for group, _ in samples] == [id(group) for group in kept]
            assert [advantages.tobytes() for _, advantages in samples] == want
            assert log.filtered_fraction[i] == 1.0 - len(kept) / n
            if i < iterations - 1:
                view = views[i]
                entropies = [dv.entropy(np.array(view.probs(slot))) for slot in view.tables]
                assert log.mean_entropy[i].hex() == float(np.mean(entropies)).hex()
        # both branches of the rule are taken
        assert 0 < homogeneous < iterations * n

    @pytest.mark.parametrize("make_task", [bundled_default_task,
                                           bundled_optional_param_task])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_evaluation_draws_as_sample_group_does(self, make_task, seed):
        # evaluate_policy keeps its own draw-and-score loop beside sample_group
        task = make_task()
        policy, _ = train_sim_rl(task, ToyTrainConfig(), iterations=30, seed=seed)
        paths, view = {}, SlotView(policy.tables)
        uniforms = uniform_stream(np.random.default_rng(seed))
        graded = [t.graded_reward for prompt in task.prompts
                  for t in sample_group(policy, prompt.prompt_id, 16, "sim", paths, view,
                                        uniforms).trajectories]
        assert evaluate_policy(policy, task, 16, seed).hex() == \
            float(np.mean(graded)).hex()

    def test_zero_iterations_give_an_empty_log(self):
        policy, log = train_sim_rl(bundled_default_task(), ToyTrainConfig(), 0, seed=0)
        assert log == TrainLog() and len(log) == 0
        assert not any(table.any() for table in policy.tables.values())

    def test_deterministic_logs(self):
        task = bundled_optional_param_task()
        cfg = ToyTrainConfig()
        _, log_a = train_sim_rl(task, cfg, iterations=20, seed=9)
        _, log_b = train_sim_rl(task, cfg, iterations=20, seed=9)
        assert log_a.mean_reward == log_b.mean_reward
        assert log_a.mean_entropy == log_b.mean_entropy
        assert log_a.filtered_fraction == log_b.filtered_fraction

    def test_zero_learning_rate_leaves_policy_uniform(self):
        task = bundled_optional_param_task()
        cfg = ToyTrainConfig(learning_rate=0.0)
        policy, log = train_sim_rl(task, cfg, iterations=30, seed=0)
        for table in policy.tables.values():
            np.testing.assert_array_equal(table, np.zeros_like(table))
        assert len(set(log.mean_entropy)) == 1  # entropy never moves

    def test_reward_improves_on_small_budget(self):
        task = bundled_optional_param_task()
        _, log = train_sim_rl(task, ToyTrainConfig(), iterations=60, seed=0)
        assert np.mean(log.mean_reward[-10:]) > np.mean(log.mean_reward[:10]) + 0.2

    def test_rewards_logged_on_graded_scale_in_binary_mode(self):
        task = bundled_optional_param_task()
        _, log = train_sim_rl(task, ToyTrainConfig(reward_mode="binary"),
                              iterations=5, seed=0)
        assert all(-1.0 <= r <= 1.0 for r in log.mean_reward)
        assert any(0.0 < r < 1.0 for r in log.mean_reward)

    def test_log_lengths_and_csv(self, tmp_path):
        task = bundled_optional_param_task()
        _, log = train_sim_rl(task, ToyTrainConfig(), iterations=7, seed=0)
        assert len(log) == 7
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,mean_reward,mean_entropy,filtered_fraction"
        assert len(lines) == 8

    def test_each_distinct_reward_vector_is_standardized_once(self, monkeypatch):
        task, cfg, memoised = bundled_default_task(), ToyTrainConfig(), \
            toy_trainer._advantages

        def run(advantages):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(toy_trainer, "standardize_advantages",
                              lambda r: calls.append(r.tobytes()) or standardize_advantages(r))
                patch.setattr(toy_trainer, "_advantages", advantages)
                return calls, *train_sim_rl(task, cfg, 200, 3)

        calls, policy, log = run(memoised)
        # the memo patched out: a fresh one per group
        unmemoised_calls, oracle_policy, oracle_log = run(
            lambda rewards, memo: memoised(rewards, {}))
        assert len(calls) == len(set(calls)) < len(unmemoised_calls)
        assert set(calls) == set(unmemoised_calls)
        assert log == oracle_log
        for key, table in policy.tables.items():
            assert table.tobytes() == oracle_policy.tables[key].tobytes()

        memo = {}
        with pytest.raises(ValueError, match="overflows"):
            memoised(np.array([1e308, -1e308]), memo)
        assert memo == {}

    def test_unfiltered_homogeneous_groups_do_not_crash(self):
        # uniform-reward groups appear within 60 iterations at this seed
        _, log = train_sim_rl(bundled_default_task(),
                              ToyTrainConfig(filter_groups=False),
                              iterations=60, seed=0)
        assert log.filtered_fraction == [0.0] * 60
        assert np.isfinite(log.mean_entropy).all()

    def test_evaluate_policy_bounds(self):
        task = bundled_optional_param_task()
        policy, _ = train_sim_rl(task, ToyTrainConfig(), iterations=30, seed=1)
        score = evaluate_policy(policy, task, samples_per_prompt=64, seed=0)
        assert 0.0 <= score <= 1.0


    @pytest.mark.parametrize("samples", [0, -1, 2.5, True, "4"])
    def test_evaluate_policy_rejects_a_bad_sample_count(self, samples):
        # 0 once returned NaN with numpy's "Mean of empty slice" warning
        task = tiny_task()
        with pytest.raises(ValueError, match="^samples_per_prompt must be an integer "
                                             "of at least 1, got "):
            evaluate_policy(ToyPolicy(task), task, samples, seed=0)


class TestToyTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("group_size", 2.5), ("group_size", True), ("group_size", "8"),
        ("learning_rate", "x"), ("learning_rate", True), ("beta", [0.1]),
        ("filter_groups", 1), ("filter_groups", "yes"),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ToyTrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("group_size", 1), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("beta", -1e-3), ("beta", math.nan), ("reward_mode", "graded"),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ToyTrainConfig(**{field: value})

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="^learning_rate must be a finite number"):
            ToyTrainConfig(learning_rate=10**400)

    @pytest.mark.parametrize("iterations", [-3, 2.5, True, "5"])
    def test_train_rejects_bad_iterations(self, iterations):
        with pytest.raises(ValueError, match="iterations"):
            train_sim_rl(tiny_task(), ToyTrainConfig(), iterations, seed=0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError,
                           match="^unknown config keys: 'epsilon', 'learnig_rate', 'zeta'$"):
            ToyTrainConfig.from_dict({"zeta": 1, "learnig_rate": 0.0, "epsilon": 0.3})
        assert ToyTrainConfig.from_dict({"beta": 0.3}).beta == 0.3
        # the clip range is no field: see TestTraining.test_every_update_ratio_is_one
        with pytest.raises(TypeError, match="epsilon"):
            ToyTrainConfig(epsilon=0.3)

    def test_beta_rule_follows_the_reward_mode_rule(self):
        with pytest.raises(ValueError, match="^beta must be non-negative$"):
            ToyTrainConfig(beta=-1e-3)
        with pytest.raises(ValueError, match="^reward_mode must be 'sim' or 'binary'$"):
            ToyTrainConfig(beta=-1e-3, reward_mode="graded")
        assert ToyTrainConfig(group_size=np.int64(4), beta=0.0).group_size == 4


class TestTrainLog:
    def test_trailing_mean(self):
        log = TrainLog(mean_reward=[0.0] * 10 + [1.0] * 50,
                       mean_entropy=[0.0] * 60, filtered_fraction=[0.0] * 60)
        assert log.trailing_mean_reward(50) == 1.0

    @pytest.mark.parametrize("window", [0, -1, 1.5, True])
    def test_window_must_be_a_positive_integer(self, window):
        # a window of 0 once took the slice [-0:], the whole log
        log = TrainLog(mean_reward=[0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="window must be an integer of at least 1"):
            log.trailing_mean_reward(window)


class TestKdFit:
    def test_deterministic(self):
        family = adversarial_teacher_family()
        a = kd_fit(family, "ckd", steps=50, step_size=0.5, seed=3)
        b = kd_fit(family, "ckd", steps=50, step_size=0.5, seed=3)
        np.testing.assert_array_equal(a.escape_mass, b.escape_mass)

    @pytest.mark.parametrize("kind", dv.KD_LOSS_KINDS)
    def test_curves_equal_the_recording_pass_oracle(self, kind):
        rng = np.random.default_rng(8)
        random_teachers = [dv.topk_of(dv.softmax(rng.normal(size=48) * 3), 5)
                           for _ in range(4)]
        unequal_k = [dv.topk_of(dv.softmax(rng.normal(size=48) * 3), k)
                     for k in (3, 9, 5)]
        wide = {"vocab_size": 48, "m": 12, "lambda_tail": 2.0}
        for teachers, kwargs, all_steps in [
            (adversarial_teacher_family(seed=3), {}, (0, 1, 500)),
            (random_teachers, wide, (0, 1, 60)),
            (unequal_k, wide, (0, 60)),
        ]:
            for steps in all_steps:
                curves = kd_fit(teachers, kind, steps=steps, step_size=0.5, seed=4,
                                **kwargs)
                escape, entropy = kd_fit_recording(teachers, kind, steps=steps,
                                                   step_size=0.5, seed=4, **kwargs)
                assert np.array_equal(curves.escape_mass, escape)
                assert np.array_equal(curves.entropy, entropy)

    def test_curve_lengths_include_initial_state(self):
        family = adversarial_teacher_family(positions=2)
        curves = kd_fit(family, "fkl", steps=25, step_size=0.5, seed=0)
        assert curves.escape_mass.shape == (26,)
        assert curves.entropy.shape == (26,)

    def test_constrained_escape_decreases_monotonically_after_burn_in(self):
        family = adversarial_teacher_family()
        curves = kd_fit(family, "ckd", steps=300, step_size=0.5, seed=3)
        tail = curves.escape_mass[50:]
        assert (np.diff(tail) <= 1e-12).all()

    def test_masked_rkl_escape_exceeds_constrained(self):
        family = adversarial_teacher_family()
        rkl = kd_fit(family, "rkl", steps=200, step_size=0.5, seed=3)
        con = kd_fit(family, "ckd", steps=200, step_size=0.5, seed=3)
        assert rkl.escape_mass[-1] > con.escape_mass[-1]

    def test_tail_penalty_only_helps_fkl(self):
        family = adversarial_teacher_family()
        fkl = kd_fit(family, "fkl", steps=200, step_size=0.5, seed=3)
        con = kd_fit(family, "ckd", steps=200, step_size=0.5, seed=3)
        assert con.escape_mass[-1] <= fkl.escape_mass[-1]

    def test_unknown_loss_kind(self):
        with pytest.raises(ValueError, match="loss kind"):
            kd_fit(adversarial_teacher_family(positions=1), "nope",
                   steps=1, step_size=0.1, seed=0)

    @pytest.mark.parametrize("arguments, message", [
        ({"steps": -1}, "steps must be a non-negative integer, got -1"),
        ({"steps": -3}, "steps must be a non-negative integer, got -3"),
        ({"steps": 2.5}, "steps must be a non-negative integer, got 2.5"),
        ({"steps": True}, "steps must be a non-negative integer, got True"),
        ({"step_size": math.nan}, "step_size must be a finite number, got nan"),
        ({"step_size": -math.inf}, "step_size must be a finite number, got -inf"),
        ({"teachers": []}, "kd_fit needs at least one teacher position"),
        ({"lambda_tail": math.nan}, "lambda=nan must be finite"),
    ])
    def test_rejects_bad_arguments(self, arguments, message):
        arguments = {"teachers": adversarial_teacher_family(positions=2), "steps": 2,
                     "step_size": 0.1, **arguments}
        with pytest.raises(ValueError) as exc:
            kd_fit(loss_kind="ckd", seed=0, **arguments)
        assert str(exc.value) == message

    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("arguments, error, message", [
        ({"lambda_tail": math.nan}, ValueError, "lambda=nan must be finite"),
        ({"lambda_tail": -1.0}, ValueError, "lambda=-1.0 must be non-negative"),
        ({"m": 0}, ValueError, "m must be at least 1"),
        ({"vocab_size": 4}, IndexError, "teacher index {high} out of bounds for "
                                        "vocabulary of size 4"),
    ])
    def test_every_step_count_runs_the_kernel_checks(self, steps, arguments, error,
                                                     message):
        # at steps=0 the one curve point once came from a second formula that
        # ran none of these checks: it returned curves, or numpy's IndexError
        family = adversarial_teacher_family()
        high = int(family[0].indices.max())  # the first row's error is the one raised
        with pytest.raises(error) as exc:
            kd_fit(family, "ckd", steps=steps, step_size=0.5, seed=0, **arguments)
        assert str(exc.value) == message.format(high=high)
