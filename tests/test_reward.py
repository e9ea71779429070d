import itertools
import random

import pytest

from tooltrain import (
    MalformedGroundTruth,
    ToolCall,
    greedy_match,
    response_reward,
    tool_call_reward,
    total_reward,
)
from tooltrain.similarity import call_similarity

from golden import GOLDEN_RECORDS, golden_schema


def greedy_replay_oracle(pred_calls, gt_calls):
    """Independent step-by-step replay of the documented greedy procedure.

    Walks predictions in order; scans remaining ground-truth calls by
    ascending index; keeps the first strictly-better name-matching candidate.
    """
    remaining = list(enumerate(gt_calls))
    total = 0.0
    pairs = []
    for pi, pred in enumerate(pred_calls):
        best = None
        for slot, (gi, cand) in enumerate(remaining):
            if cand.name != pred.name:
                continue
            score = call_similarity(pred, cand)
            if best is None or score > best[2]:
                best = (slot, gi, score)
        if best is not None:
            slot, gi, score = best
            remaining.pop(slot)
            total += score
            pairs.append((pi, gi, score))
    return pairs, total


def make_call(name, args):
    return ToolCall(name, args)


class TestGreedyMatch:
    def test_single_perfect_pair(self):
        result = greedy_match([make_call("f", {"x": 1})], [make_call("f", {"x": 1})])
        assert len(result.matches) == 1
        assert result.total_similarity == 1.0

    def test_name_gate(self):
        result = greedy_match([make_call("f", {"a": 1})], [make_call("g", {"a": 1})])
        assert result.matches == [] and result.total_similarity == 0.0

    def test_greedy_claims_even_at_zero_similarity(self):
        # first pred claims the only gt at similarity 0; second goes unmatched
        pred = [make_call("f", {"a": 1}), make_call("f", {"a": 2})]
        gt = [make_call("f", {"a": 2})]
        result = greedy_match(pred, gt)
        assert [(m.pred_index, m.gt_index) for m in result.matches] == [(0, 0)]
        assert result.total_similarity == 0.0

    def test_tie_breaks_to_lowest_gt_index(self):
        pred = [make_call("f", {"a": 1})]
        gt = [make_call("f", {"a": 1}), make_call("f", {"a": 1})]
        result = greedy_match(pred, gt)
        assert result.matches[0].gt_index == 0

    def test_agrees_with_replay_oracle_on_small_lists(self):
        names = ["f", "g"]
        arg_options = [{}, {"a": 1}, {"a": 2}, {"a": 1, "b": "x"}]
        pool = [make_call(n, dict(a)) for n in names for a in arg_options]
        rng = random.Random(41)
        for _ in range(500):
            pred = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            gt = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            result = greedy_match(pred, gt)
            pairs, total = greedy_replay_oracle(pred, gt)
            assert [(m.pred_index, m.gt_index, m.similarity)
                    for m in result.matches] == pairs
            assert result.total_similarity == pytest.approx(total)


class TestToolCallReward:
    def test_missing_default_argument_scores_half(self):
        pred = [make_call("check_wordpress", {"url": "https://example.com"})]
        gt = [make_call("check_wordpress", {"url": "https://example.com",
                                            "user_agent": "Mozilla/5.0"})]
        assert tool_call_reward(pred, gt) == 0.5

    def test_identical_lists_score_one(self):
        for n in (1, 2, 3):
            calls = [make_call("f", {"a": i}) for i in range(n)]
            assert tool_call_reward(calls, list(calls)) == 1.0

    def test_empty_prediction_scores_zero(self):
        gt = [make_call("f", {}), make_call("g", {})]
        assert tool_call_reward([], gt) == 0.0

    def test_both_empty_scores_one(self):
        assert tool_call_reward([], []) == 1.0

    def test_gt_permutation_invariant_for_distinct_names(self):
        rng = random.Random(43)
        for _ in range(200):
            names = rng.sample(["f", "g", "h"], k=rng.randint(1, 3))
            gt = [make_call(n, {"a": rng.randint(1, 2)}) for n in names]
            pred = [make_call(rng.choice(["f", "g", "h"]),
                              {"a": rng.randint(1, 2)})
                    for _ in range(rng.randint(0, 3))]
            base = tool_call_reward(pred, gt)
            for perm in itertools.permutations(gt):
                assert tool_call_reward(pred, list(perm)) == pytest.approx(base)


class TestResponseReward:
    def test_identical_sentences(self):
        assert response_reward("the same answer", "the same answer") == 1.0

    def test_empty_prediction_vs_text(self):
        assert response_reward("", "The ICAO code for SFO is KSFO.") == 0.0

    def test_partial_overlap(self):
        assert response_reward("the cat sat", "the cat sat down") == pytest.approx(6 / 7)


class TestTotalReward:
    @pytest.mark.parametrize("record", GOLDEN_RECORDS,
                             ids=[r["id"] for r in GOLDEN_RECORDS])
    def test_golden_records(self, record):
        breakdown = total_reward(record["generation"], record["ground_truth"],
                                 golden_schema())
        assert breakdown.total == record["expected_total"]

    def test_format_invalid_generation_scores_minus_one(self):
        gt = GOLDEN_RECORDS[0]["ground_truth"]
        breakdown = total_reward("no think tags at all", gt, golden_schema())
        assert breakdown.total == -1.0
        assert breakdown.r_format == 0
        assert breakdown.r_fc == 0.0 and breakdown.r_response == 0.0

    def test_breakdown_matches_composite_equation(self):
        schema = golden_schema()
        for record in GOLDEN_RECORDS:
            b = total_reward(record["generation"], record["ground_truth"], schema)
            assert b.total == pytest.approx(
                (b.r_format - 1) + b.r_format * (b.r_fc + b.r_response))

    def test_at_most_one_answer_component_nonzero(self):
        schema = golden_schema()
        for record in GOLDEN_RECORDS:
            b = total_reward(record["generation"], record["ground_truth"], schema)
            assert b.r_fc == 0.0 or b.r_response == 0.0

    def test_malformed_ground_truth_raises(self):
        with pytest.raises(MalformedGroundTruth):
            total_reward("<think>t</think>", "missing think tags", golden_schema())
        with pytest.raises(MalformedGroundTruth):
            total_reward(
                "<think>t</think>",
                '<think>t</think><tool_call>{"name":"nope","arguments":{}}</tool_call>',
                golden_schema())

    def test_malformed_ground_truth_raises_on_every_call(self):
        schema = golden_schema()
        for _ in range(2):
            with pytest.raises(MalformedGroundTruth):
                total_reward("<think>t</think>", "missing think tags", schema)

    def test_shared_ground_truth_parsed_once_per_group(self, monkeypatch):
        import tooltrain.reward as rw

        parsed = []
        parse = rw.parse_generation
        monkeypatch.setattr(rw, "parse_generation",
                            lambda raw: parsed.append(raw) or parse(raw))
        record = GOLDEN_RECORDS[0]
        ground_truth = record["ground_truth"].replace(
            "<think>", "<think>parsed once: ", 1)
        schema = golden_schema()
        totals = {total_reward(record["generation"], ground_truth, schema).total
                  for _ in range(8)}
        assert totals == {record["expected_total"]}
        assert parsed.count(ground_truth) == 1
        assert len(parsed) == 9

    def test_generation_with_calls_vs_text_gt_scores_zero_answer(self):
        record = GOLDEN_RECORDS[2]
        b = total_reward(record["generation"], record["ground_truth"],
                         golden_schema())
        assert b.r_format == 1 and b.total == 0.0
        assert b.r_response == 0.0  # empty response text against a sentence


# randomized machinery shared with the acceptance suite lives in fuzzing.py
from fuzzing import random_generation, random_schema, random_valid_generation  # noqa: E402


def test_reward_range_and_format_gate_fuzz():
    rng = random.Random(97)
    for _ in range(2000):
        schema = random_schema(rng)
        gt = random_valid_generation(rng, schema)
        gen = random_generation(rng, schema)
        b = total_reward(gen, gt, schema)
        assert -1.0 <= b.total <= 1.0
        if b.r_format == 0:
            assert b.total == -1.0
        assert b.r_fc == 0.0 or b.r_response == 0.0


def test_perfect_match_fixed_point():
    rng = random.Random(101)
    for _ in range(300):
        schema = random_schema(rng)
        text = random_valid_generation(rng, schema)
        assert total_reward(text, text, schema).total == 1.0


def test_matches_form_partial_injection():
    rng = random.Random(103)
    for _ in range(300):
        schema = random_schema(rng)
        gen = random_valid_generation(rng, schema)
        gt = random_valid_generation(rng, schema)
        b = total_reward(gen, gt, schema)
        pred_indices = [m.pred_index for m in b.matches]
        gt_indices = [m.gt_index for m in b.matches]
        assert len(set(pred_indices)) == len(pred_indices)
        assert len(set(gt_indices)) == len(gt_indices)

