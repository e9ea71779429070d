import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tooltrain
from tooltrain import ToolCall, call_similarity, lcs_length, rouge_l_f1, value_similarity
from tooltrain.similarity import _canon_nested, canonical_str, tokenize

from fuzzing import json_values
from oracles import canon_nested_recursive, lcs_length_dp, rouge_l_f1_dp


def lcs_by_enumeration(a: list[str], b: list[str]) -> int:
    """Oracle: longest common subsequence by exhaustive enumeration."""
    best = 0
    for r in range(len(a), 0, -1):
        for subseq in itertools.combinations(a, r):
            if _is_subsequence(subseq, b):
                best = r
                break
        if best:
            break
    return best


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(tok in it for tok in needle)


class TestLcs:
    def test_empty_sequence(self):
        assert lcs_length([], ["a", "b"]) == 0
        assert lcs_length(["a"], []) == 0

    def test_identity(self):
        for x in (["a"], ["a", "b", "c"], list("abcdef")):
            assert lcs_length(x, x) == len(x)

    def test_reference_pair_against_enumeration(self):
        a, b = ["a", "b", "c"], ["a", "c", "d"]
        assert lcs_by_enumeration(a, b) == 2
        assert lcs_length(a, b) == 2

    def test_agrees_with_enumeration_up_to_length_six(self):
        rng = random.Random(11)
        alphabet = ["x", "y", "z"]
        for _ in range(400):
            a = rng.choices(alphabet, k=rng.randint(0, 6))
            b = rng.choices(alphabet, k=rng.randint(0, 6))
            assert lcs_length(a, b) == lcs_by_enumeration(a, b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_dynamic_program(self, data):
        # lengths past 64 need multi-limb ints; a 1-token alphabet is all repeats
        alphabet = [f"t{i}" for i in range(data.draw(st.integers(1, 20)))]
        tokens = st.lists(st.sampled_from(alphabet), max_size=200)
        a, b = data.draw(tokens), data.draw(tokens)
        assert lcs_length(a, b) == lcs_length_dp(a, b)

    def test_long_runs_against_dynamic_program(self):
        rng = random.Random(3)
        for n, m, size in ((200, 200, 1), (200, 199, 2), (129, 200, 20), (65, 64, 3)):
            a = rng.choices("abcdefghijklmnopqrst"[:size], k=n)
            b = rng.choices("abcdefghijklmnopqrst"[:size], k=m)
            assert lcs_length(a, b) == lcs_length_dp(a, b)


class TestRougeL:
    def test_case_insensitive_exact_match(self):
        assert rouge_l_f1("a4", "A4") == 1.0

    def test_empty_prediction(self):
        assert rouge_l_f1("", "anything") == 0.0

    def test_both_empty_is_perfect(self):
        assert rouge_l_f1("", "") == 1.0
        assert rouge_l_f1("   ", "\n") == 1.0  # whitespace-only means no tokens

    def test_partial_overlap(self):
        # P = R = 2/3 for LCS 2 over three tokens each
        assert rouge_l_f1("a b c", "a c d") == pytest.approx(2 / 3)

    def test_trailing_extra_token(self):
        # LCS 3: P=1, R=3/4, F1 = 2*(3/4)/(7/4)
        assert rouge_l_f1("the cat sat", "the cat sat down") == pytest.approx(6 / 7)

    def test_symmetry_and_bounds(self):
        rng = random.Random(3)
        words = ["a", "b", "c", "dd", "EE"]
        for _ in range(300):
            s = " ".join(rng.choices(words, k=rng.randint(0, 6)))
            t = " ".join(rng.choices(words, k=rng.randint(0, 6)))
            st, ts = rouge_l_f1(s, t), rouge_l_f1(t, s)
            assert st == pytest.approx(ts)
            assert 0.0 <= st <= 1.0

    def test_shared_and_many_references_against_dynamic_program(self):
        # a group's generations share one reference, whose masks are built
        # once; 40 other references between its uses evict it from the cache
        rng = random.Random(8)
        words = ["a", "b", "c", "dd", "EE", "f"]

        def text(n):
            return " ".join(rng.choices(words, k=n))

        shared = text(150)
        others = [text(rng.randint(0, 70)) for _ in range(40)]
        for ref in [shared] * 8 + others + [shared] * 8 + others[:3]:
            for _ in range(3):
                pred = text(rng.randint(0, 70))
                assert rouge_l_f1(pred, ref) == rouge_l_f1_dp(pred, ref)
                assert lcs_length(tokenize(pred), tokenize(ref)) == \
                    lcs_length_dp(tokenize(pred), tokenize(ref))


def structurally_equal(a, b) -> bool:
    """Oracle: type-aware structural equality (bool is never a number)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(structurally_equal(x, y)
                                        for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(structurally_equal(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


class TestValueSimilarity:
    def test_numeric_exact_match(self):
        assert value_similarity(3, 3) == 1.0
        assert value_similarity(3, 3.5) == 0.0
        assert value_similarity(3, 3.0) == 1.0

    def test_boolean_exact_match(self):
        assert value_similarity(True, True) == 1.0
        assert value_similarity(True, False) == 0.0

    def test_bool_never_equals_number(self):
        assert value_similarity(True, 1) == 0.0

    def test_string_pair_uses_rouge(self):
        assert value_similarity("https://example.com", "https://example.com") == 1.0
        assert value_similarity("brown fox", "brown dog") == pytest.approx(0.5)

    def test_lists_compare_by_canonical_rendering(self):
        assert value_similarity([1, 2], [1, 2]) == 1.0
        assert value_similarity([1, 2], [2, 1]) == 0.0
        assert value_similarity([1.0, 2], [1, 2]) == 1.0

    def test_mixed_string_number(self):
        assert value_similarity("3", 3) == 1.0
        assert value_similarity("3.5", 3.5) == 1.0
        assert value_similarity("x", 3) == 0.0

    def test_strings_in_containers_are_quoted(self):
        assert value_similarity(["a,b"], ["a", "b"]) == 0.0

    def test_canonical_agrees_with_structural_equality_on_small_values(self):
        rng = random.Random(17)
        atoms = [0, 1, 2, 1.0, 2.5, "one", "two words", None, True, False]

        def draw(depth=0):
            if depth >= 2 or rng.random() < 0.6:
                return rng.choice(atoms)
            if rng.random() < 0.5:
                return [draw(depth + 1) for _ in range(rng.randint(0, 3))]
            return {k: draw(depth + 1)
                    for k in rng.sample(["a", "b", "c"], rng.randint(0, 3))}

        for _ in range(500):
            a, b = draw(), draw()
            if isinstance(a, (list, dict)) and isinstance(b, (list, dict)):
                expected = 1.0 if structurally_equal(a, b) else 0.0
                assert value_similarity(a, b) == expected, (a, b)

    def test_canonical_number_forms(self):
        assert canonical_str(3) == "3"
        assert canonical_str(3.0) == "3"
        assert canonical_str(3.5) == "3.5"
        assert canonical_str(True) == "true"
        assert canonical_str(None) == "null"


def nest(value, keys):
    """``value`` wrapped once per key: in a list for None, else in ``{key: ...}``."""
    for key in keys:
        value = [value] if key is None else {key: value}
    return value


@settings(max_examples=100, deadline=None)
@given(value=json_values, keys=st.lists(st.none() | st.text(max_size=2), max_size=50),
       sibling=json_values)
def test_canonical_rendering_matches_the_recursive_oracle(value, keys, sibling):
    """JSON values up to 50 levels deep render as the recursive renderer did."""
    for v in (value, nest(value, keys), [nest(value, keys), sibling]):
        assert _canon_nested(v) == canon_nested_recursive(v)
        assert canonical_str(v) == (v if isinstance(v, str) else
                                    canon_nested_recursive(v))


def test_values_as_deep_as_json_loads_builds_score():
    # json.loads builds about 990 levels; the recursive renderer raised at 400
    deep = nest(1, [None, "k"] * 450)
    assert value_similarity(deep, nest(1.0, [None, "k"] * 450)) == 1.0
    assert value_similarity(deep, nest(2, [None, "k"] * 450)) == 0.0
    assert canonical_str(deep) == '{"k":[' * 450 + "1" + "]}" * 450


def _call(args) -> ToolCall:
    return ToolCall("f", args)


class TestCallSimilarity:
    def test_partial_credit_for_missing_default(self):
        pred = _call({"url": "https://example.com"})
        gold = _call({"url": "https://example.com", "user_agent": "Mozilla/5.0"})
        assert call_similarity(pred, gold) == 0.5

    def test_identical_argument_maps(self):
        call = _call({"a": "x y", "b": 3})
        assert call_similarity(call, _call(dict(call.arguments))) == 1.0

    def test_disjoint_key_sets(self):
        assert call_similarity(_call({"a": 1}), _call({"b": 1})) == 0.0

    def test_both_empty_is_perfect(self):
        assert call_similarity(_call({}), _call({})) == 1.0

    def test_independent_of_string_hash_seed(self):
        # the shared similarities 0.8, 0.4 and 4/9 sum to different floats in
        # different orders, and the union of four keys divides exactly
        code = ("from tooltrain import ToolCall, call_similarity\n"
                "pred = {'a': 'a b c', 'b': 'a b c d e f g', 'c': 'p q r s t u v'}\n"
                "gold = {'a': 'a b', 'b': 'a x c', 'c': 'p q', 'd': 1}\n"
                "print(repr(call_similarity(ToolCall('f', pred), ToolCall('f', gold))))")
        src = str(Path(tooltrain.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = {subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        ).stdout for seed in range(8)}
        assert len(outputs) == 1

    def test_symmetry_and_bounds(self):
        rng = random.Random(29)
        values = [1, 2, "x", "x y", True]
        for _ in range(300):
            a = _call({k: rng.choice(values)
                       for k in rng.sample("pqrs", rng.randint(0, 4))})
            b = _call({k: rng.choice(values)
                       for k in rng.sample("pqrs", rng.randint(0, 4))})
            ab, ba = call_similarity(a, b), call_similarity(b, a)
            assert ab == pytest.approx(ba)
            assert 0.0 <= ab <= 1.0

    def test_adding_shared_equal_key_never_decreases(self):
        rng = random.Random(31)
        values = [1, "x", "left right"]
        for _ in range(300):
            a_args = {k: rng.choice(values)
                      for k in rng.sample("pqr", rng.randint(0, 3))}
            b_args = {k: rng.choice(values)
                      for k in rng.sample("pqr", rng.randint(0, 3))}
            before = call_similarity(_call(a_args), _call(b_args))
            shared = rng.choice(values)
            a_args["new"], b_args["new"] = shared, shared
            after = call_similarity(_call(a_args), _call(b_args))
            assert after >= before - 1e-12


def test_tokenize_lowercases_and_splits():
    assert tokenize("The  QUICK\tfox\n") == ["the", "quick", "fox"]
    assert tokenize("") == []
