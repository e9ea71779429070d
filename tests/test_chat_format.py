import json
import random
import string
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tooltrain import (
    ParsedGeneration,
    ToolCall,
    ToolSchema,
    parse_generation,
    render_generation,
    validate_format,
)

from fuzzing import random_generation, random_schema
from oracles import parse_generation_four_find

SCHEMA = ToolSchema.from_dict([
    {"name": "f", "description": "", "parameters": {
        "x": {"description": "", "type": "int"},
        "y": {"description": "", "type": "str", "default": "a"},
    }},
    {"name": "g", "description": "", "parameters": {}},
])


def rule_ids(violations):
    return sorted(v.rule_id for v in violations)


class TestParse:
    def test_minimal_well_formed(self):
        parsed = parse_generation(
            '<think>x</think><tool_call>{"name":"f","arguments":{}}</tool_call>')
        assert parsed.think == "x"
        assert parsed.tool_calls == [ToolCall("f", {})]
        assert parsed.raw_errors == []
        assert parsed.response_text == ""

    def test_two_think_pairs_is_rule_1(self):
        parsed = parse_generation("<think>a</think><think>b</think>hello")
        assert rule_ids(parsed.raw_errors) == [1]
        assert parsed.response_text == "hello"
        assert parsed.think == "a"

    def test_plain_text_answer(self):
        parsed = parse_generation("<think>t</think>The ICAO code is KSFO.")
        assert parsed.think == "t"
        assert parsed.tool_calls == []
        assert parsed.raw_errors == []
        assert parsed.response_text == "The ICAO code is KSFO."

    def test_missing_think_is_rule_1(self):
        parsed = parse_generation("no reasoning here")
        assert rule_ids(parsed.raw_errors) == [1]

    def test_unclosed_think_is_rule_1(self):
        parsed = parse_generation("<think>forever")
        assert rule_ids(parsed.raw_errors) == [1]
        assert parsed.think is None

    def test_stray_tool_close_is_rule_2(self):
        parsed = parse_generation("<think>t</think></tool_call>")
        assert rule_ids(parsed.raw_errors) == [2]

    def test_unclosed_tool_call_is_rule_2(self):
        parsed = parse_generation('<think>t</think><tool_call>{"name"')
        assert rule_ids(parsed.raw_errors) == [2]
        assert parsed.tool_calls == []

    def test_bad_json_payload_is_rule_3(self):
        parsed = parse_generation("<think>t</think><tool_call>{oops</tool_call>")
        assert rule_ids(parsed.raw_errors) == [3]

    def test_extra_top_level_key_is_rule_3(self):
        parsed = parse_generation(
            '<think>t</think>'
            '<tool_call>{"name":"f","arguments":{},"id":1}</tool_call>')
        assert rule_ids(parsed.raw_errors) == [3]

    @pytest.mark.parametrize("payload", ["[" * 2000, "[" * 2000 + "]" * 2000,
                                         "[" * 100_000, '{"a":' * 100_000],
                             ids=["2000-open", "2000-balanced", "100000-open",
                                  "100000-objects"])
    def test_payload_nested_past_the_decoder_is_rule_3(self, payload):
        # json.loads raises RecursionError, not a JSONDecodeError, this deep
        parsed = parse_generation(f"<think>t</think><tool_call>{payload}</tool_call>")
        assert rule_ids(parsed.raw_errors) == [3]
        if len(payload) > 10_000:  # far past the decoder's limit on any Python
            assert parsed.raw_errors[0].detail == (
                "tool_call block 0: invalid JSON (nesting too deep)")

    def test_payload_not_an_object_is_rule_3(self):
        parsed = parse_generation("<think>t</think><tool_call>[1,2]</tool_call>")
        assert rule_ids(parsed.raw_errors) == [3]

    @pytest.mark.parametrize("payload, detail", [
        ('{"name": 1, "arguments": {}}', "'name' must be a string"),
        ('{"name": "f", "arguments": [1]}', "'arguments' must be a JSON object"),
    ])
    def test_payload_of_the_wrong_field_type_is_rule_3(self, payload, detail):
        parsed = parse_generation(f"<think>t</think><tool_call>{payload}</tool_call>")
        assert [(v.rule_id, v.detail) for v in parsed.raw_errors] == [
            (3, f"tool_call block 0: {detail}")]
        assert parsed.tool_calls == []

    def test_calls_preserve_source_order(self):
        parsed = parse_generation(
            '<think>t</think>'
            '<tool_call>{"name":"f","arguments":{"x":1}}</tool_call>'
            '<tool_call>{"name":"g","arguments":{}}</tool_call>')
        assert [c.name for c in parsed.tool_calls] == ["f", "g"]

    def test_interleaved_text_goes_to_response(self):
        parsed = parse_generation(
            '<think>t</think>before '
            '<tool_call>{"name":"g","arguments":{}}</tool_call> after')
        assert parsed.response_text == "before  after"

    def test_tag_inside_call_string_value_is_content(self):
        parsed = parse_generation(
            '<think>t</think>'
            '<tool_call>{"name":"f","arguments":{"y":"<think>"}}</tool_call>')
        assert parsed.raw_errors == []
        assert parsed.tool_calls[0].arguments == {"y": "<think>"}


class TestValidate:
    def test_declared_call_with_subset_arguments(self):
        parsed = parse_generation(
            '<think>t</think><tool_call>{"name":"f","arguments":{"x":1}}</tool_call>')
        check = validate_format(parsed, SCHEMA)
        assert check.reward == 1 and check.violations == []

    def test_undeclared_function_is_rule_4(self):
        parsed = parse_generation(
            '<think>t</think><tool_call>{"name":"h","arguments":{}}</tool_call>')
        check = validate_format(parsed, SCHEMA)
        assert check.reward == 0
        assert rule_ids(check.violations) == [4]

    def test_extra_argument_key_is_rule_5(self):
        parsed = parse_generation(
            '<think>t</think>'
            '<tool_call>{"name":"f","arguments":{"x":1,"z":2}}</tool_call>')
        check = validate_format(parsed, SCHEMA)
        assert check.reward == 0
        assert rule_ids(check.violations) == [5]

    def test_no_calls_and_empty_response_is_valid(self):
        check = validate_format(parse_generation("<think>t</think>"), SCHEMA)
        assert check.reward == 1

    def test_reward_is_one_exactly_when_no_violations(self):
        rng = random.Random(5)
        for _ in range(300):
            text = _random_text(rng)
            check = validate_format(parse_generation(text), SCHEMA)
            assert check.reward == (1 if not check.violations else 0)


def _random_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 8)):
        pieces.append(rng.choice([
            "<think>", "</think>", "<tool_call>", "</tool_call>",
            '{"name":"f","arguments":{}}', '{"name":"h","arguments":{}}',
            '{"name":"f","arguments":{"z":1}}', "plain words ",
            "".join(rng.choices(string.printable, k=rng.randint(0, 12))),
        ]))
    return "".join(pieces)


def test_parse_is_total_on_random_strings():
    # fuzz 10^4 arbitrary strings; parsing must never raise
    rng = random.Random(123)
    alphabet = string.printable + "<>think/tool_callé中"
    for _ in range(10_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
        parsed = parse_generation(text)
        assert isinstance(parsed.response_text, str)


def test_parse_matches_four_find_oracle_on_fuzz_corpus():
    rng = random.Random(17)
    for _ in range(2_000):
        text = random_generation(rng, random_schema(rng))
        assert parse_generation(text) == parse_generation_four_find(text)
    for _ in range(2_000):
        text = _random_text(rng)
        assert parse_generation(text) == parse_generation_four_find(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(
    ["<think>", "</think>", "<tool_call>", "</tool_call>", "{", '"', "x"]),
    max_size=40).map("".join))
def test_parse_matches_four_find_oracle_on_tag_soup(text):
    assert parse_generation(text) == parse_generation_four_find(text)


BLOCKS = ["<think>a</think>", "<think>a", "<tool_call>{}</tool_call>",
          '<tool_call>{"name":"f","arguments":{}}</tool_call>', "<tool_call>x",
          " words ", "</thi", "nk>", "</tool_", "call>", "<"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(BLOCKS),
    st.lists(st.sampled_from(["</think>", "</tool_call>", " ", "x"]),
             min_size=100, max_size=400).map("".join)), max_size=8).map("".join))
@example("</thi<think>a</think>nk>" + "</tool_call>" * 200)
@example("</tool_<tool_call>{}</tool_call>call></thi<think>a</think>nk><tool_call>x")
def test_parse_matches_four_find_oracle_on_long_closer_runs(text):
    # runs of hundreds of stray closers between blocks, and closers split
    # across a block, which must not be pieced together
    assert parse_generation(text) == parse_generation_four_find(text)


def test_stray_closers_share_one_violation_per_tag():
    text = "</think>" * 50 + "<think>x</think>" + "</tool_call>" * 50
    parsed = parse_generation(text)
    assert parsed.raw_errors == parse_generation_four_find(text).raw_errors
    assert len(parsed.raw_errors) == 100 and len(set(map(id, parsed.raw_errors))) == 2


def test_parse_is_linear_in_stray_tags():
    # on a 2-vCPU VM the quadratic four-find loop took 17.8 s here, one pass 0.08 s
    text = "</tool_call>" * 32_000
    start = time.perf_counter()
    parsed = parse_generation(text)
    assert time.perf_counter() - start < 2.0
    assert len(parsed.raw_errors) == 32_001


def _random_clean_structure(rng: random.Random) -> ParsedGeneration:
    words = ["alpha", "beta", "gamma", "delta", "42"]
    think = " ".join(rng.choices(words, k=rng.randint(1, 4)))
    calls = []
    for _ in range(rng.randint(0, 3)):
        args = {}
        for key in rng.sample(["x", "y", "z"], k=rng.randint(0, 3)):
            args[key] = rng.choice([1, 2.5, True, None, "word", [1, "two"],
                                    {"k": 3}])
        calls.append(ToolCall(rng.choice(["f", "g"]), args))
    response = " ".join(rng.choices(words, k=rng.randint(0, 4)))
    return ParsedGeneration(think=think, tool_calls=calls,
                            response_text=response, raw_errors=[])


def test_render_parse_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        original = _random_clean_structure(rng)
        reparsed = parse_generation(render_generation(original))
        assert reparsed.raw_errors == []
        assert reparsed.think == original.think
        assert reparsed.tool_calls == original.tool_calls
        assert reparsed.response_text == original.response_text


class TestSchema:
    def test_duplicate_function_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ToolSchema.from_dict([{"name": "f", "parameters": {}},
                                  {"name": "f", "parameters": {}}])

    @pytest.mark.parametrize("entry, message", [
        ({"parameters": {}}, "needs a string name"),
        ({"name": ["f"]}, "needs a string name"),
        ({"name": "f", "parameters": [1]}, "a parameters object of objects$"),
        ({"name": "f", "parameters": {"p": 1.5}}, "a parameters object of objects$"),
    ])
    def test_malformed_entry_is_value_error(self, entry, message):
        with pytest.raises(ValueError, match=message):
            ToolSchema.from_dict([entry])

    def test_from_json_accepts_tools_block_lines(self):
        text = "\n".join(json.dumps(entry) for entry in [
            {"name": "a", "description": "", "parameters": {}},
            {"name": "b", "description": "", "parameters": {
                "p": {"description": "", "type": "str", "default": "05"}}},
        ])
        schema = ToolSchema.from_json(text)
        assert [f.name for f in schema.functions] == ["a", "b"]
        assert schema.get("b").parameters["p"].has_default

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
    def test_from_json_lines_end_at_line_ends_only(self, sep):
        # U+2028 and its kin are valid raw in a JSON string and end no line
        description = "first\u2028second\x85third\u2029"
        text = sep.join(json.dumps(entry, ensure_ascii=False) for entry in [
            {"name": "a", "description": description, "parameters": {}},
            {"name": "b", "description": "", "parameters": {}},
        ])
        schema = ToolSchema.from_json(text)
        assert [f.name for f in schema.functions] == ["a", "b"]
        assert schema.get("a").description == description

    def test_from_json_reports_a_cut_line_as_unterminated(self):
        with pytest.raises(json.JSONDecodeError, match="Unterminated string"):
            ToolSchema.from_json('{"name": "a"}\r\n{"name": "b')

    @pytest.mark.parametrize("text, msg, pos", [
        # no <tools> block, as line 1 alone does not parse: the document's error
        ('[\n{"name": "f", "parameters": {}},\nbad\n]', "Expecting value", 35),
        # a <tools> block with line 2 cut off: that line's error, in the text
        ('{"name": "f"}\n\n{"name": "g", "parameters": {\n',
         "Expecting property name enclosed in double quotes", 44),
    ])
    def test_from_json_places_the_error_at_the_bad_line(self, text, msg, pos):
        with pytest.raises(json.JSONDecodeError) as info:
            ToolSchema.from_json(text)
        assert (info.value.msg, info.value.doc, info.value.pos) == (msg, text, pos)
        assert info.value.lineno == text.count("\n", 0, pos) + 1 == 3

    def test_default_absent_vs_present(self):
        schema = ToolSchema.from_json(json.dumps([
            {"name": "a", "parameters": {
                "req": {"type": "str"},
                "opt": {"type": "str", "default": ""}}},
        ]))
        params = schema.get("a").parameters
        assert not params["req"].has_default
        assert params["opt"].has_default and params["opt"].default == ""

    def test_round_trips_through_to_dict(self):
        schema = ToolSchema.from_dict(
            [{"name": "a", "description": "d", "parameters": {
                "p": {"description": "x", "type": "int", "default": 3}}}])
        again = ToolSchema.from_dict(schema.to_dict())
        assert again.to_dict() == schema.to_dict()
