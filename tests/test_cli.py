import argparse
import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tooltrain
import tooltrain.cli as cli
import tooltrain.divergence as dv
import tooltrain.toy_trainer as toy_trainer
from tooltrain.chat_format import (
    _STRAY,
    _UNCLOSED,
    THINK_CLOSE,
    THINK_OPEN,
    TOOL_CLOSE,
    FormatViolation,
    ToolSchema,
)
from tooltrain.cli import _dump, _iter_jsonl, _loads, _score_line, build_parser, main
from tooltrain.reward import CallMatch, RewardBreakdown, total_reward
from tooltrain.toy_task import (
    bundled_default_task,
    bundled_optional_param_task,
    save_task,
)

from fuzzing import json_values
from golden import GOLDEN_RECORDS, GOLDEN_SCHEMA
from oracles import (
    RecomputingSlotView,
    gradient_per_token,
    iter_jsonl_text,
    student_logits_asarray,
)


@pytest.fixture
def score_files(tmp_path):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(GOLDEN_SCHEMA))
    input_path = tmp_path / "records.jsonl"
    lines = [json.dumps({"id": r["id"], "generation": r["generation"],
                         "ground_truth": r["ground_truth"]})
             for r in GOLDEN_RECORDS]
    input_path.write_text("\n".join(lines) + "\n")
    return schema_path, input_path


def kd_rows(vocab_size=16, positions=6, seed=0, teacher_equals_student=False):
    """A valid ``kd`` input: the header, then one position per row."""
    rng = np.random.default_rng(seed)
    rows = [{"version": 1, "vocab_size": vocab_size}]
    for i in range(positions):
        z = rng.normal(size=vocab_size)
        p = dv.softmax(z if teacher_equals_student else rng.normal(size=vocab_size))
        top = dv.topk_of(p, 4)
        rows.append({
            "position_id": f"pos{i}",
            "teacher_topk": {"indices": top.indices.tolist(),
                             "probs": top.probs.tolist()},
            "student_logits": z.tolist(),
        })
    return rows


def make_kd_file(path, **kwargs):
    path.write_text("\n".join(json.dumps(r) for r in kd_rows(**kwargs)) + "\n")


def write_three_entry_teacher(path):
    rows = [{"version": 1, "vocab_size": 6},
            {"position_id": "p", "student_logits": [0.5, 0.0, -0.5, 1.0, 0.2, -1.0],
             "teacher_topk": {"indices": [3, 0, 4], "probs": [0.6, 0.3, 0.05]}}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


class TestScore:
    def test_golden_totals(self, score_files, tmp_path, capsys):
        schema_path, input_path = score_files
        out = tmp_path / "out.jsonl"
        status = main(["score", "--input", str(input_path),
                       "--schema", str(schema_path), "--output", str(out)])
        assert status == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["total"] for r in records] == [0.5, 1.0, 0.0]
        assert "mean total reward" in capsys.readouterr().err

    def test_byte_identical_reruns(self, score_files, tmp_path):
        schema_path, input_path = score_files
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["score", "--input", str(input_path), "--schema", str(schema_path),
              "--output", str(out1)])
        main(["score", "--input", str(input_path), "--schema", str(schema_path),
              "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_concatenation_equals_per_record_runs(self, score_files, tmp_path):
        schema_path, input_path = score_files
        full = tmp_path / "full.jsonl"
        main(["score", "--input", str(input_path), "--schema", str(schema_path),
              "--output", str(full)])
        pieces = []
        for n, line in enumerate(input_path.read_text().splitlines()):
            single_in = tmp_path / f"one{n}.jsonl"
            single_in.write_text(line + "\n")
            single_out = tmp_path / f"one{n}.out"
            main(["score", "--input", str(single_in), "--schema",
                  str(schema_path), "--output", str(single_out)])
            pieces.append(single_out.read_text())
        assert full.read_text() == "".join(pieces)

    def test_empty_input(self, score_files, tmp_path):
        schema_path, _ = score_files
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out.jsonl"
        status = main(["score", "--input", str(empty),
                       "--schema", str(schema_path), "--output", str(out)])
        assert status == 0
        assert out.read_text() == ""

    def test_generation_holding_line_separators_scores(self, score_files, tmp_path):
        # raw U+0085, U+2028 and U+2029 are valid inside a JSON string, and
        # ``_dump`` writes them raw; they once cut the record in two
        schema_path, _ = score_files
        record = {"id": "u", "generation": "<think>a\u2028b</think>\nhi\x85\u2029",
                  "ground_truth": "<think>b</think>\nhi\x85\u2029"}
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        inp.write_text(_dump(record) + "\n", encoding="utf-8")
        assert main(["score", "--input", str(inp), "--schema", str(schema_path),
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["total"] == 1.0

    def test_malformed_ground_truth_reports_and_exits_nonzero(
            self, score_files, tmp_path, capsys):
        schema_path, _ = score_files
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "x", "generation": "<think>t</think>",
                                   "ground_truth": "not wrapped"}) + "\n")
        out = tmp_path / "out.jsonl"
        status = main(["score", "--input", str(bad),
                       "--schema", str(schema_path), "--output", str(out)])
        assert status == 1
        assert "error" in json.loads(out.read_text().splitlines()[0])
        assert "record 'x'" in capsys.readouterr().err

    def test_schema_missing_called_function_scores_minus_one(self, tmp_path):
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps([{"name": "other", "parameters": {}}]))
        record = {
            "id": "r",
            "generation": '<think>t</think><tool_call>'
                          '{"name":"f","arguments":{}}</tool_call>',
            "ground_truth": "<think>t</think>fine",
        }
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--schema", str(schema_path),
                     "--output", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["total"] == -1.0
        assert [v["rule_id"] for v in parsed["violations"]] == [4]

    def test_inline_schema_ref_overrides(self, tmp_path):
        record = {
            "id": "r",
            "generation": '<think>t</think><tool_call>'
                          '{"name":"f","arguments":{}}</tool_call>',
            "ground_truth": '<think>t</think><tool_call>'
                            '{"name":"f","arguments":{}}</tool_call>',
            "schema_ref": [{"name": "f", "parameters": {}}],
        }
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["total"] == 1.0

    def test_equal_schema_refs_share_one_schema(self, tmp_path, monkeypatch):
        import tooltrain.reward as rw

        built, parsed = [], []
        init = ToolSchema.__init__
        monkeypatch.setattr(ToolSchema, "__init__",
                            lambda self, functions: built.append(1) or init(self, functions))
        parse = rw.parse_generation
        monkeypatch.setattr(rw, "parse_generation",
                            lambda raw: parsed.append(raw) or parse(raw))
        call = '<tool_call>{"name":"f","arguments":{"a":1}}</tool_call>'
        ground_truth = "<think>one schema per ref</think>" + call
        fn = {"name": "f", "parameters": {"a": {"type": "int"}}}
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps([fn]))
        refs = [[fn], [dict(reversed(fn.items()))], str(schema_path),
                [fn], str(schema_path)]
        inp = tmp_path / "in.jsonl"
        inp.write_text("".join(
            json.dumps({"id": i, "generation": "<think>t</think>" + call,
                        "ground_truth": ground_truth, "schema_ref": ref}) + "\n"
            for i, ref in enumerate(refs)))
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 0
        assert len(built) == 2  # one inline and one path schema
        assert parsed.count(ground_truth) == 2  # once per schema
        assert {json.loads(line)["total"] for line in out.read_text().splitlines()} == {1.0}

    def test_bad_schema_ref_after_good_records_is_format_error(self, tmp_path,
                                                               capsys):
        good = {"id": "a", "generation": "<think>t</think>fine",
                "ground_truth": "<think>t</think>fine",
                "schema_ref": [{"name": "f", "parameters": {}}]}
        rows = [good, {**good, "id": "b"}, {**good, "id": "c", "schema_ref": [1]}]
        inp = tmp_path / "in.jsonl"
        inp.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: record 'c':")

    def test_missing_input_file_is_io_error(self, tmp_path):
        assert main(["score", "--input", str(tmp_path / "nope.jsonl")]) == 2

    def test_record_with_no_schema_ref_and_no_schema_flag_is_format_error(self, tmp_path,
                                                                          capsys):
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps({"id": "r", "generation": "<think>t</think>hi",
                                   "ground_truth": "<think>t</think>hi"}) + "\n")
        assert main(["score", "--input", str(inp)]) == 2
        assert capsys.readouterr() == (
            "", "error: record 'r': record has no schema_ref and no --schema was given\n")

    def test_records_without_id_are_not_duplicates(self, score_files, tmp_path):
        schema_path, _ = score_files
        inp = tmp_path / "in.jsonl"
        record = {"generation": GOLDEN_RECORDS[1]["generation"],
                  "ground_truth": GOLDEN_RECORDS[1]["ground_truth"]}
        inp.write_text((json.dumps(record) + "\n") * 2)
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--schema", str(schema_path),
                     "--output", str(out)]) == 0
        assert [json.loads(line)["total"] for line in
                out.read_text().splitlines()] == [1.0, 1.0]

    def test_repeated_id_is_still_rejected(self, score_files, tmp_path, capsys):
        schema_path, _ = score_files
        inp = tmp_path / "in.jsonl"
        inp.write_text((json.dumps(dict(GOLDEN_RECORDS[0])) + "\n") * 2)
        assert main(["score", "--input", str(inp), "--schema", str(schema_path),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        assert "duplicate record id" in capsys.readouterr().err

    @pytest.mark.parametrize("ids", [(1, True), (0, False), (1, 1.0), ("1", 1)])
    def test_equal_ids_of_distinct_types_are_distinct(self, ids, score_files,
                                                      tmp_path, capsys):
        schema_path, _ = score_files
        inp = tmp_path / "in.jsonl"
        inp.write_text("".join(json.dumps({**GOLDEN_RECORDS[1], "id": rid}) + "\n"
                               for rid in ids + ids[-1:]))
        argv = ["score", "--input", str(inp), "--schema", str(schema_path)]
        assert main(argv) == 2  # the last id repeats with its own type
        assert capsys.readouterr().err == f"error: duplicate record id {ids[-1]!r}\n"
        inp.write_text("".join(json.dumps({**GOLDEN_RECORDS[1], "id": rid}) + "\n"
                               for rid in ids))
        assert main(argv) == 0
        assert [json.loads(line)["id"] for line in capsys.readouterr().out.splitlines()
                ] == list(ids)

    def test_score_calls_total_reward_through_the_cli_module(
            self, score_files, tmp_path, monkeypatch):
        """A wrapper set on ``tooltrain.cli.total_reward`` (the name the
        benchmark's tracer replaces) sees every record's call."""
        schema_path, input_path = score_files
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return total_reward(*args, **kwargs)

        monkeypatch.setattr(tooltrain.cli, "total_reward", counting)
        assert main(["score", "--input", str(input_path), "--schema",
                     str(schema_path), "--output", str(tmp_path / "out.jsonl")]) == 0
        assert calls == [r["generation"] for r in GOLDEN_RECORDS]

    @pytest.mark.parametrize("rid", [[1, 2], {"k": "v"}])
    def test_unhashable_id_is_format_error(self, rid, score_files, tmp_path, capsys):
        schema_path, _ = score_files
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps({**GOLDEN_RECORDS[0], "id": rid}) + "\n")
        assert main(["score", "--input", str(inp), "--schema", str(schema_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: record {rid!r}: id must be a string, number or null\n")

    def test_malformed_inline_schema_is_format_error(self, tmp_path, capsys):
        record = {"id": "r", "generation": "<think>t</think>fine",
                  "ground_truth": "<think>t</think>fine", "schema_ref": [1]}
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps(record) + "\n")
        assert main(["score", "--input", str(inp)]) == 2
        assert capsys.readouterr().err.startswith("error: record 'r':")

    @pytest.mark.parametrize("field,value", [("generation", 5), ("ground_truth", 7)])
    def test_non_string_text_field_is_format_error(self, field, value, score_files,
                                                   capsys):
        schema_path, input_path = score_files
        record = {**GOLDEN_RECORDS[0], "id": "r", field: value}
        input_path.write_text(json.dumps(record) + "\n")
        assert main(["score", "--input", str(input_path),
                     "--schema", str(schema_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: record 'r': {field} must be a string, got {value!r}\n")


    @pytest.mark.parametrize("invalid_first", [False, True])
    def test_earliest_defect_in_file_order_is_reported(self, invalid_first,
                                                        score_files, capsys):
        schema_path, input_path = score_files
        bad_record = json.dumps({**GOLDEN_RECORDS[0], "id": "r", "generation": 5})
        lines = [json.dumps(GOLDEN_RECORDS[1]), bad_record, "{bad"]
        if invalid_first:
            lines[1], lines[2] = lines[2], lines[1]
        input_path.write_text("\n".join(lines) + "\n")
        assert main(["score", "--input", str(input_path),
                     "--schema", str(schema_path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {input_path}:2: invalid JSON (Expecting property name enclosed "
            "in double quotes)\n" if invalid_first else
            "error: record 'r': generation must be a string, got 5\n"))

    def test_degenerate_generation_line_equals_the_dump_of_to_dict(
            self, score_files, tmp_path):
        schema_path, input_path = score_files
        gt = GOLDEN_RECORDS[0]["ground_truth"]
        generation = ("<think>x</think>" + "</tool_call>" * 300 + "é\"</thi"
                      + "<tool_call>{}</tool_call>nk>" + "</think>" * 200 + "<think>")
        input_path.write_text(json.dumps({"id": "dégénéré", "generation": generation,
                                          "ground_truth": gt}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(input_path), "--schema",
                     str(schema_path), "--output", str(out)]) == 0
        breakdown = total_reward(generation, gt, ToolSchema.from_dict(GOLDEN_SCHEMA))
        assert len(breakdown.violations) == 502
        assert out.read_text(encoding="utf-8") == json.dumps(
            {"id": "dégénéré", **breakdown.to_dict()}, sort_keys=True,
            ensure_ascii=False) + "\n"

    def test_one_kind_of_closer_repeated_writes_one_violation_per_tag(
            self, score_files, tmp_path, capsys):
        schema_path, input_path = score_files
        gt = GOLDEN_RECORDS[0]["ground_truth"]
        generation = gt + "</tool_call>" * 20000
        input_path.write_text(json.dumps({"id": "d", "generation": generation,
                                          "ground_truth": gt}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(input_path), "--schema",
                     str(schema_path), "--output", str(out)]) == 0
        breakdown = total_reward(generation, gt, ToolSchema.from_dict(GOLDEN_SCHEMA))
        assert breakdown.violations == [_STRAY[TOOL_CLOSE]] * 20000
        assert out.read_text(encoding="utf-8") == dumps(
            {"id": "d", **breakdown.to_dict()}) + "\n"
        assert capsys.readouterr().err == (
            "scored 1 of 1 records, mean total reward -1.0\n")

    @pytest.mark.parametrize("rid", [float("nan"), float("inf")])
    def test_non_finite_id_is_format_error(self, rid, score_files, tmp_path, capsys):
        schema_path, input_path = score_files
        input_path.write_text(json.dumps({**GOLDEN_RECORDS[0], "id": rid}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(input_path), "--schema",
                     str(schema_path), "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", f"error: record {rid!r}: id must be finite\n")

    def test_malformed_schema_file_is_format_error(self, score_files, capsys):
        schema_path, input_path = score_files
        schema_path.write_text(json.dumps([{"parameters": {}}]))
        assert main(["score", "--input", str(input_path),
                     "--schema", str(schema_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {schema_path}: schema entry "
                                           "{'parameters': {}} needs a string name "
                                           "and a parameters object of objects\n")

    @pytest.mark.parametrize("text, error", [
        ("{bad", "line 1: Expecting property name enclosed in double quotes"),
        # a list whose line 1 alone is no object: the document's own error
        ('[\n{"name": "f", "parameters": {}},\nbad\n]\n', "line 3: Expecting value"),
        # <tools> lines, the second cut off: that line's error
        ('{"name": "f", "parameters": {}}\n{"name": "g", "parameters": {\n',
         "line 2: Expecting property name enclosed in double quotes"),
    ], ids=["one-line", "document", "tools-lines"])
    def test_invalid_json_schema_file_names_its_file(self, text, error, score_files,
                                                     capsys):
        schema_path, input_path = score_files
        schema_path.write_text(text)
        assert main(["score", "--input", str(input_path),
                     "--schema", str(schema_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {schema_path}: invalid JSON ({error})\n")

    def test_malformed_schema_ref_names_its_file(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"functions": "f"}))
        inp = tmp_path / "records.jsonl"
        inp.write_text(json.dumps({**GOLDEN_RECORDS[0], "id": "r",
                                   "schema_ref": str(ref)}) + "\n")
        assert main(["score", "--input", str(inp)]) == 2
        assert capsys.readouterr() == (
            "", f"error: record 'r': {ref}: schema document must be a list of "
                "functions or an object with a 'functions' list\n")


def dumps(obj) -> str:
    """The line ``_dump`` must write: ``json.dumps`` with the CLI's options."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(value=json_values)
def test_dump_equals_json_dumps(value):
    """Byte for byte, and a NaN or infinity anywhere is the same ValueError."""
    try:
        expected = dumps(value)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _dump(value)
    else:
        assert _dump(value) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   {"id": [1, {"x": float("nan")}]}])
def test_dump_rejects_non_finite_numbers(value):
    with pytest.raises(ValueError, match="^Out of range float values are not JSON "
                                         "compliant"):
        _dump(value)


VIOLATION_POOL = [FormatViolation(1, "stray </think> without opener"),
                  FormatViolation(2, "unclosed <tool_call> tag")]
violations_st = st.lists(st.one_of(
    st.sampled_from(VIOLATION_POOL),  # repeats of one instance, as a parse shares them
    st.builds(FormatViolation, st.integers(1, 5), st.text())), max_size=30)
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(rid=st.one_of(st.none(), st.text(), st.integers(-2**70, 2**70), finite),
       r_format=st.integers(0, 1), parts=st.tuples(finite, finite, finite),
       matches=st.lists(st.builds(CallMatch, st.integers(0, 9), st.integers(0, 9),
                                  finite), max_size=4),
       violations=violations_st)
def test_score_line_equals_the_dump_of_to_dict(rid, r_format, parts, matches,
                                               violations):
    breakdown = RewardBreakdown(r_format, *parts, matches=matches,
                                violations=violations)
    assert _score_line(rid, breakdown) == dumps({"id": rid, **breakdown.to_dict()})


@pytest.mark.parametrize("rid", [float("nan"), float("-inf")])
@given(violations=violations_st)
@settings(max_examples=20, deadline=None)
def test_score_line_rejects_a_non_finite_id(rid, violations):
    breakdown = RewardBreakdown(0, 0.0, 0.0, -1.0, violations=violations)
    with pytest.raises(ValueError, match="Out of range float"):
        _score_line(rid, breakdown)


SHARED_RUN = [_STRAY[TOOL_CLOSE]] * 5000


@pytest.mark.parametrize("violations", [
    SHARED_RUN,  # one shared instance, as a run of one kind of closer gives
    SHARED_RUN + [_UNCLOSED[THINK_OPEN]],
    [_UNCLOSED[THINK_OPEN]] + SHARED_RUN,
    [_STRAY[THINK_CLOSE], _STRAY[TOOL_CLOSE]] * 2500,
    [FormatViolation(4, "f"), FormatViolation(4, "f")],  # equal, not one instance
    [FormatViolation(1, "x"), FormatViolation(True, "x")],  # equal, encoded apart
    [FormatViolation(3, "é\"\u2028")],
    [],
], ids=["shared", "shared+tail", "head+shared", "alternating", "equal-pair",
        "int-and-bool", "one", "none"])
def test_score_line_of_violation_lists(violations):
    breakdown = RewardBreakdown(0, 0.0, 0.0, -1.0, violations=violations)
    assert _score_line("r", breakdown) == dumps({"id": "r", **breakdown.to_dict()})


OUT_OF_RANGE = "top-k probabilities must be finite and within [0, 1]"


class TestKd:
    def test_teacher_equals_student_gives_zero_fkl(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp, teacher_equals_student=True)
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--loss", "fkl",
                     "--output", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        *records, footer = lines
        assert all(abs(r["loss"]) < 1e-12 for r in records)
        assert footer["records"] == len(records)

    def test_ckd_with_lambda_zero_equals_fkl_bit_for_bit(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp)
        out_fkl, out_ckd = tmp_path / "fkl.jsonl", tmp_path / "ckd.jsonl"
        main(["kd", "--input", str(inp), "--loss", "fkl", "--output", str(out_fkl)])
        main(["kd", "--input", str(inp), "--loss", "ckd", "--lambda", "0",
              "--output", str(out_ckd)])
        assert out_fkl.read_bytes() == out_ckd.read_bytes()

    def test_losses_match_scripted_recomputation(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp, seed=5)
        out = tmp_path / "out.jsonl"
        main(["kd", "--input", str(inp), "--loss", "ckd", "--m", "8",
              "--lambda", "10", "--output", str(out)])
        rows = [json.loads(line) for line in inp.read_text().splitlines()][1:]
        reported = [json.loads(line) for line in out.read_text().splitlines()][:-1]
        for row, rep in zip(rows, reported):
            teacher = dv.TopKDistribution(
                indices=np.array(row["teacher_topk"]["indices"]),
                probs=np.array(row["teacher_topk"]["probs"]))
            expected = dv.ckd_loss(teacher, np.array(row["student_logits"]),
                                   m=8, lambda_tail=10.0)
            assert rep["loss"] == pytest.approx(expected.loss)
            assert rep["escape_mass"] == pytest.approx(expected.aux["escape_mass"])

    def test_byte_identical_reruns(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp, seed=2)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["kd", "--input", str(inp), "--loss", "rkl-stab", "--output", str(out1)])
        main(["kd", "--input", str(inp), "--loss", "rkl-stab", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_of_bounds_index_is_format_error(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        rows = [
            {"version": 1, "vocab_size": 4},
            {"position_id": "p", "teacher_topk": {"indices": [9], "probs": [0.5]},
             "student_logits": [0.0, 0.0, 0.0, 0.0]},
        ]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["kd", "--input", str(inp)]) == 2

    @pytest.mark.parametrize("indices, message", [
        ([-1, 0], "teacher index -1 out of bounds for vocab_size 4"),
        ([0, -5], "teacher index -5 out of bounds for vocab_size 4"),
        ([1.5, 0], "teacher indices [1.5, 0] are not all integers"),
        ([True, 0], "teacher indices [True, 0] are not all integers"),
        (3, "teacher indices 3 are not all integers"),
    ])
    def test_negative_or_non_integer_index_is_format_error(self, indices, message,
                                                           tmp_path, capsys):
        inp, out = tmp_path / "kd.jsonl", tmp_path / "out.jsonl"
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [0.5, 0.0, -0.5, 1.0],
                 "teacher_topk": {"indices": indices, "probs": [0.6, 0.3]}}]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["kd", "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: position 'p': {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("probs, message", [
        ([True, 0.0], "teacher probs [True, 0.0] are not all numbers"),
        (["0.6", 0.4], "teacher probs ['0.6', 0.4] are not all numbers"),
        ([0.6, None], "teacher probs [0.6, None] are not all numbers"),
        ([[0.6], 0.4], "teacher probs [[0.6], 0.4] are not all numbers"),
        (0.6, "teacher probs 0.6 are not all numbers"),
    ])
    def test_non_numeric_teacher_prob_is_format_error(self, probs, message,
                                                      tmp_path, capsys):
        inp, out = tmp_path / "kd.jsonl", tmp_path / "out.jsonl"
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [0.5, 0.0, -0.5, 1.0],
                 "teacher_topk": {"indices": [3, 0], "probs": probs}}]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["kd", "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: position 'p': {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("indices, probs, message", [
        ([3, 0], [0.6], "indices and probs must be 1-d arrays of equal length"),
        ([], [], "top-k set must be non-empty"),
        ([2, 2], [0.4, 0.3], "top-k indices must be distinct within a row"),
        ([3, 0], [float("nan"), 0.3], OUT_OF_RANGE),
        ([3, 0], [-0.2, 0.5], OUT_OF_RANGE),
        ([3, 0], [1.5, 0.5], OUT_OF_RANGE),
        ([3, 0], [0.9, 0.9], "top-k probabilities sum to 1.8 > 1"),
        ([-1, 0], [0.6, 0.3], "teacher index -1 out of bounds for vocab_size 4"),
        ([3, 4], [0.6, 0.3], "teacher index 4 out of bounds for vocab_size 4"),
    ], ids=["unequal lengths", "empty", "repeated index", "nan prob", "negative prob",
            "prob above one", "sum above one", "negative index", "index past vocab"])
    # --k cuts a teacher only after the whole record is checked
    @pytest.mark.parametrize("flags", [[], ["--k", "1"]], ids=["all entries", "k=1"])
    def test_invalid_teacher_is_one_error_line(self, indices, probs, message, flags,
                                               tmp_path, capsys):
        inp, out = tmp_path / "kd.jsonl", tmp_path / "out.jsonl"
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [0.5, 0.0, -0.5, 1.0],
                 "teacher_topk": {"indices": indices, "probs": probs}}]
        # a NaN probability is written as the JSON constant NaN
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["kd", "--input", str(inp), "--output", str(out), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: position 'p': {message}\n")
        assert not out.exists()

    def test_integer_teacher_probs_are_numbers(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [0.5, 0.0, -0.5, 1.0],
                 "teacher_topk": {"indices": [3, 0], "probs": [1, 0]}}]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["kd", "--input", str(inp), "--loss", "fkl",
                     "--output", str(tmp_path / "out.jsonl")]) == 0

    @pytest.mark.parametrize("logits", [["0.5", True, -0.5, 1], [0.5, True, -0.5, 1.0],
                                        [0.5, None, -0.5, 1.0], ["0.5", 0.0, -0.5, 1.0]])
    def test_non_numeric_student_logit_is_format_error(self, logits, tmp_path, capsys):
        inp, out = tmp_path / "kd.jsonl", tmp_path / "out.jsonl"
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": logits,
                 "teacher_topk": {"indices": [3, 0], "probs": [0.6, 0.3]}}]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["kd", "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: position 'p': student_logits are not all numbers\n")
        assert not out.exists()

    def test_integer_student_logits_are_numbers(self, tmp_path):
        inp, out = tmp_path / "kd.jsonl", tmp_path / "out.jsonl"
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [1, 0, -1, 2],
                 "teacher_topk": {"indices": [3, 0], "probs": [0.6, 0.3]}}]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["kd", "--input", str(inp), "--loss", "fkl", "--output", str(out)]) == 0
        teacher = dv.TopKDistribution(np.array([3, 0]), np.array([0.6, 0.3]))
        assert json.loads(out.read_text().splitlines()[0])["loss"] == \
            dv.fkl_topk(teacher, np.array([1.0, 0.0, -1.0, 2.0])).loss

    def test_missing_header_is_format_error(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"position_id": "p"}) + "\n")
        assert main(["kd", "--input", str(inp)]) == 2

    # a string, a fraction, a bool and NaN once ran (as 4, 4, 1) or ended in
    # int()'s own message; a size below 1 once blamed the --m it defaulted
    @pytest.mark.parametrize("vocab_size", [[4], None, "4", 4.7, True, float("nan"),
                                            0, -5])
    def test_non_positive_integer_vocab_size_is_format_error(self, vocab_size, tmp_path,
                                                             capsys):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"vocab_size": vocab_size}) + "\n")
        assert main(["kd", "--input", str(inp)]) == 2
        assert capsys.readouterr().err == (
            f"error: header vocab_size must be a positive integer, got {vocab_size!r}\n")

    def test_degenerate_student_is_per_record_failure(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        rows = [
            {"version": 1, "vocab_size": 4},
            {"position_id": "dead",
             "teacher_topk": {"indices": [0, 1], "probs": [0.6, 0.3]},
             "student_logits": [0.0, -900.0, 0.0, 0.0]},
            {"position_id": "alive",
             "teacher_topk": {"indices": [0, 1], "probs": [0.6, 0.3]},
             "student_logits": [0.0, 0.0, 0.0, 0.0]},
        ]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--loss", "fkl",
                     "--output", str(out)]) == 1
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert "error" in lines[0]
        assert "loss" in lines[1]
        assert lines[-1]["records"] == 1

    def test_k_keeps_the_most_probable_entries(self, tmp_path):
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [0.5, 0.0, -0.5, 1.0],
                 "teacher_topk": {"indices": [3, 0], "probs": [0.05, 0.9]}}]
        inp = tmp_path / "kd.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--loss", "fkl", "--k", "1",
                     "--output", str(out)]) == 0
        teacher = dv.TopKDistribution(indices=np.array([0]), probs=np.array([0.9]))
        expected = dv.fkl_topk(teacher, np.array(rows[1]["student_logits"]))
        assert json.loads(out.read_text().splitlines()[0])["loss"] == expected.loss
        assert expected.loss > 0

    def test_empty_file_footer_is_valid_json(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"version": 1, "vocab_size": 4}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--output", str(out)]) == 0
        assert out.read_text() == ('{"mean_entropy": null, "mean_escape_mass": null, '
                                   '"mean_loss": null, "records": 0}\n')

    @pytest.mark.parametrize("m", [0, 17])
    def test_m_out_of_range_is_format_error(self, m, tmp_path, capsys):
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp)  # vocab_size 16
        assert main(["kd", "--input", str(inp), "--m", str(m)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: m={m} out of range [1, vocab_size=16]\n"

    @pytest.mark.parametrize("loss", ["fkl", "ckd"])
    def test_zero_teacher_probability_gives_finite_json(self, loss, tmp_path):
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [0.5, 0.0, -0.5, 1.0],
                 "teacher_topk": {"indices": [0, 3], "probs": [0.9, 0.0]}}]
        inp = tmp_path / "kd.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--loss", loss, "--m", "2",
                     "--output", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")
        record, footer = [json.loads(line, parse_constant=reject)
                          for line in out.read_text().splitlines()]
        assert np.isfinite(record["loss"]) and record["loss"] > 0
        assert footer["mean_loss"] == record["loss"]

    def test_invalid_json_on_the_last_line_writes_nothing(self, tmp_path, capsys):
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp, positions=2)
        dead = {"position_id": "dead",
                "teacher_topk": {"indices": [0, 1], "probs": [0.6, 0.3]},
                "student_logits": [0.0, -900.0] + [0.0] * 14}
        with inp.open("a") as handle:
            handle.write(json.dumps(dead) + "\n" + '{"position_id": "cut", "stu\n')
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--loss", "fkl",
                     "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", f"error: {inp}:5: invalid JSON (Unterminated string starting at)\n")

    @pytest.mark.parametrize("text", ["", "\n  \n\x0c\n"])
    def test_file_without_header_writes_nothing(self, text, tmp_path, capsys):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(text)
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: first line must be a header with 'vocab_size'\n")

    def test_header_only_file_writes_only_the_footer(self, tmp_path, capsys):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"version": 1, "vocab_size": 4}))  # no newline
        assert main(["kd", "--input", str(inp), "--m", "4"]) == 0
        assert capsys.readouterr() == (
            '{"mean_entropy": null, "mean_escape_mass": null, '
            '"mean_loss": null, "records": 0}\n', "")

    @pytest.mark.parametrize("bad, message", [
        ("\u2028{bad", "Expecting value"),
        ("{bad\u2029", "Expecting property name enclosed in double quotes"),
        # a control character is no JSON whitespace, so it cannot part two objects
        ('{"position_id": 1}\x0c{"position_id": 2}', "Extra data"),
        ('{"position_id": 1}\x1e', "Extra data"),
    ])
    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
    def test_line_numbers_count_physical_lines(self, sep, bad, message, tmp_path,
                                               capsys):
        # U+0085, U+2028 and U+2029 end no line, in a string or on a line of their own
        header = json.dumps({"version": 1, "vocab_size": 4})
        good = _dump({"position_id": "g\x85\u2028\u2029", "student_logits": [0, 0, 0, 1],
                      "teacher_topk": {"indices": [0], "probs": [0.5]}})
        lines = [header, "", good, " \x0b\x0c\x1c\x1d ", "\x85\u2028\u2029", bad, good]
        inp = tmp_path / "kd.jsonl"
        inp.write_bytes(sep.join(lines).encode("utf-8"))
        assert main(["kd", "--input", str(inp)]) == 2
        assert capsys.readouterr() == ("", f"error: {inp}:6: invalid JSON ({message})\n")

    @pytest.mark.parametrize("record, message", [
        ({"student_logits": [float("nan"), 0, 0, 0],
          "teacher_topk": {"indices": [0], "probs": [0.5]}},
         "student logits must be finite"),
        ({"student_logits": [0, 0, 0, 0], "teacher_topk": [0]},
         "teacher_topk must be a JSON object"),
        ({"student_logits": [[0, 0], [0, 0]],
          "teacher_topk": {"indices": [0], "probs": [0.5]}},
         "student logits must be a 1-d vector"),
    ])
    def test_kernel_rejection_is_format_error(self, record, message, tmp_path,
                                              capsys):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"vocab_size": 4}) + "\n"
                       + json.dumps({"position_id": "p", **record}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--m", "2",
                     "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: position 'p': {message}\n"

    @pytest.mark.parametrize("record, message", [
        ({"teacher_topk": [1], "student_logits": [0, 0]},
         "teacher_topk must be a JSON object"),
        ({"teacher_topk": "x", "student_logits": [0, 0]},
         "teacher_topk must be a JSON object"),
        ({"teacher_topk": {"indices": [0], "probs": [1.0]}, "student_logits": 5},
         "student_logits must be a JSON array"),
        ({"teacher_topk": {"indices": [0], "probs": [1.0]}, "student_logits": "00"},
         "student_logits must be a JSON array"),
        ({"teacher_topk": {"indices": [0], "probs": [1.0]}, "student_logits": {"0": 0}},
         "student_logits must be a JSON array"),
    ], ids=["topk list", "topk string", "logits number", "logits string", "logits object"])
    def test_record_of_the_wrong_shape_is_named(self, record, message, tmp_path, capsys):
        # a list or string teacher_topk once gave Python's subscript error, and
        # a number was read as a 1-vector whose length disagreed with the header
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"vocab_size": 2}) + "\n"
                       + json.dumps({"position_id": "p", **record}) + "\n")
        assert main(["kd", "--input", str(inp)]) == 2
        assert capsys.readouterr() == ("", f"error: position 'p': {message}\n")

    @pytest.mark.parametrize("rows", [
        kd_rows(), kd_rows()[:1], [kd_rows()[0], {"position_id": "bad"}],
    ], ids=["valid", "header only", "bad first record"])
    @pytest.mark.parametrize("loss", ["ckd", "fkl"])
    def test_negative_lambda_is_format_error(self, rows, loss, tmp_path, capsys):
        # a flag, checked before the first record: a header-only file once
        # exited 0, and a bad first record's error was reported instead
        inp = tmp_path / "kd.jsonl"
        inp.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["kd", "--input", str(inp), "--loss", loss, "--lambda", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: lambda=-1.0 must be non-negative\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_is_format_error(self, value, tmp_path, capsys):
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp)
        assert main(["kd", "--input", str(inp), "--lambda", value]) == 2
        assert capsys.readouterr() == ("", f"error: lambda={float(value)} must be finite\n")

    def test_unwritable_output_writes_only_its_error(self, tmp_path, capsys):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"vocab_size": 4}) + "\n" + json.dumps(
            {"position_id": "dead", "teacher_topk": {"indices": [0, 1], "probs": [0.6, 0.3]},
             "student_logits": [0.0, -900.0, 0.0, 0.0]}) + "\n")
        out = tmp_path / "missing" / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--loss", "fkl",
                     "--output", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: [Errno 2] ")
        assert err.count("\n") == 1

    def test_holds_one_form_of_one_record(self, tmp_path):
        # a line's text until parsed, its logit list until converted, and two
        # V-vectors of kernel work; a second copy of the text or record i's
        # arrays kept while record i+1 is parsed each exceed it
        vocab = 50_000
        inp, out = tmp_path / "kd.jsonl", tmp_path / "out.jsonl"
        make_kd_file(inp, vocab_size=vocab, positions=4)
        line = inp.read_text().splitlines()[1]
        tracemalloc.start()
        try:
            json.loads(line)
            _, parsed = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            tracemalloc.start()
            assert main(["kd", "--input", str(inp), "--output", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 5
        assert peak < len(line) + parsed + 2 * 8 * vocab

    def test_reader_is_lazy(self, tmp_path):
        inp = tmp_path / "kd.jsonl"
        inp.write_text(json.dumps({"vocab_size": 4}) + "\n{bad\n")
        rows = _iter_jsonl(str(inp))
        assert next(rows) == {"vocab_size": 4}
        with pytest.raises(ValueError, match=":2: invalid JSON"):
            next(rows)

    def test_loss_choices_are_the_training_objectives(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        loss = next(a for a in commands["kd"]._actions if a.dest == "loss")
        assert loss.choices == list(dv.KD_LOSS_KINDS)
        for command in ("kd", "gradcheck"):
            lam = next(a for a in commands[command]._actions if a.dest == "lambda_tail")
            assert lam.default is dv.DEFAULT_LAMBDA_TAIL

    @pytest.mark.parametrize("loss, status", [
        ("fkl", 1), ("ckd", 1), ("rkl", 0), ("rkl-stab", 0)])
    def test_logits_spanning_past_the_float_range_warn_nothing(self, loss, status,
                                                               tmp_path, capsys):
        """The softmax's shift overflows to an -inf whose exp is the exact 0;
        stderr holds the notes and no numpy warning."""
        inp = tmp_path / "kd.jsonl"
        rows = [{"version": 1, "vocab_size": 4},
                {"position_id": "p", "student_logits": [-1e308, 1e308, 0, 0],
                 "teacher_topk": {"indices": [0], "probs": [0.5]}}]
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["kd", "--input", str(inp), "--m", "2", "--loss", loss]) == status
        assert caught == []
        note = "position 'p': student probability underflowed at top-k indices [0]\n"
        assert capsys.readouterr().err == (note if status else "")

    @pytest.mark.parametrize("k", [-1, 0])
    def test_k_below_one_is_format_error(self, k, tmp_path, capsys):
        inp = tmp_path / "kd.jsonl"
        write_three_entry_teacher(inp)
        out = tmp_path / "out.jsonl"
        assert main(["kd", "--input", str(inp), "--k", str(k),
                     "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: k={k} must be at least 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["3", "4"])
    def test_k_at_or_above_the_entry_count_keeps_every_entry(self, k, tmp_path):
        inp = tmp_path / "kd.jsonl"
        write_three_entry_teacher(inp)
        whole, cut = tmp_path / "whole.jsonl", tmp_path / "cut.jsonl"
        assert main(["kd", "--input", str(inp), "--output", str(whole)]) == 0
        assert main(["kd", "--input", str(inp), "--k", k, "--output", str(cut)]) == 0
        assert cut.read_text() == whole.read_text()
        # pinned loss of the full three-entry teacher
        assert json.loads(cut.read_text().splitlines()[0])["loss"] == \
            2.955288735580854


LINE_END_KIN = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines ends lines there
_text = st.text(st.characters(exclude_categories=["Cs"]) | st.sampled_from(LINE_END_KIN))


@settings(max_examples=60, deadline=None)
@given(records=st.lists(st.dictionaries(_text, _text)),
       sep=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans())
def test_reader_splits_at_line_ends_only(records, sep, last):
    """Records written with ``_dump`` and joined by any universal line end
    read back unchanged, whatever text they hold."""
    records = [*records, {LINE_END_KIN: LINE_END_KIN}]
    text = sep.join(map(_dump, records)) + (sep if last else "")
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "in.jsonl"
        inp.write_bytes(text.encode("utf-8"))
        assert list(_iter_jsonl(str(inp))) == records


STR_BLANKS = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"  # str.isspace(), not all bytes.isspace()
_records = st.dictionaries(_text, _text | st.integers() | st.floats(allow_nan=False,
                                                                  allow_infinity=False),
                           max_size=3).map(_dump)
_jsonl_lines = (
    _records
    | st.text(st.sampled_from(STR_BLANKS), max_size=3)  # the empty line too
    | st.tuples(_records, st.integers(0)).map(  # cut anywhere, in a string or not
        lambda cut: cut[0][:cut[1] % (len(cut[0]) + 1)])
    | st.sampled_from(['{bad', '[1]', '"\u2028"', '{"a": 1} x', '{"a": NaN}', "\ufeff{}",
                       ' {"a": 1}', '\xa0{"a": 1}\u3000', '{"a": "\u2028\u2029\x85"}'])
    | st.integers(0, 40).map(lambda pad: _dump({"pad": "x" * pad})))


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(_jsonl_lines, st.sampled_from(["\n", "\r\n", "\r"])),
                      max_size=8),
       last=st.booleans(), read=st.sampled_from([1, 2, 3, 5, 16, cli._READ]))
@example(lines=[('{"a": 1}', "\r\n"), ('{"b": 2}', "\r\n")], last=True, read=9)  # "\r" ends a read
@example(lines=[(_dump({"pad": "x" * 2 * cli._READ}), "\r"), ("{}", "\n")], last=False,
         read=cli._READ)
@example(lines=[("\xa0", "\r"), ("", "\r\n"), ('{"a": "cut', "\n")], last=False, read=1)
def test_reader_reads_as_the_text_reader(lines, last, read):
    """The objects the text-mode reader gave, or its error message, on records,
    blank lines of ``str`` whitespace, bad and cut-off lines and lines longer than
    a read, joined by any line end, with reads so short that they part a ``\\r\\n``."""
    text = "".join(line + sep for line, sep in lines)
    if lines and not last:
        text = text.removesuffix(lines[-1][1])
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "in.jsonl"
        inp.write_bytes(text.encode("utf-8"))

        def outcome(reader):
            objects = []
            try:
                for obj in reader(str(inp)):
                    objects.append(_typed(obj))
            except ValueError as exc:
                return objects, str(exc)
            return objects, None

        with mock.patch.object(cli, "_READ", read):
            assert outcome(_iter_jsonl) == outcome(iter_jsonl_text)


# literals where orjson and json.loads could part: each side of the integer
# edges orjson reads exactly, what only json.loads reads, and escapes and raw
# text that orjson must decode as json.loads does
EDGE_LITERALS = [str(n) for edge in (-2**63, 2**63, 2**64) for n in (edge - 1, edge, edge + 1)]
EDGE_LITERALS += [str(10**30), "1e19", "NaN", "Infinity", "-Infinity", "1e400", "-0",
                  "-0.0", "true", "false", "null", '"\\ud800"', '"\\ud83d\\ude00"', '"\u2028"']
_json_atoms = (
    st.sampled_from(EDGE_LITERALS)
    | st.integers(0, 2**64 - 1).map(  # random-bit doubles, NaN and inf spelt as repr
        lambda bits: repr(struct.unpack("<d", bits.to_bytes(8, "little"))[0]))
    | st.from_regex(r"-?[1-9][0-9]{0,24}(\.[0-9]{1,8})?([eE][-+]?[0-9]{1,3})?",
                    fullmatch=True)
    | st.text(max_size=4).map(json.dumps)
    | st.text(max_size=4).map(lambda s: json.dumps(s, ensure_ascii=False)))
_json_keys = st.sampled_from(['"a"', '"\\u0061"', '"b"']) | st.text(max_size=2).map(json.dumps)
json_texts = st.recursive(_json_atoms, lambda inner: (
    st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]")
    | st.lists(st.tuples(_json_keys, inner), max_size=4).map(  # keys repeat
        lambda pairs: "{" + ",".join(f"{k}: {v}" for k, v in pairs) + "}")), max_leaves=12)


def _typed(value):
    """``value`` with its type at every node, each float as its bits, in key order."""
    if type(value) is dict:
        return dict, [(key, _typed(item)) for key, item in value.items()]
    if type(value) is list:
        return list, [_typed(item) for item in value]
    return type(value), struct.pack("<d", value) if type(value) is float else value


def _decoded(decode, text):
    try:
        return _typed(decode(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(text=json_texts, edit=st.none() | st.tuples(
    st.integers(0), st.sampled_from(list(' \t,:[]{}"\\-.0eE1nN')), st.booleans()))
@example(text='{"a": "cut off', edit=None)
@example(text='[NaN, "cut off', edit=None)
@example(text='"a\\', edit=None)
@example(text="[" + "[], " * 101 + "[]]", edit=None)  # past the walk's cap, none wide
@example(text="[" + "[], " * 101 + "[18446744073709551616]]", edit=None)  # wide past it
@example(text="[-9223372036854775809, " + "{}, " * 101 + "[]]", edit=None)  # wide before it
def test_loads_is_json_loads(text, edit):
    """The same object, types, float bits and key order, or the same error, a
    cut-off string's included, on JSON texts, on texts one character away from
    them, and on lines of more containers than the walk checks."""
    if edit is not None:
        at, char, replace = edit
        at %= len(text) + 1
        text = text[:at] + char + text[at + replace:]
    assert _decoded(_loads, text.encode()) == _decoded(json.loads, text)


_logit_entries = (st.floats() | st.sampled_from([-0.0, 0.0, 1.0, math.nan])
                  | st.integers(-2**70, 2**70)
                  | st.sampled_from([0, 1, 2**63, 2**64 + 1, -2**63 - 1, 2**1024, -2**1030])
                  | st.booleans() | st.none() | st.text(max_size=3)
                  | st.sampled_from(["0.5", "1", "nan", "inf"]))
_student_logits = (st.lists(_logit_entries | st.lists(_logit_entries, min_size=1, max_size=3),
                            min_size=1, max_size=12)
                   | st.lists(st.lists(st.floats(), min_size=2, max_size=2),
                              min_size=1, max_size=3))


def _converted(convert, logits):
    try:
        z = convert(logits)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    return z.dtype, z.shape, z.tobytes()


@settings(max_examples=400, deadline=None)
@given(logits=_student_logits)
@example(logits=[0.0, True, 1.0])
@example(logits=[-0.0, 1, 0, 2**64 + 1])
def test_kd_converts_logits_as_asarray_then_a_type_check(logits):
    """The array a loss receives from ``_kd_position`` has the bits of the
    oracle's, or the record fails with the oracle's error, on lists of floats,
    ints past int64 and the float range, bools, nulls, strings and lists."""
    want = _converted(student_logits_asarray, logits)
    vocab_size = len(want[2]) // 8 if len(want) == 3 else len(logits)  # passes its check
    record = {"teacher_topk": {"indices": [0], "probs": [1.0]}, "student_logits": logits}
    assert _converted(lambda record: _position_logits(record, vocab_size), record) == want


def _position_logits(record, vocab_size):
    """The logit array ``_kd_position`` hands a loss for a copy of ``record``."""
    seen = []

    def capture(teacher, z, m, lambda_tail):
        seen.append(z)
        return dv.LossReport(0.0, z, {"escape_mass": 0.0, "entropy": 0.0})

    args = argparse.Namespace(k=None, loss="capture", lambda_tail=0.0)
    with mock.patch.dict(dv.LOSSES, capture=capture):
        cli._kd_position(dict(record), vocab_size, 1, args)
    return seen[0]


@settings(max_examples=300, deadline=None)
@given(logits=_student_logits)
@example(logits=[2**64 - 1, 2**64, 2**64 + 1, -2**70, 10**300])
@example(logits=[True, 2**65])
@example(logits=[{"a": 2**64}, 1.0])
def test_kd_position_reads_logits_decoded_either_way_alike(logits):
    """``_kd_position`` gives the same array bits, or the same error, for a
    record whose ``student_logits`` ``_loads`` leaves unwalked (so a wide
    integer may arrive as orjson's float) as for ``json.loads``' record."""
    want = _converted(student_logits_asarray, logits)
    vocab_size = len(want[2]) // 8 if len(want) == 3 else len(logits)  # passes its check
    text = json.dumps({"teacher_topk": {"indices": [0], "probs": [1.0]},
                       "student_logits": logits})

    def position(decode):
        return _converted(lambda text: _position_logits(decode(text), vocab_size), text)

    assert position(lambda text: _loads(text.encode(), "student_logits")) == position(json.loads)


def test_loads_leaves_only_the_named_list_unwalked_and_only_in_a_shallow_line():
    text = '{"a": [1, 2], "z": [18446744073709551617, [-18446744073709551617]]}'
    want = "{'a': [1, 2], 'z': [1.8446744073709552e+19, [-1.8446744073709552e+19]]}"
    assert repr(_loads(text.encode(), "z")) == want
    def line(marks):  # with the record's own "{" and "[", 100 marks in all
        return '{"z": [18446744073709551617], "s": "' + marks + '"}'

    for floats, text in [("a", text), (None, text), ("z", '{"z": {"z": [18446744073709551617]}}'),
                         ("z", line("[" * 98)), ("z", line("{" * 98))]:
        assert repr(_loads(text.encode(), floats)) == repr(json.loads(text))
    assert repr(_loads(line("{" * 97).encode(), "z")["z"]) == "[1.8446744073709552e+19]"


@pytest.mark.parametrize("text", [
    "[" * 1100 + "]" * 1100, "[" * 100000, "[" * 300 + "1" + "]" * 300,
    "[" * 60 + "18446744073709551616" + "]" * 60,
    '{"a": 0, "b": [[1.5, {"c": -9223372036854775809}]], "a": 2}',
], ids=["1100 deep", "100000 open", "300 deep", "wide int 60 deep", "wide int in dict"])
def test_loads_is_json_loads_on_deep_and_wide_lines(text):
    assert _decoded(_loads, text.encode()) == _decoded(json.loads, text)


def test_kd_writes_what_json_loads_gives(tmp_path, capsys, monkeypatch):
    """Every byte and exit code of ``kd`` is that of a run decoding each line
    with ``json.loads``, on ids orjson alone would read as floats, and on logits
    that it reads as floats where ``kd`` leaves them unchecked, or that nest."""
    rows = kd_rows(vocab_size=4096, positions=8, seed=27)
    rows += [{**rows[1], "position_id": pid} for pid in (2**64, -2**63 - 1, 1e19, [2**64])]
    inp, wide = tmp_path / "kd.jsonl", tmp_path / "wide.jsonl"
    inp.write_text("".join(json.dumps(row) + "\n" for row in rows))
    wide.write_text("".join(json.dumps(row) + "\n" for row in
                            [{"version": 1, "vocab_size": 2**64}, rows[1]]))
    runs = [["kd", "--input", str(inp), "--loss", "ckd"],
            ["kd", "--input", str(inp), "--loss", "rkl-stab"], ["kd", "--input", str(wide)]]
    logits = rows[1]["student_logits"]
    wide_logits = [[2**63, 2**64 - 1, 2**64, 2**64 + 1, -2**70], [10**300, -10**300]]
    cases = {"wide_logits": [json.dumps(logits[:-len(w)] + w) for w in wide_logits],
             "nested": [json.dumps([[2**64]] * 4096)],
             "bool": [json.dumps([True, 2**65, *logits[2:]])],
             "string": [json.dumps(["a", 2**64 + 1, *logits[2:]])],
             "past_floats": [json.dumps([10**400, *logits[1:]])],
             "deep": ["[" * 1100 + "]" * 1100]}
    teacher = json.dumps(rows[1]["teacher_topk"])
    for name, texts in cases.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(json.dumps(rows[0]) + "\n" + "".join(
            f'{{"position_id": "{name}{i}", "teacher_topk": {teacher}, '
            f'"student_logits": {text}}}\n' for i, text in enumerate(texts)))
        runs += [["kd", "--input", str(path), "--loss", loss] for loss in ("ckd", "rkl-stab")]

    def outcomes():
        return [(main(argv), *capsys.readouterr()) for argv in runs]

    fast = outcomes()
    monkeypatch.setattr(cli, "_loads", lambda text, *_: json.loads(text))
    assert outcomes() == fast
    assert [status for status, _, _ in fast] == [0, 0, 2, 1, 0] + [2] * 10
    assert fast[-1][2].endswith("deep.jsonl:2: invalid JSON (nesting too deep)\n")
    ids = [json.loads(line)["position_id"] for line in fast[0][1].splitlines()[8:-1]]
    assert ids == [2**64, -2**63 - 1, 1e19, [2**64]]
    assert fast[2][1:] == ("", "error: position 'pos0': student_logits has length "
                               "4096, header declares 18446744073709551616\n")


def test_score_and_advantages_write_what_json_loads_gives(score_files, tmp_path, capsys,
                                                         monkeypatch):
    """Every byte and exit code of ``score`` and ``advantages`` is that of a run
    decoding each line with ``json.loads``, on ids orjson alone would read as
    floats, on a line of more containers than ``_loads`` walks, and on a line
    nested past ``json.loads``' limit."""
    schema_path, records_path = score_files
    ids = [2**64, -2**63 - 1, 1e19]
    golden = [json.loads(line) for line in records_path.read_text().splitlines()]
    call = '<tool_call>{"name": "f7", "arguments": {"a": 1}}</tool_call>'
    schema = [{"name": f"f{i}", "parameters": {"a": {"type": "int", "default": 2**64}}}
              for i in range(40)]  # 121 containers
    records = [{**golden[i], "id": rid} for i, rid in enumerate(ids)]
    records.append({"id": "big", "generation": "<think>t</think>" + call,
                    "ground_truth": "<think>u</think>" + call, "schema_ref": schema})
    groups = [{"prompt_id": pid, "rewards": [1, 0, 2**64, 1e19]} for pid in ids]
    groups.append({"prompt_id": "big", "rewards": [1, 0], "seen": [{}] * 101})
    runs, deep = [], "[" * 1100 + "]" * 1100 + "\n"
    for name, rows, flags in (("score", records, ["--schema", str(schema_path)]),
                              ("advantages", groups, [])):
        path, deep_path = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_deep.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        deep_path.write_text(json.dumps(rows[0]) + "\n" + deep)
        runs += [[name, "--input", str(p), *flags] for p in (path, deep_path)]

    def outcomes():
        return [(main(argv), *capsys.readouterr()) for argv in runs]

    fast = outcomes()
    monkeypatch.setattr(cli, "_loads", lambda text, *_: json.loads(text))
    assert outcomes() == fast
    assert [status for status, _, _ in fast] == [0, 2, 0, 2]
    for (_, out, _), key in ((fast[0], "id"), (fast[2], "prompt_id")):
        assert [json.loads(line)[key] for line in out.splitlines()] == [*ids, "big"]
    assert json.loads(fast[0][1].splitlines()[-1])["total"] == 1.0
    for _, out, err in (fast[1], fast[3]):
        assert out == "" and err.endswith("_deep.jsonl:2: invalid JSON (nesting too deep)\n")


@pytest.mark.parametrize("command, record, key", [
    ("score", {"id": "r", "ground_truth": "<think>t</think>hi"}, "generation"),
    ("score", {"id": "r", "generation": "<think>t</think>hi"}, "ground_truth"),
    ("kd", {"position_id": "p", "student_logits": [0.0, 0.0]}, "teacher_topk"),
    ("kd", {"position_id": "p", "student_logits": [0.0, 0.0],
            "teacher_topk": {"probs": [1.0]}}, "indices"),
    ("kd", {"position_id": "p", "teacher_topk": {"indices": [0], "probs": [1.0]}},
     "student_logits"),
])
def test_record_without_a_key_names_it(command, record, key, score_files, tmp_path,
                                       capsys):
    schema_path, _ = score_files
    inp = tmp_path / "in.jsonl"
    head = [{"version": 1, "vocab_size": 2}] if command == "kd" else []
    inp.write_text("".join(json.dumps(row) + "\n" for row in [*head, record]))
    flags = ["--schema", str(schema_path)] if command == "score" else []
    assert main([command, "--input", str(inp), *flags]) == 2
    what = "record 'r'" if command == "score" else "position 'p'"
    assert capsys.readouterr() == ("", f"error: {what}: missing key '{key}'\n")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kd_k_ignores_teacher_entry_order(data):
    """Permuting a record's teacher entries leaves ``kd --k`` output unchanged."""
    vocab = data.draw(st.integers(2, 24))
    n = data.draw(st.integers(1, vocab))
    indices = data.draw(st.lists(st.integers(0, vocab - 1), min_size=n,
                                 max_size=n, unique=True))
    weights = data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n,
                                 unique=True))
    probs = [w / (sum(weights) * 1.25) for w in weights]
    logits = data.draw(st.lists(st.floats(-8, 8), min_size=vocab, max_size=vocab))
    perm = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, n + 1))
    m = data.draw(st.integers(1, vocab))
    loss = data.draw(st.sampled_from(dv.KD_LOSS_KINDS))

    def run(order):
        rows = [{"version": 1, "vocab_size": vocab},
                {"position_id": 0, "student_logits": logits,
                 "teacher_topk": {"indices": [indices[i] for i in order],
                                  "probs": [probs[i] for i in order]}}]
        with tempfile.TemporaryDirectory() as tmp:
            inp, out = Path(tmp) / "kd.jsonl", Path(tmp) / "out.jsonl"
            inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
            with contextlib.redirect_stderr(io.StringIO()):
                status = main(["kd", "--input", str(inp), "--loss", loss,
                               "--k", str(k), "--m", str(m), "--output", str(out)])
            return status, out.read_bytes()

    assert run(range(n)) == run(perm)


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out and "FAIL" not in out

    @pytest.mark.parametrize("argv, message", [
        (["--trials", "0"], "trials=0 must be at least 1"),
        (["--trials", "-1"], "trials=-1 must be at least 1"),
        (["--dims", "0"], "dims=0 must be at least 1"),
        (["--m", "0"], "m=0 out of range [1, dims=32]"),
        (["--m", "33"], "m=33 out of range [1, dims=32]"),
        (["--dims", "8"], "m=16 out of range [1, dims=8]"),
        (["--k", "0"], "k=0 out of range [1, dims=32]"),
        (["--lambda", "nan"], "lambda=nan must be finite"),
        (["--lambda=-inf"], "lambda=-inf must be finite"),
        # kd's rule, checked before the suite runs: the kernel once rejected
        # it only after the fkl and tail suites had run
        (["--lambda", "-1"], "lambda=-1.0 must be non-negative"),
        # numpy's "expected non-negative integer" once named no flag
        (["--seed", "-1"], "seed=-1 must be non-negative"),
    ])
    def test_out_of_range_flag_is_one_error_line(self, capsys, argv, message):
        # --trials 0 was once a vacuous pass with exit 0
        assert main(["gradcheck", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unreachable_boundary_margin_is_one_error_line(self, capsys):
        # once a RuntimeError traceback: mid-vocabulary top-m gaps of V=4,096
        # logits are far below the 1e-4 margin
        assert main(["gradcheck", "--dims", "4096", "--m", "2048", "--trials", "1"]) == 2
        assert capsys.readouterr() == ("", "error: no draw in 200 cleared the top-m "
                                           "boundary by 0.0001 at V=4096, m=2048\n")

    def test_nan_gradient_prints_fail_and_exits_one(self, capsys, monkeypatch):
        kind = dv.LOSSES["ckd"]

        def nan_grad(teacher, z, m, lambda_tail):
            report = kind.kernel(teacher, z, m, lambda_tail)
            return dv.LossReport(report.loss, np.full_like(z, np.nan), report.aux)

        monkeypatch.setitem(dv.LOSSES, "ckd", kind._replace(kernel=nan_grad))
        assert main(["gradcheck", "--trials", "2", "--dims", "16", "--m", "8"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines if line.endswith("FAIL")] == ["ckd"]


class TestTrainToy:
    def test_writes_csv_and_prints_final_reward(self, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        save_task(bundled_optional_param_task(), task_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 10, "group_size": 4}))
        out = tmp_path / "log.csv"
        status = main(["train-toy", "--task", str(task_path), "--config",
                       str(cfg_path), "--seed", "0", "--output", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,mean_reward,mean_entropy,filtered_fraction"
        assert len(lines) == 11
        assert "final mean reward" in capsys.readouterr().out

    def test_zero_learning_rate_flat_curve(self, tmp_path):
        task_path = tmp_path / "task.json"
        save_task(bundled_optional_param_task(), task_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 8, "learning_rate": 0.0}))
        out = tmp_path / "log.csv"
        main(["train-toy", "--task", str(task_path), "--config", str(cfg_path),
              "--output", str(out)])
        entropies = [line.split(",")[2]
                     for line in out.read_text().splitlines()[1:]]
        assert len(set(entropies)) == 1

    def test_unfiltered_homogeneous_groups_exit_zero(self, tmp_path):
        task_path = tmp_path / "task.json"
        save_task(bundled_default_task(), task_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 60, "filter_groups": False}))
        out = tmp_path / "log.csv"
        assert main(["train-toy", "--task", str(task_path), "--config",
                     str(cfg_path), "--seed", "0", "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0.0"] * 60

    @pytest.mark.parametrize("make_task", [bundled_default_task,
                                           bundled_optional_param_task])
    @pytest.mark.parametrize("config", [{}, {"reward_mode": "binary"},
                                        {"filter_groups": False},
                                        {"reward_mode": "binary", "filter_groups": False}])
    def test_csv_equals_the_per_token_oracle_run(self, make_task, config, tmp_path,
                                                 monkeypatch):
        task_path, cfg_path = tmp_path / "task.json", tmp_path / "cfg.json"
        save_task(make_task(), task_path)
        cfg_path.write_text(json.dumps({"iterations": 40, **config}))

        def run(out):
            assert main(["train-toy", "--task", str(task_path), "--config",
                         str(cfg_path), "--seed", "3", "--output", str(out)]) == 0
            return out.read_bytes()

        csv = run(tmp_path / "fast.csv")
        monkeypatch.setattr(toy_trainer, "SlotView", RecomputingSlotView)
        monkeypatch.setattr(toy_trainer, "objective_and_gradient", gradient_per_token)
        assert run(tmp_path / "oracle.csv") == csv

    def test_negative_seed_is_rejected_before_the_task_is_read(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" once named no flag
        assert main(["train-toy", "--task", str(tmp_path / "gone.json"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed=-1 must be non-negative\n")

    def test_missing_task_file(self, tmp_path, capsys):
        status = main(["train-toy", "--task", str(tmp_path / "gone.json")])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_beta_flag_overrides_and_epsilon_is_no_flag(self, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        save_task(bundled_optional_param_task(), task_path)

        def run(config, *flags):
            cfg_path, out = tmp_path / "cfg.json", tmp_path / "log.csv"
            cfg_path.write_text(json.dumps({"iterations": 3, **config}))
            assert main(["train-toy", "--task", str(task_path), "--config",
                         str(cfg_path), "--output", str(out), *flags]) == 0
            return out.read_bytes()

        overridden = run({"beta": 0.5}, "--beta", "0.0")
        assert overridden == run({"beta": 0.0}) != run({"beta": 0.5})
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["train-toy", "--task", str(task_path), "--epsilon", "0.3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --epsilon 0.3" in capsys.readouterr().err

    def test_epsilon_in_config_is_an_unknown_key(self, tmp_path, capsys):
        task_path, cfg_path = tmp_path / "task.json", tmp_path / "cfg.json"
        save_task(bundled_optional_param_task(), task_path)
        cfg_path.write_text(json.dumps({"iterations": 3, "epsilon": 0.2}))
        out = tmp_path / "log.csv"
        assert main(["train-toy", "--task", str(task_path), "--config",
                     str(cfg_path), "--output", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {cfg_path}: unknown config keys: 'epsilon'\n")
        assert not out.exists()


    @pytest.mark.parametrize("config", [
        {"epsilon": "x"}, {"learning_rate": "x"}, {"group_size": 2.5},
        {"iterations": -3}, {"iterations": 0}, {"iterations": 2.5},
        {"iterations": True}, {"iterations": "5"}, {"epsilon": 0.0},
        {"beta": -1.0}, {"learning_rate": float("nan")}, {"group_size": True},
        {"filter_groups": "no"}, [1, 2], "x", {"iterations": 3, "learnig_rate": 0.0},
    ])
    def test_bad_config_is_format_error(self, config, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        save_task(bundled_optional_param_task(), task_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "log.csv"
        assert main(["train-toy", "--task", str(task_path), "--config",
                     str(cfg_path), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--beta"])
    def test_non_finite_flag_is_format_error(self, flag, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        save_task(bundled_optional_param_task(), task_path)
        assert main(["train-toy", "--task", str(task_path), flag, "inf"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spoil, error", [
        (lambda doc: {k: v for k, v in doc.items() if k != "schema"},
         "missing key 'schema'"),
        (lambda doc: "a task", "a task must be a JSON object"),
        (lambda doc: [doc], "a task must be a JSON object"),
        (lambda doc: {**doc, "prompts": [{"prompt_id": "p0"}]},
         "missing key 'ground_truth'"),
        (lambda doc: {"schema": [], "domains": {},
                      "prompts": [{"prompt_id": "p", "ground_truth": "<think>t</think>ok"}]},
         "a task needs at least one function"),
    ], ids=["no-schema", "string", "list", "prompt-without-ground-truth", "no-function"])
    def test_malformed_task_names_its_file(self, spoil, error, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        task_path.write_text(json.dumps(spoil(bundled_default_task().to_dict())))
        out = tmp_path / "log.csv"
        assert main(["train-toy", "--task", str(task_path), "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {task_path}: {error}\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, error", [
        ("[1]", "config must be a JSON object"),
        ('{"bogus": 1}', "unknown config keys: 'bogus'"),
        ('{"iterations": 0}', "iterations must be an integer of at least 1, got 0"),
        ('{"group_size": 1}', "group_size must be an integer of at least 2, got 1"),
        ('{"beta": NaN}', "beta must be a finite number, got nan"),
        ("{bad", "invalid JSON (line 1: Expecting property name enclosed in double quotes)"),
    ], ids=["list", "unknown key", "iterations", "value", "beta", "invalid JSON"])
    def test_config_errors_name_the_config_file(self, config, error, tmp_path, capsys):
        task_path, cfg_path = tmp_path / "task.json", tmp_path / "cfg.json"
        save_task(bundled_default_task(), task_path)
        cfg_path.write_text(config)
        assert main(["train-toy", "--task", str(task_path), "--config",
                     str(cfg_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg_path}: {error}\n")

    @pytest.mark.parametrize("config", [None, '{"iterations": 3}', '{"beta": 0.5}'])
    def test_beta_flag_errors_name_no_file(self, config, tmp_path, capsys):
        task_path, cfg_path = tmp_path / "task.json", tmp_path / "cfg.json"
        save_task(bundled_default_task(), task_path)
        flags = []
        if config is not None:
            cfg_path.write_text(config)
            flags = ["--config", str(cfg_path)]
        assert main(["train-toy", "--task", str(task_path), *flags,
                     "--beta", "nan"]) == 2
        assert capsys.readouterr() == ("", "error: beta must be a finite number, got nan\n")
        assert main(["train-toy", "--task", str(task_path), *flags,
                     "--beta=-1"]) == 2
        assert capsys.readouterr() == ("", "error: beta must be non-negative\n")

    def test_beta_flag_overrides_a_bad_config_beta(self, tmp_path, capsys):
        task_path, cfg_path = tmp_path / "task.json", tmp_path / "cfg.json"
        save_task(bundled_default_task(), task_path)
        cfg_path.write_text('{"iterations": 2, "beta": -1.0}')
        assert main(["train-toy", "--task", str(task_path), "--config", str(cfg_path),
                     "--beta", "0.0"]) == 0
        assert capsys.readouterr().err == ""

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        task_path, cfg_path = tmp_path / "task.json", tmp_path / "cfg.json"
        save_task(bundled_default_task(), task_path)
        cfg_path.write_bytes(b"{\xff}")
        assert main(["train-toy", "--task", str(task_path), "--config",
                     str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_invalid_json_task_names_its_file(self, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        task_path.write_text("{bad")
        assert main(["train-toy", "--task", str(task_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {task_path}: invalid JSON "
                "(line 1: Expecting property name enclosed in double quotes)\n")


class TestTracedNames:
    """A tracer wraps the public kernels by their names in ``tooltrain.divergence``;
    the CLI must still reach each one there, once per call it makes."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls, kernel = [], getattr(dv, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(dv, name, counted)
        return calls

    @pytest.mark.parametrize("loss, kernel", [  # kd offers every loss but the tail alone
        ("fkl", "fkl_topk"), ("ckd", "ckd_loss"), ("rkl", "rkl_topk_masked"),
        ("rkl-stab", "rkl_topk_stabilized")])
    def test_kd_calls_its_kernel_once_per_position(self, loss, kernel, tmp_path,
                                                   monkeypatch):
        calls = self._count_calls(monkeypatch, kernel)
        inp = tmp_path / "kd.jsonl"
        make_kd_file(inp, positions=5)
        assert main(["kd", "--input", str(inp), "--loss", loss,
                     "--output", str(tmp_path / "out.jsonl")]) == 0
        assert len(calls) == 5

    def test_gradcheck_calls_each_kernel_once_per_trial(self, monkeypatch, capsys):
        names = ["fkl_topk", "tail_penalty", "ckd_loss", "rkl_topk_masked",
                 "rkl_topk_stabilized"]
        calls = [self._count_calls(monkeypatch, name) for name in names]
        assert main(["gradcheck", "--trials", "3", "--dims", "16", "--k", "4",
                     "--m", "8"]) == 0
        assert [len(c) for c in calls] == [3] * 5


class TestAdvantages:
    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path, monkeypatch):
        # stdout once took its stream's encoding: latin-1 failed on "中" and
        # wrote "é" as one byte, where --output gets UTF-8
        inp, out = tmp_path / "groups.jsonl", tmp_path / "out.jsonl"
        inp.write_text(json.dumps({"prompt_id": "é中", "rewards": [1, 0]}) + "\n")
        assert main(["advantages", "--input", str(inp), "--output", str(out)]) == 0
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="latin-1")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["advantages", "--input", str(inp)]) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == out.read_bytes()
        assert "é中".encode() in out.read_bytes()

    def test_closed_form_group(self, tmp_path, capsys):
        inp = tmp_path / "groups.jsonl"
        inp.write_text(json.dumps({"prompt_id": "g", "rewards": [1, 0, 0, 1]}) + "\n")
        assert main(["advantages", "--input", str(inp)]) == 0
        line = json.loads(capsys.readouterr().out)
        assert line["advantages"] == [1.0, -1.0, -1.0, 1.0]

    def test_homogeneous_group_marked_filtered(self, tmp_path, capsys):
        inp = tmp_path / "groups.jsonl"
        inp.write_text(json.dumps({"prompt_id": "g", "rewards": [1, 1, 1, 1]}) + "\n")
        assert main(["advantages", "--input", str(inp)]) == 0
        assert json.loads(capsys.readouterr().out) == {"prompt_id": "g",
                                                       "filtered": True}

    def test_equal_float_rewards_marked_filtered(self, tmp_path, capsys):
        inp = tmp_path / "groups.jsonl"
        inp.write_text(json.dumps({"prompt_id": "h", "rewards": [0.7, 0.7, 0.7]}) + "\n")
        assert main(["advantages", "--input", str(inp)]) == 0
        assert json.loads(capsys.readouterr().out) == {"prompt_id": "h",
                                                       "filtered": True}

    def test_single_element_group_is_error(self, tmp_path):
        inp = tmp_path / "groups.jsonl"
        inp.write_text(json.dumps({"prompt_id": "g", "rewards": [1]}) + "\n")
        assert main(["advantages", "--input", str(inp)]) == 1

    @pytest.mark.parametrize("short", [{"rewards": [1]}, {"rewards": []}, {},
                                       {"rewards": "ab"}])
    def test_short_group_is_a_per_record_failure(self, short, tmp_path, capsys):
        inp, out = tmp_path / "groups.jsonl", tmp_path / "out.jsonl"
        inp.write_text("".join(json.dumps(r) + "\n" for r in (
            {"prompt_id": "a", "rewards": [1, 0]}, {"prompt_id": "s", **short},
            {"prompt_id": "h", "rewards": [2, 2]})))
        assert main(["advantages", "--input", str(inp), "--output", str(out)]) == 1
        assert out.read_text() == (
            '{"advantages": [1.0, -1.0], "prompt_id": "a"}\n'
            '{"error": "a group needs at least two rewards", "prompt_id": "s"}\n'
            '{"filtered": true, "prompt_id": "h"}\n')
        assert capsys.readouterr() == (
            "", "group 's': a group needs at least two rewards\n")

    @pytest.mark.parametrize("invalid_first", [False, True])
    def test_earliest_defect_in_file_order_is_reported(self, invalid_first,
                                                        tmp_path, capsys):
        inp = tmp_path / "groups.jsonl"
        lines = [json.dumps({"prompt_id": "s", "rewards": [1]}),
                 json.dumps({"prompt_id": "a", "rewards": ["x", 1]}), "[1, 2]"]
        if invalid_first:
            lines[1], lines[2] = lines[2], lines[1]
        inp.write_text("\n".join(lines) + "\n")
        assert main(["advantages", "--input", str(inp)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {inp}:2: expected a JSON object per line\n" if invalid_first
            else "error: group 'a': reward 'x' is not a number\n"))

    def test_reward_spread_past_float64_is_format_error(self, tmp_path, capsys):
        inp = tmp_path / "groups.jsonl"
        inp.write_text(json.dumps({"prompt_id": "a", "rewards": [1e308, -1e308]}) + "\n")
        assert main(["advantages", "--input", str(inp)]) == 2
        assert capsys.readouterr() == (
            "", "error: group 'a': reward spread overflows float64\n")

    @pytest.mark.parametrize("rewards, message", [
        (["x", "y"], "reward 'x' is not a number"),
        ([1, None], "reward None is not a number"),
        ([[1], [2]], "reward [1] is not a number"),
        ([True, False], "reward True is not a number"),
        ([1.0, float("nan")], "rewards must be finite"),
        ([1.0, float("inf")], "rewards must be finite"),
        ([float("-inf"), 0.0], "rewards must be finite"),
        ([1, 10**400], "int too large to convert to float"),
    ])
    def test_non_numeric_rewards_are_format_errors(self, rewards, message,
                                                    tmp_path, capsys):
        inp = tmp_path / "groups.jsonl"
        inp.write_text(json.dumps({"prompt_id": "g", "rewards": [1, 0]}) + "\n"
                       + json.dumps({"prompt_id": "a", "rewards": rewards}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["advantages", "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: group 'a': {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("to_file", [True, False])
@pytest.mark.parametrize("command", ["score", "kd", "advantages"])
def test_unencodable_id_leaves_the_output_as_it_was(command, to_file, tmp_path, capsys):
    # a lone surrogate is valid JSON but has no UTF-8 form; writing it once
    # truncated an existing --output file to 0 bytes before failing
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    argv = [command, "--input", str(inp)]
    if command == "score":
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(GOLDEN_SCHEMA))
        rows = [{"id": "\ud800", "generation": GOLDEN_RECORDS[0]["generation"],
                 "ground_truth": GOLDEN_RECORDS[0]["ground_truth"]}]
        argv += ["--schema", str(schema)]
    elif command == "kd":
        rows = kd_rows(positions=1)
        rows[1]["position_id"] = "\ud800"
    else:
        rows = [{"prompt_id": "\ud800", "rewards": [1.0, 0.0]}]
    inp.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out.write_bytes(b"earlier output\n")
    assert main(argv + (["--output", str(out)] if to_file else [])) == 2
    assert out.read_bytes() == b"earlier output\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't encode")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, line, message", [
    ("kd", '{"position_id": Infinity, "teacher_topk": {"indices": [0], "probs": [1.0]},'
           ' "student_logits": [0.0, 0.0]}', "position inf: position_id must be finite"),
    ("advantages", '{"prompt_id": NaN, "rewards": [1, 0]}',
     "group nan: prompt_id must be finite"),
    ("kd", '{"position_id": [NaN], "teacher_topk": {"indices": [0], "probs": [1.0]},'
           ' "student_logits": [0.0, 0.0]}', "position [nan]: position_id must be finite"),
    ("advantages", '{"prompt_id": {"a": Infinity}, "rewards": [1, 0]}',
     "group {'a': inf}: prompt_id must be finite"),
], ids=["kd", "advantages", "kd nested", "advantages nested"])
def test_a_non_finite_id_names_its_record(command, line, message, tmp_path, capsys):
    # each once ended in "Out of range float values are not JSON compliant";
    # score's id is checked in TestScore.test_non_finite_id_is_format_error
    inp = tmp_path / "in.jsonl"
    inp.write_text(('{"vocab_size": 2}\n' if command == "kd" else "") + line + "\n")
    assert main([command, "--input", str(inp)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


FIRST_LINES = {"score": GOLDEN_RECORDS[0], "kd": {"version": 1, "vocab_size": 2},
               "advantages": {"prompt_id": "p", "rewards": [1, 0]}}


class TestJsonlBytes:
    """Input lines are read as bytes: an error in one names its file and line,
    and the first bad line in file order is the one reported."""

    def run(self, command, inp, score_files):
        schema = ["--schema", str(score_files[0])] if command == "score" else []
        return main([command, "--input", str(inp), *schema])

    @pytest.mark.parametrize("command", list(FIRST_LINES))
    def test_integer_past_the_digit_limit_names_its_line(self, command, score_files,
                                                          tmp_path, capsys):
        # json.loads raises a plain ValueError here, once printed with no file or line
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps(FIRST_LINES[command]) + "\n" + "1" * 4301 + "\n")
        with pytest.raises(ValueError) as limit:
            json.loads("1" * 4301)
        assert self.run(command, inp, score_files) == 2
        assert capsys.readouterr() == ("", f"error: {inp}:2: {limit.value}\n")

    @pytest.mark.parametrize("command", list(FIRST_LINES))
    @pytest.mark.parametrize("bad, message", [
        (b'{"id": "\xff"}', "invalid start byte at column 9"),
        (b"\xc2\xa0\xff", "invalid start byte at column 3"),  # no "{", so read as text
        (b'{"id": "\xed\xa0\x80"}', "invalid continuation byte at column 9"),
        (b'{"id": "\xe2\x82', "unexpected end of data at column 9"),
    ], ids=["record", "blank", "surrogate", "cut at the end"])
    def test_invalid_utf8_names_its_line(self, command, bad, message, score_files,
                                         tmp_path, capsys):
        # the decoder's message once counted its position from the start of an 8 KB
        # chunk and named no file
        inp = tmp_path / "in.jsonl"
        first = json.dumps(FIRST_LINES[command]).encode()
        inp.write_bytes(first + b"\r" + "\xa0".encode() + b"\r\n\r\n" + bad)
        assert self.run(command, inp, score_files) == 2
        assert capsys.readouterr() == ("", f"error: {inp}:4: invalid UTF-8 ({message})\n")

    @pytest.mark.parametrize("utf8_first", [False, True])
    def test_first_bad_line_in_file_order_is_reported(self, utf8_first, tmp_path,
                                                       capsys):
        # the text reader decoded 8 KB at a time, so bad UTF-8 anywhere in the
        # chunk was reported before a bad line above it
        lines = [json.dumps(FIRST_LINES["advantages"]).encode(), b"{bad", b'{"p": "\xff"}']
        if utf8_first:
            lines[1], lines[2] = lines[2], lines[1]
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["advantages", "--input", str(inp)]) == 2
        assert capsys.readouterr() == ("", f"error: {inp}:2: " + (
            "invalid UTF-8 (invalid start byte at column 8)\n" if utf8_first
            else "invalid JSON (Expecting property name enclosed in double quotes)\n"))

    def test_fifo_reads_as_a_file(self, tmp_path, capsys):
        # a pipe's reads end wherever its writes did, "\r\n" parted included
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        text = "".join(json.dumps({"prompt_id": i, "rewards": [i, 0]}) + "\r\n"
                       for i in range(1, 40)).encode()
        inp, fifo = tmp_path / "in.jsonl", tmp_path / "in.fifo"
        inp.write_bytes(text)
        assert main(["advantages", "--input", str(inp)]) == 0
        want = capsys.readouterr()
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb", buffering=0) as pipe:
                for at in range(0, len(text), 37):  # 37 parts some "\r\n"
                    pipe.write(text[at:at + 37])

        writer = threading.Thread(target=write)
        writer.start()
        try:
            assert main(["advantages", "--input", str(fifo)]) == 0
        finally:
            writer.join(timeout=10)
            if writer.is_alive():  # main never opened the pipe: open it, so write() ends
                with open(fifo, "rb") as pipe:
                    pipe.read()
                writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr() == want


DEEP = "[" * 100_000  # far past json.loads' nesting limit, on every Python
TOO_DEEP = "invalid JSON (nesting too deep)"


class TestNestedInput:
    """A document nested past ``json.loads``' limit is an I/O error that names
    its file, never a traceback; a payload that deep in a generation is a
    rule-3 violation."""

    @pytest.mark.parametrize("command, first", [
        ("score", GOLDEN_RECORDS[0]),
        ("kd", {"version": 1, "vocab_size": 2}),
        ("advantages", {"prompt_id": "p", "rewards": [1, 0]}),
    ])
    def test_deep_jsonl_line_is_one_error_line(self, command, first, score_files,
                                               tmp_path, capsys):
        schema_path, inp = score_files
        inp.write_text(json.dumps(first) + "\n" + DEEP + "\n")
        out = tmp_path / "out.jsonl"
        schema = ["--schema", str(schema_path)] if command == "score" else []
        assert main([command, "--input", str(inp), *schema,
                     "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {inp}:2: {TOO_DEEP}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [DEEP, '{"name": "f"}\n' + DEEP],
                             ids=["document", "tools-block-line"])
    @pytest.mark.parametrize("as_ref", [False, True])
    def test_deep_schema_file_is_one_error_line(self, text, as_ref, score_files,
                                                tmp_path, capsys):
        schema_path, inp = score_files
        schema_path.write_text(text)
        record = {**GOLDEN_RECORDS[0], "schema_ref": str(schema_path)}
        inp.write_text(json.dumps(record if as_ref else GOLDEN_RECORDS[0]) + "\n")
        schema = [] if as_ref else ["--schema", str(schema_path)]
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), *schema,
                     "--output", str(out)]) == 2
        rid = f"record {GOLDEN_RECORDS[0]['id']!r}: " if as_ref else ""
        assert capsys.readouterr() == ("", f"error: {rid}{schema_path}: {TOO_DEEP}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--task", "--config"])
    def test_deep_train_toy_file_is_one_error_line(self, flag, tmp_path, capsys):
        task_path, deep_path = tmp_path / "task.json", tmp_path / "deep.json"
        save_task(bundled_default_task(), task_path)
        deep_path.write_text(DEEP)
        paths = {"--task": task_path, "--config": None, flag: deep_path}
        argv = [arg for name, path in paths.items() if path is not None
                for arg in (name, str(path))]
        out = tmp_path / "log.csv"
        assert main(["train-toy", *argv, "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {deep_path}: {TOO_DEEP}\n")
        assert not out.exists()

    @pytest.mark.parametrize("payload", [DEEP, "[" * 2000, "[" * 2000 + "]" * 2000],
                             ids=["100000-open", "2000-open", "2000-balanced"])
    def test_deep_payload_in_a_generation_is_rule_3(self, payload, score_files,
                                                    tmp_path, capsys):
        schema_path, inp = score_files
        generation = f"<think>t</think>\n<tool_call>{payload}</tool_call>"
        inp.write_text(json.dumps({**GOLDEN_RECORDS[0], "id": "g",
                                   "generation": generation}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--schema", str(schema_path),
                     "--output", str(out)]) == 0
        line = json.loads(out.read_text())
        assert (line["total"], [v["rule_id"] for v in line["violations"]]) == (-1.0, [3])
        if payload is DEEP:
            assert line["violations"][0]["detail"] == f"tool_call block 0: {TOO_DEEP}"

    def test_deep_payload_in_a_ground_truth_is_a_record_failure(
            self, score_files, tmp_path, capsys):
        schema_path, inp = score_files
        gt = f"<think>t</think>\n<tool_call>{DEEP}</tool_call>"
        inp.write_text(json.dumps({**GOLDEN_RECORDS[0], "id": "t",
                                   "ground_truth": gt}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--schema", str(schema_path),
                     "--output", str(out)]) == 1
        error = ("ground truth is not format-valid "
                 f"(rule 3: tool_call block 0: {TOO_DEEP})")
        assert json.loads(out.read_text()) == {"id": "t", "error": error}
        assert capsys.readouterr().err.startswith(f"record 't': {error}\n")


def _kd_run(rows, argv, to_file=False):
    """``kd`` on ``rows`` in a fresh directory: (status, stdout, stderr, the
    bytes of the ``--output`` file when ``to_file``, or None if not written)."""
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "kd.jsonl", Path(tmp) / "out.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        # a traceback would escape ``main`` and fail the test here
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(["kd", "--input", str(inp), *argv]
                          + (["--output", str(out)] if to_file else []))
        written = out.read_bytes() if out.exists() else None
        return status, stdout.getvalue(), stderr.getvalue(), written


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kd_rejects_malformed_teacher_indices(data):
    """One malformed teacher index (negative, below -V, a float, a bool, past
    int64 or a string) or a missing index list exits 2 with one error line and
    writes nothing; the valid record's stdout is what the kernel reports."""
    vocab = data.draw(st.integers(2, 12), label="V")
    n = data.draw(st.integers(1, min(vocab, 4)), label="k")
    indices = data.draw(st.lists(st.integers(0, vocab - 1), min_size=n, max_size=n,
                                 unique=True))
    probs = [0.9 / n] * n
    logits = data.draw(st.lists(st.floats(-8, 8), min_size=vocab, max_size=vocab))
    loss = data.draw(st.sampled_from(dv.KD_LOSS_KINDS))
    m = data.draw(st.integers(1, vocab), label="m")

    def rows(topk):
        return [{"version": 1, "vocab_size": vocab},
                {"position_id": "p", "student_logits": logits, "teacher_topk": topk}]

    teacher = dv.TopKDistribution(np.array(indices), np.array(probs))
    report = dv.LOSSES[loss](teacher, np.array(logits), m, dv.DEFAULT_LAMBDA_TAIL)
    record = {"position_id": "p", "loss": report.loss,
              "escape_mass": report.aux["escape_mass"], "entropy": report.aux["entropy"]}
    footer = {"records": 1, "mean_loss": report.loss,
              "mean_escape_mass": report.aux["escape_mass"],
              "mean_entropy": report.aux["entropy"]}
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in (record, footer))
    argv = ["--loss", loss, "--m", str(m)]
    assert _kd_run(rows({"indices": indices, "probs": probs}), argv) == \
        (0, expected, "", None)

    bad = data.draw(st.sampled_from([-1, -vocab - 1, 1.5, True, 2**63, "3", None]))
    topk = {"probs": probs}
    if bad is not None:
        topk["indices"] = indices.copy()
        topk["indices"][data.draw(st.integers(0, n - 1))] = bad
    status, stdout, stderr, written = _kd_run(rows(topk), argv, to_file=True)
    assert (status, stdout, written) == (2, "", None)
    assert stderr.startswith("error: position 'p': ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr
    if isinstance(bad, int) and not isinstance(bad, bool) and bad < 0:
        assert f"teacher index {bad} out of bounds" in stderr


BIG = "<1e999>"  # written as the JSON number 1e999, which parses to inf
ODD_VALUES = [None, True, "x", [], {}, [1], 1.5, 0, -1, -3,
              float("nan"), float("inf"), float("-inf"), BIG]
HUGE_INTS = [2**63, 10**400]  # not for train-toy, whose counts would run on
FLAG_VALUES = ["0", "-1", "-3", "1.5", "x", "nan", "inf", "-inf", "1e999"]


def _fuzz_case(command):
    """A valid run of ``command``: (input documents by file name, each a JSON
    document or, for ``.jsonl``, a list of lines; argv; its numeric flags)."""
    if command == "score":
        lines = [{k: r[k] for k in ("id", "generation", "ground_truth")}
                 for r in GOLDEN_RECORDS]
        lines[0]["schema_ref"] = GOLDEN_SCHEMA
        return ({"in.jsonl": lines, "schema.json": GOLDEN_SCHEMA},
                ["score", "--input", "in.jsonl", "--schema", "schema.json"], [])
    if command == "kd":
        return ({"in.jsonl": kd_rows(vocab_size=8, positions=2)},
                ["kd", "--input", "in.jsonl", "--m", "4"], ["--k", "--m", "--lambda"])
    if command == "gradcheck":  # no input file: every mutation is a flag
        return ({}, ["gradcheck", "--trials", "1", "--dims", "8", "--k", "3", "--m", "4"],
                ["--trials", "--dims", "--k", "--m", "--lambda", "--seed"])
    if command == "advantages":
        lines = [{"prompt_id": "a", "rewards": [1, 0, 0.5]},
                 {"prompt_id": "b", "rewards": [0.2, 0.2]}]
        return {"in.jsonl": lines}, ["advantages", "--input", "in.jsonl"], []
    cfg = {"iterations": 2, "group_size": 2, "learning_rate": 2.0, "beta": 1e-3,
           "filter_groups": False, "reward_mode": "sim"}
    return ({"task.json": bundled_default_task().to_dict(), "cfg.json": cfg},
            ["train-toy", "--task", "task.json", "--config", "cfg.json"],
            ["--beta", "--seed"])


def _paths(doc, path=()):
    """The path of every value inside a JSON document, outermost first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutate(data, doc, values):
    """``doc`` with one value swapped for one of ``values``, or one key dropped;
    on a ``.jsonl`` line list, a whole line may become a non-object."""
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="drop"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(values), label="value")
    return doc


def _reject_constant(constant):
    raise ValueError(f"not valid JSON: {constant}")


@pytest.mark.parametrize("command", ["score", "kd", "advantages", "train-toy",
                                     "gradcheck"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exit_contract_holds_on_one_mutation(command, data):
    """One mutation of a valid run -- a value's JSON type, a missing key, NaN,
    an infinity, 1e999, a zero or negative count, a line that is no object or
    no JSON, or a flag out of range -- keeps the 0/1/2 contract: no traceback,
    every output line a strict JSON object, and an exit 2 writes nothing but
    its error."""
    docs, argv, flags = _fuzz_case(command)
    values = ODD_VALUES + (HUGE_INTS if command != "train-toy" else [])
    raw = {name: None for name in docs}
    target = data.draw(st.sampled_from(sorted(docs) + flags), label="target")
    if target in flags:
        argv = argv + [target, data.draw(st.sampled_from(FLAG_VALUES), label="flag")]
    elif target.endswith(".jsonl") and data.draw(st.booleans(), label="raw line"):
        lines = [json.dumps(line).encode() for line in docs[target]]
        lines[data.draw(st.integers(0, len(lines) - 1))] = data.draw(
            st.sampled_from([b"{bad", b"\xff", b"[1, 2]", b'"x"']))
        raw[target] = b"\n".join(lines) + b"\n"
    else:
        docs[target] = _mutate(data, docs[target], values)
    to_file = command != "gradcheck" and data.draw(st.booleans(), label="--output")
    jsonl = command not in ("train-toy", "gradcheck")
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            if raw[name] is None:
                lines = doc if name.endswith(".jsonl") else [doc]
                raw[name] = "".join(json.dumps(line).replace(json.dumps(BIG), "1e999")
                                    + "\n" for line in lines).encode()
            (Path(tmp) / name).write_bytes(raw[name])
        out = Path(tmp) / ("out.jsonl" if jsonl else "log.csv")
        argv = [str(Path(tmp) / a) if a in docs else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:  # any other exception escapes and fails the test
                status = main(argv + (["--output", str(out)] if to_file else []))
            except SystemExit as exc:  # argparse rejects a flag's type
                status = exc.code
        written = out.read_text(encoding="utf-8") if out.exists() else None
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    assert status in (0, 1, 2)
    assert "Traceback" not in stderr
    if jsonl:
        for line in ((written or "") if to_file else stdout).splitlines():
            assert isinstance(json.loads(line, parse_constant=_reject_constant), dict)
    if status == 2:
        assert written is None and stdout == ""
        assert "error: " in stderr


def _fresh_python(argv, cwd):
    """stdout of a new interpreter that imports this checkout's tooltrain."""
    src = str(Path(tooltrain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], check=True, capture_output=True,
                          text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path}
                          ).stdout


def test_parser_loads_no_subcommand_only_module(tmp_path):
    """The parser loads no submodule but the CLI, nor orjson, and whole
    ``kd``, ``gradcheck`` and ``advantages`` runs load no reward layer."""
    (tmp_path / "kd.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in kd_rows(positions=1)))
    (tmp_path / "groups.jsonl").write_text(
        json.dumps({"prompt_id": "g", "rewards": [1, 0]}) + "\n")
    code = """
import sys, tooltrain.cli
def loaded():
    print(*sorted(m for m in sys.modules
                  if m.split(".")[0] in ("numpy", "orjson", "tooltrain")))
tooltrain.cli.build_parser()
loaded()
status = [tooltrain.cli.main(argv) for argv in (
    ["kd", "--input", "kd.jsonl", "--output", "kd.out"], ["gradcheck", "--trials", "1"],
    ["gradcheck", "--seed", "-1"],
    ["advantages", "--input", "groups.jsonl", "--output", "groups.out"])]
print(*status)
loaded()
"""
    lines = _fresh_python(["-c", code], tmp_path).splitlines()
    assert lines[0] == "tooltrain tooltrain.cli"
    assert lines[-2] == "0 0 2 0"
    assert "orjson" in lines[-1].split()
    assert {m for m in lines[-1].split() if m.startswith("tooltrain")} == {
        "tooltrain", "tooltrain.cli", "tooltrain.divergence",
        "tooltrain.gradcheck", "tooltrain.grpo"}


def test_package_loads_every_submodule_on_first_use(tmp_path):
    code = """
import sys, tooltrain
print(*sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "tooltrain")))
print(set(tooltrain.__all__) <= set(dir(tooltrain)))
names = "chat_format", "divergence", "grpo", "reward", "similarity"
modules = [getattr(tooltrain, name) for name in names]
print(modules == [sys.modules[f"tooltrain.{name}"] for name in names])
star = {}
exec("from tooltrain import *", star)
print(*[name for name in tooltrain.__all__ if not getattr(tooltrain, name) is star[name]
        is getattr(sys.modules[star[name].__module__], name)])
try:
    tooltrain.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh_python(["-c", code], tmp_path).splitlines() == [
        "tooltrain", "True", "True", "",
        "module 'tooltrain' has no attribute 'no_such_name'"]


def test_score_loads_no_numpy_in_a_fresh_interpreter(tmp_path, capsys):
    """Two groups sharing a ground truth each; their mean is ``fsum``/n, which
    here differs from numpy's pairwise mean in the last digit."""
    schema, inp = tmp_path / "schema.json", tmp_path / "groups.jsonl"
    schema.write_text(json.dumps(GOLDEN_SCHEMA))
    answer = "4 runways. The ICAO code for SFO".split()
    records = [{"id": r["id"], "generation": r["generation"],
                "ground_truth": GOLDEN_RECORDS[0]["ground_truth"]}
               for r in GOLDEN_RECORDS]
    records += [{"id": f"answer-{i}", "ground_truth": GOLDEN_RECORDS[2]["ground_truth"],
                 "generation": "<think>Answer.</think>\n" + " ".join(answer[:i])}
                for i in range(1, 6)]
    inp.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = ["score", "--input", str(inp), "--schema", str(schema), "--output"]
    code = ("import sys, tooltrain.cli\n"
            f"status = tooltrain.cli.main({argv + [str(tmp_path / 'fresh.jsonl')]!r})\n"
            "print(status, 'numpy' in sys.modules)")
    assert _fresh_python(["-c", code], tmp_path).split() == ["0", "False"]
    assert main(argv + [str(tmp_path / "out.jsonl")]) == 0
    written = (tmp_path / "out.jsonl").read_text()
    assert (tmp_path / "fresh.jsonl").read_text() == written
    totals = [json.loads(line)["total"] for line in written.splitlines()]
    mean = math.fsum(totals) / len(totals)
    assert mean != float(np.mean(totals))
    assert capsys.readouterr().err == f"scored 8 of 8 records, mean total reward {mean!r}\n"


def test_subcommands_import_their_modules_in_a_fresh_interpreter(tmp_path):
    save_task(bundled_default_task(), tmp_path / "task.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"iterations": 3}))
    (tmp_path / "groups.jsonl").write_text(
        json.dumps({"prompt_id": "g", "rewards": [1, 0]}) + "\n")
    cli = ["-m", "tooltrain.cli"]
    out = _fresh_python(cli + ["train-toy", "--task", "task.json", "--config",
                               "cfg.json", "--output", "log.csv"], tmp_path)
    assert out.startswith("final mean reward (trailing 50): ")
    assert len((tmp_path / "log.csv").read_text().splitlines()) == 4
    out = _fresh_python(cli + ["gradcheck", "--trials", "1"], tmp_path)
    assert out and all(line.endswith(" ok") for line in out.splitlines())
    out = _fresh_python(cli + ["advantages", "--input", "groups.jsonl"], tmp_path)
    assert json.loads(out) == {"prompt_id": "g", "advantages": [1.0, -1.0]}
