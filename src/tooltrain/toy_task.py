"""Synthetic desk-scale function-calling tasks.

A task bundles a tool schema, a finite candidate-value domain for every
parameter (so a tabular policy can enumerate its actions), and prompts whose
ground truths are rendered in the chat template. Parameters that declare a
default in the schema are optional: the policy gets an explicit omit action
for them, which is what makes partial credit reachable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .chat_format import (
    FunctionDef,
    ParamSpec,
    ParsedGeneration,
    ToolCall,
    ToolSchema,
    parse_generation,
    render_generation,
    validate_format,
)

TASK_FILE_VERSION = 1


@dataclass(frozen=True)
class ToyPrompt:
    prompt_id: str
    ground_truth: str


@dataclass
class ToyTask:
    schema: ToolSchema
    domains: dict[str, dict[str, list[Any]]]
    prompts: list[ToyPrompt]

    def __post_init__(self):
        for fdef in self.schema.functions:
            fdom = self.domains.get(fdef.name) if isinstance(self.domains, dict) else None
            if not isinstance(fdom, dict) or set(fdom) != set(fdef.parameters):
                raise ValueError(
                    f"domains for '{fdef.name}' must cover exactly its parameters")
            for pname, values in fdom.items():
                if not isinstance(values, (list, tuple)):
                    raise ValueError(f"value domain for {fdef.name}.{pname} is not a list")
                if not values:
                    raise ValueError(f"empty value domain for {fdef.name}.{pname}")
        ids = [p.prompt_id for p in self.prompts]
        if not ids or not all(isinstance(pid, str) for pid in ids):
            raise ValueError("a task needs at least one prompt, each with a string id")
        if len(set(ids)) != len(ids):
            raise ValueError("prompt ids must be unique")
        for prompt in self.prompts:
            check = validate_format(parse_generation(prompt.ground_truth), self.schema)
            if check.reward != 1:
                raise ValueError(
                    f"ground truth of prompt '{prompt.prompt_id}' is not "
                    f"format-valid: {check.violations}")

    def prompt(self, prompt_id: str) -> ToyPrompt:
        for p in self.prompts:
            if p.prompt_id == prompt_id:
                return p
        raise KeyError(prompt_id)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": TASK_FILE_VERSION,
            "schema": self.schema.to_dict(),
            "domains": self.domains,
            "prompts": [{"prompt_id": p.prompt_id, "ground_truth": p.ground_truth}
                        for p in self.prompts],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ToyTask":
        if not isinstance(data, dict):
            raise ValueError("a task must be a JSON object")
        return cls(
            schema=ToolSchema.from_dict(data["schema"]),
            domains=data["domains"],
            prompts=[ToyPrompt(p["prompt_id"], p["ground_truth"])
                     for p in data["prompts"]],
        )


def save_task(task: ToyTask, path: str | Path) -> None:
    Path(path).write_text(json.dumps(task.to_dict(), indent=2, sort_keys=True),
                          encoding="utf-8")


def load_task(path: str | Path) -> ToyTask:
    return ToyTask.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def render_call_text(think: str, calls: list[ToolCall]) -> str:
    """Template text for a reasoning block plus a list of calls."""
    return render_generation(ParsedGeneration(
        think=think, tool_calls=calls, response_text="", raw_errors=[]))


def _fn(name: str, description: str, params: list[tuple]) -> FunctionDef:
    """Parameters as ``(name, type)``, or ``(name, type, default)`` if optional."""
    specs = {pname: ParamSpec(pname, type_tag, *default)
             for pname, type_tag, *default in params}
    return FunctionDef(name=name, description=description, parameters=specs)


def bundled_default_task() -> ToyTask:
    """Four functions, one ground-truth call per prompt.

    ``get_weather.units`` is optional with a default, so a policy that finds
    the right function and city but omits the units still collects partial
    credit on prompt p0.
    """
    schema = ToolSchema([
        _fn("get_weather", "Current weather for a city.",
            [("city", "str"), ("units", "str", "celsius")]),
        _fn("convert_currency", "Convert an amount into a target currency.",
            [("amount", "number"), ("target", "str")]),
        _fn("get_time", "Current time in a timezone.",
            [("zone", "str")]),
        _fn("translate", "Translate text into a target language.",
            [("text", "str"), ("target_language", "str")]),
    ])
    domains = {
        "get_weather": {"city": ["paris", "tokyo", "sydney"],
                        "units": ["celsius", "fahrenheit"]},
        "convert_currency": {"amount": [10, 250], "target": ["usd", "eur"]},
        "get_time": {"zone": ["utc", "est", "jst"]},
        "translate": {"text": ["good morning", "see you later"],
                      "target_language": ["french", "japanese"]},
    }
    gts = [
        ("p0", ToolCall("get_weather", {"city": "tokyo", "units": "celsius"})),
        ("p1", ToolCall("convert_currency", {"amount": 250, "target": "eur"})),
        ("p2", ToolCall("get_time", {"zone": "jst"})),
        ("p3", ToolCall("translate", {"text": "good morning",
                                      "target_language": "french"})),
    ]
    prompts = [ToyPrompt(pid, render_call_text("select the matching tool", [call]))
               for pid, call in gts]
    return ToyTask(schema=schema, domains=domains, prompts=prompts)


def bundled_optional_param_task() -> ToyTask:
    """One prompt whose ground truth fills two optional parameters.

    The exact answer is one of 128 uniform trajectories, so an exact-match
    reward is near-silent early in training, while the graded reward pays
    partial credit for the right function, for overlapping report titles
    (multi-token strings scored with ROUGE-L), and for each optional
    parameter filled correctly.
    """
    schema = ToolSchema([
        _fn("summarize_report", "Summarize a stored report.",
            [("title", "str"),
             ("style", "str", "bullet points"),
             ("language", "str", "english")]),
        _fn("archive_report", "Move a report into cold storage.",
            [("title", "str")]),
    ])
    domains = {
        "summarize_report": {
            "title": ["quarterly sales report", "annual sales report",
                      "quarterly revenue forecast", "weekly status update"],
            "style": ["bullet points", "short paragraph", "detailed outline"],
            "language": ["english", "french", "german"],
        },
        "archive_report": {
            "title": ["quarterly sales report", "annual sales report"],
        },
    }
    gt_call = ToolCall("summarize_report", {"title": "quarterly sales report",
                                            "style": "bullet points",
                                            "language": "english"})
    prompts = [ToyPrompt("opt0", render_call_text("summarize the right report",
                                                  [gt_call]))]
    return ToyTask(schema=schema, domains=domains, prompts=prompts)
