"""Parsing and validation of the flat tool-calling chat template.

A generation is plain text carrying up to three kinds of content:

* exactly one ``<think>...</think>`` block with the model's reasoning,
* zero or more ``<tool_call>...</tool_call>`` blocks, each wrapping one
  JSON object of the form ``{"name": ..., "arguments": {...}}``,
* free text anywhere outside those blocks (the direct answer).

``parse_generation`` is total: malformed input never raises, it is decomposed
best-effort in one linear-time pass over the block openers, and every
structural defect is recorded as a :class:`FormatViolation`.
``validate_format`` then adds the schema-dependent checks and produces the
binary format reward.

The five format rules, by ``rule_id``:

1. exactly one pair of think tags,
2. every tool invocation properly wrapped in tool_call tags,
3. each tool_call block is a single JSON object with exactly the keys
   ``"name"`` and ``"arguments"``,
4. the called name is declared in the tool schema,
5. the argument keys are a subset of the declared parameter names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"
TOOL_OPEN = "<tool_call>"
TOOL_CLOSE = "</tool_call>"
_OPEN_RE = re.compile(f"{re.escape(THINK_OPEN)}|{re.escape(TOOL_OPEN)}")
_CLOSE_RE = re.compile(f"{re.escape(THINK_CLOSE)}|{re.escape(TOOL_CLOSE)}")

_NO_DEFAULT = object()


@dataclass(frozen=True)
class ParamSpec:
    """Declared parameter of a callable function."""

    description: str = ""
    type_tag: str = ""
    default: Any = _NO_DEFAULT

    @property
    def has_default(self) -> bool:
        return self.default is not _NO_DEFAULT


@dataclass(frozen=True)
class FunctionDef:
    name: str
    description: str = ""
    parameters: dict[str, ParamSpec] = field(default_factory=dict)


class ToolSchema:
    """The set of callable functions a generation may invoke.

    Function names must be unique; parameter names are unique per function
    by construction (they are dict keys).
    """

    def __init__(self, functions: list[FunctionDef]):
        names = [f.name for f in functions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function names in schema: {names}")
        self.functions = list(functions)
        self._by_name = {f.name: f for f in self.functions}

    def get(self, name: str) -> FunctionDef | None:
        return self._by_name.get(name)

    @classmethod
    def from_dict(cls, data: Any) -> "ToolSchema":
        """Build a schema from parsed JSON.

        Accepts either a list of function objects or an object with a
        ``"functions"`` list. Each function object mirrors one line of the
        ``<tools>`` block: ``{"name", "description", "parameters"}`` where
        ``parameters`` maps a name to ``{"description", "type", "default"}``
        (``default`` optional).
        """
        if isinstance(data, dict) and "functions" in data:
            data = data["functions"]
        if not isinstance(data, list):
            raise ValueError("schema document must be a list of functions "
                             "or an object with a 'functions' list")
        functions = []
        for entry in data:
            if not isinstance(entry, dict):
                raise ValueError(f"schema entry {entry!r} is not a JSON object")
            params, specs = {}, entry.get("parameters") or {}
            if not isinstance(entry.get("name"), str) or not isinstance(specs, dict) \
                    or not all(isinstance(spec or {}, dict) for spec in specs.values()):
                raise ValueError(f"schema entry {entry!r} needs a string name and "
                                 "a parameters object of objects")
            for pname, pspec in specs.items():
                pspec = pspec or {}
                params[pname] = ParamSpec(
                    description=pspec.get("description", ""),
                    type_tag=pspec.get("type", ""),
                    default=pspec.get("default", _NO_DEFAULT),
                )
            functions.append(FunctionDef(
                name=entry["name"],
                description=entry.get("description", ""),
                parameters=params,
            ))
        return cls(functions)

    @classmethod
    def from_json(cls, text: str) -> "ToolSchema":
        """Parse a schema from JSON text.

        Falls back to one-JSON-object-per-line when the document as a whole
        does not parse, which is the literal layout of a ``<tools>`` block.
        Its lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, as the CLI's do.
        """
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError:
            entries = [json.loads(x) for x in re.split(r"\r\n?|\n", text) if x.strip()]
            return cls.from_dict(entries)

    def to_dict(self) -> list[dict[str, Any]]:
        out = []
        for f in self.functions:
            params = {}
            for pname, spec in f.parameters.items():
                entry: dict[str, Any] = {"description": spec.description,
                                         "type": spec.type_tag}
                if spec.has_default:
                    entry["default"] = spec.default
                params[pname] = entry
            out.append({"name": f.name, "description": f.description,
                        "parameters": params})
        return out


@dataclass(frozen=True)
class FormatViolation:
    rule_id: int  # 1..5
    detail: str


# A stray closer or unclosed opener always gives the same violation, so each
# kind shares one instance (frozen, so no caller can change it).
_STRAY = {THINK_CLOSE: FormatViolation(1, "stray </think> without opener"),
          TOOL_CLOSE: FormatViolation(2, "stray </tool_call> without opener")}
_UNCLOSED = {THINK_OPEN: FormatViolation(1, "unclosed <think> tag"),
             TOOL_OPEN: FormatViolation(2, "unclosed <tool_call> tag")}


@dataclass(frozen=True)
class ToolCall:
    name: str
    arguments: dict[str, Any]


@dataclass
class ParsedGeneration:
    """Structured decomposition of one raw generation."""

    think: str | None
    tool_calls: list[ToolCall]
    response_text: str
    raw_errors: list[FormatViolation]


def parse_generation(raw: str) -> ParsedGeneration:
    """Decompose raw template text; never raises.

    Tags are matched literally and non-nested: inside an open think block
    only ``</think>`` is significant, inside an open tool_call block only
    ``</tool_call>`` (so JSON string values may safely mention other tags).
    Complete blocks are removed from the response text; stray or unclosed
    tags stay in it and are reported as rule-1/rule-2 violations.
    """
    think_blocks: list[str] = []
    payloads: list[str] = []
    outside: list[str] = []  # the text between complete blocks
    tail = ""  # an unclosed block's opener and everything after it

    i = 0  # only an opener changes the state, so the search skips closers
    while (hit := _OPEN_RE.search(raw, i)) is not None:
        opener, start = hit.group(), hit.end()
        closer = THINK_CLOSE if opener == THINK_OPEN else TOOL_CLOSE
        outside.append(raw[i:hit.start()])
        end = raw.find(closer, start)
        if end < 0:
            tail = raw[hit.start():]
            break
        (think_blocks if opener == THINK_OPEN else payloads).append(raw[start:end])
        i = end + len(closer)
    else:  # no opener left: the rest is response text
        outside.append(raw[i:])

    # Every closer outside a block is a stray; joining on NUL, which no tag
    # contains, keeps a closer from being pieced together across a block.
    violations, think_stray = _stray_closers("\0".join(outside))
    if tail:
        violations.append(_UNCLOSED[opener])
        think_stray = think_stray or opener == THINK_OPEN

    if not think_stray and len(think_blocks) != 1:
        violations.append(FormatViolation(
            1, f"expected exactly one think block, found {len(think_blocks)}"))

    tool_calls: list[ToolCall] = []
    for idx, payload in enumerate(payloads):
        call, error = _parse_call_payload(payload)
        if call is not None:
            tool_calls.append(call)
        else:
            violations.append(FormatViolation(3, f"tool_call block {idx}: {error}"))

    return ParsedGeneration(
        think=think_blocks[0] if think_blocks else None,
        tool_calls=tool_calls,
        response_text=("".join(outside) + tail).strip(),
        raw_errors=violations,
    )


def _stray_closers(text: str) -> tuple[list[FormatViolation], bool]:
    """The violations of the closers in ``text``, in order, and whether one
    is ``</think>``. One kind alone is a run of its shared violation, which
    costs no Python step per tag."""
    if "</" not in text:
        return [], False
    n_think, n_tool = text.count(THINK_CLOSE), text.count(TOOL_CLOSE)
    if n_think and n_tool:
        return list(map(_STRAY.__getitem__, _CLOSE_RE.findall(text))), True
    return [_STRAY[THINK_CLOSE]] * n_think + [_STRAY[TOOL_CLOSE]] * n_tool, n_think > 0


def _parse_call_payload(payload: str) -> tuple[ToolCall | None, str]:
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON ({exc.msg})"
    except RecursionError:  # nested deeper than the decoder's stack goes
        return None, "invalid JSON (nesting too deep)"
    if not isinstance(obj, dict):
        return None, "payload is not a JSON object"
    if set(obj.keys()) != {"name", "arguments"}:
        return None, ("object keys must be exactly 'name' and 'arguments', "
                      f"got {sorted(obj.keys())}")
    if not isinstance(obj["name"], str):
        return None, "'name' must be a string"
    if not isinstance(obj["arguments"], dict):
        return None, "'arguments' must be a JSON object"
    return ToolCall(name=obj["name"], arguments=obj["arguments"]), ""


@dataclass(frozen=True)
class FormatCheck:
    reward: int  # 0 or 1
    violations: list[FormatViolation]


def validate_format(parsed: ParsedGeneration, schema: ToolSchema) -> FormatCheck:
    """Apply rules 4-5 on top of the structural violations already recorded.

    The reward is 1 exactly when the combined violation list is empty. A call
    to an undeclared function reports rule 4 only; its argument keys cannot
    be checked against anything.
    """
    violations = list(parsed.raw_errors)
    for call in parsed.tool_calls:
        fdef = schema.get(call.name)
        if fdef is None:
            violations.append(FormatViolation(
                4, f"function '{call.name}' is not declared in the schema"))
            continue
        extra = sorted(set(call.arguments) - set(fdef.parameters))
        if extra:
            violations.append(FormatViolation(
                5, f"undeclared argument keys for '{call.name}': {extra}"))
    return FormatCheck(reward=0 if violations else 1, violations=violations)


def render_generation(parsed: ParsedGeneration) -> str:
    """Render a structure back to template text.

    Inverse of ``parse_generation`` for violation-free structures: parsing
    the rendered text yields the same think content, calls, and response
    text.
    """
    parts = [f"{THINK_OPEN}{parsed.think or ''}{THINK_CLOSE}"]
    for call in parsed.tool_calls:
        body = json.dumps({"name": call.name, "arguments": call.arguments},
                          ensure_ascii=False)
        parts.append(f"{TOOL_OPEN}\n{body}\n{TOOL_CLOSE}")
    if parsed.response_text:
        parts.append(parsed.response_text)
    return "\n".join(parts)
