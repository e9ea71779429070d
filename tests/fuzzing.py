"""Randomized schema/generation builders shared by the reward fuzz tests, and
a Hypothesis strategy for JSON values."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from tooltrain import ParsedGeneration, ToolCall, ToolSchema, render_generation

FUNCTION_NAMES = ["alpha", "beta", "gamma", "delta"]
ARG_KEYS = ["a", "b", "c"]
VALUES = [1, 2, 2.5, True, "word", "two words", None, [1, 2], {"k": "v"}]
WORDS = ["red", "green", "blue", "fast", "slow"]

# what json.loads can return, NaN and the infinities included, a few levels deep
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner,
                                                                max_size=4),
    max_leaves=20)


def random_schema(rng: random.Random) -> ToolSchema:
    functions = []
    for name in rng.sample(FUNCTION_NAMES, k=rng.randint(1, 4)):
        params = {}
        for key in rng.sample(ARG_KEYS, k=rng.randint(0, 3)):
            if rng.random() < 0.4:
                params[key] = {"type": "str", "default": rng.choice(VALUES[:6])}
            else:
                params[key] = {"type": "str"}
        functions.append({"name": name, "description": "", "parameters": params})
    return ToolSchema.from_dict(functions)


def random_valid_generation(rng: random.Random, schema: ToolSchema) -> str:
    think = " ".join(rng.choices(WORDS, k=rng.randint(1, 3)))
    calls = []
    if rng.random() < 0.7:
        for _ in range(rng.randint(1, 3)):
            fdef = rng.choice(schema.functions)
            keys = list(fdef.parameters)
            chosen = rng.sample(keys, k=rng.randint(0, len(keys)))
            calls.append(ToolCall(fdef.name,
                                  {k: rng.choice(VALUES) for k in chosen}))
    response = ""
    if not calls or rng.random() < 0.3:
        response = " ".join(rng.choices(WORDS, k=rng.randint(0, 5)))
    return render_generation(ParsedGeneration(
        think=think, tool_calls=calls, response_text=response, raw_errors=[]))


def random_generation(rng: random.Random, schema: ToolSchema) -> str:
    """Valid or corrupted template text, biased toward interesting breakage."""
    text = random_valid_generation(rng, schema)
    roll = rng.random()
    if roll < 0.45:
        return text
    if roll < 0.6:
        return text.replace("<think>", "", 1)
    if roll < 0.7:
        return text + "<think>extra</think>"
    if roll < 0.8:
        return text.replace('"arguments"', '"args"')
    if roll < 0.9:
        cut = rng.randint(0, len(text))
        return text[:cut]
    return "".join(rng.choices('<>{}"tool_call think: ,', k=rng.randint(0, 40)))
