"""The benchmark's four workloads.

Each workload builds its inputs from the seed, then runs repetitions of a
closed loop through tooltrain's public entry points: one caller in one
thread, each call issued only after the previous one returned. One
repetition is one unit of work (a training run, a pass over a corpus) and
checks its own outputs; ``run.py`` times the repetitions and compares them.

Why these four: ``rl-toy`` is the only one where sampling, the GRPO update
and short call-argument scoring dominate; ``score-groups`` is where ROUGE-L
and the tag parser do the work that ``rl-toy`` never reaches; the two KD
workloads use the same divergence kernels in opposite regimes, one wide call
per position (V = 151,936) against many tiny calls (V = 32).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tooltrain.cli as cli
import tooltrain.toy_trainer as toy_trainer
from tooltrain.toy_task import bundled_default_task


@dataclass
class Rep:
    """One repetition: operations attempted and failed, wall seconds, a
    digest of everything it output, and the correctness violations found."""

    ops: int
    failed: int
    seconds: float
    digest: str
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _run_cli(argv: list[str]) -> int:
    """Call ``tooltrain.cli.main`` in-process, its stderr discarded; the
    outputs the checks read are the files it writes."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_rows(path: Path) -> tuple[bytes, list[dict]]:
    data = path.read_bytes() if path.exists() else b""
    return data, [json.loads(line) for line in data.splitlines()]


# --- rl-toy -----------------------------------------------------------------

class RlToy:
    """``train_sim_rl`` on the bundled default task, default config."""

    name = "rl-toy"
    op_metric, op_unit = "rl_iters_per_s", "iter/s"
    setup = ("from tooltrain.toy_task import bundled_default_task\n"
             "from tooltrain.toy_trainer import ToyTrainConfig, train_sim_rl\n"
             "bundled_default_task()\n"
             "ToyTrainConfig()")
    ITERATIONS = 500
    MIN_TRAILING_REWARD = 0.8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.task = bundled_default_task()
        self.cfg = toy_trainer.ToyTrainConfig()
        self.ops_per_rep = self.ITERATIONS
        self.positions_per_rep = 0
        self.properties = {
            "iterations": self.ITERATIONS,
            "prompts": len(self.task.prompts),
            "group_size": self.cfg.group_size,
            "scores_per_ground_truth_per_iteration": self.cfg.group_size,
            "shared_ground_truth_share": 1.0,
        }

    def run(self) -> Rep:
        start = perf_counter()
        _, log = toy_trainer.train_sim_rl(self.task, self.cfg, self.ITERATIONS,
                                          self.seed)
        seconds = perf_counter() - start
        trailing = log.trailing_mean_reward(50)
        errors = []
        if not trailing >= self.MIN_TRAILING_REWARD:
            errors.append(f"trailing-50 reward {trailing!r} < "
                          f"{self.MIN_TRAILING_REWARD}")
        curves = (log.mean_reward, log.mean_entropy, log.filtered_fraction)
        return Rep(self.ITERATIONS, 0, seconds, _digest(repr(curves).encode()),
                   errors, {"rl_trailing_reward": trailing})


# --- score-groups -----------------------------------------------------------

GOLDEN_SCHEMA = [
    {"name": "check_wordpress",
     "description": "Check whether a site runs WordPress.",
     "parameters": {
         "url": {"description": "The URL to inspect.", "type": "str"},
         "user_agent": {"description": "User agent to send.", "type": "str",
                        "default": "Mozilla/5.0"}}},
    {"name": "label_template_brands",
     "description": "List label sheet brands for a paper format.",
     "parameters": {"format": {"description": "Paper format code.", "type": "str"}}},
    {"name": "airportstatistics",
     "description": "Fetch airport statistics.",
     "parameters": {"iata": {"description": "IATA airport code.", "type": "str"}}},
]


def _think(text: str) -> str:
    return f"<think>{text}</think>"


def _call(name: str, arguments: dict) -> str:
    body = json.dumps({"name": name, "arguments": arguments}, ensure_ascii=False)
    return f"<tool_call>\n{body}\n</tool_call>"


# The three published scoring cases: a missing defaulted argument (0.5), a
# letter-case-only difference (1.0) and a redundant call where the ground
# truth is plain text (0.0).
GOLDEN = [
    ("golden-missing-default-argument",
     _think("The user wants to know if the site runs WordPress.") + "\n"
     + _call("check_wordpress", {"url": "https://example.com"}),
     _think("Check the site with the standard user agent.") + "\n"
     + _call("check_wordpress", {"url": "https://example.com",
                                 "user_agent": "Mozilla/5.0"}),
     0.5),
    ("golden-case-only-difference",
     _think("List brands for A4 label sheets.") + "\n"
     + _call("label_template_brands", {"format": "a4"}),
     _think("List brands for A4 label sheets.") + "\n"
     + _call("label_template_brands", {"format": "A4"}),
     1.0),
    ("golden-redundant-call",
     _think("Look up the airport once more.") + "\n"
     + _call("airportstatistics", {"iata": "SFO"}),
     _think("The airport was already looked up in the previous turn.") + "\n"
     + "The ICAO code for SFO is KSFO, and it has 4 runways.",
     0.0),
]

GROUP_SIZE = 8
FUZZ_GROUPS = 12
FUZZ_NAMES = ["alpha", "beta", "gamma", "delta"]
FUZZ_KEYS = ["a", "b", "c"]
FUZZ_VALUES = [1, 2, 2.5, True, "word", "two words", None, [1, 2], {"k": "v"}]
FUZZ_WORDS = ["red", "green", "blue", "fast", "slow"]
# (ground-truth tokens, answer tokens of the group's 8 generations)
TEXT_GROUPS = [
    (100, [100] * 8),
    (400, [400] * 8),
    (1600, [1600, 1600, 400, 400, 400, 100, 100, 100]),
]
DEGENERATE_TAGS = ["</tool_call>", "</think>"]
DEGENERATE_COUNTS = [1000, 2000, 3000, 4000]


def _fuzz_schema(rng: random.Random) -> list[dict]:
    functions = []
    for name in rng.sample(FUZZ_NAMES, k=rng.randint(1, 4)):
        params = {}
        for key in rng.sample(FUZZ_KEYS, k=rng.randint(0, 3)):
            spec = {"description": "", "type": "str"}
            if rng.random() < 0.4:
                spec["default"] = rng.choice(FUZZ_VALUES[:6])
            params[key] = spec
        functions.append({"name": name, "description": "", "parameters": params})
    return functions


def _fuzz_valid(rng: random.Random, schema: list[dict], need_call: bool) -> str:
    parts = [_think(" ".join(rng.choices(FUZZ_WORDS, k=rng.randint(1, 3))))]
    if need_call or rng.random() < 0.7:
        for _ in range(rng.randint(1, 3)):
            fdef = rng.choice(schema)
            keys = list(fdef["parameters"])
            chosen = rng.sample(keys, k=rng.randint(0, len(keys)))
            parts.append(_call(fdef["name"],
                               {k: rng.choice(FUZZ_VALUES) for k in chosen}))
    if len(parts) == 1 or rng.random() < 0.3:
        response = " ".join(rng.choices(FUZZ_WORDS, k=rng.randint(0, 5)))
        if response:
            parts.append(response)
    return "\n".join(parts)


def _fuzz_generation(rng: random.Random, schema: list[dict]) -> str:
    """Valid or broken template text, covering every format rule."""
    text = _fuzz_valid(rng, schema, need_call=False)
    roll = rng.random()
    if roll < 0.45:
        return text
    if roll < 0.55:
        return text.replace("<think>", "", 1)
    if roll < 0.65:
        return text + _think("extra")
    if roll < 0.75:
        return text.replace('"arguments"', '"args"')
    if roll < 0.8:
        return text.replace('"name": "', '"name": "undeclared_', 1)
    if roll < 0.9:
        return text[:rng.randint(0, len(text))]
    return "".join(rng.choices('<>{}"tool_call think: ,', k=rng.randint(0, 40)))


def _text_variant(rng: random.Random, vocab: list[str], gt: list[str],
                  tokens: int) -> list[str]:
    """A contiguous slice of the ground truth with a quarter of its tokens
    replaced, as a policy's paraphrase of the reference answer."""
    start = rng.randint(0, len(gt) - tokens)
    return [rng.choice(vocab) if rng.random() < 0.25 else tok
            for tok in gt[start:start + tokens]]


def build_score_corpus(seed: int) -> tuple[list[dict], list[dict]]:
    """Seeded records plus, per record, what the benchmark knows about it.

    Every group of 8 records shares one ground truth and schema, as one RL
    group does. The first generation of every fuzz and text group is the
    ground truth itself, so it must score exactly 1.0.
    """
    rng = random.Random(seed)
    records: list[dict] = []
    facts: list[dict] = []

    def add(rid, generation, ground_truth, kind, schema=None, expected=None,
            invalid=False, tokens=None, tags=None):
        record = {"id": rid, "generation": generation, "ground_truth": ground_truth}
        if schema is not None:
            record["schema_ref"] = schema
        records.append(record)
        facts.append({"kind": kind, "expected": expected, "invalid": invalid,
                      "tokens": tokens, "tags": tags})

    for rid, gen, gt, expected in GOLDEN:
        add(rid, gen, gt, "golden", expected=expected)

    for g in range(FUZZ_GROUPS):
        schema = _fuzz_schema(rng)
        gt = _fuzz_valid(rng, schema, need_call=True)
        add(f"fuzz-{g}-0", gt, gt, "fuzz", schema=schema, expected=1.0)
        for i in range(1, GROUP_SIZE):
            add(f"fuzz-{g}-{i}", _fuzz_generation(rng, schema), gt, "fuzz",
                schema=schema)

    vocab = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 9)))
             for _ in range(400)]
    for g, (gt_tokens, answer_tokens) in enumerate(TEXT_GROUPS):
        gt_words = rng.choices(vocab, k=gt_tokens)
        gt = _think("answer in plain text") + "\n" + " ".join(gt_words)
        for i, tokens in enumerate(answer_tokens):
            words = gt_words if i == 0 else _text_variant(rng, vocab, gt_words, tokens)
            gen = _think("answer in plain text") + "\n" + " ".join(words)
            add(f"text-{g}-{i}", gen, gt, "text",
                expected=1.0 if i == 0 else None, tokens=tokens)

    url = f"https://example.com/{rng.randrange(10**6)}"
    call = _call("check_wordpress", {"url": url})
    gt = _think("check the site") + "\n" + call
    i = 0
    for count in DEGENERATE_COUNTS:
        for tag in DEGENERATE_TAGS:
            add(f"degenerate-{i}", gt + "\n" + tag * count, gt, "degenerate",
                invalid=True, tags=count)
            i += 1
    return records, facts


class ScoreGroups:
    """``tooltrain score`` over a seeded corpus of RL-style groups."""

    name = "score-groups"
    op_metric, op_unit = "score_records_per_s", "records/s"
    setup = "import tooltrain.cli\ntooltrain.cli.build_parser()"

    def __init__(self, seed: int, workdir: Path):
        records, self.facts = build_score_corpus(seed)
        self.input = workdir / "records.jsonl"
        self.schema = workdir / "schema.json"
        self.output = workdir / "scores.jsonl"
        self.input.write_text("".join(json.dumps(r) + "\n" for r in records),
                              encoding="utf-8")
        self.schema.write_text(json.dumps(GOLDEN_SCHEMA), encoding="utf-8")
        self.ops_per_rep = len(records)
        self.positions_per_rep = 0
        n = len(records)
        kinds = [f["kind"] for f in self.facts]
        text_lengths = [f["tokens"] for f in self.facts if f["kind"] == "text"]
        tag_counts = [f["tags"] for f in self.facts if f["kind"] == "degenerate"]
        self.properties = {
            "records": n,
            "group_size": GROUP_SIZE,
            "shared_ground_truth_share": (n - len(GOLDEN)) / n,
            "fuzz_share": kinds.count("fuzz") / n,
            "golden_records": len(GOLDEN),
            "text_share": len(text_lengths) / n,
            "text_token_lengths": {str(t): text_lengths.count(t)
                                   for t in sorted(set(text_lengths))},
            "text_ground_truth_tokens": [gt for gt, _ in TEXT_GROUPS],
            "degenerate_share": len(tag_counts) / n,
            "degenerate_tag_counts": tag_counts,
            "input_bytes": self.input.stat().st_size,
        }

    def run(self) -> Rep:
        self.output.unlink(missing_ok=True)
        start = perf_counter()
        code = _run_cli(["score", "--input", str(self.input),
                            "--schema", str(self.schema),
                            "--output", str(self.output)])
        seconds = perf_counter() - start
        data, rows = _read_rows(self.output)
        n = self.ops_per_rep
        errors = []
        if code != 0:
            errors.append(f"score exited with {code}")
        if len(rows) != n:
            errors.append(f"score wrote {len(rows)} lines for {n} records")
            return Rep(n, n, seconds, _digest(data), errors)
        failed = 0
        for row, fact in zip(rows, self.facts):
            rid = row.get("id")
            if "error" in row:
                failed += 1
                continue
            total = row["total"]
            if not -1.0 <= total <= 1.0:
                errors.append(f"{rid}: total {total!r} outside [-1, 1]")
            if row["r_format"] == 0 and total != -1.0:
                errors.append(f"{rid}: format-invalid total {total!r} != -1")
            if fact["invalid"] and row["r_format"] != 0:
                errors.append(f"{rid}: degenerate generation passed the format gate")
            if fact["expected"] is not None and total != fact["expected"]:
                errors.append(f"{rid}: total {total!r} != {fact['expected']!r}")
        if failed:
            errors.append(f"{failed} records produced error lines")
        return Rep(n, failed, seconds, _digest(data), errors)


# --- kd-vocab152k -----------------------------------------------------------

class KdVocab:
    """``tooltrain kd`` with ckd then rkl-stab on a wide-vocabulary file."""

    name = "kd-vocab152k"
    op_metric, op_unit = "kd_positions_per_s", "positions/s"
    setup = "import tooltrain.cli\ntooltrain.cli.build_parser()"
    VOCAB = 151_936
    K = M = 100
    POSITIONS = 16
    LOSSES = ("ckd", "rkl-stab")

    def __init__(self, seed: int, workdir: Path):
        self.input = workdir / "positions.jsonl"
        self.outputs = [workdir / f"{loss}.jsonl" for loss in self.LOSSES]
        rng = np.random.default_rng(seed)
        with open(self.input, "w", encoding="utf-8") as out:
            out.write(json.dumps({"version": 1, "vocab_size": self.VOCAB}) + "\n")
            for pid in range(self.POSITIONS):
                t = 3.0 * rng.standard_normal(self.VOCAB)
                p = np.exp(t - t.max())
                p /= p.sum()
                top = np.argpartition(-p, self.K)[:self.K]
                top = top[np.argsort(-p[top], kind="stable")]
                out.write(json.dumps({
                    "position_id": pid,
                    "teacher_topk": {"indices": top.tolist(),
                                     "probs": p[top].tolist()},
                    "student_logits": rng.standard_normal(self.VOCAB).tolist(),
                }) + "\n")
        self.ops_per_rep = self.positions_per_rep = self.POSITIONS * len(self.LOSSES)
        self.properties = {"vocab_size": self.VOCAB, "k": self.K, "m": self.M,
                           "positions": self.POSITIONS, "losses": list(self.LOSSES),
                           "input_bytes": self.input.stat().st_size}

    def run(self) -> Rep:
        errors, failed, seconds, chunks = [], 0, 0.0, []
        for loss, output in zip(self.LOSSES, self.outputs):
            output.unlink(missing_ok=True)
            start = perf_counter()
            code = _run_cli(["kd", "--input", str(self.input), "--loss", loss,
                                "--k", str(self.K), "--m", str(self.M),
                                "--output", str(output)])
            seconds += perf_counter() - start
            data, rows = _read_rows(output)
            chunks.append(data)
            if code != 0:
                errors.append(f"kd --loss {loss} exited with {code}")
            if not rows:
                failed += self.POSITIONS
                continue
            positions, footer = rows[:-1], rows[-1]
            bad = [r for r in positions if "error" in r]
            failed += len(bad) + max(0, self.POSITIONS - len(positions))
            if bad:
                errors.append(f"kd --loss {loss}: {len(bad)} error positions")
            if footer.get("records") != self.POSITIONS:
                errors.append(f"kd --loss {loss}: footer records "
                              f"{footer.get('records')!r} != {self.POSITIONS}")
            for r in positions:
                if "error" not in r and not math.isfinite(r["loss"]):
                    errors.append(f"kd --loss {loss}: position "
                                  f"{r['position_id']} loss {r['loss']!r}")
        return Rep(self.ops_per_rep, failed, seconds, _digest(*chunks), errors)


# --- kd-fit -----------------------------------------------------------------

class KdFit:
    """``kd_fit`` on the adversarial teacher family for all four losses."""

    name = "kd-fit"
    op_metric, op_unit = "kd_fit_steps_per_s", "position-steps/s"
    setup = "from tooltrain.toy_trainer import adversarial_teacher_family, kd_fit"
    KINDS = ("fkl", "rkl", "rkl-stab", "ckd")
    STEPS = 500
    STEP_SIZE = 0.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.teachers = toy_trainer.adversarial_teacher_family(seed=seed)
        self.ops_per_rep = self.positions_per_rep = (
            len(self.KINDS) * len(self.teachers) * self.STEPS)
        self.properties = {"vocab_size": 32, "k": self.teachers[0].k, "m": 8,
                           "positions": len(self.teachers), "steps": self.STEPS,
                           "losses": list(self.KINDS)}

    def run(self) -> Rep:
        errors, chunks, final_escape = [], [], {}
        seconds = 0.0
        for kind in self.KINDS:
            start = perf_counter()
            curves = toy_trainer.kd_fit(self.teachers, kind, steps=self.STEPS,
                                        step_size=self.STEP_SIZE, seed=self.seed)
            seconds += perf_counter() - start
            chunks += [curves.escape_mass.tobytes(), curves.entropy.tobytes()]
            if not (np.all(np.isfinite(curves.escape_mass))
                    and np.all(np.isfinite(curves.entropy))):
                errors.append(f"kd_fit {kind}: non-finite curve")
            final_escape[kind] = float(curves.escape_mass[-1])
        if not final_escape["rkl"] > final_escape["rkl-stab"]:
            errors.append(f"final escape mass rkl {final_escape['rkl']!r} <= "
                          f"rkl-stab {final_escape['rkl-stab']!r}")
        return Rep(self.ops_per_rep, 0, seconds, _digest(*chunks), errors,
                   {"final_escape_mass": final_escape})


WORKLOADS = {w.name: w for w in (RlToy, ScoreGroups, KdVocab, KdFit)}
