"""Batch front-end.

Subcommands: ``score`` (reward JSONL of generation/ground-truth records),
``kd`` (divergence losses over a logits file), ``gradcheck`` (finite-
difference suite), ``train-toy`` (run the toy trainer), ``advantages``
(group-relative advantages for reward groups).

Exit status contract: 0 all records processed and checks passed, 1
validation failures, 2 I/O or file-format errors. Record streams are JSONL,
time-series logs are CSV, and numbers are serialized in shortest round-trip
decimal form, so repeated runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_LAMBDA_TAIL, KD_LOSS_KINDS

if TYPE_CHECKING:
    import numpy as np

    from .chat_format import ToolSchema
    from .reward import RewardBreakdown

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def __getattr__(name: str):
    """``total_reward``, imported on first read (PEP 562), so that only
    ``score`` loads the reward layer. ``cmd_score`` reads it from this module
    when it starts, so a wrapper set here (a tracer's, say) sees every call."""
    if name == "total_reward":
        from .reward import total_reward
        return total_reward
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read_json(path: str, parse):
    """``parse`` of the file's UTF-8 text. Any error in the document (bytes, JSON, or
    ``parse``'s ``KeyError``, ``TypeError`` or ``ValueError``) names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON (line {exc.lineno}: {exc.msg})") from None
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON (nesting too deep)") from None
    except KeyError as exc:  # a document of the wrong shape
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# orjson reads an integer literal outside [-2**63, 2**64) as a float this wide,
# and nests without limit, where json.loads stops near the recursion limit
_WIDE, _DEPTH = 2.0 ** 63, 100


def _loads(text: str | bytearray, floats: str | None = None):
    """``json.loads`` of ``text`` (a ``str`` less one ending ``\\n``, or UTF-8 bytes),
    decoded by orjson where that gives the same objects, types, float bits, key order
    and errors. ``_json_loads`` decodes the text again when orjson raises (NaN, the
    infinities, ``1e400``, a lone surrogate, bad JSON or UTF-8), returns a float of
    magnitude 2**63 or more, or nests past ``_DEPTH``. ``floats`` names a top-level
    list that the caller reads only as float64, left unchecked in a ``_shallow`` line:
    a wide integer there may be orjson's float, which is the integer's ``float()``."""
    import orjson  # on the first call, not with this module
    try:
        obj = orjson.loads(text)  # a "\n" is JSON whitespace to orjson
    except orjson.JSONDecodeError:
        return _json_loads(text)
    exempt = obj.get(floats) if floats and type(obj) is dict and _shallow(text) else None
    level = [[obj]]
    for _ in range(_DEPTH):
        inner = []
        for node in level:
            if type(node) is dict:
                node = node.values()
            elif node is exempt:
                continue
            elif node and type(node[0]) in (int, float):  # all numbers, perhaps
                try:  # hypot >= each |x|, so under 2**62 none is wide; slices copy little
                    if all(math.hypot(*node[i:i + 4096]) < _WIDE / 2
                           for i in range(0, len(node), 4096)):
                        continue
                except TypeError:  # a string, container or null after all
                    pass
            for x in node:
                kind = type(x)
                if kind is float:
                    if not -_WIDE < x < _WIDE:
                        return _json_loads(text)
                elif kind is list or kind is dict:
                    inner.append(x)
        if not (level := inner):
            return obj
    return _json_loads(text)


def _shallow(text: str | bytearray) -> bool:
    """Whether ``text`` has under ``_DEPTH`` "[" and "{", so nothing nests that deep."""
    n = 0
    for mark in "[{" if isinstance(text, str) else b"[{":  # find is memchr; count is slower
        at = -1
        while n < _DEPTH and (at := text.find(mark, at + 1)) >= 0:
            n += 1
    return n < _DEPTH


def _json_loads(text: str | bytearray):
    """``json.loads`` of ``text`` less one ending ``\\n``, for bad JSON's messages, and
    of bytes as strict UTF-8, so bad UTF-8 raises ``UnicodeDecodeError`` (``json.loads``
    would guess their encoding and pass encoded surrogates)."""
    return json.loads(text.removesuffix("\n") if isinstance(text, str) else text.decode())


_READ = 1 << 16  # bytes asked of each read


def _lines(handle):
    """Yield each physical line of the unbuffered binary ``handle`` without its end,
    which is ``\\n``, ``\\r\\n`` or ``\\r`` as in text mode, also where a read parts a
    ``\\r\\n``. Each read fills one fixed chunk, whose bytes are copied once into one
    ``bytearray`` yielded for every line; it keeps its storage unless a line needs under
    half of it, so long lines free and fault in no line-sized block per line."""
    chunk, line = bytearray(_READ), bytearray()
    view = memoryview(chunk)
    pos = got = size = 0  # chunk[pos:got] is read and not yet in line[:size]
    nl = cr = -1  # where chunk's next "\n" and "\r" at or after pos are, or -1
    after_cr = False  # the last line ended at "\r", so a "\n" next ends no line
    while True:
        if pos == got:
            pos, got = 0, handle.readinto(chunk)
            if not got:
                break
            nl, cr = chunk.find(b"\n", 0, got), chunk.find(b"\r", 0, got)
        if after_cr:
            after_cr = False
            if pos == nl:
                pos += 1
                continue
        if 0 <= nl < pos:
            nl = chunk.find(b"\n", pos, got)
        if 0 <= cr < pos:
            cr = chunk.find(b"\r", pos, got)
        end = min(nl, cr) if nl >= 0 and cr >= 0 else max(nl, cr)
        stop = got if end < 0 else end
        line[size:stop - pos + size] = view[pos:stop]  # overwrites, or grows past len
        size += stop - pos
        if end < 0:
            pos = got
            continue
        pos, after_cr = end + 1, end == cr
        del line[size:]  # keeps the storage while size is at least half of it
        yield line
        size = 0
    if size:
        del line[size:]
        yield line


def _iter_jsonl(path: str, floats: str | None = None):
    """Yield the JSON object on each non-blank line, reading one line at a time.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only, not at U+2028 or its kin, and
    is blank when it is empty or its text is all ``str.isspace()`` whitespace. Lines
    are numbered from 1 in messages, and a bad line, bad UTF-8 included, raises
    ``ValueError``.
    """
    with open(path, "rb", buffering=0) as handle:
        for n, line in enumerate(_lines(handle), 1):  # its bytes, then its object
            try:
                # a record starts with "{", so only another line can be blank
                if not line.startswith(b"{") and (not line or line.decode().isspace()):
                    continue
                obj = _loads(line, floats)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{n}: invalid JSON ({exc.msg})") from exc
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{n}: invalid UTF-8 "
                                 f"({exc.reason} at column {exc.start + 1})") from None
            except RecursionError:
                raise ValueError(f"{path}:{n}: invalid JSON (nesting too deep)") from None
            except ValueError as exc:  # an integer literal past int()'s digit limit
                raise ValueError(f"{path}:{n}: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{n}: expected a JSON object per line")
            yield obj


# json.dumps with these options, minus the encoder it builds on every call; a
# NaN or infinity is a ValueError, so an echoed id is checked by _check_id first
_dump = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False).encode


def _check_id(what: str, key: str, value) -> None:
    """Raise a ``ValueError`` that names the record when its id, echoed in
    every output line about it, is or holds NaN or an infinity, as ``_dump`` finds."""
    if isinstance(value, (float, list, dict)):  # the ids that can be or hold a float
        try:
            _dump(value)
        except ValueError:
            raise ValueError(f"{what} {value!r}: {key} must be finite") from None


def _score_line(rid, breakdown: RewardBreakdown) -> str:
    """``_dump({"id": rid, **breakdown.to_dict()})``, with each distinct
    violation encoded once: a degenerate generation repeats one shared
    instance thousands of times, and a list of that one instance is one
    encoded string repeated. ``"violations"`` is the last sorted key, so the
    encoded list goes in place of the ``[]}`` that ends the rest, in one join."""
    violations = breakdown.violations
    if not violations:
        return _dump({"id": rid, **breakdown.to_dict()})
    from dataclasses import replace
    head = _dump({"id": rid, **replace(breakdown, violations=[]).to_dict()})
    first = violations[0]
    if all(map(operator.is_, violations, repeat(first))):  # in C, calls no __eq__
        one = _dump({"rule_id": first.rule_id, "detail": first.detail})
        parts = [one] * len(violations)
    else:
        ids = list(map(id, violations))  # identity, not the dataclass's __hash__
        encoded = {key: _dump({"rule_id": v.rule_id, "detail": v.detail})
                   for key, v in dict(zip(ids, violations)).items()}
        parts = list(map(encoded.__getitem__, ids))
    parts[0] = head[:-len("[]}")] + "[" + parts[0]
    parts[-1] += "]}"
    return ", ".join(parts)


def _write(path: str | None, out_lines: list[str], notes: list[str]) -> int:
    """The one tail of every JSONL command: held output lines as UTF-8, whatever
    the locale, to ``path`` (stdout when None or ``-``), encoded before it is
    opened, then held notes to stderr, so a failed write leaves only its error
    line and an existing file as it was. Exit 1 exactly when a record left a note."""
    text = "\n".join([*out_lines, ""])  # each line copied once; none gives ""
    data = text.encode("utf-8")
    if path not in (None, "-"):
        Path(path).write_bytes(data)
    elif hasattr(sys.stdout, "buffer"):  # a StringIO stand-in has none
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        sys.stdout.write(text)
    sys.stderr.write("".join(notes))
    return EXIT_VALIDATION if notes else EXIT_OK


def _load_schema_ref(ref, base_schema: ToolSchema | None,
                     loaded: dict[str, ToolSchema]) -> ToolSchema:
    """The record's schema; equal refs share the one ``ToolSchema`` in
    ``loaded``, so the ground-truth memo (keyed by schema identity) hits."""
    if ref is None:
        if base_schema is None:
            raise ValueError("record has no schema_ref and no --schema was given")
        return base_schema
    key = json.dumps(ref, sort_keys=True)  # a path dumps quoted, unlike a schema
    if key not in loaded:
        from .chat_format import ToolSchema
        loaded[key] = (_read_json(ref, ToolSchema.from_json) if isinstance(ref, str)
                       else ToolSchema.from_dict(ref))
    return loaded[key]


def cmd_score(args: argparse.Namespace) -> int:
    from .reward import MalformedGroundTruth
    total_reward = sys.modules[__name__].total_reward
    seen_ids, schemas = set(), {}
    base_schema = _load_schema_ref(args.schema, None, schemas) if args.schema else None
    out_lines, notes, totals, n = [], [], [], 0
    for n, record in enumerate(_iter_jsonl(args.input), 1):
        rid = record.get("id")
        if isinstance(rid, (list, dict)):
            raise ValueError(f"record {rid!r}: id must be a string, number or null")
        _check_id("record", "id", rid)
        if rid is not None:  # by type too: 1, 1.0 and true are distinct ids
            if (type(rid), rid) in seen_ids:
                raise ValueError(f"duplicate record id {rid!r}")
            seen_ids.add((type(rid), rid))
        try:
            schema = _load_schema_ref(record.get("schema_ref"), base_schema, schemas)
            for key in ("generation", "ground_truth"):
                if not isinstance(record[key], str):
                    raise ValueError(f"{key} must be a string, got {record[key]!r}")
            breakdown = total_reward(record["generation"],
                                     record["ground_truth"], schema)
        except MalformedGroundTruth as exc:
            notes.append(f"record {rid!r}: {exc}\n")
            out_lines.append(_dump({"id": rid, "error": str(exc)}))
            continue
        except KeyError as exc:
            raise ValueError(f"record {rid!r}: missing key {exc}") from None
        except (OSError, ValueError) as exc:
            raise ValueError(f"record {rid!r}: {exc}") from None
        totals.append(breakdown.total)
        out_lines.append(_score_line(rid, breakdown))

    status = _write(args.output, out_lines, notes)
    mean = math.fsum(totals) / len(totals) if totals else float("nan")
    print(f"scored {len(totals)} of {n} records, mean total reward {mean!r}",
          file=sys.stderr)
    return status


def _kd_position(record: dict, vocab_size: int, m: int,
                 args: argparse.Namespace) -> tuple[float, float, float]:
    """One ``kd`` record's loss, escape mass and entropy. The logit list
    leaves ``record`` and is dropped once converted, and the arrays built here
    die with the call, so the next line is read and parsed beside none of them."""
    from struct import error as struct_error, pack_into

    import numpy as np
    from . import divergence as dv
    topk, logits = record["teacher_topk"], record.pop("student_logits")
    if not isinstance(topk, dict):  # by name, before a subscript or numpy reads it
        raise ValueError("teacher_topk must be a JSON object")
    if not isinstance(logits, list):
        raise ValueError("student_logits must be a JSON array")
    # numpy would truncate a float index and read a bool or string
    for name, types, kind in (("indices", (int,), "integers"),
                              ("probs", (int, float), "numbers")):
        raw = topk[name]
        if not isinstance(raw, list) or any(type(x) not in types for x in raw):
            raise ValueError(f"teacher {name} {raw!r} are not all {kind}")
    indices = np.asarray(topk["indices"], dtype=np.int64)
    probs = np.asarray(topk["probs"], dtype=np.float64)
    try:  # C passes to numpy's values; they read a bool as 0 or 1, hence the type check
        buf = bytearray(8 * len(logits))
        for i in range(0, len(logits), 4096):
            pack_into(f"{min(4096, len(logits) - i)}d", buf, 8 * i, *logits[i:i + 4096])
        z = np.frombuffer(buf, dtype=np.float64)
        fast = not ((z == 0) | (z == 1)).any() or set(map(type, logits)) <= {int, float}
    except (struct_error, TypeError, OverflowError):  # a string, null, list or int past 1e308
        fast = False
    if not fast:  # numpy's conversion, then the check, for their messages in order
        z = np.asarray(logits, dtype=np.float64)
        # as for probs; a nested list is left to the kernel's 1-d check
        if z.ndim == 1 and not set(map(type, logits)) <= {int, float}:
            raise ValueError("student_logits are not all numbers")
    del logits
    if z.size != vocab_size:
        raise ValueError(f"student_logits has length {z.size}, "
                         f"header declares {vocab_size}")
    if indices.size and not 0 <= indices.min() <= indices.max() < vocab_size:
        bad = indices.max() if indices.max() >= vocab_size else indices.min()
        raise ValueError(f"teacher index {int(bad)} out of "
                         f"bounds for vocab_size {vocab_size}")
    teacher = dv.TopKDistribution(indices=indices, probs=probs)
    if args.k is not None:  # cut only the whole, validated record
        keep = dv.topk_indices(teacher.probs, min(args.k, teacher.k))
        teacher = dv.TopKDistribution(teacher.indices[keep], teacher.probs[keep])
    # finite logits that span more than the float range overflow in the
    # softmax's shift, to an -inf whose exp is the exact 0
    with np.errstate(over="ignore"):
        report = dv.LOSSES[args.loss](teacher, z, m, args.lambda_tail)
    return report.loss, report.aux["escape_mass"], report.aux["entropy"]


def cmd_kd(args: argparse.Namespace) -> int:
    import numpy as np
    from . import divergence as dv
    if args.k is not None and args.k < 1:
        raise ValueError(f"k={args.k} must be at least 1")
    dv.check_lambda(args.lambda_tail)  # before any record, whatever the loss
    out_lines, notes = [], []
    losses, escapes, entropies = [], [], []
    rows = _iter_jsonl(args.input, "student_logits")
    header = next(rows, None)
    if header is None or "vocab_size" not in header:
        raise ValueError("first line must be a header with 'vocab_size'")
    vocab_size = header["vocab_size"]
    if type(vocab_size) is not int or vocab_size < 1:  # bool is no size, 4.7 not 4
        raise ValueError(
            f"header vocab_size must be a positive integer, got {vocab_size!r}")
    m = args.m if args.m is not None else min(dv.DEFAULT_TOPM, vocab_size)
    if not 1 <= m <= vocab_size:
        raise ValueError(f"m={m} out of range [1, vocab_size={vocab_size}]")
    for record in rows:
        pid = record.get("position_id")
        _check_id("position", "position_id", pid)
        try:
            loss, escape, entropy = _kd_position(record, vocab_size, m, args)
        except (dv.DegenerateStudent, dv.DegenerateTeacher) as exc:
            notes.append(f"position {pid!r}: {exc}\n")
            out_lines.append(_dump({"position_id": pid, "error": str(exc)}))
            continue
        except KeyError as exc:
            raise ValueError(f"position {pid!r}: missing key {exc}") from None
        except (ValueError, IndexError, TypeError, OverflowError) as exc:
            raise ValueError(f"position {pid!r}: {exc}") from None
        losses.append(loss)
        escapes.append(escape)
        entropies.append(entropy)
        out_lines.append(_dump({"position_id": pid, "loss": loss,
                                "escape_mass": escape, "entropy": entropy}))

    out_lines.append(_dump({
        "records": len(losses),
        "mean_loss": float(np.mean(losses)) if losses else None,
        "mean_escape_mass": float(np.mean(escapes)) if escapes else None,
        "mean_entropy": float(np.mean(entropies)) if entropies else None,
    }))
    return _write(args.output, out_lines, notes)


def cmd_gradcheck(args: argparse.Namespace) -> int:
    from . import divergence as dv, gradcheck
    if args.seed < 0:  # numpy's own error would name no flag
        raise ValueError(f"seed={args.seed} must be non-negative")
    if args.trials < 1:
        raise ValueError(f"trials={args.trials} must be at least 1")
    if args.dims < 1:
        raise ValueError(f"dims={args.dims} must be at least 1")
    for name, value in (("k", args.k), ("m", args.m)):
        if not 1 <= value <= args.dims:
            raise ValueError(f"{name}={value} out of range [1, dims={args.dims}]")
    dv.check_lambda(args.lambda_tail)  # before any suite, whatever the loss
    results = gradcheck.run_gradient_suite(
        seed=args.seed, trials=args.trials, vocab_size=args.dims, k=args.k, m=args.m,
        lambda_tail=args.lambda_tail)
    ok = True
    for name, result in results.items():
        status = "ok" if result.passed else "FAIL"
        ok = ok and result.passed
        print(f"{name:9s} instances={result.instances} "
              f"max_rel_err={result.max_rel_err:.3e} "
              f"max_grad_sum={result.max_grad_sum:.3e} "
              f"boundary_rejected={result.rejected} {status}")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_train_toy(args: argparse.Namespace) -> int:
    if args.seed < 0:  # before any file is read; numpy's error would name no flag
        raise ValueError(f"seed={args.seed} must be non-negative")
    from .toy_task import ToyTask
    from .toy_trainer import ToyTrainConfig, _check_count, train_sim_rl

    def config(text: str) -> tuple[int, ToyTrainConfig]:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        iterations = data.pop("iterations", 500)
        _check_count("iterations", iterations, 1)
        if args.beta is not None:
            data["beta"] = args.beta
        return iterations, ToyTrainConfig.from_dict(data)

    task = _read_json(args.task, lambda text: ToyTask.from_dict(json.loads(text)))
    if args.beta is not None:  # checked before the config, so its error names no file
        ToyTrainConfig(beta=args.beta)
    iterations, cfg = _read_json(args.config, config) if args.config else config("{}")
    _, log = train_sim_rl(task, cfg, iterations, seed=args.seed)
    if args.output:
        log.to_csv(args.output)
    final = log.trailing_mean_reward(50)
    print(f"final mean reward (trailing 50): {final!r}")
    return EXIT_OK


def _numeric_rewards(values: list) -> np.ndarray:
    """Finite rewards as float64; a JSON bool, string, list or null is no reward."""
    import numpy as np
    for value in values:
        if type(value) not in (int, float):
            raise ValueError(f"reward {value!r} is not a number")
    rewards = np.array(values, dtype=np.float64)  # OverflowError past 1e308
    if not np.isfinite(rewards).all():
        raise ValueError("rewards must be finite")
    return rewards


def cmd_advantages(args: argparse.Namespace) -> int:
    from .grpo import ZeroVariance, standardize_advantages
    out_lines, notes = [], []
    for record in _iter_jsonl(args.input):
        pid = record.get("prompt_id")
        _check_id("group", "prompt_id", pid)
        rewards = record.get("rewards")
        if not isinstance(rewards, list) or len(rewards) < 2:
            error = "a group needs at least two rewards"
            notes.append(f"group {pid!r}: {error}\n")
            out_lines.append(_dump({"prompt_id": pid, "error": error}))
            continue
        try:
            adv = standardize_advantages(_numeric_rewards(rewards))
        except ZeroVariance:
            out_lines.append(_dump({"prompt_id": pid, "filtered": True}))
            continue
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"group {pid!r}: {exc}") from None
        out_lines.append(_dump({"prompt_id": pid, "advantages": adv.tolist()}))
    return _write(args.output, out_lines, notes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tooltrain",
        description="Reward scoring, distillation losses, and GRPO utilities "
                    "for function-calling generations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score generation/ground-truth records")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", help="schema JSON used when a record has no schema_ref")
    p.add_argument("--output", help="output JSONL path (default stdout)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("kd", help="evaluate a distillation loss per position")
    p.add_argument("--input", required=True)
    p.add_argument("--loss", choices=list(KD_LOSS_KINDS), default="ckd")
    p.add_argument("--k", type=int,
                   help="keep the k most probable teacher entries per record, "
                        "after checking all of them")
    p.add_argument("--m", type=int, help="student top-m size (default min(100, vocab))")
    p.add_argument("--lambda", dest="lambda_tail", type=float,
                   default=DEFAULT_LAMBDA_TAIL)
    p.add_argument("--output", help="output JSONL path (default stdout)")
    p.set_defaults(func=cmd_kd)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--dims", type=int, default=32, help="vocabulary size")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--lambda", dest="lambda_tail", type=float,
                   default=DEFAULT_LAMBDA_TAIL)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train the toy policy on a task file")
    p.add_argument("--task", required=True)
    p.add_argument("--config", help="JSON config (iterations plus trainer fields)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, help="KL coefficient override")
    p.add_argument("--output", help="TrainLog CSV path")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("advantages", help="standardize rewards per group")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="output JSONL path (default stdout)")
    p.set_defaults(func=cmd_advantages)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. This is the one place where an ``OSError`` or
    ``ValueError`` (a missing file, a malformed line, a flag out of range)
    becomes a single ``error:`` line and exit 2; commands raise, and hold
    their output until the last record, so such an exit writes nothing else."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
