"""Acceptance suite: one test per exit criterion, run at pinned tolerances.

Each criterion prints a single ``ACCEPTANCE PASS|FAIL -- <name>`` line (visible
with ``pytest -s`` or on failure) in addition to its asserts. Criteria with a
runtime budget measure wall time and enforce it.
"""

import random
import time

import numpy as np
import pytest

import tooltrain.divergence as dv
from tooltrain import (
    GrpoConfig,
    Rollout,
    RolloutGroup,
    grpo_objective,
    filter_homogeneous,
    standardize_advantages,
    total_reward,
)
from tooltrain.cli import main
from tooltrain.gradcheck import random_instance, run_gradient_suite
from tooltrain.toy_task import bundled_default_task, bundled_optional_param_task
from tooltrain.toy_trainer import (
    ToyTrainConfig,
    adversarial_teacher_family,
    collapse_witness,
    evaluate_policy,
    kd_fit,
    train_sim_rl,
)

from fuzzing import random_generation, random_schema, random_valid_generation
from golden import GOLDEN_RECORDS, GOLDEN_SCHEMA, golden_schema
from test_cli import make_kd_file


def criterion(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {state} -- {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_golden_rewards():
    start = time.perf_counter()
    schema = golden_schema()
    totals = [total_reward(r["generation"], r["ground_truth"], schema).total
              for r in GOLDEN_RECORDS]
    elapsed = time.perf_counter() - start
    criterion("golden rewards score 0.5 / 1.0 / 0.0 exactly",
              totals == [0.5, 1.0, 0.0], f"totals={totals}")
    criterion("golden rewards runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")


def test_reward_range_fuzz():
    start = time.perf_counter()
    rng = random.Random(2024)
    in_range = invalid_exact = True
    for _ in range(10_000):
        schema = random_schema(rng)
        gt = random_valid_generation(rng, schema)
        gen = random_generation(rng, schema)
        b = total_reward(gen, gt, schema)
        in_range = in_range and -1.0 <= b.total <= 1.0
        if b.r_format == 0:
            invalid_exact = invalid_exact and b.total == -1.0
    elapsed = time.perf_counter() - start
    criterion("reward fuzz: 10^4 totals within [-1, 1]", in_range)
    criterion("reward fuzz: every format-invalid case is exactly -1",
              invalid_exact)
    criterion("reward fuzz runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f}s")


def test_perfect_match_fixed_point():
    rng = random.Random(31337)
    ok = True
    for _ in range(1_000):
        schema = random_schema(rng)
        text = random_valid_generation(rng, schema)
        ok = ok and total_reward(text, text, schema).total == 1.0
    criterion("perfect-match fixed point over 10^3 valid generations", ok)


def test_gradient_suite():
    start = time.perf_counter()
    results = run_gradient_suite(seed=0, trials=50, vocab_size=32, k=8, m=16)
    elapsed = time.perf_counter() - start
    for name in ("fkl", "tail", "ckd", "rkl", "rkl-stab"):
        result = results[name]
        criterion(f"gradcheck {name}: rel err <= 1e-6 on >= 50 instances",
                  result.instances >= 50 and result.max_rel_err <= 1e-6,
                  f"max_rel_err={result.max_rel_err:.2e}")
        criterion(f"gradcheck {name}: gradient sums to 0 within 1e-8",
                  result.max_grad_sum <= 1e-8,
                  f"max_grad_sum={result.max_grad_sum:.2e}")
    criterion("gradient suite runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f}s")


def test_fkl_gradient_gap_identity():
    # at equal student probability, the gradient gap between a non-top-k and
    # a top-k index equals the teacher probability of the top-k index exactly
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(50):
        teacher, z = random_instance(rng, 32, 8, 16)
        outside_pool = np.setdiff1d(np.arange(32), teacher.indices)
        pairs = list(zip(teacher.indices, outside_pool[:teacher.k]))
        for inside, outside in pairs:
            z[outside] = z[inside]  # equal logits give bitwise-equal q
        grad = dv.fkl_topk(teacher, z).grad
        for (inside, outside), p_j in zip(pairs, teacher.probs):
            worst = max(worst, abs((grad[outside] - grad[inside]) - p_j))
    criterion("FKL ordering: grad gap equals p_j to 1e-12 at equal q",
              worst <= 1e-12, f"worst={worst:.2e}")


def test_collapse_witness():
    teacher, z, m = collapse_witness()
    endorsed, wrong = 1, 2  # tiny-p top-k index vs confident non-top-k index
    masked = dv.rkl_topk_masked(teacher, z).grad
    inverted = masked[endorsed] > masked[wrong]
    criterion("witness: masked RKL suppresses the endorsed top-k logit harder "
              "than the confident-wrong logit (descent promotes the wrong one)",
              inverted,
              f"grad_topk={masked[endorsed]:.4f} grad_wrong={masked[wrong]:.4f}")
    stab = dv.rkl_topk_stabilized(teacher, z, m, lambda_tail=10.0).grad
    con = dv.ckd_loss(teacher, z, m, lambda_tail=10.0).grad
    criterion("witness: stabilized RKL (lambda=10) restores "
              "grad(confident-wrong) > grad(top-k)",
              stab[wrong] > stab[endorsed],
              f"grad_topk={stab[endorsed]:.4f} grad_wrong={stab[wrong]:.4f}")
    criterion("witness: constrained FKL (lambda=10) restores "
              "grad(confident-wrong) > grad(top-k)",
              con[wrong] > con[endorsed],
              f"grad_topk={con[endorsed]:.4f} grad_wrong={con[wrong]:.4f}")


def test_kd_dynamics_demo():
    start = time.perf_counter()
    family = adversarial_teacher_family()
    curves = {kind: kd_fit(family, kind, steps=500, step_size=0.5, seed=3)
              for kind in ("fkl", "rkl", "rkl-stab", "ckd")}
    elapsed = time.perf_counter() - start
    esc = {kind: c.escape_mass[-1] for kind, c in curves.items()}
    criterion("kd demo: escape mass masked-RKL > FKL after 500 steps",
              esc["rkl"] > esc["fkl"],
              f"rkl={esc['rkl']:.4f} fkl={esc['fkl']:.4f}")
    criterion("kd demo: escape mass FKL >= constrained FKL after 500 steps",
              esc["fkl"] >= esc["ckd"],
              f"fkl={esc['fkl']:.4f} ckd={esc['ckd']:.4f}")
    criterion("kd demo: constrained-FKL final entropy >= stabilized-RKL final "
              "entropy",
              curves["ckd"].entropy[-1] >= curves["rkl-stab"].entropy[-1],
              f"ckd={curves['ckd'].entropy[-1]:.4f} "
              f"stab={curves['rkl-stab'].entropy[-1]:.4f}")
    criterion("kd demo runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f}s")


def test_grpo_criteria():
    adv = standardize_advantages([1, 0, 0, 1])
    criterion("advantages([1,0,0,1]) == [1,-1,-1,1] exactly",
              np.array_equal(adv, [1.0, -1.0, -1.0, 1.0]), f"adv={adv.tolist()}")

    homogeneous = RolloutGroup("h", [
        Rollout(np.array([-1.0]), np.array([-1.0]), np.array([-1.0]), reward=1.0)
        for _ in range(4)])
    mixed = RolloutGroup("m", [
        Rollout(np.array([-1.0]), np.array([-1.0]), np.array([-1.0]), reward=r)
        for r in (1.0, 0.0)])
    survivors = filter_homogeneous([homogeneous, mixed])
    criterion("homogeneous groups are filtered", survivors == [mixed])

    cfg = GrpoConfig(epsilon=0.2, beta=0.0)
    one = RolloutGroup("c", [Rollout(np.array([np.log(2.0)]), np.array([0.0]),
                                     np.array([0.0]), reward=0.0)])
    plus = grpo_objective(one, [1.0], cfg)
    minus = grpo_objective(one, [-1.0], cfg)
    criterion("clip example r=2, A=+1, eps=0.2 gives 1.2",
              plus == pytest.approx(1.2, abs=1e-9), f"value={plus}")
    criterion("clip example r=2, A=-1, eps=0.2 gives -2.0",
              minus == pytest.approx(-2.0, abs=1e-9), f"value={minus}")


def test_toy_training():
    start = time.perf_counter()
    task = bundled_default_task()
    _, log = train_sim_rl(task, ToyTrainConfig(), iterations=500, seed=0)
    trailing = log.trailing_mean_reward(50)
    criterion("toy training: trailing-50 mean reward >= 0.8 within 500 "
              "iterations (seed 0, defaults)",
              trailing >= 0.8, f"trailing={trailing:.4f}")

    opt_task = bundled_optional_param_task()
    graded_scores, binary_scores = [], []
    for seed in range(10):
        graded_policy, _ = train_sim_rl(
            opt_task, ToyTrainConfig(reward_mode="sim"), iterations=80, seed=seed)
        binary_policy, _ = train_sim_rl(
            opt_task, ToyTrainConfig(reward_mode="binary"), iterations=80, seed=seed)
        graded_scores.append(evaluate_policy(graded_policy, opt_task, 256,
                                             seed=10_000 + seed))
        binary_scores.append(evaluate_policy(binary_policy, opt_task, 256,
                                             seed=10_000 + seed))
    elapsed = time.perf_counter() - start
    graded_mean = float(np.mean(graded_scores))
    binary_mean = float(np.mean(binary_scores))
    criterion("toy training: paired-seed graded reward >= binary reward over "
              "10 seeds on the optional-parameter task",
              graded_mean >= binary_mean,
              f"graded={graded_mean:.4f} binary={binary_mean:.4f}")
    criterion("toy training runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f}s")


def test_cli_determinism(tmp_path):
    import json

    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(GOLDEN_SCHEMA))
    score_in = tmp_path / "score.jsonl"
    score_in.write_text("\n".join(
        json.dumps({"id": r["id"], "generation": r["generation"],
                    "ground_truth": r["ground_truth"]})
        for r in GOLDEN_RECORDS) + "\n")
    a, b = tmp_path / "score_a.jsonl", tmp_path / "score_b.jsonl"
    assert main(["score", "--input", str(score_in), "--schema",
                 str(schema_path), "--output", str(a)]) == 0
    assert main(["score", "--input", str(score_in), "--schema",
                 str(schema_path), "--output", str(b)]) == 0
    criterion("cli determinism: repeated score runs are byte-identical",
              a.read_bytes() == b.read_bytes())

    kd_in = tmp_path / "kd.jsonl"
    make_kd_file(kd_in, seed=11)
    ka, kb = tmp_path / "kd_a.jsonl", tmp_path / "kd_b.jsonl"
    assert main(["kd", "--input", str(kd_in), "--loss", "ckd",
                 "--output", str(ka)]) == 0
    assert main(["kd", "--input", str(kd_in), "--loss", "ckd",
                 "--output", str(kb)]) == 0
    criterion("cli determinism: repeated kd runs are byte-identical",
              ka.read_bytes() == kb.read_bytes())
