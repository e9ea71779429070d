"""Train the tabular policy on the bundled four-function task.

Each iteration samples a group of 8 rollouts per prompt, renders them to
template text, scores them with the full reward pipeline, drops homogeneous
groups, standardizes rewards within each surviving group, and takes one
ascent step along the objective's gradient at importance ratio 1, from the
tables that drew the batch, so the clip never acts. A second run on the
optional-parameter task compares the graded reward against a strict
exact-match baseline at the same budget.

Run: python demos/train_toy_policy.py
"""

import numpy as np

from tooltrain.toy_task import bundled_default_task, bundled_optional_param_task
from tooltrain.toy_trainer import ToyTrainConfig, evaluate_policy, train_sim_rl

ITERATIONS = 500
PAIRED_BUDGET = 80
PAIRED_SEEDS = range(10)


def main() -> None:
    task = bundled_default_task()
    print(f"task: {len(task.schema.functions)} functions, "
          f"{len(task.prompts)} prompts; defaults: {ToyTrainConfig()}")
    policy, log = train_sim_rl(task, ToyTrainConfig(), ITERATIONS, seed=0)
    for it in (0, 24, 49, 99, 199, 299, 499):
        print(f"  iter {it + 1:>3}: mean reward {log.mean_reward[it]:.3f}  "
              f"mean slot entropy {log.mean_entropy[it]:.3f}  "
              f"filtered {log.filtered_fraction[it]:.2f}")
    print(f"trailing-50 mean reward: {log.trailing_mean_reward(50):.4f}")

    print("\ngraded vs exact-match reward at equal budget "
          f"({PAIRED_BUDGET} iterations, optional-parameter task)")
    opt = bundled_optional_param_task()
    graded, binary = [], []
    for seed in PAIRED_SEEDS:
        g_policy, _ = train_sim_rl(opt, ToyTrainConfig(reward_mode="sim"),
                                   PAIRED_BUDGET, seed)
        b_policy, _ = train_sim_rl(opt, ToyTrainConfig(reward_mode="binary"),
                                   PAIRED_BUDGET, seed)
        graded.append(evaluate_policy(g_policy, opt, 256, seed=10_000 + seed))
        binary.append(evaluate_policy(b_policy, opt, 256, seed=10_000 + seed))
    print(f"  graded-trained policies: mean task reward {np.mean(graded):.4f}")
    print(f"  binary-trained policies: mean task reward {np.mean(binary):.4f}")
    wins = sum(g >= b for g, b in zip(graded, binary))
    print(f"  paired seed wins (graded >= binary): {wins}/{len(graded)}")


if __name__ == "__main__":
    main()
