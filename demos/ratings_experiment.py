"""
Greedy team selection on empirical rating distributions
=======================================================

Builds per-coder empirical distributions from the bundled synthetic
ratings, then repeatedly samples a pool of coders, selects a team by
replication scores, and compares against the exhaustive optimum.
"""

import numpy as np

from testscore import (
    RngSpec,
    Scenario,
    brute_force_single,
    build_score_table,
    greedy_topk,
    ingest_ratings,
    read_ratings,
)
from testscore.data import sample_ratings_path

POOL = 10     # coders sampled per trial
TRIALS = 60
SEED = 3

loaded = ingest_ratings(read_ratings(sample_ratings_path()))
scn = loaded.scenario
print(f"{scn.n_agents} coders with enough rated solutions")

ratios = {k: [] for k in (2, 3, 4)}
for t in range(TRIALS):
    gen = RngSpec(SEED).generator(t)
    chosen = sorted(int(i) for i in gen.choice(scn.n_agents, POOL, replace=False))
    # the sampled coders' slice of the ingested store, as `testscore experiment` takes it
    sub = Scenario(None, scn.value_fns, (max(ratios),), stores=(scn.store(0).take(chosen),))
    # one table up to the largest k: each k reads its own column
    table = build_score_table(sub, "replication", max_r=max(ratios))
    for k in ratios:
        greedy = greedy_topk(sub, 0, k, table)
        opt = brute_force_single(sub, 0, k)
        ratios[k].append(greedy.total / opt.total)

print(f"{TRIALS} trials, pool size {POOL}, best-shot objective")
for k, vals in ratios.items():
    arr = np.array(vals)
    print(f"  k={k}: mean ratio {arr.mean():.5f}   min {arr.min():.5f}"
          f"   optimal picks {int((arr > 1 - 1e-12).sum())}/{TRIALS}")

# same protocol as `testscore experiment --sample`, which also writes a CSV
