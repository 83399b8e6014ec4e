#!/usr/bin/env python3
"""Assembles EXPERIMENTS.md from the recorded harness outputs in results/.

Run scripts/run_experiments.sh first; then this script embeds each raw
output next to the paper's reported numbers and the reproduction verdict.
The hand-written rest, from the first `## ` heading of the current
EXPERIMENTS.md that is not a SECTIONS title on, is kept verbatim.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (results file, title, paper-reported summary, what must reproduce)
SECTIONS = [
    ("table1", "Table I — system cost-efficiency (CS vs ACME)",
     "Search space reduced to ~1% of the centralized system; upload volume "
     "reduced to ~6% of CS on average; both scale linearly in N "
     "(CS: 1695/3300/4050/6600 ×10³ and 1610/3220/4830/6440 MB for N=10/20/30/40).",
     "ACME's search space and upload are small constant fractions of CS and "
     "scale linearly with the device count."),
    ("fig1", "Fig. 1 — motivation: size, architecture, accuracy",
     "Larger models do not monotonically improve accuracy but always cost "
     "more energy; similar-size models with different fine-grained "
     "architectures differ by up to 4.9 accuracy points.",
     "Accuracy saturates with size while energy keeps growing; an "
     "architecture spread of several points exists at matched size."),
    ("fig7a", "Fig. 7(a) — accuracy vs parameters under a storage constraint",
     "ACME's customized model attains the best accuracy (~+10 over the "
     "field average, ~+4-5 over the best baseline) at a competitive size "
     "under the 25M constraint.",
     "ACME lands at or near the top of the accuracy column while staying "
     "within the budget; weak baselines (DeViT family at this scale) trail."),
    ("fig7b", "Fig. 7(b) — fixed headers vs the NAS header",
     "NAS headers beat the four fixed designs, by ~9 points on small "
     "backbones and ~3 on large ones (gain shrinks with backbone size).",
     "The NAS header wins on the smallest backbone and its margin shrinks "
     "(and may invert within noise) as depth grows."),
    ("fig8", "Fig. 8 — header family × backbone architecture",
     "Complex (CNN) headers compensate weak backbones; simple headers "
     "suffice for strong backbones; NAS tracks the best choice across the "
     "whole grid.",
     "CNN > Linear on shallow/narrow backbones with the gap closing as the "
     "backbone grows; NAS at or near the per-row maximum."),
    ("fig9", "Fig. 9 — model/device matching methods",
     "ACME's selection latency matches Random's (−71.2% vs greedy); best "
     "energy- and size-efficiency ratios; trade-off score ≥28.9% better.",
     "PFG latency is microseconds (vs milliseconds for greedy evaluation), "
     "with the best efficiency ratios and the lowest trade-off score."),
    ("fig10", "Fig. 10 — Wasserstein vs JS similarity",
     "The Wasserstein matrix reflects the two device groups faithfully; JS "
     "saturates on disjoint supports and loses the geometry.",
     "Both matrices show the block structure, but every JS cross-group "
     "entry collapses to 1/(1+ln2) ≈ 0.591 while Wasserstein entries keep "
     "grading distances."),
    ("fig11", "Fig. 11 — aggregation methods under IID/C1/C2/C3",
     "All methods improve the original model; Avg loses its advantage as "
     "confusion grows; ACME improves the most across all levels (~+10% "
     "average accuracy).",
     "Positive improvements throughout; similarity-aware aggregation "
     "(ACME/JS) ahead of Avg at the C2/C3 levels."),
    ("fig12", "Fig. 12 — header complexity (B, U)",
     "On a large backbone, accuracy is flat-to-declining as the header "
     "grows; on a small backbone accuracy improves with B and U.",
     "The small backbone's best cell has larger B/U than the large "
     "backbone's."),
    ("fig13a", "Fig. 13(a) — Stanford-Cars-like: baselines",
     "ACME remains performance-optimal under the constraint on the harder "
     "dataset (+3.94 average accuracy).",
     "Same who-wins shape as Fig. 7(a) on the fine-grained workload."),
    ("fig13b", "Fig. 13(b) — Stanford-Cars-like: headers",
     "NAS headers gain more on the harder dataset (+14.43 average across "
     "sizes).",
     "The NAS-vs-fixed margin is larger than on the CIFAR-like workload."),
    ("ablation_importance", "Ablation — pruning criterion",
     "(design choice; no direct paper table) The paper builds on "
     "first-order Taylor importance (Eqs. 6-8).",
     "Taylor ≥ magnitude ≫ random at matched width."),
    ("ablation_pareto", "Ablation — PFG vs weighted sum",
     "(design choice) The paper argues grid-based decomposition finds "
     "better trade-offs than scalarization.",
     "PFG holds accuracy at comparable trade-off scores."),
    ("ablation_nas_sharing", "Ablation — NAS parameter sharing",
     "(design choice, Eq. 15) Shared-parameter training makes controller "
     "rewards meaningful.",
     "Reward and selected-child accuracy drop without sharing."),
    ("ablation_loop_depth", "Ablation — single-loop iterations T",
     "(design choice, Algorithm 2) The loop 'repeats until convergence'.",
     "Improvement grows with T and saturates."),
    ("ablation_early_exit", "Extension — early-exit inference",
     "(extension; §V motivates multi-exit headers for large-model "
     "deployment)",
     "Lower confidence thresholds trade accuracy for compute; threshold "
     "1.0 recovers the full model."),
]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the ACME paper (ICDCS 2025) regenerated by this
repository, plus the design-choice ablations of DESIGN.md §6. All numbers
below were produced by

```sh
scripts/run_experiments.sh        # full scale, release mode
```

on the synthetic substitute workloads documented in DESIGN.md §2. Absolute
values are not comparable to the paper (ViT-B/CIFAR-100/V100 vs a
CPU-scale ViT on prototype-structured synthetic data); the reproduction
target is the *shape* of each result — who wins, in which direction the
trends run, and where the crossovers sit. Each section states the paper's
claim, the shape that must reproduce, the raw measured output, and a
verdict.

Seeds are fixed inside each harness binary. These outputs
(`results/*.txt`, and the six `BENCH_*.json` at the repository root) were
recorded under `rand 0.8`'s ChaCha12 `StdRng`, a generator this checkout
no longer builds: `SmallRng64` is now the in-tree xoshiro256++
generator (DESIGN §5), so rerunning the script does not
reproduce them. A full re-run under the in-tree stream leaves Table I
unchanged and moves single-seed verdicts elsewhere (Fig. 13(b) mean NAS
gain +5.2 -> -8.8 pts; Fig. 1(b) same-size spread 5.0 -> 25.6 pts;
Fig. 12 small/B=3, first column, 0.925 -> 0.269), so they stay as
recorded until they are re-recorded as mean and spread over at least
five seeds with verdicts computed by the binaries (ROADMAP item 1).
"""


def hand_written(path: str) -> str:
    """The text of `path` from its first `## ` heading that no SECTIONS
    entry generates, or "" when there is none."""
    titles = {f"## {title}\n" for _, title, _, _ in SECTIONS}
    if not os.path.exists(path):
        return ""
    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        if line.startswith("## ") and line not in titles:
            return "".join(lines[i:])
    return ""


def main() -> int:
    target = os.path.join(ROOT, "EXPERIMENTS.md")
    kept = hand_written(target)
    out = [HEADER]
    missing = []
    for name, title, paper, shape in SECTIONS:
        path = os.path.join(ROOT, "results", f"{name}.txt")
        out.append(f"\n## {title}\n")
        out.append(f"**Paper:** {paper}\n")
        out.append(f"**Must reproduce:** {shape}\n")
        out.append(f"**Measured** (`cargo run -p acme-bench --release --bin {name}`):\n")
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path) as fh:
                body = fh.read().strip()
            out.append("```text\n" + body + "\n```\n")
        else:
            missing.append(name)
            out.append("_missing — run scripts/run_experiments.sh_\n")
        verdict_path = os.path.join(ROOT, "results", f"{name}.verdict")
        if os.path.exists(verdict_path):
            with open(verdict_path) as fh:
                out.append(f"**Verdict:** {fh.read().strip()}\n")
    if kept:
        out.append("\n" + kept)
    with open(target, "w") as fh:
        fh.write("\n".join(out))
    if missing:
        print("missing results:", ", ".join(missing))
    print("wrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
