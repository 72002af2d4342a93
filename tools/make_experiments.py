#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the bench outputs in results/.

Run after ./run_benches.sh. Extracts the normalized-IPC tables and key
series from each bench's output and records them next to the paper's
numbers with a shape verdict.
"""

import os
import re
import sys

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")


def section(name, first, last=None):
    """Lines of results/<name>.txt between markers (inclusive)."""
    path = os.path.join(RESULTS, name + ".txt")
    if not os.path.exists(path):
        return f"(missing: run ./run_benches.sh to produce {name}.txt)\n"
    with open(path) as f:
        lines = f.readlines()
    out, active = [], False
    for line in lines:
        if first in line:
            active = True
        if active:
            out.append(line)
            if last and last in line and len(out) > 1:
                break
    return "".join(out)


def geomeans(name):
    """config -> normalized geomean from a bench's whisker table."""
    text = section(name, "config", "Paper-shape")
    out = {}
    for line in text.splitlines():
        m = re.match(r"(.+?)\s+([\d.]+)\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+"
                     r"([\d.]+)\s+([\d.]+)$", line)
        if m:
            out[m.group(1).strip()] = float(m.group(4))
    return out


def main():
    out = sys.stdout
    out.write(HEADER)

    out.write("\n## Workload calibration (bench_characterization)\n\n")
    out.write("```\n")
    out.write(section("bench_characterization", "workload", "mean"))
    out.write("```\n")
    out.write(CALIBRATION_NOTES)

    for name, title, paper, verdict in FIGURES:
        out.write(f"\n## {title}\n\n")
        out.write("Measured (IPC normalized to idealistic I-BTB 16, "
                  "min/q1/median/q3/max/geomean):\n\n```\n")
        out.write(section(name, "config", "Paper-shape"))
        out.write("```\n\n")
        out.write(f"Paper: {paper}\n\n")
        out.write(f"Shape verdict: {verdict}\n")

    out.write(TAIL)


HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure of Perais & Sheikh,
*Branch Target Buffer Organizations*, MICRO 2023, plus the ablations and
extensions this repo adds. Produced from the raw bench outputs in
`results/` (regenerate with `./run_benches.sh`; this file was assembled by
`tools/make_experiments.py`). Default scale: 6 synthetic server workloads,
0.5M warmup + 1M measured instructions, one thread.

The paper evaluated 147 proprietary CVP-1 server traces at 50M + 50M
instructions on a modified ChampSim; this repo substitutes a calibrated
synthetic workload suite (DESIGN.md §2) and an original simulator.
Absolute values are therefore not comparable; the reproduction target is
the *shape*: orderings, rough factors and crossover points.
"""

CALIBRATION_NOTES = """
| Property (dynamic) | Paper (CVP-1) | Measured (mean) |
|---|---|---|
| Avg basic-block size | 9.4 instructions | ~8.4 |
| Never-taken conditionals | 34.8% | ~40% |
| Always-taken conditionals | 15.0% | ~11% |
| Single-target indirects | 9.1% | ~5% |
| 90% dynamic line coverage | 138KB | ~220KB |
| 100% dynamic line coverage | 319KB | ~400KB |

Known deltas: suite branch MPKI is higher than the CVP-1 geomean (ours
~2.5-4 vs 0.84 geomean / 3.55 max) because stochastic branch behaviour
carries an irreducible noise floor, and call/return density is higher
(more, smaller functions), which fragments block-organized BTBs more than
the paper's traces do. Both deltas apply equally to every configuration.
"""

FIGURES = [
    ("bench_taken_penalty",
     "§1/§3.6.1 — 1-cycle taken-branch penalty limit study",
     "0.8% geomean IPC loss, up to 2.2%, with a 512K-entry I-BTB.",
     "REPRODUCED — small single-digit geomean loss with a long tail, even "
     "though decoupling hides most bubbles."),
    ("bench_fig4_ideal_orgs",
     "Fig. 4 — Idealistic (512K-entry) organization potential",
     "All organizations within a few % of I-BTB 16; fewer branch slots "
     "hurt R-/B-BTB (R-BTB 1BS worst); R-BTB capped below I/B even at 16 "
     "slots (region boundary); 2 slots suffice for B-BTB while R-BTB "
     "keeps improving to 4/16; I-BTB 8 ~-0.2% geomean, Skp ~+0.1%.",
     "REPRODUCED — same ordering and saturation points (B-BTB saturates "
     "at 2 slots, R-BTB needs 3-4); our Skp gain is larger (+2-3%) "
     "because our delivery path leaves more headroom than the paper's."),
    ("bench_fig5_realistic",
     "Fig. 5 — Realistic two-level hierarchies",
     "R-BTB 1BS collapses; B-BTB 1BS close behind I-BTB (1.74 vs 1.79 "
     "geomean); R-BTB peaks at 3BS; B-BTB degrades monotonically past "
     "2BS (blocks contend for entries).",
     "REPRODUCED — R-BTB 1BS worst by a wide margin, R-BTB peaks at 3BS, "
     "B-BTB best at 1-2BS and degrades with more slots."),
    ("bench_fig7_rbtb",
     "Fig. 7 — R-BTB improvements",
     "2L1 interleaving gains little (0.2-0.5% geomean); same-geometry "
     "16BS recovers near-I-BTB performance (slot pressure, not entry "
     "pressure); 128B regions need 4BS and lose at 6BS.",
     "REPRODUCED — 2L1 gains are small; nGeo-16BS recovers most of the "
     "gap; 128B ordering matches (4BS best, 6BS entry-starved)."),
    ("bench_fig8_bbtb_mbbtb",
     "Fig. 8 — B-BTB splitting and MultiBlock BTB",
     "B-BTB 1BS Splt is the best practical config (1.78 vs 1.79 for "
     "realistic I-BTB; splitting +2.6% at 1BS, unnecessary at 2-3BS); "
     "MB-BTB pull policies improve 2/3BS monotonically (UncndDir < "
     "CallDir < AllBr) yet MB-BTB 2BS AllBr still trails B-BTB 1BS Splt.",
     "PARTIALLY REPRODUCED — headline conclusion holds exactly (B-BTB "
     "1BS Splt best practical, splitting helps ~2% at 1BS and nothing at "
     "2-3BS, every MB/B config trails it); however our MB-BTB policy "
     "ordering inverts beyond UncndDir: CallDir/AllBr lose IPC because "
     "the suite's higher call fan-in multiplies per-call-site target-"
     "block duplication and our conditionals are only statistically "
     "(not architecturally) always-taken, so pulls churn more than in "
     "the CVP-1 traces."),
    ("bench_fig9_blocksize",
     "Fig. 9 — Entry reach (block size) sweep",
     "Reach barely helps B-BTB 1BS Splt or plain B-BTB; MB-BTB 2BS "
     "AllBr gains to 32 then saturates; MB-BTB 3BS AllBr gains most "
     "(+6.8% geomean at 64).",
     "REPRODUCED — reach is worthless for plain B-BTB (blocks terminate "
     "early) and most valuable for MB-BTB 3BS AllBr, which recovers "
     "double-digit geomean going 16 -> 64."),
    ("bench_fig10_fetchpcs",
     "Fig. 10 — Fetch PCs per BTB access vs geomean IPC",
     "MB-BTB strongly raises fetch PCs per access vs B-BTB at equal "
     "slots; in the contended hierarchy that does not beat B-BTB 1BS "
     "Splt — avoiding misses matters more than throughput.",
     "REPRODUCED — PCs/access rise from ~10 (B-BTB) to ~12-13 (MB-BTB "
     "16) and ~19-26 (MB-BTB 32/64) while B-BTB 1BS Splt keeps the best "
     "IPC: the paper's central message."),
    ("bench_fig11a_ideal_backend",
     "Fig. 11a — Ideal-backend limit study",
     "MB-BTB 64 AllBr beats I-BTB 16 by 13.4% geomean (6.0-15.6%), "
     "inversely correlated with dynamic basic-block size.",
     "PARTIALLY REPRODUCED — the inverse correlation with dynamic "
     "basic-block size holds (the smallest-block workload shows the "
     "highest, slightly positive, speedup) and the supply mechanism "
     "reproduces (26 fetch PCs per access vs 10), but the geomean stays "
     "just below 1.0: with our suite the ideal-backend runs remain "
     "misprediction-bound (suite MPKI ~3 vs the paper's 0.84), so "
     "MB-BTB's residual coverage cost is not amortized."),
    ("bench_fig11b_bp_sweep",
     "Fig. 11b — Branch-predictor size sweep",
     "Speedup of MB-BTB 64 AllBr over I-BTB 16 grows as the predictor "
     "shrinks (MPKI rises): pipeline refills expose the multi-block "
     "advantage.",
     "PARTIALLY REPRODUCED — MPKI rises steeply as the predictor "
     "shrinks (the sweep mechanism works); the MB/I ratio stays below "
     "1.0 for the same reason as Fig. 11a, and the *relative* penalty "
     "of MB-BTB shrinks only mildly with MPKI."),
    ("bench_ablation_mbbtb",
     "Ablation — MB-BTB stability threshold and last-slot pulling "
     "(§6.4.2, this repo's addition)",
     "The paper reports trying several thresholds and settling on 63, "
     "and a slight advantage from disallowing last-slot pulls.",
     "SUPPORTED — pulling indirects immediately (T0) costs ~2% geomean "
     "vs T63, T15 is nearly indistinguishable from T63; allowing the "
     "last slot to pull loses up to 4.6% (2BS)."),
    ("bench_ablation_blockend",
     "Ablation — block termination policy (§2.3, this repo's addition)",
     "The Yeh/Patt-style policy (blocks end at taken conditionals) "
     "trades storage for additional performance.",
     "SUPPORTED — at 1BS it recovers the same ~2% that entry splitting "
     "does (both shorten over-committed blocks); at 2BS it is neutral, "
     "mirroring the paper's finding that splitting is unnecessary there."),
    ("bench_hetero",
     "Extension — heterogeneous hierarchy (§3.6.2 future work)",
     "The paper hypothesizes that region-organized large levels waste "
     "less storage than block-organized ones.",
     "IMPLEMENTED — block L1 + region L2 with on-miss block synthesis; "
     "its L2 holds each branch exactly once (redundancy 1.0) where the "
     "homogeneous B-BTB L2 duplicates, though on this suite the synthesis "
     "misses cost more than the density gains recover."),
]

TAIL = """
## Simulator throughput (btbbench)

Host speed is not a paper result. btbbench's `realistic` workload
measures it (`sim_mips`: the five canonical organizations on the Table 1
core); see `btbbench/README.md` and the record in `BENCH_btbbench.json`.

## Reading the deltas

Three systematic differences between this reproduction and the paper
explain every deviation above, and all three are workload-substitution
effects rather than model divergences (DESIGN.md §7):

1. higher branch MPKI floor (stochastic synthetic branches);
2. higher call/return density (smaller functions, higher fan-in), which
   taxes block-organized entries and MB-BTB target pulling hardest;
3. lower extractable ILP, which keeps even the ideal backend from
   consuming more than one basic block per cycle — the regime the
   paper's Fig. 11 limit studies rely on.
"""

if __name__ == "__main__":
    main()
