/** @file Tests for the ablation features: block-termination policy,
 *  last-slot pulling, stability thresholds, and decode-based prefill. */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "core/bbtb.h"
#include "core/mbbtb.h"
#include "sim/cpu.h"
#include "trace/suite.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

void
redirectTo(BtbOrg &btb, Addr start)
{
    btb.update(branchAt(start - 0x400, BranchClass::kReturn, start), false);
}

} // namespace

// ---- Section 2.3 block-termination policy -----------------------------------

TEST(CondEndsBlock, TakenCondTruncatesBlock)
{
    BtbConfig cfg = BtbConfig::bbtb(2);
    cfg.cond_ends_block = true;
    auto btb = makeBtb(cfg);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x3000), false);
    // Yeh/Patt-style blocks end at the taken conditional.
    EXPECT_EQ(walk(*btb, 0x1000, 64).size(), 3u);
}

TEST(CondEndsBlock, BaselineFallsThroughToReach)
{
    auto btb = makeBtb(BtbConfig::bbtb(2));
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x3000), false);
    EXPECT_EQ(walk(*btb, 0x1000, 64).size(), 16u);
}

TEST(CondEndsBlock, NameReflectsPolicy)
{
    BtbConfig cfg = BtbConfig::bbtb(2);
    cfg.cond_ends_block = true;
    EXPECT_EQ(cfg.name(), "B-BTB 2BS CndEnd");
}

TEST(CondEndsBlock, FallThroughOpensNewBlock)
{
    BtbConfig cfg = BtbConfig::bbtb(2);
    cfg.cond_ends_block = true;
    auto btb = makeBtb(cfg);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x3000), false);
    // Later the conditional is not taken: sequential flow continues and
    // a subsequent taken branch belongs to the fall-through block.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x3000, false),
                false);
    btb->update(branchAt(0x1014, BranchClass::kUncondDirect, 0x4000), false);
    EXPECT_EQ(viewAt(*btb, 0x100C, 0x1014).kind, StepView::Kind::kBranch);
}

// ---- Section 6.4.2 last-slot pulling ----------------------------------------

TEST(LastSlotPull, AblationAllowsLastSlotToPull)
{
    BtbConfig cfg = BtbConfig::mbbtb(2, PullPolicy::kCallDir);
    cfg.allow_last_slot_pull = true;
    auto btb = makeBtb(cfg);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x3000), false);
    redirectTo(*btb, 0x1000);
    // Call in the last slot: pulls only with the ablation flag.
    btb->update(branchAt(0x1008, BranchClass::kDirectCall, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 1u);
    EXPECT_EQ(cfg.name(), "MB-BTB 2BS CallDir LSP");
}

// ---- Section 6.4.2 stability threshold --------------------------------------

TEST(StabilityThreshold, LowerThresholdPullsSooner)
{
    BtbConfig cfg = BtbConfig::mbbtb(2, PullPolicy::kAllBr);
    cfg.stability_threshold = 3;
    auto btb = makeBtb(cfg);
    for (int i = 0; i < 3; ++i) {
        redirectTo(*btb, 0x1000);
        btb->update(branchAt(0x1008, BranchClass::kIndirectJump, 0x2000),
                    false);
        EXPECT_EQ(btb->counters.pulls, 0u);
    }
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kIndirectJump, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 1u);
}

// ---- Section 7.3 decode-based prefill ---------------------------------------

TEST(PredecodeFill, ReducesMisfetchesOnColdCode)
{
    WorkloadSpec spec;
    spec.name = "predecode-itest";
    spec.params.seed = 0xFED;
    spec.params.target_static_insts = 48 * 1024;
    spec.params.num_handlers = 8;
    spec.trace_seed = 0x777;

    auto run = [&](bool prefill) {
        auto w = makeWorkload(spec);
        CpuConfig cfg;
        cfg.btb = BtbConfig::ibtb(16);
        cfg.btb_predecode_fill = prefill;
        Cpu cpu(cfg, *w);
        cpu.run(0, 300'000); // no warmup: cold BTB and I$
        return cpu.stats();
    };

    const SimStats off = run(false);
    const SimStats on = run(true);
    EXPECT_LT(on.misfetch_pki, off.misfetch_pki);
    EXPECT_GE(on.ipc, off.ipc * 0.98);
}

TEST(PredecodeFill, PrefillCountersAdvance)
{
    WorkloadSpec spec;
    spec.params.seed = 0xFED;
    spec.params.target_static_insts = 16 * 1024;
    spec.params.num_handlers = 4;
    auto w = makeWorkload(spec);
    CpuConfig cfg;
    cfg.btb = BtbConfig::rbtb(3);
    cfg.btb_predecode_fill = true;
    Cpu cpu(cfg, *w);
    cpu.run(0, 100'000);
    EXPECT_GT(cpu.btb().counters.prefills, 0u);
}

TEST(PredecodeFill, BlockOrgsIgnorePrefillSafely)
{
    WorkloadSpec spec;
    spec.params.seed = 0xFED;
    spec.params.target_static_insts = 16 * 1024;
    spec.params.num_handlers = 4;
    auto w = makeWorkload(spec);
    CpuConfig cfg;
    cfg.btb = BtbConfig::bbtb(1, true);
    cfg.btb_predecode_fill = true; // no-op for block organizations
    Cpu cpu(cfg, *w);
    cpu.run(0, 100'000);
    EXPECT_EQ(cpu.btb().counters.prefills, 0u);
    EXPECT_GT(cpu.stats().ipc, 0.2);
}
