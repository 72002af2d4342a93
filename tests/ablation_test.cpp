/** @file Tests for the ablation features: block-termination policy,
 *  last-slot pulling and stability thresholds. */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "core/bbtb.h"
#include "core/mbbtb.h"

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
