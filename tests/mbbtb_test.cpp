/** @file Tests for the MultiBlock BTB (Section 6.4). */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "core/mbbtb.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

std::unique_ptr<BtbOrg>
makeMb(unsigned slots, PullPolicy pull, unsigned reach = 16)
{
    return makeBtb(BtbConfig::mbbtb(slots, pull, reach));
}

void
redirectTo(BtbOrg &btb, Addr start)
{
    // Returns redirect the update cursor without ever pulling their
    // target, keeping these tests focused on the branch under test.
    btb.update(branchAt(start - 0x400, BranchClass::kReturn, start), false);
}

} // namespace

TEST(Mbbtb, UncondDirPullsTargetBlock)
{
    auto btb = makeMb(2, PullPolicy::kUncondDir);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kUncondDirect, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 1u);

    // One access supplies block 0 and chains into the pulled block.
    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    b.probe(0x1000);
    b.probe(0x1004);
    StepView v = b.probe(0x1008);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_TRUE(v.follow);
    ASSERT_TRUE(b.chain(*btb, 0x1008, 0x2000));
    EXPECT_EQ(b.probe(0x2000).kind, StepView::Kind::kSequential);
}

TEST(Mbbtb, UncondDirDoesNotPullCalls)
{
    auto btb = makeMb(2, PullPolicy::kUncondDir);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kDirectCall, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 0u);
}

TEST(Mbbtb, CallDirPullsCalls)
{
    auto btb = makeMb(2, PullPolicy::kCallDir);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kDirectCall, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 1u);
}

TEST(Mbbtb, AllBrPullsTakenConditionalImmediately)
{
    auto btb = makeMb(2, PullPolicy::kAllBr);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 1u);
}

TEST(Mbbtb, CallDirDoesNotPullConditionals)
{
    auto btb = makeMb(2, PullPolicy::kCallDir);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 0u);
}

TEST(Mbbtb, IndirectNeedsStabilityThreshold)
{
    BtbConfig cfg = BtbConfig::mbbtb(2, PullPolicy::kAllBr);
    cfg.stability_threshold = 63;
    auto btb = makeBtb(cfg);
    for (int i = 0; i < 63; ++i) {
        redirectTo(*btb, 0x1000);
        btb->update(branchAt(0x1008, BranchClass::kIndirectJump, 0x2000),
                    false);
        EXPECT_EQ(btb->counters.pulls, 0u) << "iteration " << i;
    }
    // The 64th consistent execution saturates the 6-bit counter.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kIndirectJump, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 1u);
}

TEST(Mbbtb, IndirectTargetChangeResetsStability)
{
    BtbConfig cfg = BtbConfig::mbbtb(2, PullPolicy::kAllBr);
    cfg.stability_threshold = 63;
    auto btb = makeBtb(cfg);
    for (int i = 0; i < 62; ++i) {
        redirectTo(*btb, 0x1000);
        btb->update(branchAt(0x1008, BranchClass::kIndirectJump, 0x2000),
                    false);
    }
    // Different target: counter resets.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kIndirectJump, 0x5000), false);
    for (int i = 0; i < 62; ++i) {
        redirectTo(*btb, 0x1000);
        btb->update(branchAt(0x1008, BranchClass::kIndirectJump, 0x5000),
                    false);
    }
    EXPECT_EQ(btb->counters.pulls, 0u);
}

TEST(Mbbtb, ReturnsNeverPull)
{
    auto btb = makeMb(2, PullPolicy::kAllBr);
    for (int i = 0; i < 100; ++i) {
        redirectTo(*btb, 0x1000);
        btb->update(branchAt(0x1008, BranchClass::kReturn, 0x2000), false);
    }
    EXPECT_EQ(btb->counters.pulls, 0u);
}

TEST(Mbbtb, LastSlotNeverPulls)
{
    auto btb = makeMb(2, PullPolicy::kCallDir);
    redirectTo(*btb, 0x1000);
    // Fill slot 0 with a non-pulling conditional, then a call in slot 1
    // (the last slot) must not pull (Section 6.4.2).
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x3000), false);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kDirectCall, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 0u);
}

TEST(Mbbtb, DowngradeOnNotTakenConditional)
{
    auto btb = makeMb(2, PullPolicy::kAllBr);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000), false);
    ASSERT_EQ(btb->counters.pulls, 1u);
    // Later the conditional falls through: immediate downgrade.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000, false),
                false);
    EXPECT_EQ(btb->counters.downgrades, 1u);
    // The slot remains as a normal conditional; no follow.
    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    b.probe(0x1000);
    StepView v = b.probe(0x1004);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_FALSE(v.follow);
    // And the block coverage extends past the branch again.
    EXPECT_EQ(b.probe(0x1008).kind, StepView::Kind::kSequential);
}

TEST(Mbbtb, PulledSlotEndsAccessOnNotTakenPrediction)
{
    auto btb = makeMb(2, PullPolicy::kAllBr);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000), false);
    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    b.probe(0x1000);
    StepView v = b.probe(0x1004);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_TRUE(v.end_on_not_taken);
}

TEST(Mbbtb, ChainsMultipleBlocks)
{
    // 3 slots: two of them may pull (the last slot never pulls), giving a
    // 3-block chain within one entry.
    auto btb = makeMb(3, PullPolicy::kUncondDir, 32);
    // Chain: 0x1000 -> jmp @0x1004 -> 0x2000 -> jmp @0x2004 -> 0x3000.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kUncondDirect, 0x2000), false);
    btb->update(branchAt(0x2004, BranchClass::kUncondDirect, 0x3000), false);
    EXPECT_EQ(btb->counters.pulls, 2u);

    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    b.probe(0x1000);
    b.probe(0x1004);
    ASSERT_TRUE(b.chain(*btb, 0x1004, 0x2000));
    b.probe(0x2000);
    StepView v = b.probe(0x2004);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    ASSERT_TRUE(b.chain(*btb, 0x2004, 0x3000));
    EXPECT_EQ(b.probe(0x3000).kind, StepView::Kind::kSequential);
    EXPECT_EQ(btb->counters.chained_blocks, 2u);
}

TEST(Mbbtb, ReachBudgetLimitsPulling)
{
    // Reach 4 instructions: after block 0 uses it up, no pull possible.
    auto btb = makeMb(2, PullPolicy::kUncondDir, 4);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x100C, BranchClass::kUncondDirect, 0x2000), false);
    EXPECT_EQ(btb->counters.pulls, 0u);
}

TEST(Mbbtb, RedundancySampleSeesChainedSlots)
{
    auto btb = makeMb(2, PullPolicy::kUncondDir);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kUncondDirect, 0x2000), false);
    btb->update(branchAt(0x2008, BranchClass::kUncondDirect, 0x3000), false);
    OccupancySample s = btb->sampleOccupancy();
    // The chained entry at 0x1000 (2 slots) plus the redirect's entry.
    EXPECT_EQ(s.l1_entries, 2u);
    EXPECT_DOUBLE_EQ(s.l1_slot_occupancy, 1.5);
}

TEST(Mbbtb, MissWindowIsReach)
{
    auto btb = makeMb(3, PullPolicy::kAllBr, 64);
    auto views = walk(*btb, 0x1000, 128);
    EXPECT_EQ(views.size(), 64u);
}

TEST(Mbbtb, DisplacingAPulledSlotTearsDownItsChain)
{
    auto btb = makeMb(2, PullPolicy::kUncondDir);
    // Slot 0x1008 pulls 0x2000; the slot at 0x2004 fills the entry.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kUncondDirect, 0x2000), false);
    btb->update(branchAt(0x2004, BranchClass::kUncondDirect, 0x3000), false);
    ASSERT_EQ(btb->counters.pulls, 1u);
    ASSERT_EQ(btb->counters.downgrades, 0u);
    ASSERT_EQ(btb->counters.slot_displacements, 0u);

    // A new branch in block 0 finds the entry full; its LRU slot is the
    // pulled 0x1008, whose chain (block 1 and the 0x2004 slot) goes.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x5000), false);
    EXPECT_EQ(btb->counters.downgrades, 1u);
    EXPECT_EQ(btb->counters.slot_displacements, 1u);
    EXPECT_EQ(btb->counters.pulls, 1u);

    // The new slot sits before 0x1008 in the walk, 0x1008 no longer
    // chains, and block 0 covers the full reach again.
    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    EXPECT_EQ(b.probe(0x1000).kind, StepView::Kind::kSequential);
    StepView v = b.probe(0x1004);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_FALSE(v.follow);
    v = b.probe(0x1008);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_FALSE(v.follow);
    EXPECT_EQ(b.probe(0x100C).kind, StepView::Kind::kSequential);
    EXPECT_EQ(b.probe(0x103C).kind, StepView::Kind::kSequential);
}
