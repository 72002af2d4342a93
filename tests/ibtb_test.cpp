/** @file Tests for the Instruction BTB organization. */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "core/ibtb.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

std::unique_ptr<BtbOrg>
makeIbtb(unsigned width = 16, bool skip = false)
{
    return makeBtb(BtbConfig::ibtb(width, skip));
}

} // namespace

TEST(Ibtb, MissBeforeAllocation)
{
    auto btb = makeIbtb();
    StepView v = viewAt(*btb, 0x1000, 0x1000);
    EXPECT_EQ(v.kind, StepView::Kind::kSequential);
}

TEST(Ibtb, TakenBranchAllocates)
{
    auto btb = makeIbtb();
    btb->update(branchAt(0x1000, BranchClass::kUncondDirect, 0x2000), false);
    StepView v = viewAt(*btb, 0x1000, 0x1000);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.type, BranchClass::kUncondDirect);
    EXPECT_EQ(v.target, 0x2000u);
    EXPECT_EQ(v.level, 1);
}

TEST(Ibtb, NeverTakenDoesNotAllocate)
{
    auto btb = makeIbtb();
    btb->update(branchAt(0x1000, BranchClass::kCondDirect, 0x2000, false),
                false);
    StepView v = viewAt(*btb, 0x1000, 0x1000);
    EXPECT_EQ(v.kind, StepView::Kind::kSequential);
}

TEST(Ibtb, WindowLimitedByWidth)
{
    auto btb = makeIbtb(8);
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 8u);
}

TEST(Ibtb, MidWindowBranchVisible)
{
    auto btb = makeIbtb();
    btb->update(branchAt(0x1010, BranchClass::kCondDirect, 0x3000), false);
    StepView v = viewAt(*btb, 0x1000, 0x1010);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.target, 0x3000u);
}

TEST(Ibtb, SkipModeChainsAcrossTaken)
{
    auto btb = makeIbtb(16, true);
    btb->update(branchAt(0x1000, BranchClass::kUncondDirect, 0x2000), false);
    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    StepView v = b.probe(0x1000);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_TRUE(v.follow);
    EXPECT_TRUE(b.chain(*btb, 0x1000, 0x2000));
    // The access continues at the target.
    EXPECT_EQ(b.probe(0x2000).kind, StepView::Kind::kSequential);
}

TEST(Ibtb, NonSkipModeDoesNotChain)
{
    auto btb = makeIbtb(16, false);
    btb->update(branchAt(0x1000, BranchClass::kUncondDirect, 0x2000), false);
    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    StepView v = b.probe(0x1000);
    EXPECT_FALSE(v.follow);
    EXPECT_FALSE(b.chain(*btb, 0x1000, 0x2000));
}

TEST(Ibtb, SkipModeStillBoundedByWidth)
{
    auto btb = makeIbtb(4, true);
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 4u);
}

TEST(Ibtb, IndirectTargetRefreshes)
{
    auto btb = makeIbtb();
    btb->update(branchAt(0x1000, BranchClass::kIndirectJump, 0x2000), false);
    btb->update(branchAt(0x1000, BranchClass::kIndirectJump, 0x5000), false);
    StepView v = viewAt(*btb, 0x1000, 0x1000);
    EXPECT_EQ(v.target, 0x5000u);
}

TEST(Ibtb, L2HitReportedAndFillsL1)
{
    // Tiny L1 (1 set x 1 way) with a larger L2.
    BtbConfig cfg = BtbConfig::ibtb(16);
    cfg.l1 = {1, 1};
    cfg.l2 = {16, 4};
    auto btb = makeBtb(cfg);
    btb->update(branchAt(0x1000, BranchClass::kUncondDirect, 0x2000), false);
    btb->update(branchAt(0x2000, BranchClass::kUncondDirect, 0x1000), false);
    // 0x1000 was displaced from the 1-entry L1 by 0x2000 but lives in L2.
    StepView v = viewAt(*btb, 0x1000, 0x1000);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.level, 2);
    // The fill promoted it: a second access hits L1.
    v = viewAt(*btb, 0x1000, 0x1000);
    EXPECT_EQ(v.level, 1);
}

TEST(Ibtb, CollidingWindowReportsProbeTimeLevels)
{
    // 1-entry L1: the first slot's probe-time L2->L1 fill evicts the
    // second slot's entry, so both probes must report an L2 hit even
    // though the second entry was still L1-resident when the access began.
    BtbConfig cfg = BtbConfig::ibtb(4);
    cfg.l1 = {1, 1};
    cfg.l2 = {16, 4};
    auto btb = makeBtb(cfg);
    btb->update(branchAt(0x1000, BranchClass::kCondDirect, 0x2000), false);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x3000), false);

    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    StepView first = b.probe(0x1000);
    (void)b.probe(0x1004);
    StepView second = b.probe(0x1008);
    ASSERT_EQ(first.kind, StepView::Kind::kBranch);
    EXPECT_EQ(first.level, 2);
    ASSERT_EQ(second.kind, StepView::Kind::kBranch);
    EXPECT_EQ(second.level, 2);

    // The probe-time lookups really promoted both; the last fill won the
    // single L1 way, so the second branch now hits L1.
    StepView again = viewAt(*btb, 0x1008, 0x1008);
    EXPECT_EQ(again.level, 1);
}

TEST(Ibtb, IdealSingleLevelNeverReportsL2)
{
    BtbConfig cfg = BtbConfig::ibtb(16);
    cfg.makeIdeal();
    auto btb = makeBtb(cfg);
    for (Addr a = 0; a < 1000; ++a)
        btb->update(
            branchAt(0x10000 + a * 8, BranchClass::kUncondDirect, 0x2000),
            false);
    for (Addr a = 0; a < 1000; ++a) {
        StepView v =
            viewAt(*btb, 0x10000 + a * 8, 0x10000 + a * 8);
        ASSERT_EQ(v.kind, StepView::Kind::kBranch);
        EXPECT_EQ(v.level, 1);
    }
}

TEST(Ibtb, OccupancySampleCountsEntries)
{
    auto btb = makeIbtb();
    for (Addr a = 0; a < 100; ++a)
        btb->update(
            branchAt(0x1000 + a * 4, BranchClass::kUncondDirect, 0x9000),
            false);
    OccupancySample s = btb->sampleOccupancy();
    EXPECT_EQ(s.l1_entries, 100u);
    EXPECT_DOUBLE_EQ(s.l1_redundancy, 1.0);
    EXPECT_DOUBLE_EQ(s.l1_slot_occupancy, 1.0);
}

TEST(Ibtb, TakenPenaltyByLevel)
{
    auto btb = makeIbtb();
    EXPECT_EQ(btb->takenPenalty(1), 0u);
    EXPECT_EQ(btb->takenPenalty(2), 3u);
}
