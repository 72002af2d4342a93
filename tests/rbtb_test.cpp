/** @file Tests for the Region BTB organization. */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "core/rbtb.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

std::unique_ptr<BtbOrg>
makeRbtb(unsigned slots, unsigned region = 64, bool dual = false)
{
    return makeBtb(BtbConfig::rbtb(slots, region, dual));
}

} // namespace

TEST(Rbtb, WindowEndsAtRegionBoundary)
{
    auto btb = makeRbtb(2);
    // Access from an unaligned PC: window covers only the rest of the
    // 64B region (Section 3.2).
    auto views = walk(*btb, 0x1010, 64);
    EXPECT_EQ(views.size(), (0x40 - 0x10) / kInstBytes);
}

TEST(Rbtb, BranchVisibleThroughRegionEntry)
{
    auto btb = makeRbtb(2);
    btb->update(branchAt(0x1020, BranchClass::kUncondDirect, 0x2000), false);
    // Accessible from any fetch PC within the region at or before it.
    StepView v = viewAt(*btb, 0x1000, 0x1020);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.target, 0x2000u);
    v = viewAt(*btb, 0x1010, 0x1020);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
}

TEST(Rbtb, TwoBranchesShareOneEntry)
{
    auto btb = makeRbtb(2);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000), false);
    btb->update(branchAt(0x101C, BranchClass::kUncondDirect, 0x3000), false);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind, StepView::Kind::kBranch);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x101C).kind, StepView::Kind::kBranch);
    OccupancySample s = btb->sampleOccupancy();
    EXPECT_EQ(s.l1_entries, 1u);
    EXPECT_DOUBLE_EQ(s.l1_slot_occupancy, 2.0);
}

TEST(Rbtb, SlotContentionDisplaces)
{
    auto btb = makeRbtb(1);
    btb->update(branchAt(0x1004, BranchClass::kUncondDirect, 0x2000), false);
    btb->update(branchAt(0x1008, BranchClass::kUncondDirect, 0x3000), false);
    // Single slot: 0x1004 was displaced (BTB-hit slot-miss, Section 3.5).
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind,
              StepView::Kind::kSequential);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1008).kind, StepView::Kind::kBranch);
    EXPECT_EQ(btb->counters.slot_displacements, 1u);
}

TEST(Rbtb, SlotLruDisplacement)
{
    auto btb = makeRbtb(2);
    btb->update(branchAt(0x1004, BranchClass::kUncondDirect, 0x2000), false);
    btb->update(branchAt(0x1008, BranchClass::kUncondDirect, 0x3000), false);
    // Refresh 0x1004 so 0x1008 is the LRU slot.
    btb->update(branchAt(0x1004, BranchClass::kUncondDirect, 0x2000), false);
    btb->update(branchAt(0x100C, BranchClass::kUncondDirect, 0x4000), false);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind, StepView::Kind::kBranch);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1008).kind,
              StepView::Kind::kSequential);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x100C).kind, StepView::Kind::kBranch);
}

TEST(Rbtb, NeverChainsTaken)
{
    auto btb = makeRbtb(2);
    btb->update(branchAt(0x1000, BranchClass::kUncondDirect, 0x2000), false);
    PredictionBundle b;
    btb->beginAccess(0x1000, b);
    b.probe(0x1000);
    EXPECT_FALSE(b.chain(*btb, 0x1000, 0x2000));
}

TEST(Rbtb, DualRegionExtendsWindowOnL1Hit)
{
    auto btb = makeRbtb(2, 64, true);
    // Populate both sequential regions so both hit L1.
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000), false);
    btb->update(branchAt(0x1044, BranchClass::kCondDirect, 0x3000), false);
    auto views = walk(*btb, 0x1000, 64);
    // Window now spans both regions: 32 instructions.
    EXPECT_EQ(views.size(), 32u);
    // The second region's branch is visible in the same access.
    StepView v = viewAt(*btb, 0x1000, 0x1044);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.target, 0x3000u);
}

TEST(Rbtb, DualRegionRequiresSecondL1Hit)
{
    auto btb = makeRbtb(2, 64, true);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000), false);
    // Second region has no entry: window stays one region.
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 16u);
}

TEST(Rbtb, SingleRegionWithoutDualEvenIfBothPresent)
{
    auto btb = makeRbtb(2, 64, false);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000), false);
    btb->update(branchAt(0x1044, BranchClass::kCondDirect, 0x3000), false);
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 16u);
}

TEST(Rbtb, LargeRegionCoversMoreInstructions)
{
    auto btb = makeRbtb(4, 128);
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 32u); // 128B / 4B
}

TEST(Rbtb, RedundancyIsAlwaysOne)
{
    auto btb = makeRbtb(2);
    for (Addr a = 0; a < 64; ++a)
        btb->update(branchAt(0x1000 + a * 64, BranchClass::kUncondDirect,
                             0x2000),
                    false);
    OccupancySample s = btb->sampleOccupancy();
    EXPECT_DOUBLE_EQ(s.l1_redundancy, 1.0);
}
