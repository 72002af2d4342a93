/** @file Tests for the Block BTB organization, including entry splitting. */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "core/bbtb.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

std::unique_ptr<BtbOrg>
makeBbtb(unsigned slots, bool split = false, unsigned reach = 16)
{
    return makeBtb(BtbConfig::bbtb(slots, split, reach));
}

/** Train a block starting at @p start whose branch at @p br_pc jumps to
 *  @p target: establishes the update-side cursor via a preceding redirect. */
void
trainBlock(BtbOrg &btb, Addr start, Addr br_pc, BranchClass cls, Addr target)
{
    // A jump into `start` sets the cursor, then the branch trains.
    btb.update(branchAt(start - 0x400, BranchClass::kUncondDirect, start),
               false);
    btb.update(branchAt(br_pc, cls, target), false);
}

} // namespace

TEST(Bbtb, MissWindowIsReach)
{
    auto btb = makeBbtb(2, false, 16);
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 16u);
}

TEST(Bbtb, EntryKeyedByExactBlockStart)
{
    auto btb = makeBbtb(2);
    trainBlock(*btb, 0x1000, 0x1010, BranchClass::kCondDirect, 0x3000);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1010).kind, StepView::Kind::kBranch);
    // An access at a different start address does not see the entry.
    EXPECT_EQ(viewAt(*btb, 0x1004, 0x1010).kind,
              StepView::Kind::kSequential);
}

TEST(Bbtb, AlwaysTakenClassTruncatesBlock)
{
    auto btb = makeBbtb(2);
    trainBlock(*btb, 0x1000, 0x1008, BranchClass::kUncondDirect, 0x3000);
    // The block ends right after the unconditional jump.
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 3u); // 0x1000, 0x1004, 0x1008
}

TEST(Bbtb, SometimesTakenCondDoesNotTruncate)
{
    auto btb = makeBbtb(2);
    trainBlock(*btb, 0x1000, 0x1008, BranchClass::kCondDirect, 0x3000);
    // Baseline Section 2.3: the block falls through to the reach limit so
    // the fall-through address stays computable in parallel.
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 16u);
}

TEST(Bbtb, FallThroughBlockChainsAtReach)
{
    auto btb = makeBbtb(2, false, 16);
    // Cursor at 0x1000; a taken branch 20 instructions later belongs to
    // the *second* sequential block (0x1040).
    trainBlock(*btb, 0x1000, 0x1000 + 20 * kInstBytes,
               BranchClass::kUncondDirect, 0x3000);
    EXPECT_EQ(viewAt(*btb, 0x1040, 0x1050).kind, StepView::Kind::kBranch);
    // And nothing was allocated at 0x1000 (no taken branch inside it).
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind,
              StepView::Kind::kSequential);
}

TEST(Bbtb, DisplacementWithoutSplit)
{
    auto btb = makeBbtb(1, false);
    trainBlock(*btb, 0x1000, 0x1004, BranchClass::kCondDirect, 0x3000);
    // Second taken branch in the same block displaces the first.
    btb->update(branchAt(0x1000 - 0x400, BranchClass::kUncondDirect, 0x1000),
                false);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x4000), false);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind,
              StepView::Kind::kSequential);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1008).kind, StepView::Kind::kBranch);
    EXPECT_EQ(btb->counters.slot_displacements, 1u);
}

TEST(Bbtb, SlotLruDisplacement)
{
    auto btb = makeBbtb(2, false);
    trainBlock(*btb, 0x1000, 0x1008, BranchClass::kCondDirect, 0x3000);
    trainBlock(*btb, 0x1000, 0x1010, BranchClass::kCondDirect, 0x4000);
    // Refresh the older slot, 0x1008, so 0x1010 is the LRU slot.
    trainBlock(*btb, 0x1000, 0x1008, BranchClass::kCondDirect, 0x3000);
    trainBlock(*btb, 0x1000, 0x1018, BranchClass::kCondDirect, 0x5000);
    EXPECT_EQ(btb->counters.slot_displacements, 1u);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1008).kind, StepView::Kind::kBranch);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1010).kind,
              StepView::Kind::kSequential);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1018).kind, StepView::Kind::kBranch);
}

TEST(Bbtb, SplitPreservesBothBranches)
{
    auto btb = makeBbtb(1, true);
    trainBlock(*btb, 0x1000, 0x1004, BranchClass::kCondDirect, 0x3000);
    btb->update(branchAt(0x1000 - 0x400, BranchClass::kUncondDirect, 0x1000),
                false);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x4000), false);
    EXPECT_EQ(btb->counters.splits, 1u);
    // Original entry keeps the first branch and now ends after it.
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind, StepView::Kind::kBranch);
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 2u); // block [0x1000, 0x1008)
    // The spilled branch lives in the fall-through entry at 0x1008.
    StepView v = viewAt(*btb, 0x1008, 0x1008);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.target, 0x4000u);
}

TEST(Bbtb, SplitKeepsSlotsSortedByOffset)
{
    auto btb = makeBbtb(2, true);
    trainBlock(*btb, 0x1000, 0x1010, BranchClass::kCondDirect, 0x3000);
    btb->update(branchAt(0x1000 - 0x400, BranchClass::kUncondDirect, 0x1000),
                false);
    btb->update(branchAt(0x1020, BranchClass::kCondDirect, 0x4000), false);
    // Insert an *earlier* branch: the staged set is {0x1004, 0x1010,
    // 0x1020}; the entry keeps the first two, 0x1020 spills.
    btb->update(branchAt(0x1000 - 0x400, BranchClass::kUncondDirect, 0x1000),
                false);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x5000), false);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind, StepView::Kind::kBranch);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1010).kind, StepView::Kind::kBranch);
    // Entry now ends after 0x1010.
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 5u);
    // Spill landed at the split point 0x1014.
    EXPECT_EQ(viewAt(*btb, 0x1014, 0x1020).kind, StepView::Kind::kBranch);
}

TEST(Bbtb, RedundancyFromOverlappingBlocks)
{
    auto btb = makeBbtb(2);
    // Two blocks overlap: one starting at 0x1000, one at 0x1008, both
    // containing the branch at 0x1010 (Fig. 2).
    trainBlock(*btb, 0x1000, 0x1010, BranchClass::kCondDirect, 0x3000);
    trainBlock(*btb, 0x1008, 0x1010, BranchClass::kCondDirect, 0x3000);
    OccupancySample s = btb->sampleOccupancy();
    // Two overlapping block entries plus the two redirect-branch blocks.
    EXPECT_EQ(s.l1_entries, 4u);
    // 0x1010 is tracked twice; the two redirect jumps once each.
    EXPECT_NEAR(s.l1_redundancy, 4.0 / 3.0, 1e-9);
}

TEST(Bbtb, MispredictedTakenCondOpensBlockAtFallThrough)
{
    auto btb = makeBbtb(2);
    trainBlock(*btb, 0x1000, 0x1004, BranchClass::kCondDirect, 0x3000);
    // The branch is later not taken and the frontend resteers: the next
    // dynamic block begins at the fall-through.
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x3000, false),
                true);
    btb->update(branchAt(0x100C, BranchClass::kUncondDirect, 0x4000), false);
    StepView v = viewAt(*btb, 0x1008, 0x100C);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.target, 0x4000u);
}

TEST(Bbtb, LargerReachCoversMore)
{
    auto btb = makeBbtb(1, true, 32);
    auto views = walk(*btb, 0x1000, 64);
    EXPECT_EQ(views.size(), 32u);
}

/** Slot-count sweep: capacity respected, split only when enabled. */
class BbtbSlotsTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(BbtbSlotsTest, CapacityRespected)
{
    const unsigned slots = GetParam();
    auto btb = makeBbtb(slots, false);
    btb->update(branchAt(0x400, BranchClass::kUncondDirect, 0x1000), false);
    for (unsigned i = 0; i < slots + 3; ++i)
        btb->update(
            branchAt(0x1000 + i * kInstBytes, BranchClass::kCondDirect,
                     0x3000),
            false);
    OccupancySample s = btb->sampleOccupancy();
    EXPECT_LE(s.l1_slot_occupancy, static_cast<double>(slots));
    EXPECT_EQ(btb->counters.splits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Slots, BbtbSlotsTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 16u));
