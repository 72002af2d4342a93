/** @file Tests for the heterogeneous BTB hierarchy (Section 3.6.2). */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "core/hetero.h"
#include "sim/runner.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

std::unique_ptr<BtbOrg>
makeHetero(unsigned slots = 1, bool split = true)
{
    return makeBtb(BtbConfig::hetero(slots, split));
}

void
redirectTo(BtbOrg &btb, Addr start)
{
    btb.update(branchAt(start - 0x400, BranchClass::kReturn, start), false);
}

} // namespace

TEST(Hetero, FactoryProducesHetero)
{
    const BtbConfig cfg = BtbConfig::hetero(1);
    EXPECT_EQ(cfg.kind, BtbKind::kHetero);
    EXPECT_EQ(cfg.name(), "Hetero-BTB 1BS Splt");
    EXPECT_NE(makeBtb(cfg), nullptr);
}

TEST(Hetero, L1HitBehavesLikeBlockBtb)
{
    auto btb = makeHetero(2);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kUncondDirect, 0x2000), false);
    StepView v = viewAt(*btb, 0x1000, 0x1008);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.level, 1);
    EXPECT_EQ(v.target, 0x2000u);
    // Block truncated at the unconditional.
    EXPECT_EQ(walk(*btb, 0x1000, 64).size(), 3u);
}

TEST(Hetero, L2RegionBacksL1AfterEviction)
{
    BtbConfig cfg = BtbConfig::hetero(1, true);
    cfg.l1 = {1, 1}; // one L1 block entry: any second block evicts.
    auto btb = makeBtb(cfg);

    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kUncondDirect, 0x2000), false);
    // A different block displaces the 0x1000 entry from the tiny L1.
    btb->update(branchAt(0x2008, BranchClass::kUncondDirect, 0x3000), false);

    // The branch is re-synthesized from the region-organized L2: hit at
    // level 2 (charging the taken-branch penalty), then level 1.
    StepView v = viewAt(*btb, 0x1000, 0x1008);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.level, 2);
    EXPECT_EQ(v.target, 0x2000u);
    EXPECT_GT(btb->counters.l2_synthesized_fills, 0u);
}

TEST(Hetero, SynthesisSpansRegions)
{
    BtbConfig cfg = BtbConfig::hetero(2, true);
    cfg.l1 = {1, 1};
    auto btb = makeBtb(cfg);

    // Block starting near a region end with a branch in the next region.
    redirectTo(*btb, 0x1038);
    btb->update(branchAt(0x1044, BranchClass::kUncondDirect, 0x2000), false);
    // Evict the L1 copy.
    btb->update(branchAt(0x2008, BranchClass::kUncondDirect, 0x3000), false);

    StepView v = viewAt(*btb, 0x1038, 0x1044);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.level, 2);
}

TEST(Hetero, L2HoldsEachBranchOnce)
{
    auto btb = makeHetero(1);
    // Two overlapping blocks containing the same branch: the L1 carries
    // the redundancy, the region L2 does not.
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1010, BranchClass::kCondDirect, 0x3000), false);
    redirectTo(*btb, 0x1008);
    btb->update(branchAt(0x1010, BranchClass::kCondDirect, 0x3000), false);
    OccupancySample s = btb->sampleOccupancy();
    EXPECT_DOUBLE_EQ(s.l2_redundancy, 1.0);
    EXPECT_GT(s.l1_redundancy, 1.0);
}

TEST(Hetero, SplitPreservesBranches)
{
    auto btb = makeHetero(1, true);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x3000), false);
    redirectTo(*btb, 0x1000);
    btb->update(branchAt(0x1008, BranchClass::kCondDirect, 0x4000), false);
    EXPECT_EQ(btb->counters.splits, 1u);
    EXPECT_EQ(viewAt(*btb, 0x1000, 0x1004).kind, StepView::Kind::kBranch);
    EXPECT_EQ(viewAt(*btb, 0x1008, 0x1008).kind, StepView::Kind::kBranch);
}

TEST(Hetero, EndToEndRunsAndIsCompetitive)
{
    WorkloadSpec spec;
    spec.name = "hetero-itest";
    spec.params.seed = 0xDEF;
    spec.params.target_static_insts = 48 * 1024;
    spec.params.num_handlers = 8;
    spec.trace_seed = 0x321;

    RunOptions opt;
    opt.warmup = 150'000;
    opt.measure = 250'000;
    opt.threads = 1;

    CpuConfig homo;
    homo.btb = BtbConfig::bbtb(1, true);
    CpuConfig het;
    het.btb = BtbConfig::hetero(1, true);

    const SimStats h = runOne(homo, spec, opt);
    const SimStats x = runOne(het, spec, opt);
    EXPECT_GT(x.ipc, h.ipc * 0.9);
    EXPECT_GT(x.btb_hitrate, 0.6);
}
