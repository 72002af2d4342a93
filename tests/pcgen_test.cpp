/** @file Tests for the PC-generation stage. */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "bpred/bpred_unit.h"
#include "core/btb_org.h"
#include "frontend/pcgen.h"
#include "trace_util.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

/** A simple loop: 7 instructions then an unconditional jump back. */
std::vector<Instruction>
jumpLoop(Addr base = 0x1000)
{
    auto v = straight(base, 7);
    v.push_back(branchAt(base + 7 * kInstBytes, BranchClass::kUncondDirect,
                         base));
    return v;
}

struct Fixture
{
    std::unique_ptr<BtbOrg> btb;
    BPredUnit bpred;
    Ftq ftq{64};

    explicit Fixture(BtbConfig cfg = BtbConfig::ibtb(16))
        : btb(makeBtb(cfg))
    {}
};

} // namespace

TEST(PcGen, FirstAccessSuppliesSequentialWindow)
{
    Fixture f;
    VectorTrace trace(jumpLoop());
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);
    pcgen.runCycle(1);
    EXPECT_EQ(pcgen.stats.accesses, 1u);
    // Cold BTB: the unconditional at the end is untracked -> misfetch.
    EXPECT_EQ(pcgen.stats.misfetches, 1u);
    EXPECT_EQ(pcgen.stats.fetch_pcs, 8u);
    EXPECT_TRUE(pcgen.waitingResteer());
}

TEST(PcGen, StallsUntilResteerResolved)
{
    Fixture f;
    VectorTrace trace(jumpLoop());
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);
    pcgen.runCycle(1);
    const auto accesses = pcgen.stats.accesses;
    pcgen.runCycle(2);
    pcgen.runCycle(3);
    EXPECT_EQ(pcgen.stats.accesses, accesses); // stalled
    pcgen.resteerResolved(3);
    pcgen.runCycle(4);
    EXPECT_EQ(pcgen.stats.accesses, accesses + 1);
}

TEST(PcGen, WarmBtbSuppliesAcrossIterations)
{
    Fixture f;
    VectorTrace trace(jumpLoop());
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);
    // Warm up: first iteration misfetches, then the jump is tracked.
    pcgen.runCycle(1);
    pcgen.resteerResolved(1);
    for (Cycle c = 2; c < 10; ++c)
        pcgen.runCycle(c);
    EXPECT_EQ(pcgen.stats.misfetches, 1u);
    // Subsequent bundles are exactly the 8-instruction loop body.
    EXPECT_GT(pcgen.stats.accesses, 3u);
    const double pcs_per_access =
        static_cast<double>(pcgen.stats.fetch_pcs) / pcgen.stats.accesses;
    EXPECT_NEAR(pcs_per_access, 8.0, 0.5);
}

TEST(PcGen, L1HitTakenBranchHasNoBubble)
{
    Fixture f;
    VectorTrace trace(jumpLoop());
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);
    pcgen.runCycle(1);
    pcgen.resteerResolved(1);
    for (Cycle c = 2; c < 12; ++c)
        pcgen.runCycle(c);
    // 0-cycle turnaround: one access per cycle once warm.
    EXPECT_EQ(pcgen.stats.taken_bubbles, 0u);
    EXPECT_EQ(pcgen.stats.accesses, 11u);
}

TEST(PcGen, L2HitChargesTakenPenalty)
{
    BtbConfig cfg = BtbConfig::ibtb(16);
    cfg.l1 = {1, 1}; // 1-entry L1: the loop jump keeps colliding with
                     // nothing, but a second branch will displace it.
    Fixture f(cfg);
    // Two alternating blocks ending in jumps: each jump displaces the
    // other from the 1-entry L1, forcing L2 hits.
    std::vector<Instruction> v = straight(0x1000, 3);
    v.push_back(branchAt(0x100C, BranchClass::kUncondDirect, 0x2000));
    auto w = straight(0x2000, 3);
    v.insert(v.end(), w.begin(), w.end());
    v.push_back(branchAt(0x200C, BranchClass::kUncondDirect, 0x1000));
    VectorTrace trace(v);
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);

    Cycle c = 1;
    for (; c < 6; ++c) {
        pcgen.runCycle(c);
        pcgen.resteerResolved(c); // resolve cold misfetches immediately
    }
    const auto bubbles_before = pcgen.stats.taken_bubbles;
    for (; c < 30; ++c)
        pcgen.runCycle(c);
    // Warm: every taken jump hits L2 (displaced from the tiny L1).
    EXPECT_GT(pcgen.stats.taken_bubbles, bubbles_before);
    EXPECT_GT(pcgen.stats.taken_l2_hits, 0u);
}

TEST(PcGen, ConditionalMispredictFlagsExecResteer)
{
    Fixture f;
    // A conditional that alternates taken/not-taken with a pattern the
    // fresh perceptron cannot have learned at first: first execution is
    // 'taken' while the BTB is cold -> exec-resolved mispredict.
    std::vector<Instruction> v = straight(0x1000, 2);
    v.push_back(branchAt(0x1008, BranchClass::kCondDirect, 0x1000, true));
    VectorTrace trace(v);
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);
    pcgen.runCycle(1);
    EXPECT_EQ(pcgen.stats.mispredicts, 1u);
    EXPECT_EQ(pcgen.stats.misfetches, 0u);
    EXPECT_TRUE(pcgen.waitingResteer());
}

TEST(PcGen, ReturnUsesRasAfterBtbWarm)
{
    Fixture f;
    // call @0x1008 -> 0x4000; callee: 1 alu + ret -> 0x100C; then jump
    // back to 0x1000.
    std::vector<Instruction> v = straight(0x1000, 2);
    v.push_back(branchAt(0x1008, BranchClass::kDirectCall, 0x4000));
    v.push_back(seqAt(0x4000));
    v.push_back(branchAt(0x4004, BranchClass::kReturn, 0x100C));
    v.push_back(branchAt(0x100C, BranchClass::kUncondDirect, 0x1000));
    VectorTrace trace(v);
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);

    Cycle c = 1;
    for (; c < 8; ++c) {
        pcgen.runCycle(c);
        pcgen.resteerResolved(c);
    }
    const auto mispredicts = pcgen.stats.mispredicts;
    const auto misfetches = pcgen.stats.misfetches;
    for (; c < 30; ++c)
        pcgen.runCycle(c);
    // Warm loop: call, return and jump all predicted correctly.
    EXPECT_EQ(pcgen.stats.mispredicts, mispredicts);
    EXPECT_EQ(pcgen.stats.misfetches, misfetches);
}

TEST(PcGen, FtqBackpressureStopsSupply)
{
    Fixture f;
    f.ftq = Ftq(2); // tiny FTQ
    VectorTrace trace(jumpLoop());
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);
    pcgen.runCycle(1);
    pcgen.resteerResolved(1);
    for (Cycle c = 2; c < 20; ++c)
        pcgen.runCycle(c); // nothing drains the FTQ
    EXPECT_TRUE(f.ftq.full());
    const auto pcs = pcgen.stats.fetch_pcs;
    pcgen.runCycle(20);
    EXPECT_EQ(pcgen.stats.fetch_pcs, pcs); // fully backpressured
}

TEST(PcGen, CountsTakenHitsByLevel)
{
    Fixture f;
    VectorTrace trace(jumpLoop());
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);
    pcgen.runCycle(1);
    pcgen.resteerResolved(1);
    for (Cycle c = 2; c < 10; ++c)
        pcgen.runCycle(c);
    EXPECT_GT(pcgen.stats.taken_l1_hits, 0u);
    EXPECT_EQ(pcgen.stats.taken_l2_hits, 0u);
}

TEST(PcGen, MbBtbPulledNotTakenEndsAccessSequentially)
{
    Fixture f(BtbConfig::mbbtb(2, PullPolicy::kAllBr));
    // Pre-train: a conditional at 0x1004, taken at allocation, pulls its
    // target block 0x2000 into the entry for 0x1000.
    f.btb->update(branchAt(0xFFC, BranchClass::kCondDirect, 0x3000, false),
                  true); // resteer to normalize the cursor at 0x1000
    f.btb->update(branchAt(0x1004, BranchClass::kCondDirect, 0x2000), false);
    ASSERT_EQ(f.btb->counters.pulls, 1u);
    // Bias the direction predictor toward not-taken for this branch.
    for (int i = 0; i < 16; ++i)
        (void)f.bpred.predictDirection(0x1004, false);

    // The actual path falls through the pulled conditional. The
    // prediction (not taken) is correct — but the entry holds no
    // fall-through past the pulled slot (end_on_not_taken), so the
    // access must end and restart sequentially at 0x1008 with no
    // penalty of any kind.
    std::vector<Instruction> v;
    v.push_back(seqAt(0x1000));
    v.push_back(branchAt(0x1004, BranchClass::kCondDirect, 0x2000, false));
    auto w = straight(0x1008, 6);
    v.insert(v.end(), w.begin(), w.end());
    v.push_back(branchAt(0x1020, BranchClass::kUncondDirect, 0x1000));
    VectorTrace trace(v);
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);

    pcgen.runCycle(1);
    EXPECT_EQ(pcgen.stats.accesses, 1u);
    EXPECT_EQ(pcgen.stats.fetch_pcs, 2u); // 0x1000 + the conditional
    EXPECT_EQ(pcgen.stats.mispredicts, 0u);
    EXPECT_EQ(pcgen.stats.misfetches, 0u);
    EXPECT_EQ(pcgen.stats.taken_bubbles, 0u);
    EXPECT_FALSE(pcgen.waitingResteer());

    // Sequential restart: the next cycle opens a fresh access at the
    // fall-through without waiting on any resteer.
    pcgen.runCycle(2);
    EXPECT_EQ(pcgen.stats.accesses, 2u);
    EXPECT_GT(pcgen.stats.fetch_pcs, 2u);
}

TEST(PcGen, MbBtbChainSeamChargesNoBubble)
{
    Fixture f(BtbConfig::mbbtb(2, PullPolicy::kUncondDir));
    std::vector<Instruction> v = straight(0x1000, 3);
    v.push_back(branchAt(0x100C, BranchClass::kUncondDirect, 0x2000));
    auto w = straight(0x2000, 3);
    v.insert(v.end(), w.begin(), w.end());
    v.push_back(branchAt(0x200C, BranchClass::kUncondDirect, 0x1000));
    VectorTrace trace(v);
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);

    Cycle c = 1;
    for (; c < 8; ++c) {
        pcgen.runCycle(c);
        pcgen.resteerResolved(c);
    }
    const auto chained0 = f.btb->counters.chained_blocks;
    const auto bubbles0 = pcgen.stats.taken_bubbles;
    for (; c < 24; ++c)
        pcgen.runCycle(c);
    // Warm: every access crosses the A->B seam through the recorded
    // continuation segment — the chain is followed in-bundle (counted by
    // the organization's stat) and, unlike a bundle-ending taken branch,
    // charges no taken-branch bubble.
    EXPECT_GT(f.btb->counters.chained_blocks, chained0);
    EXPECT_EQ(pcgen.stats.taken_bubbles, bubbles0);
}

TEST(PcGen, MbBtbChainSuppliesMultipleBlocksPerAccess)
{
    Fixture f(BtbConfig::mbbtb(2, PullPolicy::kUncondDir));
    // Block A (4 insts, ends in jump) -> block B (4 insts, ends in jump
    // back). The jump at A's end pulls B into A's entry.
    std::vector<Instruction> v = straight(0x1000, 3);
    v.push_back(branchAt(0x100C, BranchClass::kUncondDirect, 0x2000));
    auto w = straight(0x2000, 3);
    v.insert(v.end(), w.begin(), w.end());
    v.push_back(branchAt(0x200C, BranchClass::kUncondDirect, 0x1000));
    VectorTrace trace(v);
    PcGen pcgen(*f.btb, f.bpred, trace, f.ftq);

    Cycle c = 1;
    for (; c < 8; ++c) {
        pcgen.runCycle(c);
        pcgen.resteerResolved(c);
    }
    const auto acc0 = pcgen.stats.accesses;
    const auto pcs0 = pcgen.stats.fetch_pcs;
    for (; c < 24; ++c)
        pcgen.runCycle(c);
    const double per_access =
        static_cast<double>(pcgen.stats.fetch_pcs - pcs0) /
        static_cast<double>(pcgen.stats.accesses - acc0);
    // One access supplies A and the pulled B: ~8 fetch PCs per access,
    // where a plain B-BTB would supply only 4.
    EXPECT_GT(per_access, 6.0);
}
