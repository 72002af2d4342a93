/**
 * @file
 * Direct tests of the I-BTB's probe-time lookups: the walk looks each
 * branch slot up (recency touch, L2-to-L1 fill) when it probes it and
 * reports the level that lookup hit. Uses deliberately colliding
 * geometries (1 set, 1-2 ways) where several window PCs share an L1 set,
 * so the reported levels are only right if every lookup of the access
 * happens in probe order. Observed through the public API: bundle
 * StepView levels during the walk, peekLevel() afterwards.
 */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "check/checker.h"
#include "core/btb_org.h"

using namespace btbsim;

namespace {

/** I-BTB with a colliding L1: every PC maps to set 0. */
BtbConfig
tinyIbtb(unsigned l1_ways)
{
    BtbConfig c;
    c.kind = BtbKind::kInstruction;
    c.width = 4;
    c.l1 = {1, l1_ways};
    c.l2 = {64, 4};
    return c;
}

/** Train a taken conditional at @p pc (conditionals do not stop the
 *  window fill, unlike always-taken classes). */
void
trainCond(BtbOrg &org, Addr pc)
{
    org.update(test::branchAt(pc, BranchClass::kCondDirect, pc + 64), false);
}

/** Walk one access from @p pc across @p n sequential PCs and return the
 *  slot level seen at each (0 = sequential / end of window). */
std::vector<int>
walkLevels(BtbOrg &org, Addr pc, unsigned n)
{
    std::vector<int> levels;
    PredictionBundle b;
    org.beginAccess(pc, b);
    for (unsigned i = 0; i < n; ++i) {
        StepView v = b.probe(pc + Addr{i} * kInstBytes);
        if (v.kind == StepView::Kind::kEndOfWindow)
            break;
        levels.push_back(v.kind == StepView::Kind::kBranch ? v.level : 0);
    }
    return levels;
}

} // namespace

// With a 1-entry L1, the second trained branch evicts the first, so a
// window touching both must report the first from L2 — and, because the
// probe-time fill of the first evicts the survivor, the second from L2 too.
TEST(IbtbProbeLookup, OneEntryL1CollidingWindow)
{
    auto org = makeBtb(tinyIbtb(/*l1_ways=*/1));
    const Addr a = 0x1000, b = 0x1004;
    trainCond(*org, a);
    trainCond(*org, b); // L1 (1 entry) now holds only b.
    ASSERT_EQ(org->peekLevel(a), 2);
    ASSERT_EQ(org->peekLevel(b), 1);

    EXPECT_EQ(walkLevels(*org, a, 2), (std::vector<int>{2, 2}));

    // The walk looked up a, then b: the last promoted key owns the single
    // entry.
    EXPECT_EQ(org->peekLevel(a), 2);
    EXPECT_EQ(org->peekLevel(b), 1);
}

// A second access over the same window must see the state the first
// access's lookups left behind.
TEST(IbtbProbeLookup, EarlierFillsVisibleToNextAccess)
{
    auto org = makeBtb(tinyIbtb(/*l1_ways=*/1));
    const Addr a = 0x1000, b = 0x1004;
    trainCond(*org, a);
    trainCond(*org, b);

    EXPECT_EQ(walkLevels(*org, a, 2), (std::vector<int>{2, 2}));
    // L1 now holds b; a window starting at a evicts it again mid-access,
    // so b still reports level 2 despite being L1-resident at fill time.
    EXPECT_EQ(walkLevels(*org, a, 2), (std::vector<int>{2, 2}));
    EXPECT_EQ(org->peekLevel(b), 1);
}

// The recency touch of an L1 hit counts: the touched way survives the
// in-access fill, which evicts the other way instead.
TEST(IbtbProbeLookup, TouchOrderingDirectsVictimChoice)
{
    auto org = makeBtb(tinyIbtb(/*l1_ways=*/2));
    const Addr b = 0x1000, d = 0x1004, c = 0x1008;
    trainCond(*org, d);
    trainCond(*org, b);
    trainCond(*org, c); // L1 {b, c} (d evicted, was LRU); b older than c.
    ASSERT_EQ(org->peekLevel(b), 1);
    ASSERT_EQ(org->peekLevel(c), 1);
    ASSERT_EQ(org->peekLevel(d), 2);

    // Window probes b, d, c in order. The hit on b touches it, so d's
    // fill evicts c — which must therefore report level 2.
    EXPECT_EQ(walkLevels(*org, b, 3), (std::vector<int>{1, 2, 2}));

    // Lookups: touch(b), fill(d) evicts c, fill(c) evicts b (oldest).
    EXPECT_EQ(org->peekLevel(b), 2);
    EXPECT_EQ(org->peekLevel(d), 1);
    EXPECT_EQ(org->peekLevel(c), 1);
}

// Only slots the walk actually probes are looked up; an access that ends
// early must leave unprobed slots' entries untouched.
TEST(IbtbProbeLookup, OnlyProbedSlotsLookUp)
{
    auto org = makeBtb(tinyIbtb(/*l1_ways=*/1));
    const Addr a = 0x1000, b = 0x1004;
    trainCond(*org, a);
    trainCond(*org, b); // L1 holds b.

    PredictionBundle bun;
    org->beginAccess(a, bun);
    StepView v = bun.probe(a);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.level, 2);
    // Walk ends at a; slot b was filled but not probed.

    // Only a was looked up: a owns the entry, b fell back to L2.
    EXPECT_EQ(org->peekLevel(a), 1);
    EXPECT_EQ(org->peekLevel(b), 2);
}

// Skp chaining refills at the target after the probed prefix's lookups:
// the chained window's levels must account for the first window's fills.
TEST(IbtbProbeLookup, ChainSeesEarlierLookups)
{
    BtbConfig cfg = tinyIbtb(/*l1_ways=*/1);
    cfg.skip_taken = true;
    auto org = makeBtb(cfg);
    const Addr a = 0x1000, t = 0x2000;
    trainCond(*org, t); // Target-window branch, L1 resident.
    org->update(test::branchAt(a, BranchClass::kUncondDirect, t), false);
    // L1 (1 entry) now holds a; t is L2-only.
    ASSERT_EQ(org->peekLevel(a), 1);
    ASSERT_EQ(org->peekLevel(t), 2);

    PredictionBundle bun;
    org->beginAccess(a, bun);
    StepView v = bun.probe(a);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.level, 1);
    ASSERT_TRUE(v.follow);
    ASSERT_TRUE(bun.chain(*org, a, t));
    // Probing a looked it up (a touch); chainAccess then peeked the target
    // window: t is still L2-supplied because a holds the single entry.
    v = bun.probe(t);
    ASSERT_EQ(v.kind, StepView::Kind::kBranch);
    EXPECT_EQ(v.level, 2);

    // The probed t was filled into L1 and now owns the entry.
    EXPECT_EQ(org->peekLevel(t), 1);
    EXPECT_EQ(org->peekLevel(a), 2);
}

// An entry the L2 already dropped lives on in L1 alone; when an earlier
// slot's fill evicts it mid-access, its own lookup misses and the walk
// reads the PC as sequential. The checker agrees: the miss matches the
// entry's residency just before the lookup.
TEST(IbtbProbeLookup, EntryEvictedEarlierInTheAccessReadsSequential)
{
    BtbConfig cfg = tinyIbtb(/*l1_ways=*/2);
    cfg.l2 = {4, 1}; // 0x1004 and 0x1014 share an L2 set.
    auto org = makeBtb(cfg);
    check::CheckedBtb chk(*org);
    const Addr i = 0x1000, j = 0x1004, m = 0x1014;
    trainCond(chk, i);
    trainCond(chk, j);
    trainCond(chk, m); // L1 {j, m} evicts i; L2 drops j for m.
    ASSERT_EQ(org->peekLevel(i), 2);
    ASSERT_EQ(org->peekLevel(j), 1);

    PredictionBundle b;
    chk.beginAccess(i, b);
    ASSERT_EQ(b.n_slots, 2u); // Both peeked at fill time.
    const StepView vi = b.probe(i);
    ASSERT_EQ(vi.kind, StepView::Kind::kBranch);
    EXPECT_EQ(vi.level, 2);
    // The fill of i evicted j, the older L1 way.
    EXPECT_EQ(b.probe(j).kind, StepView::Kind::kSequential);
    EXPECT_EQ(org->peekLevel(j), 0);
}
