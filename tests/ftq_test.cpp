/** @file Tests for the Fetch Target Queue. */

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.h"
#include "frontend/ftq.h"

using namespace btbsim;

namespace {

Instruction
at(Addr pc)
{
    Instruction in;
    in.pc = pc;
    return in;
}

} // namespace

TEST(Ftq, SameLineSharesEntry)
{
    Ftq q(4);
    EXPECT_TRUE(q.push(at(0x1000), 1, 1, false, true));
    EXPECT_TRUE(q.push(at(0x1004), 2, 1, false, false));
    EXPECT_TRUE(q.push(at(0x103C), 3, 1, false, false));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().end_seq, 3u); // Seqs 1..3.
}

TEST(Ftq, LineCrossOpensEntry)
{
    Ftq q(4);
    q.push(at(0x103C), 1, 1, false, true);
    q.push(at(0x1040), 2, 1, false, false);
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q.entry(0).end_seq, 1u);
    EXPECT_EQ(q.entry(1).end_seq, 2u);
}

TEST(Ftq, ForcedNewEntryAfterRedirect)
{
    Ftq q(4);
    q.push(at(0x1000), 1, 1, false, true);
    // Taken-branch target in the same line still opens a fresh entry.
    q.push(at(0x1020), 2, 1, false, true);
    EXPECT_EQ(q.size(), 2u);
}

TEST(Ftq, CapacityEnforced)
{
    Ftq q(2);
    EXPECT_TRUE(q.push(at(0x1000), 1, 1, false, true));
    EXPECT_TRUE(q.push(at(0x2000), 2, 1, false, true));
    EXPECT_FALSE(q.push(at(0x3000), 3, 1, false, true));
    EXPECT_TRUE(q.full());
    // But appending to the open tail entry still works.
    EXPECT_TRUE(q.canAccept(0x2004, false));
    EXPECT_TRUE(q.push(at(0x2004), 3, 1, false, false));
    EXPECT_EQ(q.entry(1).end_seq, 3u); // Seqs 2..3.
}

TEST(Ftq, BypassSetsImmediateIssue)
{
    Ftq q(4);
    q.push(at(0x1000), 1, 5, true, true);
    EXPECT_EQ(q.front().min_issue_cycle, 5u);
    q.push(at(0x2000), 2, 5, false, true);
    EXPECT_EQ(q.entry(1).min_issue_cycle, 6u);
}

TEST(Ftq, NoAppendToIssuedEntry)
{
    Ftq q(4);
    q.push(at(0x1000), 1, 1, false, true);
    q.front().issued = true;
    q.push(at(0x1004), 2, 2, false, false);
    EXPECT_EQ(q.size(), 2u); // had to open a new entry
}

TEST(Ftq, PopAndClear)
{
    Ftq q(4);
    q.push(at(0x1000), 1, 1, false, true);
    q.push(at(0x2000), 2, 1, false, true);
    q.popFront();
    EXPECT_EQ(q.size(), 1u);
    q.clear();
    EXPECT_TRUE(q.empty());
    // A cleared queue accepts a stream restarting at any seq.
    EXPECT_TRUE(q.push(at(0x3000), 1, 2, false, true));
    EXPECT_EQ(q.inst(1).in.pc, 0x3000u);
}

TEST(Ftq, PushBuildsAFreshSlot)
{
    // Slots are reused once released: a push must not inherit the
    // previous occupant's resteer or decode cycle.
    Ftq q(64);
    for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
        DynInst *d = q.push(at(0x1000 + 4 * seq), seq, 1, false, false);
        ASSERT_NE(d, nullptr);
        ASSERT_EQ(d, &q.inst(seq));
        ASSERT_EQ(d->seq, seq);
        ASSERT_EQ(d->in.pc, 0x1000 + 4 * seq);
        ASSERT_EQ(d->resteer, Resteer::kNone);
        ASSERT_EQ(d->decode_cycle, 0u);
        d->resteer = Resteer::kExec;
        d->decode_cycle = seq;
        q.release(seq);
    }
}

TEST(Ftq, StoreHoldsUnboundedEntry)
{
    // A `rep` stream repeats one IP: a single entry may hold far more
    // instructions than a line has slots, and the store grows to fit.
    Ftq q(2);
    constexpr std::uint64_t kReps = 3000;
    for (std::uint64_t s = 1; s <= kReps; ++s)
        ASSERT_TRUE(q.push(at(0x1000), s, 1, false, s == 1));
    q.push(at(0x1040), kReps + 1, 1, false, false);
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q.entry(0).end_seq, kReps);
    EXPECT_EQ(q.entry(1).end_seq, kReps + 1);
    for (std::uint64_t s = 1; s <= kReps + 1; ++s)
        ASSERT_EQ(q.inst(s).seq, s);
    EXPECT_EQ(q.inst(kReps + 1).in.pc, 0x1040u);
}

TEST(Ftq, ReleaseKeepsYoungerInstructions)
{
    Ftq q(64);
    std::uint64_t seq = 0;
    for (; seq < 200; ++seq)
        q.push(at(0x1000 + 4 * seq), seq + 1, 1, false, false);
    q.release(150);
    // Growing past the first ring size must keep seqs 151.. intact.
    for (; seq < 600; ++seq)
        q.push(at(0x1000 + 4 * seq), seq + 1, 1, false, false);
    for (std::uint64_t s = 151; s <= 600; ++s)
        ASSERT_EQ(q.inst(s).in.pc, 0x1000 + 4 * (s - 1));
}

TEST(Ftq, RingWrapsWithNonPowerOfTwoCapacity)
{
    // 24 entries live in a 32-slot ring; drive the head around it many
    // times against a plain model of the queue.
    Ftq q(24);
    std::deque<std::uint64_t> model; // end_seq of each entry, front first.
    std::size_t issued = 0;          // Issued entries form a prefix.
    std::uint64_t seq = 0;
    Rng rng(24);
    for (int round = 0; round < 300; ++round) {
        // Fill to capacity: one line per entry.
        while (!q.full()) {
            ++seq;
            ASSERT_TRUE(q.push(at(0x1000 + 64 * seq), seq, 1, false, false));
            model.push_back(seq);
        }
        ASSERT_EQ(q.size(), 24u);
        EXPECT_FALSE(q.push(at(0x1000 + 64 * (seq + 1)), seq + 1, 1,
                            false, false));

        // Issue a few more entries in order, then pop some.
        const std::size_t n_issue = rng.nextBounded(q.size() - issued + 1);
        for (std::size_t i = 0; i < n_issue; ++i) {
            ASSERT_EQ(q.firstUnissued(), issued);
            q.entry(issued++).issued = true;
            q.noteIssued();
        }
        const std::size_t n_pop = 1 + rng.nextBounded(q.size());
        for (std::size_t i = 0; i < n_pop; ++i) {
            q.popFront();
            model.pop_front();
            if (issued > 0)
                --issued;
        }

        ASSERT_EQ(q.size(), model.size());
        ASSERT_EQ(q.firstUnissued(), issued);
        EXPECT_FALSE(q.full());
        for (std::size_t i = 0; i < model.size(); ++i) {
            ASSERT_EQ(q.entry(i).end_seq, model[i]) << "round " << round;
            ASSERT_EQ(q.entry(i).issued, i < issued) << "round " << round;
        }
        if (!model.empty()) {
            ASSERT_EQ(q.front().end_seq, model.front());
        }
    }
}
