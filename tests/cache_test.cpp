/** @file Tests for the cache hierarchy model. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "memory/cache.h"

using namespace btbsim;

namespace {

struct Hierarchy
{
    Dram dram{4, 100};
    Cache llc;
    Cache l2;
    Cache l1;

    Hierarchy()
        : llc({"LLC", 64, 8, 35, 16, false}, nullptr, &dram),
          l2({"L2", 32, 8, 15, 16, false}, &llc, nullptr),
          l1({"L1", 8, 4, 3, 8, false}, &l2, nullptr)
    {}
};

} // namespace

TEST(Cache, ColdMissGoesToDram)
{
    Hierarchy h;
    const Cycle done = h.l1.access(0x1000, 10);
    EXPECT_GE(done, 110u); // at least the DRAM latency
    EXPECT_EQ(h.l1.demandMisses(), 1u);
    EXPECT_EQ(h.dram.accesses(), 1u);
}

TEST(Cache, HitLatencyAfterFill)
{
    Hierarchy h;
    const Cycle miss_done = h.l1.access(0x1000, 10);
    const Cycle hit_done = h.l1.access(0x1000, miss_done + 1);
    EXPECT_EQ(hit_done, miss_done + 1 + 3);
    EXPECT_EQ(h.l1.demandMisses(), 1u);
}

TEST(Cache, InclusiveFillAlongPath)
{
    Hierarchy h;
    h.l1.access(0x1000, 0);
    EXPECT_TRUE(h.l1.contains(0x1000));
    EXPECT_TRUE(h.l2.contains(0x1000));
    EXPECT_TRUE(h.llc.contains(0x1000));
}

TEST(Cache, L2HitIsCheaperThanDram)
{
    Hierarchy h;
    h.l2.access(0x2000, 0); // warm L2 (and LLC)
    const Cycle done = h.l1.access(0x2000, 1000);
    EXPECT_EQ(done, 1000u + 15u); // L2 cumulative load-to-use
}

TEST(Cache, SameLineSharesFill)
{
    Hierarchy h;
    h.l1.access(0x1000, 0);
    // Another address in the same 64B line hits.
    EXPECT_EQ(h.l1.demandMisses(), 1u);
    h.l1.access(0x1030, 500);
    EXPECT_EQ(h.l1.demandMisses(), 1u);
}

TEST(Cache, MshrMergeOnInflightLine)
{
    Hierarchy h;
    const Cycle a = h.l1.access(0x1000, 0);
    const Cycle b = h.l1.access(0x1004, 2); // same line, still in flight
    EXPECT_EQ(a, b);
    EXPECT_EQ(h.l1.counters.mshr_merges, 1u);
    EXPECT_EQ(h.dram.accesses(), 1u);
}

TEST(Cache, MissesTakeTheEarliestFreeMshr)
{
    // Two MSHRs over an LLC: misses that hit the LLC return in 35
    // cycles and DRAM misses in 100, so MSHRs free out of issue order.
    // Each miss must start when the earliest MSHR frees.
    Dram dram(4, 100);
    Cache llc({"LLC", 64, 8, 35, 16, false}, nullptr, &dram);
    Cache l1({"L1", 8, 4, 3, 2, false}, &llc, nullptr);
    const Addr warm_x = 0x50000, warm_y = 0x60040;
    llc.access(warm_x, 0);
    llc.access(warm_y, 0);

    // Distinct lines, one per DRAM channel, no set conflicts.
    EXPECT_EQ(l1.access(0x10000, 1000), 1100u); // MSHRs free: 0, 0
    EXPECT_EQ(l1.access(warm_x, 1001), 1036u);  // 0, 1100
    EXPECT_EQ(l1.counters.mshr_full_stalls, 0u);
    EXPECT_EQ(l1.access(0x20040, 1002), 1136u); // waits for 1036
    EXPECT_EQ(l1.access(0x30080, 1003), 1200u); // waits for 1100
    EXPECT_EQ(l1.access(warm_y, 1004), 1171u);  // waits for 1136
    EXPECT_EQ(l1.access(0x400C0, 1005), 1271u); // waits for 1171
    EXPECT_EQ(l1.counters.mshr_full_stalls, 4u);
    // Both MSHRs are free again by 1271: no stall.
    EXPECT_EQ(l1.access(0x70000, 2000), 2100u);
    EXPECT_EQ(l1.counters.mshr_full_stalls, 4u);
}

TEST(Cache, PrefetchWarmsWithoutDemandCount)
{
    Hierarchy h;
    h.l1.prefetch(0x3000, 0);
    EXPECT_EQ(h.l1.demandAccesses(), 0u);
    EXPECT_TRUE(h.l1.contains(0x3000));
    const Cycle done = h.l1.access(0x3000, 1000);
    EXPECT_EQ(done, 1003u);
}

TEST(Cache, NextLinePrefetchOption)
{
    Dram dram(4, 100);
    Cache llc({"LLC", 64, 8, 35, 16, false}, nullptr, &dram);
    Cache l2({"L2", 32, 8, 15, 16, true}, &llc, nullptr);
    l2.access(0x1000, 0);
    EXPECT_TRUE(l2.contains(0x1040)); // next line pulled in
}

TEST(Cache, EvictionOnSetConflict)
{
    // L1: 8 sets, 4 ways. Fill 5 lines in the same set.
    Hierarchy h;
    for (int i = 0; i < 5; ++i)
        h.l1.access(0x10000 + static_cast<Addr>(i) * 8 * 64, 1000 * i);
    EXPECT_FALSE(h.l1.contains(0x10000)); // LRU victim gone from L1
    EXPECT_TRUE(h.l2.contains(0x10000));  // but still in L2
}

TEST(Dram, ChannelOccupancySerializes)
{
    Dram dram(1, 100, 8);
    const Cycle a = dram.access(0x0, 0);
    const Cycle b = dram.access(0x0, 0); // same channel, queued
    EXPECT_EQ(a, 100u);
    EXPECT_EQ(b, 108u);
}

TEST(Dram, ChannelsInterleaveByLine)
{
    Dram dram(4, 100, 8);
    const Cycle a = dram.access(0x000, 0);
    const Cycle b = dram.access(0x040, 0); // different channel
    EXPECT_EQ(a, 100u);
    EXPECT_EQ(b, 100u);
}

TEST(Cache, RejectsImpossibleConfigsByName)
{
    // Each case breaks one field of a valid L1D; the error must name it.
    struct Case
    {
        const char *field;
        void (*mutate)(CacheConfig &);
    };
    const Case cases[] = {
        {"L1D.sets", [](CacheConfig &c) { c.sets = 0; }},
        {"L1D.ways", [](CacheConfig &c) { c.ways = 0; }},
        {"L1D.ways", [](CacheConfig &c) { c.ways = 33; }},
        {"L1D.mshrs", [](CacheConfig &c) { c.mshrs = 0; }},
    };
    Dram dram;
    for (const Case &k : cases) {
        CacheConfig cfg{"L1D", 64, 12, 5, 16, false};
        k.mutate(cfg);
        try {
            Cache c(cfg, nullptr, &dram);
            ADD_FAILURE() << k.field << ": accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
                << e.what();
        }
    }
    // The edges of the valid ranges construct.
    EXPECT_NO_THROW(Cache({"L1D", 1, 32, 5, 1, false}, nullptr, &dram));
}
