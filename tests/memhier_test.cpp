/** @file Tests for the wired Table 1 memory hierarchy. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "memory/memhier.h"

using namespace btbsim;

TEST(MemHier, FetchPathColdThenWarm)
{
    MemHier mem;
    const Cycle cold = mem.fetchLine(0x400000, 100);
    EXPECT_GT(cold, 200u); // TLB walk + DRAM
    const Cycle warm = mem.fetchLine(0x400000, cold + 10);
    EXPECT_EQ(warm, cold + 10 + 3); // L1I load-to-use
}

TEST(MemHier, LoadPathUsesL1dLatency)
{
    MemHier mem;
    mem.load(0x1000, 0x800000, 0); // cold
    Cycle t0 = 10000;
    const Cycle warm = mem.load(0x1000, 0x800000, t0);
    EXPECT_EQ(warm, t0 + 5); // 5-cycle load-to-use
}

TEST(MemHier, InstructionAndDataShareL2)
{
    MemHier mem;
    mem.fetchLine(0x400000, 0); // fills L1I, L2, LLC
    mem.load(0x1000, 0x400800, 100); // warm the DTLB for the page
    // A data load to the fetched line hits the shared L2 (15 cycles),
    // not DRAM.
    Cycle t0 = 10000;
    const Cycle t = mem.load(0x1000, 0x400000, t0);
    EXPECT_EQ(t, t0 + 15);
}

TEST(MemHier, IcacheInterleaveCyclesOverLines)
{
    MemHier mem;
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(mem.icacheInterleave(0x1000 + i * 64), (0x40u + i) % 8);
    // Same line, same interleave regardless of offset.
    EXPECT_EQ(mem.icacheInterleave(0x1000), mem.icacheInterleave(0x103F));
}

TEST(MemHier, StridePrefetcherHidesArrayWalk)
{
    MemHier mem;
    // Walk an array with a fixed 64B stride; after training, accesses hit.
    Cycle now = 0;
    unsigned hits = 0;
    const unsigned n = 64;
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0xA00000 + Addr{i} * 64;
        const Cycle done = mem.load(0x2000, a, now);
        if (done - now <= 5)
            ++hits;
        now += 400; // give prefetches time to land
    }
    EXPECT_GT(hits, n / 2);
}

TEST(MemHier, StoresAllocateLines)
{
    MemHier mem;
    mem.store(0xB00000, 0);
    EXPECT_TRUE(mem.l1d().contains(0xB00000));
}

TEST(MemHier, L2NextLinePrefetchOnInstructionPath)
{
    MemHier mem;
    mem.fetchLine(0xC00000, 0);
    // The L2's next-line prefetcher pulled the following line into L2.
    EXPECT_TRUE(mem.l2().contains(0xC00040));
}

TEST(MemHier, RejectsImpossibleConfigsByName)
{
    struct Case
    {
        const char *field;
        void (*mutate)(MemConfig &);
    };
    const Case cases[] = {
        {"mem.icache_interleaves",
         [](MemConfig &c) { c.icache_interleaves = 0; }},
        {"mem.icache_interleaves",
         [](MemConfig &c) { c.icache_interleaves = 33; }},
        {"L1D.mshrs", [](MemConfig &c) { c.l1d.mshrs = 0; }},
        {"L2.sets", [](MemConfig &c) { c.l2.sets = 0; }},
        {"LLC.ways", [](MemConfig &c) { c.llc.ways = 40; }},
    };
    for (const Case &k : cases) {
        MemConfig cfg;
        k.mutate(cfg);
        try {
            MemHier mem(cfg);
            ADD_FAILURE() << k.field << ": accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
                << e.what();
        }
    }
    MemConfig edge;
    edge.icache_interleaves = 32;
    MemHier mem(edge);
    EXPECT_EQ(mem.icacheInterleave(31 * kLineBytes), 31u);
}
