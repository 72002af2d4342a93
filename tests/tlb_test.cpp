/** @file Tests for the TLB model. */

#include <gtest/gtest.h>

#include "memory/tlb.h"

using namespace btbsim;

TEST(Tlb, ColdMissWalksThenHits)
{
    Tlb l2(128, 12, 8, nullptr, 40); // Table 1: 40-cycle walk
    Tlb tlb(32, 4, 1, &l2);
    const unsigned first = tlb.access(0x400000);
    EXPECT_EQ(first, 1u + 8u + 40u); // L1 + L2 + walk
    const unsigned second = tlb.access(0x400000);
    EXPECT_EQ(second, 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, SamePageSharesTranslation)
{
    Tlb l2(128, 12, 8, nullptr, 40);
    Tlb tlb(32, 4, 1, &l2);
    tlb.access(0x400000);
    EXPECT_EQ(tlb.access(0x400FF8), 1u); // same 4KB page
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, L2TlbCoversL1Evictions)
{
    Tlb l2(128, 12, 8, nullptr, 40);
    Tlb tlb(1, 2, 1, &l2); // tiny 2-entry L1 TLB
    tlb.access(0x1000000);
    tlb.access(0x2000000);
    tlb.access(0x3000000); // evicts 0x1000000 from L1 TLB
    const unsigned lat = tlb.access(0x1000000);
    EXPECT_EQ(lat, 1u + 8u); // L2 TLB hit, no walk
}

TEST(Tlb, SeparateL1TlbsShareL2)
{
    Tlb l2(128, 12, 8, nullptr, 40);
    Tlb itlb(32, 4, 1, &l2), dtlb(32, 4, 1, &l2);
    itlb.access(0x5000000);
    // The data TLB misses its L1 but hits the shared L2 TLB.
    EXPECT_EQ(dtlb.access(0x5000000), 1u + 8u);
}

TEST(Tlb, CounterTracking)
{
    Tlb l2(128, 12, 8, nullptr, 40);
    Tlb tlb(32, 4, 1, &l2);
    tlb.access(0x1000);
    tlb.access(0x1000);
    tlb.access(0x2000000);
    EXPECT_EQ(tlb.accesses(), 3u);
    EXPECT_EQ(tlb.misses(), 2u);
    EXPECT_EQ(l2.misses(), 2u);
}
