/**
 * @file
 * SoaSetTable unit tests: the SetView handle API, replacement-contract
 * parity with the retired AoS SetAssocTable (a reference model below
 * reproduces its exact semantics), and padding-lane masking in the
 * probe kernel.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/soa_table.h"

namespace btbsim {
namespace {

struct Payload
{
    int value = 0;
};

// ---- SetView basics -------------------------------------------------------

TEST(SoaTableTest, FillThenFind)
{
    SoaSetTable<Payload> tbl(4, 2, 0);
    fillEntry(tbl, 0x10).value = 7;
    Payload *p = touchingFind(tbl, 0x10);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->value, 7);
    EXPECT_EQ(touchingFind(tbl, 0x11), nullptr);
}

TEST(SoaTableTest, FillResetsExistingKey)
{
    SoaSetTable<Payload> tbl(4, 2, 0);
    fillEntry(tbl, 0x10).value = 7;
    // Re-filling the same key reclaims the resident way and hands the
    // payload back reset to Payload{} — no eviction is counted.
    Payload &p = fillEntry(tbl, 0x10);
    EXPECT_EQ(p.value, 0);
    EXPECT_EQ(tbl.evictions(), 0u);
}

TEST(SoaTableTest, LruEviction)
{
    SoaSetTable<Payload> tbl(1, 2, 0);
    fillEntry(tbl, 1).value = 1;
    fillEntry(tbl, 2).value = 2;
    // Touch key 1 so key 2 becomes the LRU victim.
    ASSERT_NE(touchingFind(tbl, 1), nullptr);
    fillEntry(tbl, 3).value = 3;
    EXPECT_EQ(tbl.evictions(), 1u);
    EXPECT_NE(touchingFind(tbl, 1), nullptr);
    EXPECT_EQ(touchingFind(tbl, 2), nullptr);
    EXPECT_NE(touchingFind(tbl, 3), nullptr);
}

TEST(SoaTableTest, PeekDoesNotTouchLru)
{
    SoaSetTable<Payload> tbl(1, 2, 0);
    fillEntry(tbl, 1).value = 1;
    fillEntry(tbl, 2).value = 2;
    // peekFind must not refresh key 1: it stays LRU and gets evicted.
    EXPECT_NE(peekFind(tbl, 1), nullptr);
    fillEntry(tbl, 3).value = 3;
    EXPECT_EQ(peekFind(tbl, 1), nullptr);
    EXPECT_NE(peekFind(tbl, 2), nullptr);
}

TEST(SoaTableTest, SetIndexingUsesShift)
{
    SoaSetTable<Payload> tbl(2, 1, 6);
    // 0x00 and 0x3F share a set (same 64B line); 0x40 maps to the other.
    EXPECT_EQ(tbl.setIndex(0x00), tbl.setIndex(0x3F));
    EXPECT_NE(tbl.setIndex(0x00), tbl.setIndex(0x40));
    fillEntry(tbl, 0x00).value = 1;
    fillEntry(tbl, 0x40).value = 2;
    EXPECT_NE(touchingFind(tbl, 0x00), nullptr);
    EXPECT_NE(touchingFind(tbl, 0x40), nullptr);
}

TEST(SoaTableTest, Clear)
{
    SoaSetTable<Payload> tbl(4, 2, 0);
    fillEntry(tbl, 1).value = 1;
    fillEntry(tbl, 2).value = 2;
    tbl.clear();
    EXPECT_EQ(peekFind(tbl, 1), nullptr);
    EXPECT_EQ(peekFind(tbl, 2), nullptr);
}

TEST(SoaTableTest, ForEachVisitsAllValid)
{
    SoaSetTable<Payload> tbl(8, 4, 0);
    for (int i = 0; i < 20; ++i)
        fillEntry(tbl, static_cast<Addr>(i)).value = i;
    int count = 0;
    std::uint64_t key_sum = 0;
    tbl.forEach([&](Addr key, const Payload &p) {
        ++count;
        key_sum += key;
        EXPECT_EQ(p.value, static_cast<int>(key));
    });
    EXPECT_EQ(count, 20);
    EXPECT_EQ(key_sum, 190u); // 0 + 1 + ... + 19
}

TEST(SoaTableTest, SetViewProbeTouchFill)
{
    SoaSetTable<Payload> tbl(2, 4, 0);
    auto set = tbl.set(Addr{6});
    EXPECT_EQ(set.probe(6), -1);
    const int v = set.victim();
    ASSERT_GE(v, 0);
    set.fill(static_cast<unsigned>(v), 6).value = 42;
    EXPECT_EQ(set.probe(6), v);
    EXPECT_TRUE(set.valid(static_cast<unsigned>(v)));
    EXPECT_EQ(set.key(static_cast<unsigned>(v)), 6u);
    EXPECT_EQ(set.entry(static_cast<unsigned>(v)).value, 42);
    const std::uint64_t before = set.stamp(static_cast<unsigned>(v));
    set.touch(static_cast<unsigned>(v));
    EXPECT_GT(set.stamp(static_cast<unsigned>(v)), before);
}

TEST(SoaTableTest, VictimIsStablePureSelection)
{
    SoaSetTable<Payload> tbl(1, 4, 0);
    for (Addr k = 0; k < 4; ++k)
        fillEntry(tbl, k);
    auto set = tbl.setAt(0);
    const int v0 = set.victim();
    // victim() is pure: repeated calls with no intervening mutation
    // return the same way, and no probe/peek changes the choice.
    for (int i = 0; i < 5; ++i) {
        (void)set.probe(Addr{2});
        (void)peekFind(tbl, Addr{3});
        EXPECT_EQ(set.victim(), v0);
    }
    set.touch(static_cast<unsigned>(v0));
    EXPECT_NE(set.victim(), v0);
}

TEST(SoaTableTest, NonPowerOfTwoSets)
{
    SoaSetTable<Payload> tbl(3, 2, 0);
    // Modulo indexing must spread keys across all three sets.
    EXPECT_EQ(tbl.setIndex(0), 0u);
    EXPECT_EQ(tbl.setIndex(4), 1u);
    EXPECT_EQ(tbl.setIndex(5), 2u);
    for (Addr k = 0; k < 6; ++k)
        fillEntry(tbl, k).value = static_cast<int>(k);
    for (Addr k = 0; k < 6; ++k) {
        Payload *p = touchingFind(tbl, k);
        ASSERT_NE(p, nullptr) << "key " << k;
        EXPECT_EQ(p->value, static_cast<int>(k));
    }
    EXPECT_EQ(tbl.evictions(), 0u);
}

// ---- Geometry sweep -------------------------------------------------------

struct Geom
{
    unsigned sets, ways;
};

class SoaGeomTest : public ::testing::TestWithParam<Geom>
{};

TEST_P(SoaGeomTest, NeverExceedsCapacity)
{
    const Geom g = GetParam();
    SoaSetTable<Payload> tbl(g.sets, g.ways, 0);
    std::mt19937_64 rng(1234);
    for (int i = 0; i < 5000; ++i)
        fillEntry(tbl, rng() % 100000);
    std::size_t live = 0;
    tbl.forEach([&](Addr, const Payload &) { ++live; });
    EXPECT_LE(live, tbl.capacity());
}

INSTANTIATE_TEST_SUITE_P(Geometries, SoaGeomTest,
                         ::testing::Values(Geom{1, 1}, Geom{512, 6},
                                           Geom{1024, 13}, Geom{256, 18},
                                           Geom{3, 5}, Geom{7, 3}));

// ---- Parity with the retired AoS SetAssocTable ----------------------------

/**
 * Reference model: the exact replacement semantics of the old AoS
 * SetAssocTable (linear pointer walk, find-touches-LRU, single-scan
 * victim choice with first-invalid preference and strict-min tie-break
 * at the earliest way). The SoA table must be bit-compatible with this.
 */
class RefTable
{
  public:
    RefTable(unsigned sets, unsigned ways, unsigned shift)
        : sets_(sets), ways_(ways), shift_(shift), arr_(sets * ways)
    {}

    struct Way
    {
        Addr key = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        int value = 0;
    };

    Way *
    find(Addr key)
    {
        Way *set = &arr_[setOf(key) * ways_];
        for (unsigned i = 0; i < ways_; ++i) {
            Way *w = set + i;
            if (w->valid && w->key == key) {
                w->lru = ++tick_;
                return w;
            }
        }
        return nullptr;
    }

    const Way *
    peek(Addr key) const
    {
        const Way *set = &arr_[setOf(key) * ways_];
        for (unsigned i = 0; i < ways_; ++i)
            if (set[i].valid && set[i].key == key)
                return set + i;
        return nullptr;
    }

    Way &
    insert(Addr key)
    {
        Way *set = &arr_[setOf(key) * ways_];
        Way *victim = nullptr;
        for (unsigned i = 0; i < ways_; ++i) {
            Way &w = set[i];
            if (w.valid && w.key == key) {
                victim = &w;
                break;
            }
            if (!victim || victim->valid) {
                if (!w.valid)
                    victim = &w;
                else if (!victim || w.lru < victim->lru)
                    victim = &w;
            }
        }
        if (victim->valid && victim->key != key)
            ++evictions_;
        victim->valid = true;
        victim->key = key;
        victim->lru = ++tick_;
        victim->value = 0;
        return *victim;
    }

    std::uint64_t evictions() const { return evictions_; }

  private:
    std::size_t setOf(Addr key) const { return (key >> shift_) % sets_; }

    unsigned sets_, ways_, shift_;
    std::vector<Way> arr_;
    std::uint64_t tick_ = 0;
    std::uint64_t evictions_ = 0;
};

TEST(SoaTableTest, ReplacementParityWithAosReference)
{
    // Drive both tables with an identical randomized op mix and demand
    // identical hit/miss results and eviction counts throughout. The
    // key range (0..47 over 4 sets x 3 ways) forces constant conflict,
    // so any LRU tie-break or victim-order divergence surfaces fast.
    const unsigned kSets = 4, kWays = 3, kShift = 2;
    SoaSetTable<Payload> soa(kSets, kWays, kShift);
    RefTable ref(kSets, kWays, kShift);
    std::mt19937_64 rng(99);
    for (int i = 0; i < 20000; ++i) {
        const Addr key = rng() % 48;
        switch (rng() % 3) {
        case 0: { // find (touches on hit)
            Payload *a = touchingFind(soa, key);
            RefTable::Way *b = ref.find(key);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << i;
            if (a) {
                ASSERT_EQ(a->value, b->value) << "op " << i;
            }
            break;
        }
        case 1: { // peek (no LRU effect)
            ASSERT_EQ(peekFind(soa, key) != nullptr,
                      ref.peek(key) != nullptr)
                << "op " << i;
            break;
        }
        default: { // insert + payload write
            const int v = static_cast<int>(rng() % 1000);
            fillEntry(soa, key).value = v;
            ref.insert(key).value = v;
            break;
        }
        }
        ASSERT_EQ(soa.evictions(), ref.evictions()) << "op " << i;
    }
}

TEST(SoaTableTest, LruTieBreakPrefersEarliestWay)
{
    // All stamps distinct by construction; the "tie-break" contract is
    // positional: with fresh equal-history ways the earliest-filled way
    // (lowest stamp) is evicted first, scanning from way 0.
    SoaSetTable<Payload> tbl(1, 4, 0);
    for (Addr k = 0; k < 4; ++k)
        fillEntry(tbl, 10 + k);
    fillEntry(tbl, 20); // evicts key 10 (way 0, smallest stamp)
    EXPECT_EQ(peekFind(tbl, 10), nullptr);
    EXPECT_NE(peekFind(tbl, 11), nullptr);
    fillEntry(tbl, 21); // next victim: key 11
    EXPECT_EQ(peekFind(tbl, 11), nullptr);
    EXPECT_NE(peekFind(tbl, 12), nullptr);
}

// ---- Probe kernel ---------------------------------------------------------

TEST(SoaSimdTest, PaddingLanesNeverMatch)
{
    // Key 0 equals the padding lanes' initial tag value; the valid mask
    // must keep padding out of the probe result.
    SoaSetTable<Payload> tbl(2, 5, 0); // stride pads 5 -> 8 lanes
    EXPECT_EQ(tbl.set(Addr{0}).probe(Addr{0}), -1);
    fillEntry(tbl, Addr{0}).value = 9;
    EXPECT_EQ(tbl.set(Addr{0}).probe(Addr{0}), 0);
    Payload *p = touchingFind(tbl, Addr{0});
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->value, 9);
}

} // namespace
} // namespace btbsim
