/** @file Tests for global history folding. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bpred/history.h"
#include "common/rng.h"

using namespace btbsim;

namespace {

/**
 * The fold spelled out bit by bit over @p outcomes (most recent first):
 * XOR in chunks of at most @p out_bits bits that never straddle a 64-bit
 * word, rotating the accumulator left by one within @p out_bits after
 * each chunk.
 */
std::uint64_t
referenceFold(const std::vector<bool> &outcomes, unsigned length,
              unsigned out_bits)
{
    if (out_bits == 0)
        return 0;
    length = std::min(length, GlobalHistory::kBits);
    const std::uint64_t out_mask =
        out_bits == 64 ? ~0ull : (1ull << out_bits) - 1;
    std::uint64_t acc = 0;
    for (unsigned consumed = 0; consumed < length;) {
        const unsigned chunk =
            std::min({64 - consumed % 64, length - consumed, out_bits});
        for (unsigned j = 0; j < chunk; ++j)
            if (consumed + j < outcomes.size() && outcomes[consumed + j])
                acc ^= 1ull << j;
        acc = ((acc << 1) | (acc >> (out_bits - 1))) & out_mask;
        consumed += chunk;
    }
    return acc;
}

} // namespace

TEST(GlobalHistory, ShiftAndLow)
{
    GlobalHistory h;
    h.shift(true);
    h.shift(false);
    h.shift(true);
    // Most recent is bit 0: 1,0,1 -> 0b101.
    EXPECT_EQ(h.low(3), 0b101u);
    EXPECT_EQ(h.low(1), 1u);
}

TEST(GlobalHistory, ZeroLengthFoldIsZero)
{
    GlobalHistory h;
    for (int i = 0; i < 100; ++i)
        h.shift(i % 3 == 0);
    EXPECT_EQ(h.fold(0, 12), 0u);
}

TEST(GlobalHistory, FoldDependsOnHistory)
{
    GlobalHistory a, b;
    for (int i = 0; i < 64; ++i) {
        a.shift(true);
        b.shift(i != 13);
    }
    EXPECT_NE(a.fold(64, 12), b.fold(64, 12));
}

TEST(GlobalHistory, FoldStaysInBits)
{
    GlobalHistory h;
    for (int i = 0; i < 256; ++i) {
        h.shift((i * 7) % 5 < 2);
        EXPECT_LT(h.fold(232, 12), 1ull << 12);
        EXPECT_LT(h.fold(17, 9), 1ull << 9);
    }
}

TEST(GlobalHistory, LongShiftPropagatesAcrossWords)
{
    GlobalHistory h;
    h.shift(true);
    for (int i = 0; i < 70; ++i)
        h.shift(false);
    // The 1 is now at position 70; folding the first 64 bits sees zeros,
    // folding 128 sees the 1.
    EXPECT_EQ(h.fold(64, 8), 0u);
    EXPECT_NE(h.fold(128, 8), 0u);
}

TEST(GlobalHistory, ResetClears)
{
    GlobalHistory h;
    for (int i = 0; i < 200; ++i)
        h.shift(true);
    h.reset();
    EXPECT_EQ(h.low(64), 0u);
    EXPECT_EQ(h.fold(232, 12), 0u);
}

TEST(GlobalHistory, FoldPrefixesMatchesPerLengthFold)
{
    // Lengths around the word boundaries, the Table-1 maximum (232), the
    // register size and beyond it (clamped to kBits).
    const std::vector<unsigned> edges = {0, 1, 63, 64, 65, 232, 256, 300};
    Rng rng(20);
    for (int trial = 0; trial < 200; ++trial) {
        GlobalHistory h;
        std::vector<bool> outcomes; // Most recent first.
        const unsigned n_shifts = static_cast<unsigned>(rng.nextBounded(400));
        for (unsigned i = 0; i < n_shifts; ++i) {
            const bool taken = rng.nextBool(0.5);
            h.shift(taken);
            outcomes.insert(outcomes.begin(), taken);
        }

        // A non-decreasing list: every edge plus random lengths, with
        // repeats.
        std::vector<unsigned> lengths = edges;
        const unsigned extra = static_cast<unsigned>(rng.nextBounded(12));
        for (unsigned i = 0; i < extra; ++i)
            lengths.push_back(static_cast<unsigned>(rng.nextBounded(320)));
        lengths.push_back(lengths[rng.nextBounded(lengths.size())]);
        std::sort(lengths.begin(), lengths.end());

        for (const unsigned out_bits : {0u, 1u, 7u, 12u, 13u, 64u}) {
            std::vector<std::uint64_t> out(lengths.size(), ~0ull);
            h.fold(FoldPlan(lengths, out_bits), out.data());
            for (std::size_t i = 0; i < lengths.size(); ++i) {
                const std::uint64_t want =
                    referenceFold(outcomes, lengths[i], out_bits);
                ASSERT_EQ(out[i], want)
                    << "trial " << trial << ", length " << lengths[i]
                    << ", out_bits " << out_bits;
                ASSERT_EQ(h.fold(lengths[i], out_bits), want)
                    << "trial " << trial << ", length " << lengths[i]
                    << ", out_bits " << out_bits;
            }
        }
    }
}

TEST(PathHistory, ShiftMixes)
{
    PathHistory p;
    p.shift(0x1000);
    const auto v1 = p.value();
    p.shift(0x2000);
    EXPECT_NE(p.value(), v1);
    p.reset();
    EXPECT_EQ(p.value(), 0u);
}
