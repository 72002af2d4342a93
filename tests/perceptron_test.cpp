/** @file Tests for the hashed perceptron predictor. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "bpred/perceptron.h"

using namespace btbsim;

namespace {

/** Accuracy of the predictor on a generated outcome stream. */
template <typename NextOutcome>
double
accuracy(HashedPerceptron &p, NextOutcome next, int n)
{
    int correct = 0;
    for (int i = 0; i < n; ++i) {
        auto [pc, taken] = next(i);
        correct += (p.predictAndTrain(pc, taken) == taken);
    }
    return static_cast<double>(correct) / n;
}

} // namespace

TEST(Perceptron, LearnsAlwaysTaken)
{
    HashedPerceptron p;
    const double acc = accuracy(
        p, [](int) { return std::pair<Addr, bool>{0x4000, true}; }, 2000);
    EXPECT_GT(acc, 0.98);
}

TEST(Perceptron, LearnsNeverTaken)
{
    HashedPerceptron p;
    const double acc = accuracy(
        p, [](int) { return std::pair<Addr, bool>{0x4000, false}; }, 2000);
    EXPECT_GT(acc, 0.98);
}

TEST(Perceptron, LearnsAlternatingPattern)
{
    HashedPerceptron p;
    const double acc = accuracy(
        p,
        [](int i) {
            return std::pair<Addr, bool>{0x4000, (i % 2) == 0};
        },
        5000);
    EXPECT_GT(acc, 0.95);
}

TEST(Perceptron, LearnsLoopExitPattern)
{
    // taken x7, not-taken x1 (an 8-trip loop back-edge).
    HashedPerceptron p;
    const double acc = accuracy(
        p,
        [](int i) {
            return std::pair<Addr, bool>{0x8000, (i % 8) != 7};
        },
        8000);
    EXPECT_GT(acc, 0.95);
}

TEST(Perceptron, LearnsCorrelatedBranches)
{
    // Branch B repeats branch A's outcome; both must become predictable.
    HashedPerceptron p;
    Rng rng(1);
    bool a_outcome = false;
    int correct_b = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        a_outcome = rng.nextBool(0.5);
        p.predictAndTrain(0x1000, a_outcome);
        correct_b += (p.predictAndTrain(0x2000, a_outcome) == a_outcome);
    }
    EXPECT_GT(static_cast<double>(correct_b) / n, 0.95);
}

TEST(Perceptron, BiasedBranchNearFloor)
{
    HashedPerceptron p;
    Rng rng(2);
    int wrong = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const bool taken = rng.nextBool(0.02);
        wrong += (p.predictAndTrain(0x3000, taken) != taken);
    }
    // Mispredict rate should approach the 2% noise floor.
    EXPECT_LT(static_cast<double>(wrong) / n, 0.04);
}

TEST(Perceptron, CountersTrack)
{
    HashedPerceptron p;
    for (int i = 0; i < 100; ++i)
        p.predictAndTrain(0x100, true);
    EXPECT_EQ(p.lookups(), 100u);
    EXPECT_LT(p.mispredicts(), 10u);
}

/** Size sweep (Fig. 11b): smaller tables must still work and degrade
 *  gracefully under interference. */
class PerceptronSizeTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(PerceptronSizeTest, HandlesManyBranches)
{
    PerceptronConfig cfg = PerceptronConfig::ofSizeKB(GetParam());
    HashedPerceptron p(cfg);
    Rng rng(3);
    // 512 strongly biased branches.
    std::vector<double> bias(512);
    for (auto &b : bias)
        b = rng.nextBool(0.5) ? 0.05 : 0.95;
    int wrong = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const unsigned site = static_cast<unsigned>(rng.nextBounded(512));
        const bool taken = rng.nextBool(bias[site]);
        wrong += (p.predictAndTrain(0x10000 + site * 4, taken) != taken);
    }
    // Interference grows as the predictor shrinks (the Fig. 11b effect);
    // even the 2KB predictor must stay well below chance, and the full
    // 64KB predictor must be near the noise floor.
    const double rate = static_cast<double>(wrong) / n;
    EXPECT_LT(rate, 0.40);
    if (GetParam() >= 16) {
        EXPECT_LT(rate, 0.20);
    }
    if (GetParam() >= 64) {
        EXPECT_LT(rate, 0.12);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PerceptronSizeTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u));

TEST(PerceptronConfig, SizeBytes)
{
    PerceptronConfig c;
    EXPECT_EQ(c.sizeBytes(), 64u * 1024u);
    EXPECT_EQ(PerceptronConfig::ofSizeKB(2).sizeBytes(), 2048u);
}

TEST(PerceptronConfig, InvalidConfigsNameTheField)
{
    auto rejects = [](PerceptronConfig c, const std::string &field) {
        try {
            HashedPerceptron p(c);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what()).find(field) != std::string::npos;
        }
        return false;
    };
    PerceptronConfig c;
    for (const unsigned tables : {0u, 1u}) {
        c = {};
        c.num_tables = tables;
        EXPECT_TRUE(rejects(c, "num_tables")) << tables;
    }
    for (const unsigned entries : {0u, 192u, 4095u}) {
        c = {};
        c.entries_per_table = entries;
        EXPECT_TRUE(rejects(c, "entries_per_table")) << entries;
    }
    EXPECT_TRUE(rejects(PerceptronConfig::ofSizeKB(3), "entries_per_table"));
    for (const unsigned hist : {0u, 2u, 257u, 1000u}) {
        c = {};
        c.max_history = hist;
        EXPECT_TRUE(rejects(c, "max_history")) << hist;
    }

    // The edges of the valid ranges, and every Fig. 11b size, construct.
    c = {};
    c.num_tables = 2;
    c.max_history = 3;
    EXPECT_NO_THROW(HashedPerceptron{c});
    c.max_history = GlobalHistory::kBits;
    EXPECT_NO_THROW(HashedPerceptron{c});
    for (const unsigned kb : {2u, 4u, 8u, 16u, 32u, 64u})
        EXPECT_NO_THROW(HashedPerceptron{PerceptronConfig::ofSizeKB(kb)});
}
