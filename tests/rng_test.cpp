/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include "common/rng.h"

using namespace btbsim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next64() == b.next64());
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.nextBool(0.0));
        EXPECT_TRUE(r.nextBool(1.0));
    }
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanRoughlyMatches)
{
    Rng r(19);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.nextGeometric(0.5, 100);
    // Mean of geometric(continue=0.5) is ~1.
    EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(Rng, GeometricRespectsMax)
{
    Rng r(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(r.nextGeometric(0.99, 5), 5u);
}

TEST(Rng, ForkIsIndependentButDeterministic)
{
    Rng a(31);
    Rng f1 = a.fork();
    Rng b(31);
    Rng f2 = b.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(f1.next64(), f2.next64());
}
