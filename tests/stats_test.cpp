/** @file Unit tests for stats primitives. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/sat_counter.h"
#include "common/stats.h"

using namespace btbsim;

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Geomean, SkipsNonPositiveValues)
{
    // Regression: std::log(0) = -inf used to propagate NaN/0 into every
    // reported table containing a single dead run.
    EXPECT_DOUBLE_EQ(geomean({0.0, 4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({-3.0, 9.0}), 9.0);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({-1.0, 0.0}), 0.0);
    EXPECT_FALSE(std::isnan(geomean({-1.0, 2.0, 8.0})));
}

TEST(VecMinMax, Basics)
{
    EXPECT_DOUBLE_EQ(vecMin({3.0, 1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(vecMax({3.0, 1.0, 2.0}), 3.0);
    EXPECT_DOUBLE_EQ(vecMin({}), 0.0);
}

TEST(SatCounter, SaturatesUp)
{
    SatCounter<2> c;
    EXPECT_EQ(c.max(), 3u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesDown)
{
    SatCounter<3> c(5);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, SixBitMaxIs63)
{
    SatCounter<6> c;
    EXPECT_EQ(c.max(), 63u);
}

TEST(SignedSatCounter, Rails)
{
    SignedSatCounter<8> w;
    for (int i = 0; i < 300; ++i)
        w.add(1);
    EXPECT_EQ(w.value(), 127);
    for (int i = 0; i < 600; ++i)
        w.add(-1);
    EXPECT_EQ(w.value(), -128);
}
