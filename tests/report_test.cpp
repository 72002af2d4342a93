/** @file Tests for result aggregation and report formatting. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/report.h"

using namespace btbsim;

namespace {

SimStats
stat(const std::string &cfg, const std::string &wl, double ipc)
{
    SimStats s;
    s.config = cfg;
    s.workload = wl;
    s.ipc = ipc;
    return s;
}

} // namespace

TEST(Report, FindAndOrder)
{
    ResultSet rs;
    rs.add(stat("A", "w1", 1.0));
    rs.add(stat("B", "w1", 2.0));
    rs.add(stat("A", "w2", 3.0));
    ASSERT_NE(rs.find("A", "w2"), nullptr);
    EXPECT_DOUBLE_EQ(rs.find("A", "w2")->ipc, 3.0);
    EXPECT_EQ(rs.find("C", "w1"), nullptr);
    EXPECT_EQ(rs.configs(), (std::vector<std::string>{"A", "B"}));
    EXPECT_EQ(rs.workloads(), (std::vector<std::string>{"w1", "w2"}));
}

TEST(Report, NormalizedIpc)
{
    ResultSet rs;
    rs.add(stat("base", "w1", 2.0));
    rs.add(stat("base", "w2", 4.0));
    rs.add(stat("test", "w1", 1.0));
    rs.add(stat("test", "w2", 8.0));
    const auto norm = rs.normalizedIpc("test", "base");
    ASSERT_EQ(norm.size(), 2u);
    EXPECT_DOUBLE_EQ(norm[0], 0.5);
    EXPECT_DOUBLE_EQ(norm[1], 2.0);
}

TEST(Report, NormalizedSkipsMissingPairs)
{
    ResultSet rs;
    rs.add(stat("base", "w1", 2.0));
    rs.add(stat("test", "w1", 1.0));
    rs.add(stat("test", "w2", 8.0)); // no baseline for w2
    EXPECT_EQ(rs.normalizedIpc("test", "base").size(), 1u);
}

TEST(Report, GeomeanIpc)
{
    ResultSet rs;
    rs.add(stat("A", "w1", 1.0));
    rs.add(stat("A", "w2", 4.0));
    EXPECT_DOUBLE_EQ(geomeanIpc(rs.all(), "A"), 2.0);
}

TEST(Report, TablesRenderWithoutCrashing)
{
    ResultSet rs;
    for (int w = 0; w < 5; ++w) {
        const std::string name = std::string("w").append(std::to_string(w));
        rs.add(stat("base", name, 1.0 + w * 0.1));
        rs.add(stat("test", name, 1.2 + w * 0.1));
    }
    std::ostringstream os;
    rs.printNormalizedTable(os, "base");
    rs.printDetailTable(os);
    EXPECT_NE(os.str().find("test"), std::string::npos);
    EXPECT_NE(os.str().find("geomean"), std::string::npos);
}

TEST(Report, QuartilesAreOrdered)
{
    ResultSet rs;
    const double vals[] = {0.8, 0.9, 1.0, 1.1, 1.4};
    for (int w = 0; w < 5; ++w) {
        const std::string name = std::string("w").append(std::to_string(w));
        rs.add(stat("base", name, 1.0));
        rs.add(stat("test", name, vals[w]));
    }
    std::ostringstream os;
    rs.printNormalizedTable(os, "base");
    // min row value appears before max in the printed line; a smoke check
    // that the reduction ran over all five workloads.
    EXPECT_NE(os.str().find("0.800"), std::string::npos);
    EXPECT_NE(os.str().find("1.400"), std::string::npos);
}
