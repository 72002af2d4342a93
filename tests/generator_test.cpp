/** @file Tests for the synthetic program generator. */

#include <gtest/gtest.h>

#include "trace/generator.h"

using namespace btbsim;

namespace {

GenParams
smallParams(std::uint64_t seed = 1)
{
    GenParams p;
    p.seed = seed;
    p.target_static_insts = 8 * 1024;
    p.num_handlers = 4;
    return p;
}

} // namespace

TEST(Generator, ProgramValidates)
{
    const Program prog = generateProgram(smallParams());
    EXPECT_EQ(prog.validate(), "");
}

TEST(Generator, DeterministicInSeed)
{
    const Program a = generateProgram(smallParams(5));
    const Program b = generateProgram(smallParams(5));
    EXPECT_TRUE(a.insts == b.insts);
}

TEST(Generator, DifferentSeedsDiffer)
{
    const Program a = generateProgram(smallParams(1));
    const Program b = generateProgram(smallParams(2));
    EXPECT_NE(a.insts.size(), b.insts.size());
}

TEST(Generator, FootprintNearTarget)
{
    GenParams p = smallParams();
    p.target_static_insts = 64 * 1024;
    const Program prog = generateProgram(p);
    const double ratio =
        static_cast<double>(prog.insts.size()) / p.target_static_insts;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.5);
}

TEST(Generator, HasDispatcherEntry)
{
    const Program prog = generateProgram(smallParams());
    ASSERT_EQ(prog.entries.size(), 1u);
    EXPECT_LT(prog.entries.front(), prog.insts.size());
}

TEST(Generator, DirectTargetsInRange)
{
    const Program prog = generateProgram(smallParams());
    for (const StaticInst &si : prog.insts) {
        if (isDirect(si.branch)) {
            EXPECT_LT(si.target, prog.insts.size());
        }
    }
}

TEST(Generator, BranchClassesAllPresent)
{
    const Program prog = generateProgram(smallParams());
    bool has[8] = {};
    for (const StaticInst &si : prog.insts)
        has[static_cast<int>(si.branch)] = true;
    EXPECT_TRUE(has[static_cast<int>(BranchClass::kCondDirect)]);
    EXPECT_TRUE(has[static_cast<int>(BranchClass::kUncondDirect)]);
    EXPECT_TRUE(has[static_cast<int>(BranchClass::kDirectCall)]);
    EXPECT_TRUE(has[static_cast<int>(BranchClass::kReturn)]);
    EXPECT_TRUE(has[static_cast<int>(BranchClass::kIndirectCall)]);
}

TEST(Generator, MemoryInstructionsHaveStreams)
{
    const Program prog = generateProgram(smallParams());
    std::size_t loads = 0;
    for (const StaticInst &si : prog.insts) {
        if (si.cls == InstClass::kLoad || si.cls == InstClass::kStore) {
            EXPECT_GE(si.stream, 0);
            EXPECT_LT(static_cast<std::size_t>(si.stream),
                      prog.streams.size());
            ++loads;
        }
    }
    EXPECT_GT(loads, 100u);
}

/** Footprint sweep: generation must stay valid across sizes. */
class GeneratorSizeTest : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(GeneratorSizeTest, ValidatesAtSize)
{
    GenParams p = smallParams();
    p.target_static_insts = GetParam();
    const Program prog = generateProgram(p);
    EXPECT_EQ(prog.validate(), "");
    EXPECT_GT(prog.insts.size(), GetParam() / 3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSizeTest,
                         ::testing::Values(2048u, 8192u, 32768u, 131072u));
