/** @file Tests for the workload suite. */

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "trace/suite.h"

using namespace btbsim;

TEST(Suite, NamesAreUnique)
{
    const auto suite = serverSuite(12);
    std::set<std::string> names;
    for (const WorkloadSpec &w : suite)
        names.insert(w.name);
    EXPECT_EQ(names.size(), suite.size());
}

TEST(Suite, CountClamps)
{
    EXPECT_EQ(serverSuite(3).size(), 3u);
    EXPECT_EQ(serverSuite(100).size(), 12u);
}

TEST(Suite, SeedsDiffer)
{
    const auto suite = serverSuite(12);
    std::set<std::uint64_t> seeds;
    for (const WorkloadSpec &w : suite)
        seeds.insert(w.params.seed);
    EXPECT_EQ(seeds.size(), suite.size());
}

TEST(Suite, WorkloadIsDeterministicAndResettable)
{
    const auto suite = serverSuite(1);
    auto a = makeWorkload(suite.front());
    auto b = makeWorkload(suite.front());
    for (int i = 0; i < 50000; ++i)
        ASSERT_EQ(a->next().pc, b->next().pc);
    a->reset();
    b->reset();
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a->next().pc, b->next().pc);
}

TEST(Suite, FootprintsOversubscribeL1Btb)
{
    // Every workload's code footprint must dwarf the 3K-entry L1 BTB and
    // the 32KB L1I — the trace-selection criterion of Section 4.2.
    for (const WorkloadSpec &spec : serverSuite(12)) {
        auto w = makeWorkload(spec);
        EXPECT_GT(w->program().footprintBytes(), 128u * 1024)
            << spec.name;
    }
}

TEST(Suite, ProgramImageValidates)
{
    const auto suite = serverSuite(1);
    auto w = makeWorkload(suite.front());
    EXPECT_EQ(w->program().validate(), "");
}

TEST(Suite, WorkloadsShareOneProgramPerSpec)
{
    const auto suite = serverSuite(2);
    auto a = makeWorkload(suite[0]);
    auto b = makeWorkload(suite[0]);
    auto c = makeWorkload(suite[1]);
    EXPECT_EQ(&a->program(), &b->program());
    EXPECT_NE(&a->program(), &c->program());
}

TEST(Suite, SharedProgramEqualsFreshGeneration)
{
    const WorkloadSpec spec = serverSuite(1).front();
    const Program &shared = *sharedProgram(spec.params);
    const Program fresh = generateProgram(spec.params);
    EXPECT_EQ(shared.code_base, fresh.code_base);
    EXPECT_EQ(shared.name, fresh.name);

    EXPECT_TRUE(shared.insts == fresh.insts);
    EXPECT_TRUE(shared.conds == fresh.conds);
    EXPECT_TRUE(shared.indirects == fresh.indirects);
    EXPECT_TRUE(shared.streams == fresh.streams);
    EXPECT_EQ(shared.entries, fresh.entries);
    EXPECT_EQ(shared.entry_weights, fresh.entry_weights);
}

TEST(Suite, RacingFirstCallersGetOneProgram)
{
    // Params no other test asks for, so every thread races the first
    // generation; the losers must discard theirs and adopt the winner's.
    GenParams params;
    params.seed = 0x5eed5eed;
    params.target_static_insts = 8 * 1024;
    params.num_handlers = 3;

    constexpr int kThreads = 8;
    std::vector<const Program *> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[t] = sharedProgram(params).get(); });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    EXPECT_EQ(sharedProgram(params).get(), got[0]);
}
