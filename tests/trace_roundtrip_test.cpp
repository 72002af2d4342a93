/** @file System tests of trace record → replay: bit-identical SimStats
 *  and a measurable delivery-speed advantage over live generation. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "env_util.h"
#include "sim/runner.h"
#include "trace/suite.h"
#include "traceio/replay_env.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

using namespace btbsim;

namespace {

/** Records @p spec into `<dir>/<name>.btbt`, @p insts instructions long. */
void
recordWorkload(const std::string &dir, const WorkloadSpec &spec,
               std::uint64_t insts)
{
    std::filesystem::create_directories(dir);
    auto wl = makeWorkload(spec);
    traceio::TraceWriter writer(traceio::replayPath(dir, spec.name),
                                spec.name, &wl->program());
    traceio::RecordingSource rec(*wl, writer);
    for (std::uint64_t i = 0; i < insts; ++i)
        rec.next();
    writer.finish();
}

void
expectBitIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc); // Exact — same arithmetic, same inputs.
    EXPECT_EQ(a.branch_mpki, b.branch_mpki);
    EXPECT_EQ(a.misfetch_pki, b.misfetch_pki);
    EXPECT_EQ(a.combined_mpki, b.combined_mpki);
    EXPECT_EQ(a.cond_mispredict_rate, b.cond_mispredict_rate);
    EXPECT_EQ(a.l1_btb_hitrate, b.l1_btb_hitrate);
    EXPECT_EQ(a.btb_hitrate, b.btb_hitrate);
    EXPECT_EQ(a.fetch_pcs_per_access, b.fetch_pcs_per_access);
    EXPECT_EQ(a.taken_per_ki, b.taken_per_ki);
    EXPECT_EQ(a.l1_slot_occupancy, b.l1_slot_occupancy);
    EXPECT_EQ(a.l2_slot_occupancy, b.l2_slot_occupancy);
    EXPECT_EQ(a.l1_redundancy, b.l1_redundancy);
    EXPECT_EQ(a.l2_redundancy, b.l2_redundancy);
    EXPECT_EQ(a.icache_mpki, b.icache_mpki);
    EXPECT_EQ(a.avg_dyn_bb_size, b.avg_dyn_bb_size);
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].cycle, b.samples[i].cycle) << i;
        EXPECT_EQ(a.samples[i].instructions, b.samples[i].instructions) << i;
        EXPECT_EQ(a.samples[i].ipc, b.samples[i].ipc) << i;
        EXPECT_EQ(a.samples[i].branch_mpki, b.samples[i].branch_mpki) << i;
    }
}

} // namespace

TEST(TraceRoundTrip, ReplayedRunIsBitIdenticalToLive)
{
    const std::string dir = ::testing::TempDir() + "btbt_roundtrip";

    WorkloadSpec spec = serverSuite(1)[0];
    RunOptions opt;
    opt.warmup = 30'000;
    opt.measure = 80'000;

    // Record more than the run consumes so replay never wraps (a wrap
    // rewrites the seam instruction and would diverge from live).
    recordWorkload(dir, spec, opt.warmup + opt.measure + (64u << 10));

    CpuConfig cfg;
    SimStats live;
    {
        test::ScopedEnv env("BTBSIM_TRACE_DIR", nullptr);
        live = runOne(cfg, spec, opt);
    }
    EXPECT_EQ(live.source_kind, "generated");

    SimStats rep;
    {
        test::ScopedEnv env("BTBSIM_TRACE_DIR", dir.c_str());
        rep = runOne(cfg, spec, opt);
    }
    EXPECT_EQ(rep.source_kind, "replay");
    expectBitIdentical(live, rep);

    std::filesystem::remove_all(dir);
}

TEST(TraceRoundTrip, ReplayDeliversFasterThanGeneration)
{
    const std::string dir = ::testing::TempDir() + "btbt_speed";

    WorkloadSpec spec = serverSuite(1)[0];
    recordWorkload(dir, spec, 512u << 10);

    using clock = std::chrono::steady_clock;
    const std::uint64_t kDrain = 1'500'000;

    auto live = makeWorkload(spec);
    live->reset();
    const auto t0 = clock::now();
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < kDrain; ++i)
        sink += live->next().pc;
    const double live_s = std::chrono::duration<double>(clock::now() - t0)
                              .count();

    // Replay wraps several times over the drain — throughput is about
    // delivery speed, not stream identity. Warm one lap first so the
    // decode-once cache is populated, as it is after any sim run.
    traceio::TraceReplaySource replay(traceio::replayPath(dir, spec.name));
    for (std::uint64_t i = 0; i < replay.instructionCount(); ++i)
        sink += replay.next().pc;
    replay.reset();
    const auto t1 = clock::now();
    for (std::uint64_t i = 0; i < kDrain; ++i)
        sink += replay.next().pc;
    const double replay_s = std::chrono::duration<double>(clock::now() - t1)
                                .count();

    const double live_mips = kDrain / live_s / 1e6;
    const double replay_mips = kDrain / replay_s / 1e6;
    // Goes to the test log: the measured delivery advantage.
    std::printf("[ throughput ] generated %.1f Mi/s, replay %.1f Mi/s "
                "(%.2fx), sink=%llu\n",
                live_mips, replay_mips, replay_mips / live_mips,
                static_cast<unsigned long long>(sink));
    EXPECT_GT(replay_mips, live_mips)
        << "replay must beat live generation (generated " << live_mips
        << " Mi/s, replay " << replay_mips << " Mi/s)";

    std::filesystem::remove_all(dir);
}

TEST(TraceRoundTrip, CorruptRecordingFallsBackToGeneration)
{
    const std::string dir = ::testing::TempDir() + "btbt_fallback";
    std::filesystem::create_directories(dir);

    WorkloadSpec spec = serverSuite(1)[0];
    {
        std::ofstream os(traceio::replayPath(dir, spec.name),
                         std::ios::binary);
        os << "this is not a trace";
    }

    RunOptions opt;
    opt.warmup = 10'000;
    opt.measure = 20'000;
    test::ScopedEnv env("BTBSIM_TRACE_DIR", dir.c_str());
    const SimStats s = runOne(CpuConfig{}, spec, opt);
    // The bad file is diagnosed (to stderr) and the run still completes
    // on the live source.
    EXPECT_EQ(s.source_kind, "generated");
    EXPECT_GT(s.cycles, 0u);

    std::filesystem::remove_all(dir);
}

TEST(TraceRoundTrip, MissingRecordingUsesGeneration)
{
    const std::string dir = ::testing::TempDir() + "btbt_missing";
    std::filesystem::create_directories(dir); // Empty: no .btbt inside.

    WorkloadSpec spec = serverSuite(1)[0];
    RunOptions opt;
    opt.warmup = 10'000;
    opt.measure = 20'000;
    test::ScopedEnv env("BTBSIM_TRACE_DIR", dir.c_str());
    const SimStats s = runOne(CpuConfig{}, spec, opt);
    EXPECT_EQ(s.source_kind, "generated");

    std::filesystem::remove_all(dir);
}
