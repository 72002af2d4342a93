/** @file System test of trace record → replay: bit-identical SimStats. */

#include <gtest/gtest.h>

#include <filesystem>

#include "sim/cpu.h"
#include "sim/runner.h"
#include "trace/suite.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

using namespace btbsim;

namespace {

/** Records @p spec into `<dir>/<name>.btbt`, @p insts instructions long;
 *  returns the file's path. */
std::string
recordWorkload(const std::string &dir, const WorkloadSpec &spec,
               std::uint64_t insts)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + spec.name + traceio::kTraceExt;
    auto wl = makeWorkload(spec);
    traceio::TraceWriter writer(path, spec.name, &wl->program());
    for (std::uint64_t i = 0; i < insts; ++i)
        writer.append(wl->next());
    writer.finish();
    return path;
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
    const std::string path =
        recordWorkload(dir, spec, opt.warmup + opt.measure + (64u << 10));

    CpuConfig cfg;
    const SimStats live = runOne(cfg, spec, opt);

    traceio::TraceReplaySource replay(path);
    Cpu cpu(cfg, replay);
    cpu.run(opt.warmup, opt.measure);
    EXPECT_EQ(replay.wraps(), 0u);
    expectBitIdentical(live, cpu.stats());

    std::filesystem::remove_all(dir);
}
