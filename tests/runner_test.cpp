/** @file Tests for the single-point runner and engine sweeps over it. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "env_util.h"
#include "exp/experiment.h"
#include "sim/cpu.h"
#include "sim/runner.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

using namespace btbsim;

namespace {

/** Sweep @p configs x @p specs through the engine (run cache off).
 *  @p simulate replaces runOne when set. */
std::vector<SimStats>
sweep(const std::vector<CpuConfig> &configs,
      const std::vector<WorkloadSpec> &specs, const RunOptions &opt,
      decltype(exp::ExperimentOptions::simulate) simulate = {})
{
    exp::ExperimentOptions eopt;
    eopt.run = opt;
    eopt.simulate = std::move(simulate);
    const exp::ExperimentResult r =
        exp::runExperiment("runner_test", configs, specs, eopt);
    EXPECT_TRUE(r.allOk());
    return r.stats();
}

} // namespace

TEST(Runner, EnvOverrides)
{
    test::ScopedEnv e1("BTBSIM_WARMUP", "1234");
    test::ScopedEnv e2("BTBSIM_MEASURE", "5678");
    test::ScopedEnv e3("BTBSIM_TRACES", "3");
    test::ScopedEnv e4("BTBSIM_THREADS", "2");
    const RunOptions o = RunOptions::fromEnv();
    EXPECT_EQ(o.warmup, 1234u);
    EXPECT_EQ(o.measure, 5678u);
    EXPECT_EQ(o.traces, 3u);
    EXPECT_EQ(o.threads, 2u);

    // Values that cannot be honoured are errors naming the knob. Parsing
    // only: no sweep runs, so no thread is started.
    for (const auto &[knob, bad] :
         {std::pair{"BTBSIM_TRACES", "0"}, std::pair{"BTBSIM_MEASURE", "0"},
          std::pair{"BTBSIM_THREADS", "4294967297"}}) {
        test::ScopedEnv e(knob, bad);
        try {
            (void)RunOptions::fromEnv();
            ADD_FAILURE() << "accepted " << knob << "=" << bad;
        } catch (const std::invalid_argument &ex) {
            EXPECT_NE(std::string(ex.what()).find(knob), std::string::npos)
                << ex.what();
        }
    }
}

TEST(Runner, EnvDefaultsWhenUnset)
{
    test::ScopedEnv e("BTBSIM_WARMUP", nullptr);
    const RunOptions o = RunOptions::fromEnv();
    EXPECT_EQ(o.warmup, RunOptions{}.warmup);
}

TEST(Runner, SweepOrderingAndDeterminism)
{
    // Live-generated workloads: every worker interprets the one shared
    // Program of its spec, so concurrent interpreters must not interfere.
    // The measured window outlasts one 100k-cycle sample interval.
    RunOptions opt;
    opt.warmup = 60'000;
    opt.measure = 400'000;

    std::vector<WorkloadSpec> specs(2);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].name = "rt" + std::to_string(i);
        specs[i].params.seed = 0x42 + i;
        specs[i].params.target_static_insts = 24 * 1024;
        specs[i].params.num_handlers = 4;
    }

    std::vector<CpuConfig> configs(2);
    configs[0].btb = BtbConfig::ibtb(16);
    configs[1].btb = BtbConfig::bbtb(1, true);

    opt.threads = 1;
    const auto st = sweep(configs, specs, opt);
    opt.threads = 4;
    const auto mt = sweep(configs, specs, opt);
    ASSERT_EQ(st.size(), 4u);
    ASSERT_EQ(mt.size(), 4u);
    // Ordered by (config, workload).
    EXPECT_EQ(st[0].config, "I-BTB 16");
    EXPECT_EQ(st[0].workload, "rt0");
    EXPECT_EQ(st[1].workload, "rt1");
    EXPECT_EQ(st[2].config, "B-BTB 1BS Splt");
    // Thread scheduling must not affect results.
    for (std::size_t i = 0; i < st.size(); ++i) {
        EXPECT_EQ(mt[i].config, st[i].config) << i;
        EXPECT_EQ(mt[i].workload, st[i].workload) << i;
        EXPECT_EQ(mt[i].cycles, st[i].cycles) << i;
        EXPECT_EQ(mt[i].counters, st[i].counters) << i;
        EXPECT_FALSE(st[i].samples.empty()) << i;
        EXPECT_EQ(mt[i].samples, st[i].samples) << i;
    }
}

TEST(Runner, ReplayAcrossThreadsIsBitIdentical)
{
    // One .btbt recording, replayed concurrently by several engine
    // workers: every point opens its own TraceReplaySource, so thread
    // count must not change a single bit of the results.
    RunOptions opt;
    opt.warmup = 40'000;
    opt.measure = 80'000;

    WorkloadSpec spec;
    spec.name = "rt-replay";
    spec.params.seed = 0x51;
    spec.params.target_static_insts = 24 * 1024;
    spec.params.num_handlers = 4;

    const std::string dir = ::testing::TempDir() + "btbt_runner";
    const std::string path = dir + "/" + spec.name + traceio::kTraceExt;
    std::filesystem::create_directories(dir);
    {
        auto wl = makeWorkload(spec);
        traceio::TraceWriter writer(path, spec.name, &wl->program());
        const std::uint64_t insts = opt.warmup + opt.measure + (64u << 10);
        for (std::uint64_t i = 0; i < insts; ++i)
            writer.append(wl->next());
        writer.finish();
    }

    std::vector<CpuConfig> configs(2);
    configs[0].btb = BtbConfig::ibtb(16);
    configs[1].btb = BtbConfig::bbtb(1, true);

    const auto replay = [&](const CpuConfig &cfg, const WorkloadSpec &,
                            const RunOptions &o) {
        traceio::TraceReplaySource src(path);
        Cpu cpu(cfg, src);
        cpu.run(o.warmup, o.measure);
        EXPECT_EQ(src.wraps(), 0u);
        return cpu.stats();
    };
    opt.threads = 2;
    const std::vector<SimStats> mt = sweep(configs, {spec}, opt, replay);
    opt.threads = 1;
    const std::vector<SimStats> st = sweep(configs, {spec}, opt, replay);
    const std::vector<SimStats> live = sweep(configs, {spec}, opt);

    ASSERT_EQ(mt.size(), 2u);
    ASSERT_EQ(st.size(), 2u);
    ASSERT_EQ(live.size(), 2u);
    for (std::size_t i = 0; i < mt.size(); ++i) {
        EXPECT_EQ(mt[i].cycles, st[i].cycles) << i;
        EXPECT_EQ(mt[i].instructions, st[i].instructions) << i;
        EXPECT_EQ(mt[i].ipc, st[i].ipc) << i;
        EXPECT_EQ(mt[i].counters, st[i].counters) << i;
        // ...and the recording replays exactly what live generation ran.
        EXPECT_EQ(mt[i].cycles, live[i].cycles) << i;
        EXPECT_EQ(mt[i].ipc, live[i].ipc) << i;
        EXPECT_EQ(mt[i].counters, live[i].counters) << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(Runner, RunOneFillsHeadlineStats)
{
    RunOptions opt;
    opt.warmup = 60'000;
    opt.measure = 120'000;

    WorkloadSpec spec;
    spec.name = "rt2";
    spec.params.seed = 0x43;
    spec.params.target_static_insts = 24 * 1024;
    spec.params.num_handlers = 4;

    CpuConfig cfg;
    const SimStats s = runOne(cfg, spec, opt);
    EXPECT_EQ(s.workload, "rt2");
    EXPECT_EQ(s.config, "I-BTB 16");
    EXPECT_GE(s.instructions, opt.measure);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.ipc, 0.0);
    EXPECT_GT(s.fetch_pcs_per_access, 1.0);
    EXPECT_GT(s.avg_dyn_bb_size, 2.0);
}
