/** @file Tests for the experiment engine (exp/experiment.h). */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>

#include "env_util.h"
#include "exp/experiment.h"

using namespace btbsim;

namespace {

std::vector<CpuConfig>
twoConfigs()
{
    std::vector<CpuConfig> v(2);
    v[0].btb = BtbConfig::ibtb(16);
    v[1].btb = BtbConfig::bbtb(1, true);
    return v;
}

std::vector<WorkloadSpec>
threeWorkloads()
{
    std::vector<WorkloadSpec> v(3);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i].name = "wl" + std::to_string(i);
        v[i].params.seed = 100 + i;
    }
    return v;
}

/** Fast fake simulation: deterministic stats from (config, workload). */
SimStats
fakeSim(const CpuConfig &c, const WorkloadSpec &w, const RunOptions &o)
{
    SimStats s;
    s.config = c.btb.name();
    s.workload = w.name;
    s.instructions = o.measure;
    s.cycles = o.measure * 2 + w.params.seed;
    s.ipc = static_cast<double>(s.instructions) /
            static_cast<double>(s.cycles);
    s.counters["fake.seed"] = static_cast<double>(w.params.seed);
    return s;
}

exp::ExperimentOptions
baseOptions(const std::string &cache_dir)
{
    exp::ExperimentOptions o;
    o.run.warmup = 10;
    o.run.measure = 1000;
    o.run.threads = 2;
    o.cache_dir = cache_dir;
    o.simulate = fakeSim;
    return o;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(Experiment, AllPointsRunAndAreOrdered)
{
    const auto r = exp::runExperiment("t-basic", twoConfigs(),
                                      threeWorkloads(), baseOptions(""));
    ASSERT_EQ(r.points.size(), 6u);
    EXPECT_TRUE(r.allOk());
    EXPECT_EQ(r.summary.total, 6u);
    EXPECT_EQ(r.summary.ok, 6u);
    EXPECT_EQ(r.summary.cached, 0u);
    EXPECT_EQ(r.summary.cacheHitRate(), 0.0);
    // Ordered by (config, workload), stats dense.
    EXPECT_EQ(r.points[0].config, "I-BTB 16");
    EXPECT_EQ(r.points[0].workload, "wl0");
    EXPECT_EQ(r.points[2].workload, "wl2");
    EXPECT_EQ(r.points[3].config, "B-BTB 1BS Splt");
    EXPECT_EQ(r.stats().size(), 6u);
    for (const auto &p : r.points) {
        EXPECT_EQ(p.status, exp::PointStatus::kOk);
        EXPECT_EQ(p.digest.size(), 64u);
    }
}

TEST(Experiment, SecondRunIsServedEntirelyFromCache)
{
    const std::string dir = freshDir("exp_cache");

    const auto cold = exp::runExperiment("t-cache", twoConfigs(),
                                         threeWorkloads(), baseOptions(dir));
    EXPECT_EQ(cold.summary.ok, 6u);
    EXPECT_EQ(cold.summary.cached, 0u);

    std::atomic<unsigned> sims{0};
    exp::ExperimentOptions warm_opt = baseOptions(dir);
    warm_opt.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                            const RunOptions &o) {
        sims.fetch_add(1);
        return fakeSim(c, w, o);
    };
    const auto warm = exp::runExperiment("t-cache", twoConfigs(),
                                         threeWorkloads(),
                                         std::move(warm_opt));
    EXPECT_EQ(sims.load(), 0u) << "warm run must not simulate";
    EXPECT_EQ(warm.summary.cached, 6u);
    EXPECT_EQ(warm.summary.cacheHitRate(), 1.0);

    // Bit-identical restoration, point by point.
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
        EXPECT_EQ(warm.points[i].status, exp::PointStatus::kCached);
        EXPECT_EQ(warm.points[i].stats, cold.points[i].stats);
    }
    std::filesystem::remove_all(dir);
}

TEST(Experiment, ChangedRunOptionsMissTheCache)
{
    const std::string dir = freshDir("exp_cache_miss");

    auto opt = baseOptions(dir);
    (void)exp::runExperiment("t-miss", twoConfigs(), threeWorkloads(), opt);

    opt.run.measure += 1; // Any result-affecting change -> new digests.
    const auto r = exp::runExperiment("t-miss", twoConfigs(),
                                      threeWorkloads(), std::move(opt));
    EXPECT_EQ(r.summary.cached, 0u);
    EXPECT_EQ(r.summary.ok, 6u);
    std::filesystem::remove_all(dir);
}

TEST(Experiment, PermanentFailureIsIsolatedToItsPoint)
{
    std::atomic<unsigned> wl1_calls{0};
    auto opt = baseOptions("");
    opt.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                       const RunOptions &o) {
        if (w.name == "wl1") {
            wl1_calls.fetch_add(1);
            throw std::runtime_error("port model exploded");
        }
        return fakeSim(c, w, o);
    };
    auto workloads = threeWorkloads();
    workloads[1].trace_seed = 4242;
    const auto r = exp::runExperiment("t-fail", twoConfigs(), workloads,
                                      std::move(opt));

    EXPECT_FALSE(r.allOk());
    EXPECT_EQ(r.summary.ok, 4u);
    EXPECT_EQ(r.summary.failed, 2u); // wl1 under both configs.
    EXPECT_EQ(r.stats().size(), 4u); // Failed points carry no stats.
    EXPECT_EQ(wl1_calls.load(), 2u); // One attempt per point, no retry.

    const auto fails = r.failures();
    ASSERT_EQ(fails.size(), 2u);
    for (const exp::PointResult *p : fails) {
        EXPECT_EQ(p->workload, "wl1");
        EXPECT_EQ(p->status, exp::PointStatus::kFailed);
        // The error names the reproducer ahead of the exception text.
        EXPECT_EQ(p->error, "config " + p->config +
                                ", workload wl1, trace_seed 4242, run key " +
                                p->digest + ": port model exploded");
    }
}

TEST(Experiment, ResumePicksUpWhereAnInterruptedSweepStopped)
{
    const std::string dir = freshDir("exp_resume");

    // First run "crashes" after completing the first config's points:
    // simulate the crash by only sweeping a subset.
    auto first = baseOptions(dir);
    (void)exp::runExperiment("t-resume", {twoConfigs()[0]},
                             threeWorkloads(), std::move(first));

    // Rerunning the full sweep on the same cache is the resume: the
    // finished points are hits and only the rest is simulated.
    std::atomic<unsigned> sims{0};
    auto second = baseOptions(dir);
    second.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                          const RunOptions &o) {
        sims.fetch_add(1);
        return fakeSim(c, w, o);
    };
    const auto r = exp::runExperiment("t-resume", twoConfigs(),
                                      threeWorkloads(), std::move(second));
    EXPECT_TRUE(r.allOk());
    EXPECT_EQ(r.summary.cached, 3u);
    EXPECT_EQ(r.summary.ok, 3u);
    EXPECT_EQ(sims.load(), 3u); // Only the second config's points ran.
    std::filesystem::remove_all(dir);
}

TEST(Experiment, EnvOptions)
{
    {
        test::ScopedEnv e1("BTBSIM_RUN_CACHE", "/tmp/expenv");
        const auto o = exp::ExperimentOptions::fromEnv("fallback");
        EXPECT_EQ(o.cache_dir, "/tmp/expenv");
    }

    test::ScopedEnv e1("BTBSIM_RUN_CACHE", nullptr);
    const auto d = exp::ExperimentOptions::fromEnv("fallback");
    EXPECT_EQ(d.cache_dir, "fallback");
}
