/**
 * @file
 * Host-throughput microbench: simulation speed (Mi/s of simulated
 * instructions per host second) for each of the five BTB organizations
 * over the synthetic server suite. This tracks the speed of the
 * *simulator*, not of the simulated frontend — run it on a Release build
 * and compare geomeans across commits to catch host-side regressions in
 * the PcGen/BtbOrg hot path.
 *
 * Scale with BTBSIM_WARMUP / BTBSIM_MEASURE / BTBSIM_TRACES like the
 * figure benches. Each (organization, workload) point is timed over
 * kReps runs and the fastest rep is kept (best-of-N rejects scheduler
 * noise on loaded hosts). BTBSIM_JSON_OUT writes the host JSON block
 * (schema "btbsim-simspeed-v1") to the given path, or to
 * results/bench_simspeed.json when set to 1.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "sim/cpu.h"
#include "sim/runner.h"
#include "trace/suite.h"

using namespace btbsim;

namespace {

constexpr int kReps = 2;

/** One canonical configuration per organization (Table 1 geometry). */
std::vector<CpuConfig>
speedConfigs()
{
    std::vector<BtbConfig> btbs = {
        BtbConfig::ibtb(16),
        BtbConfig::rbtb(3),
        BtbConfig::bbtb(2),
        BtbConfig::mbbtb(3, PullPolicy::kAllBr),
        BtbConfig::hetero(2),
    };
    std::vector<CpuConfig> cfgs;
    for (const BtbConfig &b : btbs) {
        CpuConfig c;
        c.btb = b;
        cfgs.push_back(c);
    }
    return cfgs;
}

/** Best-of-kReps simulation throughput in Mi/s for one point. */
double
timePoint(const CpuConfig &cfg, const WorkloadSpec &spec,
          const RunOptions &opt)
{
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        Workload wl(spec);
        Cpu cpu(cfg, wl);
        const auto t0 = std::chrono::steady_clock::now();
        cpu.run(opt.warmup, opt.measure);
        const auto t1 = std::chrono::steady_clock::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        const double insts = static_cast<double>(opt.warmup) +
                             static_cast<double>(cpu.stats().instructions);
        const double mips = secs > 0 ? insts / 1e6 / secs : 0.0;
        if (mips > best)
            best = mips;
    }
    return best;
}

double
geomeanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

struct OrgResult
{
    std::string config;
    std::vector<double> mips; ///< One per workload, suite order.
    double geo = 0.0;
};

void
writeJson(const std::vector<OrgResult> &orgs,
          const std::vector<WorkloadSpec> &suite, const RunOptions &opt,
          double overall, const std::string &path)
{
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream os(p);
    if (!os) {
        std::fprintf(stderr, "simspeed: cannot write %s\n", path.c_str());
        return;
    }
    os << "{\n  \"schema\": \"btbsim-simspeed-v1\",\n"
       << "  \"bench\": \"simspeed\",\n"
#ifdef NDEBUG
       << "  \"build\": \"optimized\",\n"
#else
       << "  \"build\": \"debug\",\n"
#endif
       << "  \"warmup\": " << opt.warmup << ",\n"
       << "  \"measure\": " << opt.measure << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"geomean_minst_per_sec\": " << overall << ",\n"
       << "  \"orgs\": [\n";
    for (std::size_t i = 0; i < orgs.size(); ++i) {
        const OrgResult &o = orgs[i];
        os << "    {\"config\": \"" << o.config
           << "\", \"geomean_minst_per_sec\": " << o.geo
           << ", \"workloads\": [";
        for (std::size_t w = 0; w < o.mips.size(); ++w) {
            os << "{\"workload\": \"" << suite[w].name
               << "\", \"minst_per_sec\": " << o.mips[w] << "}";
            if (w + 1 < o.mips.size())
                os << ", ";
        }
        os << "]}" << (i + 1 < orgs.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main()
{
    const RunOptions opt = RunOptions::fromEnv();
    const std::vector<WorkloadSpec> suite = serverSuite(opt.traces);
    const std::vector<CpuConfig> configs = speedConfigs();

    std::printf("=== Simulator host throughput (Mi/s, best of %d) ===\n",
                kReps);
#ifndef NDEBUG
    std::printf("note: assertions enabled — compare Release builds only\n");
#endif
    std::printf("scale: warmup=%llu measure=%llu traces=%zu\n\n",
                static_cast<unsigned long long>(opt.warmup),
                static_cast<unsigned long long>(opt.measure), suite.size());

    std::printf("%-22s", "config");
    for (const WorkloadSpec &spec : suite)
        std::printf(" %10s", spec.name.c_str());
    std::printf(" %10s\n", "geomean");

    std::vector<OrgResult> results;
    std::vector<double> geos;
    for (const CpuConfig &cfg : configs) {
        OrgResult r;
        r.config = cfg.btb.name();
        for (const WorkloadSpec &spec : suite)
            r.mips.push_back(timePoint(cfg, spec, opt));
        r.geo = geomeanOf(r.mips);
        geos.push_back(r.geo);

        std::printf("%-22s", r.config.c_str());
        for (double m : r.mips)
            std::printf(" %10.3f", m);
        std::printf(" %10.3f\n", r.geo);
        results.push_back(std::move(r));
    }

    const double overall = geomeanOf(geos);
    std::printf("\noverall geomean: %.3f Mi/s\n", overall);

    const std::string json =
        env::outPath("BTBSIM_JSON_OUT", "results/bench_simspeed.json");
    if (!json.empty())
        writeJson(results, suite, opt, overall, json);
    return 0;
}
