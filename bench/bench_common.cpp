#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/env.h"
#include "exp/experiment.h"
#include "obs/export.h"

namespace btbsim::bench {

namespace {

/// Slug of the running bench's title, for default output file names.
std::string g_bench_slug = "bench";

/// Failed points so far (runAll reports each one), for finish().
std::size_t g_failed_points = 0;

/// Whether @p results hold any run of @p config.
bool
hasRuns(const ResultSet &results, const std::string &config)
{
    return std::any_of(results.all().begin(), results.all().end(),
                       [&](const SimStats &s) { return s.config == config; });
}

} // namespace

Context
setup(const std::string &title, const std::string &paper_ref)
{
    Context ctx;
    ctx.opt = RunOptions::fromEnv();
    ctx.suite = serverSuite(ctx.opt.traces);
    g_bench_slug = obs::slugify(title);
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s of Perais & Sheikh, \"Branch Target Buffer\n"
                "Organizations\", MICRO 2023.\n",
                paper_ref.c_str());
    std::printf("%zu workloads, %llu warmup + %llu measured instructions each\n",
                ctx.suite.size(),
                static_cast<unsigned long long>(ctx.opt.warmup),
                static_cast<unsigned long long>(ctx.opt.measure));
    std::printf("==============================================================\n\n");
    return ctx;
}

CpuConfig
idealIbtb16()
{
    CpuConfig cfg;
    cfg.btb = BtbConfig::ibtb(16);
    cfg.btb.makeIdeal();
    return cfg;
}

CpuConfig
realIbtb16()
{
    CpuConfig cfg;
    cfg.btb = BtbConfig::ibtb(16);
    return cfg;
}

ResultSet
runAll(const Context &ctx, const std::vector<CpuConfig> &configs,
       const std::vector<std::string> &suffixes)
{
    auto suffix = [&](std::size_t c) {
        return suffixes.empty() ? std::string() : suffixes[c];
    };
    auto tagged = [&](std::size_t c) {
        return configs[c].btb.name() + suffix(c);
    };

    exp::ExperimentOptions opt = exp::ExperimentOptions::fromEnv();
    opt.run = ctx.opt;

    // Compact live progress: one char per completed point.
    const std::size_t total = configs.size() * ctx.suite.size();
    std::size_t done = 0;
    opt.on_point = [&](const exp::PointResult &p) {
        char c = '.';
        switch (p.status) {
          case exp::PointStatus::kCached:
            c = 'c';
            break;
          case exp::PointStatus::kFailed:
            c = 'F';
            break;
          default:
            break;
        }
        std::printf("%c", c);
        if (++done % 64 == 0 || done == total)
            std::printf(" [%zu/%zu]\n", done, total);
        std::fflush(stdout);
    };

    std::printf("  sweep: %zu configs x %zu workloads = %zu points%s\n",
                configs.size(), ctx.suite.size(), total,
                opt.cache_dir.empty()
                    ? " (run cache off)"
                    : (" (cache: " + opt.cache_dir + ")").c_str());
    const exp::ExperimentResult res =
        exp::runExperiment(g_bench_slug, configs, ctx.suite, std::move(opt));

    ResultSet rs;
    for (const exp::PointResult &p : res.points) {
        if (!p.hasStats())
            continue;
        SimStats s = p.stats;
        s.config = tagged(p.config_index);
        rs.add(s);
    }

    std::printf("\n");
    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (hasRuns(rs, tagged(c)))
            std::printf("  %-28s geomean IPC %.3f\n", tagged(c).c_str(),
                        geomeanIpc(rs.all(), tagged(c)));
        else
            std::printf("  %-28s no results (every point failed)\n",
                        tagged(c).c_str());
    }

    const exp::ExperimentSummary &sum = res.summary;
    std::printf("  experiment: %zu points — %zu simulated, %zu cached "
                "(%.1f%% hits), %zu failed, %.2fs\n\n",
                sum.total, sum.ok, sum.cached, sum.cacheHitRate() * 100.0,
                sum.failed, sum.wall_seconds);

    for (const exp::PointResult *p : res.failures()) {
        // The engine's error opens with "config <name>, "; tag the name.
        std::string error = p->error;
        error.insert(std::strlen("config ") + p->config.size(),
                     suffix(p->config_index));
        std::fprintf(stderr, "btbsim: sweep point FAILED: %s\n",
                     error.c_str());
        ++g_failed_points;
    }
    return rs;
}

int
finish()
{
    if (g_failed_points == 0)
        return 0;
    std::fprintf(stderr, "btbsim: %zu sweep point(s) failed (reported above)\n",
                 g_failed_points);
    return 1;
}

void
printFigure(const ResultSet &results, const std::string &baseline)
{
    if (hasRuns(results, baseline)) {
        std::printf("IPC normalized to %s:\n", baseline.c_str());
        results.printNormalizedTable(std::cout, baseline);
    } else {
        std::printf("IPC normalized to %s: no results (every baseline point "
                    "failed)\n",
                    baseline.c_str());
    }
    std::printf("\nPer-configuration detail (suite means):\n");
    results.printDetailTable(std::cout);
    std::printf("\n");
    exportResults(results);
}

void
exportResults(const ResultSet &results)
{
    const std::string json_path = env::outPath(
        "BTBSIM_JSON_OUT", "results/" + g_bench_slug + ".json");
    if (json_path.empty())
        return;
    const std::filesystem::path p(json_path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream os(p);
    // A stream that failed to open ignores the write and reports below.
    results.writeJson(os, g_bench_slug);
    if (os)
        std::printf("wrote %s\n\n", json_path.c_str());
    else
        std::fprintf(stderr, "btbsim: failed to write %s\n",
                     json_path.c_str());
}

void
expectation(const std::string &text)
{
    std::printf("Paper-shape expectation: %s\n\n", text.c_str());
}

} // namespace btbsim::bench
