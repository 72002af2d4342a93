#include "bench_common.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/env.h"
#include "exp/experiment.h"
#include "obs/export.h"
#include "obs/span.h"

namespace btbsim::bench {

namespace {

/// Slug of the running bench's title, for default output file names.
std::string g_bench_slug = "bench";

/// Experiment metrics of the last runAll (embedded in the result JSON).
std::map<std::string, double> g_exp_counters;
bool g_have_experiment = false;

/// Failed points' errors (each names its reproducer), for finish().
std::vector<std::string> g_failures;

} // namespace

Context
setup(const std::string &title, const std::string &paper_ref)
{
    obs::ObsSpan span("setup");
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
    for (std::size_t c = 0; c < configs.size(); ++c)
        std::printf("  %-28s geomean IPC %.3f\n", tagged(c).c_str(),
                    geomeanIpc(rs.all(), tagged(c)));

    const exp::ExperimentSummary &sum = res.summary;
    std::printf("  experiment: %zu points — %zu simulated, %zu cached "
                "(%.1f%% hits), %zu failed, %.2fs\n\n",
                sum.total, sum.ok, sum.cached, sum.cacheHitRate() * 100.0,
                sum.failed, sum.wall_seconds);

    g_exp_counters = res.counters();
    g_have_experiment = true;
    for (const exp::PointResult *p : res.failures()) {
        // The engine's error opens with "config <name>, "; tag the name.
        std::string error = p->error;
        error.insert(std::strlen("config ") + p->config.size(),
                     suffix(p->config_index));
        std::fprintf(stderr, "btbsim: sweep point FAILED: %s\n",
                     error.c_str());
        g_failures.push_back(std::move(error));
    }
    return rs;
}

int
finish()
{
    // Perfetto span dump on bench exit (BTBSIM_SPAN_OUT; off by default).
    const std::string trace_path =
        obs::SpanCollector::instance().writeChromeTraceFromEnv(
            "results/spans/" + g_bench_slug + ".trace.json");
    if (!trace_path.empty())
        std::printf("wrote %s (host span trace)\n", trace_path.c_str());

    if (g_failures.empty())
        return 0;
    std::fprintf(stderr, "btbsim: %zu sweep point(s) failed:\n",
                 g_failures.size());
    for (const std::string &f : g_failures)
        std::fprintf(stderr, "  %s\n", f.c_str());
    return 1;
}

bool
writeJsonTo(const ResultSet &results, const std::string &bench_name,
            const std::string &baseline, const std::string &path)
{
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream os(p);
    if (!os)
        return false;
    // The whole-process host span profile rides along in every result
    // document, so `btbsim-stats prof` works on any bench JSON.
    const obs::ProfileBlock profile =
        obs::SpanCollector::instance().profile();
    results.writeJson(os, bench_name, baseline,
                      g_have_experiment ? &g_exp_counters : nullptr,
                      &profile);
    return static_cast<bool>(os);
}

void
printFigure(const ResultSet &results, const std::string &baseline)
{
    std::printf("IPC normalized to %s:\n", baseline.c_str());
    results.printNormalizedTable(std::cout, baseline);
    std::printf("\nPer-configuration detail (suite means):\n");
    results.printDetailTable(std::cout);
    std::printf("\n");
    exportResults(results, baseline);
}

void
exportResults(const ResultSet &results, const std::string &baseline)
{
    obs::ObsSpan span("export");
    const std::string json_path = env::outPath(
        "BTBSIM_JSON_OUT", "results/" + g_bench_slug + ".json");
    if (!json_path.empty()) {
        if (writeJsonTo(results, g_bench_slug, baseline, json_path))
            std::printf("wrote %s\n\n", json_path.c_str());
        else
            std::fprintf(stderr, "btbsim: failed to write %s\n",
                         json_path.c_str());
    }
}

void
expectation(const std::string &text)
{
    std::printf("Paper-shape expectation: %s\n\n", text.c_str());
}

} // namespace btbsim::bench
