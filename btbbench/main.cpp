/**
 * @file
 * btbbench: the btbsim benchmark.
 *
 *   btbbench --workload realistic|limit|sweep --seed N --seconds S
 *            --trace 0|1 [--workdir DIR] [--reference-dir DIR]
 *            [--write-reference]
 *
 * One process per run. The environment is made hermetic first (every
 * BTBSIM_* knob cleared or pinned), set-up repeats (setup_s is the
 * median), then timed passes over the workload's point set repeat
 * until S seconds have passed (at least two). Every point's simulated
 * stats are digested and checked: pass to pass, against the reference
 * file for the default seed, and per workload (limit: replay == live).
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
 * and traced passes, then runs the per-layer ledger and prints the
 * per-layer metrics plus bench.trace_overhead. The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/env.h"
#include "core/soa_table.h"
#include "obs/span.h"

extern char **environ;

using namespace btbsim;
using namespace btbbench;

namespace {

/** Set-up repeats at least kMinSetupReps times and until kMinSetupSeconds
 *  have passed (at most kMaxSetupReps times), so a cheap set-up is timed
 *  over many repetitions and setup_s is steady from run to run. */
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 2000;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::size_t kMinPasses = 2;
/** Short points of the engine sweep the traced run adds on workloads
 *  that do not run the engine themselves. */
constexpr RunOptions kMiniSweep{5'000, 10'000, 6, 0};

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    fs::path workdir = ".bench_build/btbbench";
    fs::path reference_dir = "btbbench/reference";
    bool write_reference = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "btbbench: %s\nusage: btbbench --workload "
                 "realistic|limit|sweep --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--reference-dir DIR] "
                 "[--write-reference]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--write-reference") {
            a.write_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end || v.empty())
                usage("--seed takes an unsigned integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || v.empty() || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--workdir") {
            a.workdir = v;
        } else if (k == "--reference-dir") {
            a.reference_dir = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.write_reference && a.seed != kDefaultSeed)
        usage("--write-reference needs the default seed");
    return a;
}

/** Clear every BTBSIM_* variable, then pin the knobs that change what or
 *  how the simulator runs. Must run before the first library call. */
void
pinEnvironment()
{
    for (bool found = true; found;) {
        found = false;
        for (char **e = environ; *e; ++e) {
            if (std::strncmp(*e, "BTBSIM_", 7) != 0)
                continue;
            const char *eq = std::strchr(*e, '=');
            const std::string name(*e, eq ? eq - *e : std::strlen(*e));
            unsetenv(name.c_str());
            found = true;
            break;
        }
    }
    const char *pins[][2] = {
        {"BTBSIM_CHECK", "0"},        {"BTBSIM_WAYPRED", "off"},
        {"BTBSIM_SIMD", "auto"},      {"BTBSIM_SPANS", "0"},
        {"BTBSIM_SPAN_CAP", "4096"},  {"BTBSIM_HOST_COUNTERS", "0"},
        {"BTBSIM_TRACE", "0"},        {"BTBSIM_RUN_CACHE", "0"},
        {"BTBSIM_RESUME", "0"},       {"BTBSIM_SHARDS", "0"},
        {"BTBSIM_SAMPLE_INTERVAL", "100000"},
        {"BTBSIM_REPLAY_MMAP", "1"},  {"BTBSIM_REPLAY_ASYNC", "1"},
        {"BTBSIM_REPLAY_CACHE_MB", "256"},
        {"BTBSIM_REPLAY_SHARED", "0"},
    };
    for (const auto &p : pins)
        setenv(p[0], p[1], 1);
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char s[49] = {};
        std::memcpy(s, regs, 48);
        std::string m(s);
        const std::size_t b = m.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : m.substr(b);
    }
#endif
    return "unknown";
}

void
printHost(const Args &a)
{
    std::printf("btbbench workload=%s seed=%llu (default %llu, held-out "
                "%llu) seconds=%g trace=%d\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(kDefaultSeed),
                static_cast<unsigned long long>(kHeldOutSeed), a.seconds,
                a.trace ? 1 : 0);
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
                "simd=%s threads=%u\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                __VERSION__, BTBBENCH_BUILD_TYPE,
                simdKindName(resolveSimd()), benchThreads());
    std::string knobs;
    for (const env::Knob &k : env::knobs()) {
        const std::string v = env::raw(k.name);
        if (!v.empty())
            knobs += std::string(" ") + (k.name + 7) + "=" + v;
    }
    std::printf("knobs:%s (all other BTBSIM_* unset)\n", knobs.c_str());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &v)
{
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return v.empty() ? 0.0 : std::exp(acc / static_cast<double>(v.size()));
}

// ---- reference digests ------------------------------------------------

struct RefPoint
{
    std::string digest;
    std::vector<std::pair<std::string, double>> fields;
};

/** Reference file: "point<TAB>id<TAB>digest" lines, each followed by
 *  "<TAB>name<TAB>value" lines for the fields the digest covers. */
std::map<std::string, RefPoint>
loadReference(const fs::path &file)
{
    std::map<std::string, RefPoint> ref;
    std::ifstream is(file);
    std::string line;
    RefPoint *cur = nullptr;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> col;
        std::stringstream ss(line);
        for (std::string c; std::getline(ss, c, '\t');)
            col.push_back(c);
        if (col.size() == 3 && col[0] == "point") {
            cur = &ref[col[1]];
            cur->digest = col[2];
        } else if (col.size() == 3 && col[0].empty() && cur) {
            cur->fields.emplace_back(col[1], std::strtod(col[2].c_str(),
                                                         nullptr));
        } else {
            throw std::runtime_error("malformed reference line in " +
                                     file.string() + ": " + line);
        }
    }
    return ref;
}

void
writeReference(const fs::path &file, const std::string &workload,
               const PassRun &pass)
{
    fs::create_directories(file.parent_path());
    std::ofstream os(file);
    os << "# btbbench reference digests: workload " << workload
       << ", seed " << kDefaultSeed
       << ". Regenerate with: python3 btbbench/run.py --workload "
       << workload << " --write-reference\n";
    char buf[64];
    for (const PointRun &p : pass.points) {
        os << "point\t" << p.id() << '\t' << p.digest << '\n';
        for (const auto &[name, value] : digestFields(p.stats)) {
            std::snprintf(buf, sizeof buf, "%.17g", value);
            os << '\t' << name << '\t' << buf << '\n';
        }
    }
    if (!os)
        throw std::runtime_error("cannot write " + file.string());
}

// ---- output -------------------------------------------------------------

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Metrics &m)
{
    std::printf("\n%-28s %20s  %s\n", "metric", "value", "unit");
    for (const auto &[name, vu] : m)
        std::printf("%-28s %20.6f  %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    bool first = true;
    for (const auto &[name, vu] : m) {
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(vu.first) ? vu.first : 0.0);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + vu.second + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int
run(const Args &a, Workbench &bench, const fs::path &work)
{
    obs::SpanCollector &spans = obs::SpanCollector::instance();

    // ---- set-up, repeated: setup_s is the median -------------------------
    std::vector<double> setups;
    const auto t_setup = Clock::now();
    for (int k = 0; k < kMaxSetupReps; ++k) {
        if (k >= kMinSetupReps && secondsSince(t_setup) >= kMinSetupSeconds)
            break;
        const fs::path dir = work / ("setup" + std::to_string(k));
        const auto t0 = Clock::now();
        bench.setup(dir);
        setups.push_back(secondsSince(t0));
        if (k > 0)
            fs::remove_all(work / ("setup" + std::to_string(k - 1)));
    }
    std::printf("setup_s: %zu set-ups, median %.6g, min %.6g, max %.6g\n",
                setups.size(), median(setups),
                *std::min_element(setups.begin(), setups.end()),
                *std::max_element(setups.begin(), setups.end()));

    // ---- timed passes ------------------------------------------------------
    // An untimed warm-up pass first: the first pass of a process runs
    // markedly slower (cold page cache, allocator growth, lazy binding).
    // With --trace 1 passes alternate untraced / traced; the per-layer
    // metrics come from the traced ones only.
    const PassRun warm = bench.pass(work / "warmup");
    fs::remove_all(work / "warmup");
    std::printf("warm-up pass: %.4f s, %zu points\n", warm.wall_s,
                warm.points.size());
    std::vector<PassRun> plain, traced;
    const auto t_start = Clock::now();
    for (unsigned i = 0;; ++i) {
        const bool need = a.trace ? (plain.empty() || traced.empty())
                                  : plain.size() < kMinPasses;
        if (!need && secondsSince(t_start) >= a.seconds)
            break;
        const bool trace_this = a.trace && i % 2 == 1;
        spans.setEnabled(trace_this);
        const fs::path dir = work / ("pass" + std::to_string(i));
        PassRun p = bench.pass(dir);
        spans.setEnabled(false);
        fs::remove_all(dir);
        std::printf("pass %u%s: %.4f s, %zu points\n", i,
                    trace_this ? " (traced)" : "", p.wall_s,
                    p.points.size());
        (trace_this ? traced : plain).push_back(std::move(p));
    }

    // ---- correctness -------------------------------------------------------
    std::vector<std::string> failures;
    std::size_t attempted = 0;
    std::size_t repeated = 0; // Failures charged beyond their one message.
    std::vector<const PassRun *> all = {&warm};
    for (const PassRun &p : plain)
        all.push_back(&p);
    for (const PassRun &p : traced)
        all.push_back(&p);
    const PassRun &first = warm;
    for (const PassRun *p : all) {
        attempted += p->points.size() + p->errors.size();
        failures.insert(failures.end(), p->errors.begin(), p->errors.end());
        if (p->points.size() != first.points.size()) {
            failures.push_back("point count differs between passes");
            continue;
        }
        for (std::size_t j = 0; j < p->points.size(); ++j) {
            const PointRun &x = first.points[j], &y = p->points[j];
            if (x.id() != y.id() || x.digest != y.digest)
                failures.push_back(
                    y.id() + ": differs between passes, " +
                    firstDifference(digestFields(x.stats),
                                    digestFields(y.stats)));
        }
    }
    const fs::path ref_file = a.reference_dir / (a.workload + ".tsv");
    if (a.write_reference) {
        writeReference(ref_file, a.workload, first);
        std::printf("wrote %s\n", ref_file.string().c_str());
    } else if (a.seed == kDefaultSeed) {
        // Only the first pass is compared, but the pass-to-pass check holds
        // every other pass to its digests, so a point that differs from the
        // reference differs in all of them and is charged once per pass.
        // One such point thus lowers pass_ratio by at least 1/points
        // (1/66 on sweep), past its 0.01 bound on every workload.
        const std::map<std::string, RefPoint> ref = loadReference(ref_file);
        if (ref.size() != first.points.size())
            failures.push_back("reference " + ref_file.string() + " holds " +
                               std::to_string(ref.size()) + " points, run has " +
                               std::to_string(first.points.size()));
        for (const PointRun &p : first.points) {
            auto it = ref.find(p.id());
            if (it == ref.end())
                failures.push_back(p.id() + ": no reference digest");
            else if (it->second.digest != p.digest) {
                failures.push_back(
                    p.id() + ": differs from reference, " +
                    firstDifference(it->second.fields,
                                    digestFields(p.stats)));
                repeated += all.size() - 1;
            }
        }
    }
    attempted += bench.check(first, failures);

    // ---- metrics -----------------------------------------------------------
    Metrics m;
    if (!a.trace) {
        std::vector<double> walls, latencies, ipcs, mips;
        for (const PassRun &p : plain) {
            walls.push_back(p.wall_s);
            for (const PointRun &pt : p.points)
                latencies.push_back(pt.wall_s * 1e3);
        }
        for (std::size_t j = 0; j < first.points.size(); ++j) {
            std::vector<double> rates;
            for (const PassRun &p : plain)
                if (j < p.points.size() && p.points[j].run_s > 0)
                    rates.push_back(p.points[j].sim_insts / 1e6 /
                                    p.points[j].run_s);
            mips.push_back(median(rates));
            ipcs.push_back(first.points[j].stats.ipc);
        }
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        m["wall_s"] = {median(walls), "s"};
        m["sim_mips"] = {geomean(mips), "Minst/s"};
        m["setup_s"] = {median(setups), "s"};
        m["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
        m["ipc_geomean"] = {geomean(ipcs), "IPC"};
        m["point_p50_ms"] = {percentile(latencies, 0.5), "ms"};
        m["point_p90_ms"] = {percentile(latencies, 0.9), "ms"};
        std::printf("point latency samples: %zu (p90 has %zu beyond it)\n",
                    latencies.size(), latencies.size() / 10);
        const double failed = static_cast<double>(
            std::min(failures.size() + repeated, attempted));
        m["pass_ratio"] = {1.0 - failed / static_cast<double>(attempted),
                           "ratio"};
    } else {
        std::vector<double> pw, tw;
        for (const PassRun &p : plain)
            pw.push_back(p.wall_s);
        for (const PassRun &p : traced)
            tw.push_back(p.wall_s);
        m["bench.trace_overhead"] = {median(tw) / median(pw), "ratio"};
        passLayerMetrics(traced.front(), m);

        spans.setEnabled(true);
        if (first.workers == 0) {
            // The engine and exporter, on this workload's configurations.
            const fs::path trace_dir = bench.traceDir();
            if (!trace_dir.empty())
                setenv("BTBSIM_TRACE_DIR", trace_dir.c_str(), 1);
            const PassRun mini = runSweep(bench.configs(), bench.suite(),
                                          kMiniSweep, work / "exp");
            unsetenv("BTBSIM_TRACE_DIR");
            attempted += mini.points.size() + mini.errors.size();
            failures.insert(failures.end(), mini.errors.begin(),
                            mini.errors.end());
            engineMetrics(mini, m);
        }
        measureLayers(bench, work / "layers", m);
        spans.setEnabled(false);

        const fs::path dump =
            a.workdir / ("spans-" + a.workload + "-seed" +
                         std::to_string(a.seed) + ".json");
        std::ofstream os(dump);
        spans.writeChromeTrace(os);
        std::printf("spans: %s\n", dump.string().c_str());
    }

    for (const std::string &f : failures)
        std::fprintf(stderr, "FAIL [%s, seed %llu] %s\n", a.workload.c_str(),
                     static_cast<unsigned long long>(a.seed), f.c_str());
    const std::size_t failed =
        std::min(failures.size() + repeated, attempted);
    printResult(failed == 0, attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "btbbench: refusing to time a build with "
                         "assertions on; build with NDEBUG (Release)\n");
    return 2;
#endif
    const Args a = parseArgs(argc, argv);
    pinEnvironment();
    const std::unique_ptr<Workbench> bench =
        makeWorkbench(a.workload, a.seed);
    if (!bench)
        usage(("unknown workload " + a.workload).c_str());
    printHost(a);

    const fs::path work =
        a.workdir / ("work-" + a.workload + "-" + std::to_string(getpid()));
    int rc = 1;
    try {
        fs::remove_all(work);
        fs::create_directories(work);
        rc = run(a, *bench, work);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "btbbench: %s\n", e.what());
        rc = 1;
    }
    std::error_code ec;
    fs::remove_all(work, ec);
    return rc;
}
