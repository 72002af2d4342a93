/**
 * @file
 * The benchmark's three workloads and the helpers they share.
 *
 *  - realistic: the five canonical organizations on the Table-1 core over
 *    the live-generated server suite, one long Cpu::run per point. The
 *    per-cycle layers (backend, memory, frontend, bpred, core) do almost
 *    all the work; program generation is set-up.
 *  - limit: the Fig. 4 / 11a limit study — idealistic 512K-entry
 *    organizations plus MB-BTB 64 AllBr on the ideal backend, replaying
 *    .btbt recordings made during set-up. Exercises the backend's ideal
 *    path, tables far larger than the host caches, and traceio decoding.
 *  - sweep: a figure-style grid of mixed realistic and idealistic
 *    geometries through exp::Experiment with short points and a fresh
 *    run cache, ending in a result-JSON export. Per-point overhead
 *    (generation, construction, engine scheduling, cache store, export)
 *    dominates.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/btb_org.h"
#include "exp/experiment.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/span.h"
#include "sim/cpu.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

namespace btbbench {

using namespace btbsim;

namespace {

/** SplitMix64 finalizer: decorrelates remapped seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The paper's five canonical organizations (Table-1 geometry). */
std::vector<BtbConfig>
canonicalOrgs()
{
    return {BtbConfig::ibtb(16), BtbConfig::rbtb(3), BtbConfig::bbtb(2),
            BtbConfig::mbbtb(3, PullPolicy::kAllBr), BtbConfig::hetero(2)};
}

CpuConfig
withBtb(const BtbConfig &b)
{
    CpuConfig c;
    c.btb = b;
    return c;
}

/**
 * Simulate one point directly: open the source, construct the Cpu, run.
 * @p open returns the point's TraceSource (its owner outlives the call).
 */
template <typename Open>
PointRun
runDirect(const CpuConfig &cfg, const RunOptions &opt, Open &&open)
{
    PointRun p;
    const auto t0 = Clock::now();
    obs::ObsSpan point_span("point");
    TraceSource &src = open();
    std::unique_ptr<Cpu> cpu;
    {
        obs::ObsSpan span("sim.ctor");
        cpu = std::make_unique<Cpu>(cfg, src);
    }
    const auto t1 = Clock::now();
    {
        obs::ObsSpan span("sim.run");
        cpu->run(opt.warmup, opt.measure);
    }
    p.run_s = secondsSince(t1);
    p.stats = cpu->stats();
    p.config = p.stats.config;
    p.workload = p.stats.workload;
    p.digest = statsDigest(p.stats);
    p.sim_insts = static_cast<double>(cpu->committed());
    p.sim_cycles = static_cast<double>(cpu->cycleCount());
    p.wall_s = secondsSince(t0);
    return p;
}

/**
 * One pass over @p configs x @p suite, the points spread over
 * benchThreads() threads (a point runs start to finish on one thread).
 * @p point(cfg, w) simulates one point; an exception fails only its
 * point. Points keep (config, workload) order.
 */
template <typename Point>
PassRun
parallelPass(const std::vector<CpuConfig> &configs,
             const std::vector<WorkloadSpec> &suite, Point &&point)
{
    const std::size_t n = configs.size() * suite.size();
    std::vector<PointRun> points(n);
    std::vector<std::string> errors(n);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            const CpuConfig &cfg = configs[i / suite.size()];
            const std::size_t w = i % suite.size();
            try {
                points[i] = point(cfg, w);
            } catch (const std::exception &e) {
                errors[i] = cfg.btb.name() + " | " + suite[w].name + ": " +
                            e.what();
            }
        }
    };
    PassRun r;
    const auto t0 = Clock::now();
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 1; t < std::min<std::size_t>(benchThreads(), n); ++t)
            pool.emplace_back(worker);
        worker();
    }
    r.wall_s = secondsSince(t0);
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i].empty())
            r.points.push_back(std::move(points[i]));
        else
            r.errors.push_back(std::move(errors[i]));
    }
    return r;
}

/** Live-interpreted point over a generated program (shared read-only). */
PointRun
runLive(const CpuConfig &cfg, const RunOptions &opt, const Program &program,
        const WorkloadSpec &spec)
{
    SyntheticTrace src(program, spec.trace_seed, spec.name);
    return runDirect(cfg, opt, [&]() -> TraceSource & { return src; });
}

// ---- realistic --------------------------------------------------------

class Realistic : public Workbench
{
  public:
    explicit Realistic(std::uint64_t seed)
    {
        suite_ = benchSuite(seed);
        for (const BtbConfig &b : canonicalOrgs())
            configs_.push_back(withBtb(b));
    }

    void
    setup(const fs::path &) override
    {
        programs_.clear();
        for (const WorkloadSpec &spec : suite_)
            programs_.push_back(generateProgram(spec.params));
    }

    PassRun
    pass(const fs::path &) override
    {
        return parallelPass(configs_, suite_,
                            [&](const CpuConfig &cfg, std::size_t w) {
                                return runLive(cfg, kRun, programs_[w],
                                               suite_[w]);
                            });
    }

  private:
    static constexpr RunOptions kRun{100'000, 200'000, 6, 1};
    std::vector<Program> programs_;
};

// ---- limit ------------------------------------------------------------

class Limit : public Workbench
{
  public:
    explicit Limit(std::uint64_t seed)
    {
        suite_ = benchSuite(seed);
        std::vector<BtbConfig> orgs = canonicalOrgs();
        orgs.push_back(BtbConfig::mbbtb(3, PullPolicy::kAllBr, 64));
        for (BtbConfig &b : orgs)
            configs_.push_back(withBtb(b.makeIdeal()).withIdealBackend());
    }

    /** Record every workload's stream, then open each recording once to
     *  validate it. The recording outlasts the longest point: the
     *  frontend runs ahead of commit by up to the 8K-entry ideal window
     *  plus the queues, and a replay that wrapped would differ from the
     *  live stream. */
    void
    setup(const fs::path &dir) override
    {
        fs::create_directories(dir);
        dir_ = dir;
        programs_.clear();
        const std::uint64_t len = kRun.warmup + kRun.measure + 200'000;
        for (const WorkloadSpec &spec : suite_) {
            const Program &program =
                programs_.emplace_back(generateProgram(spec.params));
            SyntheticTrace src(program, spec.trace_seed, spec.name);
            traceio::TraceWriter writer(path(spec), spec.name, &program);
            for (std::uint64_t i = 0; i < len; ++i)
                writer.append(src.next());
            writer.finish();
            traceio::TraceReplaySource check(path(spec));
            if (check.instructionCount() != len)
                throw std::runtime_error("short recording: " +
                                         path(spec).string());
        }
    }

    PassRun
    pass(const fs::path &) override
    {
        return parallelPass(
            configs_, suite_, [&](const CpuConfig &cfg, std::size_t w) {
                std::unique_ptr<traceio::TraceReplaySource> replay;
                PointRun p = runDirect(cfg, kRun, [&]() -> TraceSource & {
                    obs::ObsSpan span("traceio.open");
                    replay = std::make_unique<traceio::TraceReplaySource>(
                        path(suite_[w]));
                    return *replay;
                });
                if (replay->wraps() != 0)
                    throw std::runtime_error("replay wrapped past the "
                                             "recording");
                return p;
            });
    }

    /** Every replayed point must equal the same point run live. */
    std::size_t
    check(const PassRun &pass, std::vector<std::string> &failures) override
    {
        const PassRun live = parallelPass(
            configs_, suite_, [&](const CpuConfig &cfg, std::size_t w) {
                return runLive(cfg, kRun, programs_[w], suite_[w]);
            });
        failures.insert(failures.end(), live.errors.begin(),
                        live.errors.end());
        std::map<std::string, const PointRun *> by_id;
        for (const PointRun &p : live.points)
            by_id[p.id()] = &p;
        for (const PointRun &replayed : pass.points) {
            const auto it = by_id.find(replayed.id());
            if (it == by_id.end())
                continue; // Its live run failed; reported above.
            if (it->second->digest != replayed.digest)
                failures.push_back(
                    replayed.id() + ": replay differs from live, " +
                    firstDifference(digestFields(replayed.stats),
                                    digestFields(it->second->stats)));
        }
        return live.points.size() + live.errors.size();
    }

    fs::path traceDir() const override { return dir_; }

  private:
    static constexpr RunOptions kRun{100'000, 200'000, 6, 1};
    fs::path dir_;
    std::vector<Program> programs_;

    fs::path
    path(const WorkloadSpec &spec) const
    {
        return dir_ / (spec.name + ".btbt");
    }
};

// ---- sweep ------------------------------------------------------------

class Sweep : public Workbench
{
  public:
    explicit Sweep(std::uint64_t seed) : seed_(seed) {}

    /** What precedes Experiment::run in a figure bench: building the
     *  configuration x suite grid. Programs are generated and structures
     *  built per point inside the sweep, so they are timed there. */
    void
    setup(const fs::path &) override
    {
        suite_ = benchSuite(seed_);
        configs_.clear();
        // Fig. 7 / 8 / 10 style: the ideal normalization baselines plus
        // realistic R-, B- and MB-BTB geometries.
        BtbConfig ideal_i = BtbConfig::ibtb(16);
        BtbConfig ideal_b = BtbConfig::bbtb(2);
        for (const BtbConfig &b :
             {ideal_i.makeIdeal(), ideal_b.makeIdeal(), BtbConfig::ibtb(16),
              BtbConfig::rbtb(3), BtbConfig::rbtb(3, 64, /*dual=*/true),
              BtbConfig::rbtb(4, 128), BtbConfig::bbtb(1, /*split=*/true),
              BtbConfig::bbtb(2), BtbConfig::mbbtb(2, PullPolicy::kAllBr),
              BtbConfig::mbbtb(3, PullPolicy::kCallDir),
              BtbConfig::mbbtb(3, PullPolicy::kAllBr, 64)})
            configs_.push_back(withBtb(b));
    }

    PassRun
    pass(const fs::path &dir) override
    {
        return runSweep(configs_, suite_, kRun, dir);
    }

  private:
    static constexpr RunOptions kRun{20'000, 50'000, 6, 0};
    std::uint64_t seed_;
};

} // namespace

std::vector<WorkloadSpec>
benchSuite(std::uint64_t seed)
{
    std::vector<WorkloadSpec> suite = serverSuite(6);
    if (seed != kDefaultSeed) {
        for (WorkloadSpec &w : suite)
            w.trace_seed = mix(w.trace_seed ^ mix(seed));
    }
    return suite;
}

unsigned
benchThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::vector<std::pair<std::string, double>>
digestFields(const SimStats &s)
{
    std::vector<std::pair<std::string, double>> f;
    f.reserve(s.counters.size() + 2);
    f.emplace_back("cycles", static_cast<double>(s.cycles));
    f.emplace_back("instructions", static_cast<double>(s.instructions));
    for (const auto &[name, value] : s.counters)
        f.emplace_back(name, value);
    return f;
}

std::string
statsDigest(const SimStats &s)
{
    // FNV-1a over "name=value" lines; %.17g round-trips every double.
    std::uint64_t h = 0xcbf29ce484222325ull;
    char buf[64];
    for (const auto &[name, value] : digestFields(s)) {
        for (char c : name)
            h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        const int n = std::snprintf(buf, sizeof buf, "=%.17g\n", value);
        for (int i = 0; i < n; ++i)
            h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ull;
    }
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

std::string
firstDifference(const std::vector<std::pair<std::string, double>> &a,
                const std::vector<std::pair<std::string, double>> &b)
{
    char buf[160];
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].first != b[i].first)
            return "counter sets differ at " + a[i].first + " / " +
                   b[i].first;
        if (a[i].second != b[i].second) {
            std::snprintf(buf, sizeof buf, "%s: %.17g vs %.17g",
                          a[i].first.c_str(), a[i].second, b[i].second);
            return buf;
        }
    }
    if (a.size() != b.size())
        return "counter count " + std::to_string(a.size()) + " vs " +
               std::to_string(b.size());
    return "";
}

PassRun
runSweep(const std::vector<CpuConfig> &configs,
         const std::vector<WorkloadSpec> &suite, const RunOptions &opt,
         const fs::path &dir)
{
    PassRun r;
    const fs::path cache = dir / "cache";
    fs::remove_all(cache);
    fs::create_directories(dir);

    std::mutex mu; // Guards latency.
    std::map<std::string, double> latency;

    exp::ExperimentOptions eopt;
    eopt.run = opt;
    eopt.run.threads = benchThreads();
    eopt.cache_dir = cache.string();
    eopt.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                        const RunOptions &o) {
        const auto t0 = Clock::now();
        SimStats s;
        {
            obs::ObsSpan span("exp.runOne");
            s = runOne(c, w, o);
        }
        const double dt = secondsSince(t0);
        std::lock_guard<std::mutex> lk(mu);
        latency[c.btb.name() + " | " + w.name] = dt;
        return s;
    };

    const auto t0 = Clock::now();
    exp::ExperimentResult res =
        exp::Experiment("btbbench-sweep", configs, suite, std::move(eopt))
            .run();
    r.engine_wall_s = secondsSince(t0);

    const auto t1 = Clock::now();
    {
        obs::ObsSpan span("obs.export");
        std::ofstream os(dir / "sweep.json");
        obs::JsonWriter w(os);
        w.beginObject();
        w.kv("schema_version", obs::kSchemaVersion);
        w.kv("generator", "btbsim");
        w.kv("bench", "btbbench-sweep");
        w.kv("baseline", "");
        w.key("runs");
        w.beginArray();
        for (const exp::PointResult &p : res.points)
            if (p.hasStats())
                obs::writeSimStatsJson(w, p.stats);
        w.endArray();
        w.endObject();
        os << '\n';
        if (!os)
            r.errors.push_back("result-JSON export failed");
    }
    r.export_s = secondsSince(t1);
    r.wall_s = secondsSince(t0);

    r.workers = static_cast<unsigned>(res.shards.size());
    for (const exp::ShardUtil &u : res.shards)
        r.busy_s += u.busy_seconds;
    for (const exp::PointResult &p : res.points) {
        const std::string id = p.config + " | " + p.workload;
        if (p.status != exp::PointStatus::kOk) {
            r.errors.push_back(id + ": engine reported " +
                               exp::pointStatusName(p.status) +
                               (p.error.empty() ? "" : " (" + p.error + ")"));
            continue;
        }
        PointRun pr;
        pr.config = p.config;
        pr.workload = p.workload;
        pr.stats = p.stats;
        pr.digest = statsDigest(p.stats);
        pr.run_s = p.stats.host_seconds;
        pr.wall_s = latency[id];
        pr.sim_insts = static_cast<double>(opt.warmup + p.stats.instructions);
        // runOne reports measured-window cycles only; scale them to the
        // whole run at the measured IPC.
        pr.sim_cycles = p.stats.instructions
                            ? static_cast<double>(p.stats.cycles) *
                                  pr.sim_insts /
                                  static_cast<double>(p.stats.instructions)
                            : 0.0;
        r.points.push_back(std::move(pr));
    }
    fs::remove_all(cache);
    return r;
}

std::unique_ptr<Workbench>
makeWorkbench(const std::string &name, std::uint64_t seed)
{
    if (name == "realistic")
        return std::make_unique<Realistic>(seed);
    if (name == "limit")
        return std::make_unique<Limit>(seed);
    if (name == "sweep")
        return std::make_unique<Sweep>(seed);
    return nullptr;
}

} // namespace btbbench
