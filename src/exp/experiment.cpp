#include "exp/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "exp/sha256.h"

namespace btbsim::exp {

const char *
pointStatusName(PointStatus s)
{
    switch (s) {
      case PointStatus::kOk:
        return "ok";
      case PointStatus::kCached:
        return "cached";
      case PointStatus::kFailed:
        return "failed";
    }
    return "unknown";
}

std::map<std::string, double>
ExperimentResult::counters() const
{
    std::map<std::string, double> out;
    out["exp.points"] = static_cast<double>(summary.total);
    out["exp.ok"] = static_cast<double>(summary.ok);
    out["exp.cached"] = static_cast<double>(summary.cached);
    out["exp.failed"] = static_cast<double>(summary.failed);
    out["exp.cache_hit_rate"] = summary.cacheHitRate();
    out["exp.wall_seconds"] = summary.wall_seconds;
    if (!shards.empty()) {
        out["exp.shards"] = static_cast<double>(shards.size());
        double busy_min = -1.0, busy_max = 0.0, busy_sum = 0.0;
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const ShardUtil &u = shards[i];
            const std::string prefix =
                "exp.shard" + std::to_string(i) + ".";
            out[prefix + "points"] = static_cast<double>(u.points);
            out[prefix + "busy_seconds"] = u.busy_seconds;
            out[prefix + "util"] =
                summary.wall_seconds > 0.0
                    ? u.busy_seconds / summary.wall_seconds
                    : 0.0;
            busy_sum += u.busy_seconds;
            busy_max = std::max(busy_max, u.busy_seconds);
            busy_min = busy_min < 0.0 ? u.busy_seconds
                                      : std::min(busy_min, u.busy_seconds);
        }
        if (summary.wall_seconds > 0.0) {
            out["exp.shard_util_min"] =
                std::max(busy_min, 0.0) / summary.wall_seconds;
            out["exp.shard_util_max"] = busy_max / summary.wall_seconds;
            out["exp.shard_util_mean"] =
                busy_sum /
                (summary.wall_seconds * static_cast<double>(shards.size()));
        }
    }
    return out;
}

std::vector<const PointResult *>
ExperimentResult::failures() const
{
    std::vector<const PointResult *> out;
    for (const PointResult &p : points)
        if (p.status == PointStatus::kFailed)
            out.push_back(&p);
    return out;
}

std::vector<SimStats>
ExperimentResult::stats() const
{
    std::vector<SimStats> out;
    out.reserve(points.size());
    for (const PointResult &p : points)
        if (p.hasStats())
            out.push_back(p.stats);
    return out;
}

ExperimentOptions
ExperimentOptions::fromEnv(const std::string &default_cache_dir)
{
    ExperimentOptions o;
    o.run = RunOptions::fromEnv();
    o.cache_dir = RunCache::dirFromEnv(default_cache_dir);
    return o;
}

namespace {

unsigned
resolveThreads(unsigned requested, std::size_t jobs)
{
    unsigned n = requested;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 4;
    }
    return std::min<unsigned>(n, static_cast<unsigned>(std::max<std::size_t>(
                                     jobs, 1)));
}

} // namespace

Experiment::Experiment(std::string name, std::vector<CpuConfig> configs,
                       std::vector<WorkloadSpec> workloads,
                       ExperimentOptions opt)
    : name_(std::move(name)), configs_(std::move(configs)),
      workloads_(std::move(workloads)), opt_(std::move(opt))
{
    if (!opt_.simulate)
        opt_.simulate = [](const CpuConfig &c, const WorkloadSpec &w,
                           const RunOptions &o) { return runOne(c, w, o); };
}

ExperimentResult
Experiment::run()
{
    const auto t0 = std::chrono::steady_clock::now();

    ExperimentResult result;
    result.name = name_;
    result.points.resize(configs_.size() * workloads_.size());

    // Pre-compute every point's identity.
    std::vector<std::string> key_jsons(result.points.size());
    for (std::size_t c = 0; c < configs_.size(); ++c) {
        for (std::size_t w = 0; w < workloads_.size(); ++w) {
            const std::size_t i = c * workloads_.size() + w;
            PointResult &p = result.points[i];
            p.config_index = c;
            p.workload_index = w;
            p.config = configs_[c].btb.name();
            p.workload = workloads_[w].name;

            RunKey key;
            key.config = configs_[c];
            key.workload = workloads_[w];
            key.opt = opt_.run;
            key_jsons[i] = canonicalRunKeyJson(key);
            p.digest = Sha256::hexDigest(key_jsons[i]);
        }
    }

    const RunCache cache(opt_.cache_dir);

    // Per-thread utilization (points finished + host time spent) is
    // reported as ExperimentResult::shards.
    const unsigned n_threads =
        resolveThreads(opt_.run.threads, result.points.size());
    result.shards.assign(n_threads, ShardUtil{});

    std::atomic<std::size_t> next{0};
    std::mutex point_mu; // Serializes the on_point callback.

    auto finishPoint = [&](const PointResult &p) {
        if (opt_.on_point) {
            std::lock_guard<std::mutex> lk(point_mu);
            opt_.on_point(p);
        }
    };

    auto worker = [&](unsigned slot) {
        ShardUtil &util = result.shards[slot];
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= result.points.size())
                return;
            const auto point_t0 = std::chrono::steady_clock::now();
            PointResult &p = result.points[i];
            auto account = [&] {
                ++util.points;
                util.busy_seconds +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - point_t0)
                        .count();
            };

            if (cache.enabled()) {
                if (auto hit = cache.load(p.digest)) {
                    p.status = PointStatus::kCached;
                    p.stats = std::move(*hit);
                    finishPoint(p);
                    account();
                    continue;
                }
            }

            const WorkloadSpec &spec = workloads_[p.workload_index];
            try {
                p.stats = opt_.simulate(configs_[p.config_index], spec,
                                        opt_.run);
                p.status = PointStatus::kOk;
            } catch (const std::exception &e) {
                p.error = e.what();
            } catch (...) {
                p.error = "non-standard exception";
            }

            if (p.status == PointStatus::kOk) {
                if (cache.enabled())
                    cache.store(p.digest, key_jsons[i], p.stats);
            } else {
                // Deterministic simulation: the point fails the same way
                // again, so name everything needed to reproduce it.
                p.error = "config " + p.config + ", workload " + p.workload +
                          ", trace_seed " + std::to_string(spec.trace_seed) +
                          ", run key " + p.digest + ": " + p.error;
            }
            finishPoint(p);
            account();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t)
        pool.emplace_back(worker, t);
    for (auto &t : pool)
        t.join();

    ExperimentSummary &s = result.summary;
    s.total = result.points.size();
    for (const PointResult &p : result.points) {
        switch (p.status) {
          case PointStatus::kOk:
            ++s.ok;
            break;
          case PointStatus::kCached:
            ++s.cached;
            break;
          case PointStatus::kFailed:
            ++s.failed;
            break;
        }
    }
    s.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    return result;
}

ExperimentResult
runExperiment(std::string name, std::vector<CpuConfig> configs,
              std::vector<WorkloadSpec> workloads, ExperimentOptions opt)
{
    return Experiment(std::move(name), std::move(configs),
                      std::move(workloads), std::move(opt))
        .run();
}

} // namespace btbsim::exp
