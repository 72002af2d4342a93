/**
 * @file
 * The experiment engine: the one sweep executor for configs x
 * workloads, sitting above sim/runner.h's runOne(). An Experiment:
 *
 *  - identifies every point by a content hash of its canonical run key
 *    (exp/run_cache.h) and serves warm points bit-identically from the
 *    persistent run cache without simulating. The cache is also the
 *    checkpoint: rerunning an interrupted sweep serves every point it
 *    finished as a hit and simulates only the rest;
 *  - schedules cold points through a dynamic work queue on spawned
 *    worker threads, giving each point exactly one attempt (the
 *    simulator is deterministic, so a failing point would fail again)
 *    and isolating a worker exception to its point;
 *  - reports progress and cache-hit-rate as "exp.*" counters surfaced
 *    in the ExperimentResult and in the bench JSON "experiment" block.
 *
 * Per-point status: ok (simulated this run), cached (served from the
 * store), failed (the simulation raised; error names the reproducer).
 */

#ifndef BTBSIM_EXP_EXPERIMENT_H
#define BTBSIM_EXP_EXPERIMENT_H

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/run_cache.h"
#include "sim/runner.h"

namespace btbsim::exp {

/** Outcome of one sweep point. */
enum class PointStatus : std::uint8_t {
    kOk,      ///< Simulated successfully this run.
    kCached,  ///< Served bit-identically from the run cache.
    kFailed,  ///< The simulation raised; see PointResult::error.
};

const char *pointStatusName(PointStatus s);

/** One (config, workload) point of a sweep. */
struct PointResult
{
    std::size_t config_index = 0;
    std::size_t workload_index = 0;
    std::string config;   ///< BtbConfig::name() of the point's config.
    std::string workload; ///< WorkloadSpec::name.
    std::string digest;   ///< Content hash of the canonical run key.

    PointStatus status = PointStatus::kFailed;
    /** kFailed only: "config <c>, workload <w>, trace_seed <s>, run key
     *  <digest>: <exception text>" — everything needed to rerun it. */
    std::string error;

    SimStats stats; ///< Valid for kOk and kCached.

    bool hasStats() const
    {
        return status == PointStatus::kOk || status == PointStatus::kCached;
    }
};

/** Per-worker-thread accounting of one sweep. */
struct ShardUtil
{
    std::size_t points = 0;      ///< Points this slot finished.
    double busy_seconds = 0.0;   ///< Host time spent handling them.
};

/** Sweep-level accounting (also exported as "exp.*" counters). */
struct ExperimentSummary
{
    std::size_t total = 0;
    std::size_t ok = 0;
    std::size_t cached = 0;
    std::size_t failed = 0;
    double wall_seconds = 0.0;

    double
    cacheHitRate() const
    {
        return total ? static_cast<double>(cached) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Everything a finished (or partially failed) sweep produced. */
struct ExperimentResult
{
    std::string name;
    std::vector<PointResult> points; ///< Ordered by (config, workload).

    ExperimentSummary summary;

    /** One entry per worker thread the sweep ran on. */
    std::vector<ShardUtil> shards;

    /** Flattened "exp.*" metrics (points, ok, cached, failed,
     *  cache_hit_rate, wall_seconds, shards and per-thread
     *  shard<i>.points / busy_seconds / util) for the JSON exporter. */
    std::map<std::string, double> counters() const;

    bool allOk() const { return summary.failed == 0; }

    /** Points that failed, for error reporting. */
    std::vector<const PointResult *> failures() const;

    /**
     * The stats of every point carrying results, in sweep order
     * (failed points are absent — check allOk() first when a dense
     * matrix is required).
     */
    std::vector<SimStats> stats() const;
};

/** Scheduling and policy knobs for one Experiment. */
struct ExperimentOptions
{
    RunOptions run;

    /** Run-cache directory; empty disables caching (and with it, the
     *  resumption of an interrupted sweep). */
    std::string cache_dir;

    /** The simulation function; tests inject failures here. Defaults to
     *  sim/runner.h runOne(). */
    std::function<SimStats(const CpuConfig &, const WorkloadSpec &,
                           const RunOptions &)>
        simulate;

    /** Per-completed-point progress hook (serialized; may be empty). */
    std::function<void(const PointResult &)> on_point;

    /**
     * Environment-driven options for sweeps run by benches and tools:
     * RunOptions::fromEnv() plus BTBSIM_RUN_CACHE (default
     * @p default_cache_dir).
     */
    static ExperimentOptions
    fromEnv(const std::string &default_cache_dir = "results/cache");
};

/**
 * A named sweep of configs x workloads. run() never throws for a
 * point-level failure — inspect the per-point statuses instead.
 */
class Experiment
{
  public:
    Experiment(std::string name, std::vector<CpuConfig> configs,
               std::vector<WorkloadSpec> workloads, ExperimentOptions opt);

    /** Execute the sweep; points already in the run cache are served
     *  as hits. Thread count comes from opt.run.threads (0 = hardware
     *  concurrency). */
    ExperimentResult run();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<CpuConfig> configs_;
    std::vector<WorkloadSpec> workloads_;
    ExperimentOptions opt_;
};

/** One-call convenience wrapper. */
ExperimentResult runExperiment(std::string name,
                               std::vector<CpuConfig> configs,
                               std::vector<WorkloadSpec> workloads,
                               ExperimentOptions opt);

} // namespace btbsim::exp

#endif // BTBSIM_EXP_EXPERIMENT_H
