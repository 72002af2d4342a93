/**
 * @file
 * Shared declarations of the btbsim benchmark: the seeded workload
 * suite, the simulated-stats digest, per-point and per-pass records, and
 * the three workloads (realistic, limit, sweep) behind one interface.
 *
 * The benchmark drives the simulator only through its public API. End-
 * to-end numbers are timed around the public calls with steady_clock;
 * the traced run additionally records obs::ObsSpan spans around them and
 * derives the per-layer ledger from the span profile (see layers.cpp).
 */

#ifndef BTBBENCH_BENCH_H
#define BTBBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/runner.h"
#include "sim/sim_stats.h"
#include "trace/suite.h"

namespace btbbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Seed 0 is the canonical server suite; the reference digests cover it. */
constexpr std::uint64_t kDefaultSeed = 0;
/** Seed reserved for confirming a claimed gain on unseen inputs. */
constexpr std::uint64_t kHeldOutSeed = 7919;

/**
 * The six-workload server suite with every WorkloadSpec's trace_seed
 * remapped by @p seed (identity for kDefaultSeed). The programs
 * (params.seed) stay canonical: regenerating them per seed moves
 * ipc_geomean far more than host noise moves the time metrics.
 */
std::vector<btbsim::WorkloadSpec> benchSuite(std::uint64_t seed);

/** Worker threads of a pass: the host's CPUs, at most 4. */
unsigned benchThreads();

/** Hex digest of a run's simulated outcome: cycles, instructions and
 *  every registry counter (host-side fields are excluded). */
std::string statsDigest(const btbsim::SimStats &s);

/** "name value" pairs the digest covers, in digest order. */
std::vector<std::pair<std::string, double>>
digestFields(const btbsim::SimStats &s);

/** First field where @p a and @p b differ, as "name: a vs b" ("" when
 *  equal). */
std::string firstDifference(
    const std::vector<std::pair<std::string, double>> &a,
    const std::vector<std::pair<std::string, double>> &b);

/** One simulated point of a pass. */
struct PointRun
{
    std::string config;   ///< BtbConfig::name().
    std::string workload; ///< Suite workload name.
    btbsim::SimStats stats;
    std::string digest;
    double wall_s = 0.0;   ///< Whole point: open + construct + run.
    double run_s = 0.0;    ///< Host seconds in Cpu::run.
    double sim_insts = 0.0;  ///< Simulated instructions, warmup included.
    double sim_cycles = 0.0; ///< Simulated cycles, warmup included.

    std::string id() const { return config + " | " + workload; }
};

/** One timed pass over a workload's full point set. */
struct PassRun
{
    double wall_s = 0.0;
    std::vector<PointRun> points; ///< Ordered by (config, workload).
    std::vector<std::string> errors; ///< Points the engine did not run.

    // Engine sweeps only (zero otherwise).
    double engine_wall_s = 0.0;  ///< Experiment::run wall time.
    double busy_s = 0.0;         ///< Summed ShardUtil::busy_seconds.
    unsigned workers = 0;
    double export_s = 0.0;       ///< Result-JSON export.
};

/** Engine sweep over @p configs x @p suite with a fresh, empty run cache
 *  under @p dir, ending with a result-JSON export. Per-point latency is
 *  timed around runOne through ExperimentOptions::simulate. */
PassRun runSweep(const std::vector<btbsim::CpuConfig> &configs,
                 const std::vector<btbsim::WorkloadSpec> &suite,
                 const btbsim::RunOptions &opt, const fs::path &dir);

/** A benchmark workload: repeatable set-up plus a timed pass. */
class Workbench
{
  public:
    virtual ~Workbench() = default;

    /** Prepare inputs under @p dir (timed as setup_s; may run again). */
    virtual void setup(const fs::path &dir) = 0;

    /** Simulate every point once; @p dir is scratch space. */
    virtual PassRun pass(const fs::path &dir) = 0;

    /** Workload-specific checks of a finished pass; appends one message
     *  per failed point and returns the number of points checked. */
    virtual std::size_t
    check(const PassRun &pass, std::vector<std::string> &failures)
    {
        (void)pass;
        (void)failures;
        return 0;
    }

    const std::vector<btbsim::CpuConfig> &configs() const { return configs_; }
    const std::vector<btbsim::WorkloadSpec> &suite() const { return suite_; }
    /** Directory holding recorded .btbt inputs ("" when none). */
    virtual fs::path traceDir() const { return {}; }

  protected:
    std::vector<btbsim::CpuConfig> configs_;
    std::vector<btbsim::WorkloadSpec> suite_;
};

/** Factory by workload name; null for an unknown name. */
std::unique_ptr<Workbench> makeWorkbench(const std::string &name,
                                         std::uint64_t seed);

/** Metric name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/**
 * Per-layer ledger of the traced run: microbenches each layer through
 * its public calls on @p bench's configurations and programs, records a
 * span around every timed call (or batch of calls) and converts the span
 * profile into per-operation metrics, added to @p out.
 */
void measureLayers(Workbench &bench, const fs::path &dir, Metrics &out);

/** Per-layer metrics of a traced pass: the sim layer's host time, the
 *  simulated layer rates and, for engine sweeps, engineMetrics(). */
void passLayerMetrics(const PassRun &pass, Metrics &out);

/** exp.worker_util, exp.engine_overhead_ms and obs.export_ms of an
 *  engine sweep. */
void engineMetrics(const PassRun &pass, Metrics &out);

} // namespace btbbench

#endif // BTBBENCH_BENCH_H
