/**
 * @file
 * Experiment runner: simulate configurations across the workload suite,
 * in parallel, with environment-controlled scale.
 */

#ifndef BTBSIM_SIM_RUNNER_H
#define BTBSIM_SIM_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/sim_stats.h"
#include "trace/suite.h"

namespace btbsim {

/** Run-length options; fromEnv() honours BTBSIM_WARMUP / BTBSIM_MEASURE /
 *  BTBSIM_TRACES / BTBSIM_THREADS for scaling benches up or down. */
struct RunOptions
{
    std::uint64_t warmup = 500'000;
    std::uint64_t measure = 1'000'000;
    std::size_t traces = 6;
    unsigned threads = 0; ///< 0 = hardware concurrency.

    static RunOptions fromEnv();

    bool operator==(const RunOptions &) const = default;
};

/** Simulate one configuration on one workload. */
SimStats runOne(const CpuConfig &cfg, const WorkloadSpec &spec,
                const RunOptions &opt);

/**
 * Simulate a set of configurations across a set of workloads. Results are
 * ordered by (config index, workload index). Runs are spread across
 * threads; each run is deterministic in isolation. Every worker opens
 * its own TraceSource (generated or .btbt replay — see
 * traceio/replay_env.h), never sharing instances, so results are
 * bit-identical regardless of thread count.
 *
 * This is a thin wrapper over the experiment engine (exp/experiment.h),
 * which adds the content-addressed run cache and per-point failure
 * isolation; prefer it for new sweeps. A failed point makes runMatrix
 * throw std::runtime_error listing every failed point's reproducer
 * (config, workload, trace_seed, run key) — after the rest of the sweep
 * completed.
 */
std::vector<SimStats> runMatrix(const std::vector<CpuConfig> &configs,
                                const std::vector<WorkloadSpec> &suite,
                                const RunOptions &opt);

} // namespace btbsim

#endif // BTBSIM_SIM_RUNNER_H
