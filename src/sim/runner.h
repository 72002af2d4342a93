/**
 * @file
 * Single-point runner: simulate one configuration on one workload, with
 * environment-controlled scale. Sweeps of many points go through the
 * experiment engine (exp/experiment.h), which calls runOne per point.
 */

#ifndef BTBSIM_SIM_RUNNER_H
#define BTBSIM_SIM_RUNNER_H

#include <cstdint>

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

/**
 * Simulate one configuration on one live-generated workload. Each call
 * opens its own TraceSource, so concurrent calls never share one and
 * results are bit-identical at any thread count.
 */
SimStats runOne(const CpuConfig &cfg, const WorkloadSpec &spec,
                const RunOptions &opt);

} // namespace btbsim

#endif // BTBSIM_SIM_RUNNER_H
