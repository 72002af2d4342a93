#include "sim/runner.h"

#include <chrono>
#include <climits>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "sim/cpu.h"

namespace btbsim {

namespace {

/** env::u64, throwing std::invalid_argument naming @p name when the
 *  value lies outside [@p lo, @p hi]. */
std::uint64_t
knobInRange(const char *name, std::uint64_t fallback, std::uint64_t lo,
            std::uint64_t hi)
{
    const std::uint64_t v = env::u64(name, fallback);
    if (v < lo || v > hi)
        throw std::invalid_argument(
            std::string(name) + "=" + std::to_string(v) + ": must be in [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "]");
    return v;
}

} // namespace

RunOptions
RunOptions::fromEnv()
{
    RunOptions o;
    o.warmup = env::u64("BTBSIM_WARMUP", o.warmup);
    // A zero measure window has no IPC (0/0), an empty suite no sweep,
    // and a thread count past UINT_MAX would wrap.
    o.measure = knobInRange("BTBSIM_MEASURE", o.measure, 1, UINT64_MAX);
    o.traces = static_cast<std::size_t>(
        knobInRange("BTBSIM_TRACES", o.traces, 1, SIZE_MAX));
    o.threads =
        static_cast<unsigned>(knobInRange("BTBSIM_THREADS", 0, 0, UINT_MAX));
    return o;
}

SimStats
runOne(const CpuConfig &cfg, const WorkloadSpec &spec, const RunOptions &opt)
{
    // A fresh live-generated source per run keeps concurrent engine
    // workers isolated (TraceSource instances are not shareable across
    // threads); only the read-only Program image is shared.
    const std::unique_ptr<Workload> source = makeWorkload(spec);
    const auto cpu = std::make_unique<Cpu>(cfg, *source);

    const auto t0 = std::chrono::steady_clock::now();
    cpu->run(opt.warmup, opt.measure);
    const auto t1 = std::chrono::steady_clock::now();

    SimStats s = cpu->stats();
    s.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    const double total_insts = static_cast<double>(opt.warmup) +
                               static_cast<double>(s.instructions);
    s.minst_per_host_sec =
        s.host_seconds > 0 ? total_insts / 1e6 / s.host_seconds : 0.0;
    return s;
}

} // namespace btbsim
