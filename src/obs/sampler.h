/**
 * @file
 * Interval time-series sampler. Cpu::run() feeds the sampler a cumulative
 * snapshot of its headline counters every time the measurement-relative
 * cycle count crosses an interval boundary (every 100k cycles; a Cpu can
 * set another interval, and 0 disables sampling). The
 * sampler differences consecutive snapshots into per-interval rates —
 * IPC, BTB hit rates, misfetch PKI, FTQ occupancy, I$ MPKI — giving each
 * run a within-run time series that the JSON/CSV exporters emit, so phase
 * behaviour (the thing FDIP-style frontends are sensitive to) is visible
 * instead of averaged away.
 */

#ifndef BTBSIM_OBS_SAMPLER_H
#define BTBSIM_OBS_SAMPLER_H

#include <cstdint>
#include <vector>

namespace btbsim::obs {

/** One interval of the time series; rates are over the interval only. */
struct IntervalSample
{
    std::uint64_t cycle = 0;        ///< Measurement-relative end cycle.
    std::uint64_t instructions = 0; ///< Committed in the interval.
    double ipc = 0.0;
    double l1_btb_hitrate = 0.0; ///< Taken branches hitting the L1 BTB.
    double btb_hitrate = 0.0;    ///< Taken branches hitting any level.
    double branch_mpki = 0.0;
    double misfetch_pki = 0.0;
    double ftq_occupancy = 0.0; ///< Mean FTQ entries over the interval.
    double icache_mpki = 0.0;

    bool operator==(const IntervalSample &) const = default;
};

/** Cumulative (measurement-relative) counter snapshot fed by the Cpu. */
struct SampleSnapshot
{
    std::uint64_t cycle = 0;
    std::uint64_t instructions = 0;
    std::uint64_t taken_branches = 0;
    std::uint64_t taken_l1_hits = 0;
    std::uint64_t taken_l2_hits = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t misfetches = 0;
    std::uint64_t icache_misses = 0;
    double ftq_occupancy_sum = 0.0; ///< Sum of per-cycle FTQ size.
};

/** Differences cumulative snapshots into IntervalSample rows. */
class Sampler
{
  public:
    static constexpr std::uint64_t kDefaultIntervalCycles = 100'000;

    /** @p interval_cycles 0 disables the sampler entirely. */
    explicit Sampler(std::uint64_t interval_cycles = kDefaultIntervalCycles)
        : interval_(interval_cycles), next_(interval_cycles)
    {}

    bool enabled() const { return interval_ > 0; }
    std::uint64_t interval() const { return interval_; }

    /** Has the measurement-relative @p cycle crossed the next boundary? */
    bool due(std::uint64_t cycle) const
    {
        return enabled() && cycle >= next_;
    }

    /**
     * Record the interval ending at @p cum (cumulative values). Rates are
     * derived from the delta against the previous snapshot; the next
     * boundary is re-armed one interval past @p cum.cycle so a stalled
     * pipeline cannot queue up a burst of degenerate samples.
     */
    void sample(const SampleSnapshot &cum);

    const std::vector<IntervalSample> &samples() const { return samples_; }
    std::vector<IntervalSample> take() { return std::move(samples_); }

  private:
    std::uint64_t interval_;
    std::uint64_t next_;
    SampleSnapshot prev_;
    std::vector<IntervalSample> samples_;
};

} // namespace btbsim::obs

#endif // BTBSIM_OBS_SAMPLER_H
