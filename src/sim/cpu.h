/**
 * @file
 * Top-level processor model: the decoupled frontend of Fig. 3 feeding the
 * Table 1 backend, driven cycle by cycle.
 */

#ifndef BTBSIM_SIM_CPU_H
#define BTBSIM_SIM_CPU_H

#include <memory>

#include "backend/backend.h"
#include "bpred/bpred_unit.h"
#include "core/btb_org.h"
#include "frontend/ftq.h"
#include "frontend/pcgen.h"
#include "memory/memhier.h"
#include "obs/sampler.h"
#include "sim/config.h"
#include "sim/sim_stats.h"
#include "trace/trace_source.h"

namespace btbsim {

namespace check {
class CheckedBtb;
}

/**
 * The simulated core. Construction wires BP stage (BTB + predictors),
 * FTQ, fetch, decode/allocate queues and the backend; run() executes a
 * warmup phase followed by a measurement phase and fills stats(). Each
 * in-flight instruction is stored once: by the FTQ until allocation (the
 * decode and allocate queues are seq cursors over it), then by the ROB.
 */
class Cpu
{
  public:
    /** Throws std::invalid_argument naming the field when cfg.btb's
     *  geometry or a cpu.<width/queue> is impossible (0), or when a
     *  backend or memory field is (see Backend, MemHier). */
    Cpu(const CpuConfig &cfg, TraceSource &trace);

    /**
     * Construct with a user-supplied BTB organization (see
     * examples/custom_btb.cpp). @p org must be non-null; cfg.btb is used
     * only for reporting in that case.
     */
    Cpu(const CpuConfig &cfg, TraceSource &trace,
        std::unique_ptr<BtbOrg> org);

    ~Cpu(); // Out of line: check::CheckedBtb is incomplete here.

    /**
     * Simulate until @p warmup + @p measure instructions commit;
     * statistics cover only the measurement window. Throws
     * std::runtime_error naming the pipeline state when the core stops
     * committing (the deadlock guard).
     */
    void run(std::uint64_t warmup, std::uint64_t measure);

    const SimStats &stats() const { return stats_; }

    /** Advance one cycle (exposed for fine-grained tests). */
    void step();

    Cycle cycleCount() const { return now_; }
    std::uint64_t committed() const { return backend_.committed(); }

    BtbOrg &btb() { return *org_; }
    const PcGenStats &pcgenStats() const { return pcgen_.stats; }

    /** Interval (cycles) of the time-series sampler; 0 disables it.
     *  Defaults to 100k. Takes effect at the next run(). */
    void setSampleInterval(std::uint64_t cycles)
    {
        sample_interval_ = cycles;
    }

  private:
    CpuConfig cfg_;

    MemHier mem_;
    BPredUnit bpred_;
    std::unique_ptr<BtbOrg> org_;
    /** Differential-checking wrapper, non-null only with BTBSIM_CHECK. */
    std::unique_ptr<check::CheckedBtb> checked_;
    Ftq ftq_;
    PcGen pcgen_;
    Backend backend_;

    /// Pipeline cursors over FTQ-owned seqs: the decode queue holds
    /// (decoded_, delivered_], the allocate queue (allocated_, decoded_].
    std::uint64_t delivered_ = 0;
    std::uint64_t decoded_ = 0;
    std::uint64_t allocated_ = 0;

    Cycle now_ = 0;
    SimStats stats_;

    // Occupancy sampling.
    double occ_samples_ = 0.0;
    OccupancySample occ_accum_;

    // Observability.
    std::uint64_t sample_interval_ = obs::Sampler::kDefaultIntervalCycles;
    double ftq_occ_sum_ = 0.0; ///< Per-cycle FTQ size, measurement only.

    void fetchIssue();
    void deliver();
    void decode();
    void allocate();
    void guardedStep(Cycle guard);
    void sampleStructures();
    obs::SampleSnapshot sampleSnapshot(Cycle cycles0, std::uint64_t insts0,
                                       const PcGenStats &pg0,
                                       std::uint64_t i_miss0) const;
    void harvestCounters();
};

} // namespace btbsim

#endif // BTBSIM_SIM_CPU_H
