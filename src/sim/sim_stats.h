/**
 * @file
 * Aggregated results of one simulation run — the metrics the paper's
 * figures and tables report.
 */

#ifndef BTBSIM_SIM_SIM_STATS_H
#define BTBSIM_SIM_SIM_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/sampler.h"

namespace btbsim {

/** Measurement-window statistics of one (workload, config) run. */
struct SimStats
{
    std::string workload;
    std::string config;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;

    // Branch behaviour (per kilo-instruction).
    double branch_mpki = 0.0;   ///< Exec-resolved mispredictions.
    double misfetch_pki = 0.0;  ///< Decode-resolved misfetches.
    double combined_mpki = 0.0; ///< Sum of the two (Section 6.1).
    double cond_mispredict_rate = 0.0;

    // BTB behaviour.
    double l1_btb_hitrate = 0.0; ///< Taken branches hitting the L1 BTB.
    double btb_hitrate = 0.0;    ///< Taken branches hitting any level.
    double fetch_pcs_per_access = 0.0;
    double taken_per_ki = 0.0;

    // Structure samples (averaged over the run).
    double l1_slot_occupancy = 0.0;
    double l2_slot_occupancy = 0.0;
    double l1_redundancy = 0.0;
    double l2_redundancy = 0.0;

    // Memory.
    double icache_mpki = 0.0;
    double avg_dyn_bb_size = 0.0; ///< Instructions per dynamic branch.

    // Observability (src/obs): within-run time series, the flattened
    // dotted-path stat registry, and the run's host wall time.
    std::uint64_t sample_interval = 0; ///< Cycles per sample (0 = none).
    std::vector<obs::IntervalSample> samples;
    std::map<std::string, double> counters; ///< "component.stat" -> value.
    double host_seconds = 0.0;          ///< Wall time of the whole run.
    double minst_per_host_sec = 0.0;    ///< Sim speed (M instr / host s).

    bool operator==(const SimStats &) const = default;
};

} // namespace btbsim

#endif // BTBSIM_SIM_SIM_STATS_H
