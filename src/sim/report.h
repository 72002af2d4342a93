/**
 * @file
 * Result aggregation and paper-style table printing for the benches.
 */

#ifndef BTBSIM_SIM_REPORT_H
#define BTBSIM_SIM_REPORT_H

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"
#include "sim/sim_stats.h"

namespace btbsim {

/** A set of (config x workload) results with paper-style reductions. */
class ResultSet
{
  public:
    void add(const SimStats &s) { results_.push_back(s); }
    void add(const std::vector<SimStats> &v);

    const std::vector<SimStats> &all() const { return results_; }

    /** Lookup; nullptr when absent. */
    const SimStats *find(const std::string &config,
                         const std::string &workload) const;

    /** Distinct config names, in insertion order. */
    std::vector<std::string> configs() const;
    /** Distinct workload names, in insertion order. */
    std::vector<std::string> workloads() const;

    /**
     * Per-workload IPC of @p config normalized to @p baseline (only
     * workloads present for both).
     */
    std::vector<double> normalizedIpc(const std::string &config,
                                      const std::string &baseline) const;

    /**
     * Print the whisker-style summary the figures use: one row per config
     * with min / 1st quartile / median / 3rd quartile / max / geomean of
     * IPC normalized to @p baseline.
     */
    void printNormalizedTable(std::ostream &os,
                              const std::string &baseline) const;

    /**
     * Print per-config absolute aggregates: geomean IPC, fetch PCs per
     * BTB access, branch MPKI, misfetch PKI, BTB hit rates, occupancy and
     * redundancy (Fig. 10-style summary).
     */
    void printDetailTable(std::ostream &os) const;

    /**
     * Emit the schema-versioned result JSON (obs/export.h documents the
     * schema). @p bench names the producing bench.
     * @p experiment, when non-null, is emitted as a top-level
     * "experiment" object (the engine's exp.* progress/cache metrics);
     * the "runs" array is unaffected, so cached and cold sweeps stay
     * comparable byte for byte. @p profile, when non-null, is emitted as
     * the top-level "profile" object (the whole-process host span
     * aggregate from obs::SpanCollector::profile()).
     */
    void writeJson(std::ostream &os, const std::string &bench,
                   const std::map<std::string, double> *experiment = nullptr,
                   const obs::ProfileBlock *profile = nullptr) const;

  private:
    std::vector<SimStats> results_;
};

/** Geomean of absolute IPC for one config across workloads. */
double geomeanIpc(const std::vector<SimStats> &all, const std::string &config);

} // namespace btbsim

#endif // BTBSIM_SIM_REPORT_H
