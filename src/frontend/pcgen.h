/**
 * @file
 * PC-generation stage: drives one BTB access per cycle, walks the actual
 * instruction stream through the access window, detects every divergence
 * class (misfetch, misprediction, slot miss), charges taken-branch
 * bubbles, and feeds the FTQ.
 */

#ifndef BTBSIM_FRONTEND_PCGEN_H
#define BTBSIM_FRONTEND_PCGEN_H

#include <cstdint>
#include <utility>
#include <vector>

#include "bpred/bpred_unit.h"
#include "common/stats.h"
#include "core/btb_org.h"
#include "frontend/ftq.h"
#include "trace/trace_source.h"

namespace btbsim {

/** Counters the figures report, exported under "pcgen.". Every key is
 *  exported, zeros included (see exportCounters). */
struct PcGenStats
{
    std::uint64_t accesses = 0;
    std::uint64_t fetch_pcs = 0;
    std::uint64_t taken_branches = 0;
    std::uint64_t taken_l1_hits = 0;
    std::uint64_t taken_l2_hits = 0;
    std::uint64_t cond_branches = 0;
    std::uint64_t cond_mispredicts = 0;
    std::uint64_t mispredicts = 0; ///< Exec-resolved resteers.
    std::uint64_t misfetches = 0;  ///< Decode-resolved resteers.
    std::uint64_t misp_cond = 0;      ///< direction mispredictions
    std::uint64_t misp_indirect = 0;  ///< indirect target mispredictions
    std::uint64_t misp_return = 0;    ///< RAS mispredictions
    std::uint64_t misp_btbmiss = 0;   ///< taken-cond BTB/slot miss
    std::uint64_t taken_bubbles = 0;
    std::uint64_t branches = 0;

    static constexpr bool kExportZero = true;
    static constexpr CounterName<PcGenStats> kNames[] = {
        {"accesses", &PcGenStats::accesses},
        {"fetch_pcs", &PcGenStats::fetch_pcs},
        {"branches", &PcGenStats::branches},
        {"taken_branches", &PcGenStats::taken_branches},
        {"taken_l1_hits", &PcGenStats::taken_l1_hits},
        {"taken_l2_hits", &PcGenStats::taken_l2_hits},
        {"cond_branches", &PcGenStats::cond_branches},
        {"cond_mispredicts", &PcGenStats::cond_mispredicts},
        {"mispredicts", &PcGenStats::mispredicts},
        {"misfetches", &PcGenStats::misfetches},
        {"misp_cond", &PcGenStats::misp_cond},
        {"misp_indirect", &PcGenStats::misp_indirect},
        {"misp_return", &PcGenStats::misp_return},
        {"misp_btbmiss", &PcGenStats::misp_btbmiss},
        {"taken_bubbles", &PcGenStats::taken_bubbles},
    };
};

/**
 * The BP stage of Fig. 3. Trace-driven: the stage owns the trace cursor
 * and only consumes instructions along the correct path; divergences stall
 * it until the pipeline resolves the flagged branch (Decode or Execute).
 */
class PcGen
{
  public:
    PcGen(BtbOrg &org, BPredUnit &bpred, TraceSource &trace, Ftq &ftq);

    /** Run the stage for cycle @p now (call once per cycle). */
    void runCycle(Cycle now);

    /** Resolve the outstanding resteer; PC generation resumes next cycle. */
    void
    resteerResolved(Cycle now)
    {
        waiting_resteer_ = false;
        if (ready_cycle_ < now + 1)
            ready_cycle_ = now + 1;
    }

    bool waitingResteer() const { return waiting_resteer_; }

    PcGenStats stats;

  private:
    BtbOrg *org_;
    BPredUnit *bpred_;
    TraceSource *trace_;
    Ftq *ftq_;

    /// The trace's next instruction; valid until the next advance().
    const Instruction *pending_ = nullptr;
    Addr next_fetch_pc_ = 0;
    Cycle ready_cycle_ = 0;
    bool waiting_resteer_ = false;
    bool redirect_pending_ = true; ///< Next pushed inst opens a new entry.
    std::uint64_t seq_ = 0;

    std::vector<std::pair<Instruction, bool>> deferred_updates_;

    void advance() { pending_ = &trace_->next(); }
};

} // namespace btbsim

#endif // BTBSIM_FRONTEND_PCGEN_H
