/**
 * @file
 * Out-of-order backend: rename, issue queue, functional units, ROB.
 *
 * Table 1: 352-entry ROB, 128-entry IQ, 128-entry LQ, 72-entry SQ,
 * 16-wide allocate/execute/commit with 11 misc + 3 load + 2 store ports.
 * Memory dependence prediction is oracle (as in ChampSim), so loads never
 * stall on unrelated stores.
 *
 * An ideal mode (Fig. 11a) models a backend limited only by data
 * dependencies inside an 8K-instruction window: unit latencies, unlimited
 * ports and single-cycle retire of the whole window.
 */

#ifndef BTBSIM_BACKEND_BACKEND_H
#define BTBSIM_BACKEND_BACKEND_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.h"
#include "memory/memhier.h"
#include "sim/dyn_inst.h"

namespace btbsim {

/** Backend configuration. */
struct BackendConfig
{
    unsigned rob_size = 352;
    unsigned iq_size = 128;
    unsigned lq_size = 128;
    unsigned sq_size = 72;
    unsigned alloc_width = 16;
    unsigned commit_width = 16;
    unsigned issue_width = 16;
    unsigned misc_ports = 11;
    unsigned load_ports = 3;
    unsigned store_ports = 2;
    bool ideal = false; ///< Fig. 11a: 8K window, unit latencies.

    static BackendConfig
    idealBackend()
    {
        BackendConfig c;
        c.ideal = true;
        c.rob_size = 8192;
        c.iq_size = 8192;
        c.lq_size = 8192;
        c.sq_size = 8192;
        c.alloc_width = 8192;
        c.commit_width = 8192;
        c.issue_width = 8192;
        return c;
    }

    bool operator==(const BackendConfig &) const = default;
};

/**
 * The backend pipeline from Allocate to Commit. The Cpu pushes decoded
 * instructions through tryAllocate() and polls for exec-resolved resteers.
 */
class Backend
{
  public:
    Backend(const BackendConfig &cfg, MemHier &mem);

    /** Space for one more instruction this cycle? */
    bool canAllocate() const;

    /** Allocate @p inst into ROB/IQ (call only when canAllocate()). */
    void allocate(DynInst &&inst, Cycle now);

    /** Issue + complete + commit for cycle @p now. */
    void runCycle(Cycle now);

    /**
     * If a resteer-flagged branch finished executing at or before @p now,
     * consume the event. @return the resolution cycle, or 0 when none.
     */
    Cycle takeExecResteer(Cycle now);

    std::uint64_t committed() const { return committed_; }
    bool empty() const { return rob_.empty(); }
    std::uint64_t robOccupancy() const { return rob_.size(); }

    StatSet stats;

  private:
    struct RobEntry
    {
        DynInst inst;
        bool issued = false;
        /// Producing ROB entries of the renamed sources (null = none or
        /// producer outside the ROB). Dereference only after checking the
        /// dep seq against last_committed_seq_: deque references stay
        /// stable until commit pops the producer.
        RobEntry *dep1_src = nullptr;
        RobEntry *dep2_src = nullptr;
        /// Intrusive issue-scan chain threading the un-issued entries in
        /// ROB order; issue unlinks, so the per-cycle scan never walks
        /// already-issued entries.
        RobEntry *next_unissued = nullptr;
        /// Earliest cycle the dependencies can possibly be ready (issued
        /// producers pin their completion cycle; an un-issued producer
        /// cannot complete before now+2). Purely a scan shortcut:
        /// readiness never regresses, so skipping the producer re-check
        /// until this cycle is timing-identical to re-checking every
        /// cycle.
        Cycle stall_until = 0;
    };

    BackendConfig cfg_;
    MemHier *mem_;

    std::deque<RobEntry> rob_;
    std::uint64_t last_committed_seq_ = 0;
    std::uint64_t committed_ = 0;

    unsigned loads_in_flight_ = 0;
    unsigned stores_in_flight_ = 0;
    unsigned iq_occupancy_ = 0;

    /// Outstanding exec-resolved resteer (at most one; the frontend
    /// stalls). 0 = none; otherwise the branch's completion cycle.
    Cycle pending_resteer_complete_ = 0;
    bool has_pending_resteer_ = false;

    /// Rename: architectural register -> producing seq / ROB entry.
    std::uint64_t last_writer_[64] = {};
    RobEntry *last_writer_entry_[64] = {};

    RobEntry *unissued_head_ = nullptr;
    RobEntry *unissued_tail_ = nullptr;

    /// Proven lower bound on the next cycle any entry could issue; the
    /// issue walk is skipped while now < issue_sleep_until_. Reset to 0
    /// by allocate() (a new entry voids the proof). Purely a scan
    /// shortcut — every bound is derived from fixed completion cycles,
    /// so skipped walks are provable no-ops.
    Cycle issue_sleep_until_ = 0;

    bool depReady(std::uint64_t seq, const RobEntry *src, Cycle now) const;
    unsigned execLatency(const DynInst &d, Cycle now);
};

} // namespace btbsim

#endif // BTBSIM_BACKEND_BACKEND_H
