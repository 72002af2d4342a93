/**
 * @file
 * Out-of-order backend: rename, issue queue, functional units, ROB.
 *
 * Table 1: 352-entry ROB, 128-entry IQ, 128-entry LQ, 72-entry SQ,
 * 16-wide execute/commit with 11 misc + 3 load + 2 store ports. The
 * 16-wide allocate is the Cpu's (CpuConfig::alloc_width).
 * Memory dependence prediction is oracle (as in ChampSim), so loads never
 * stall on unrelated stores.
 *
 * An ideal mode (Fig. 11a) models a backend limited only by data
 * dependencies inside an 8K-instruction window: unit latencies, unlimited
 * ports and single-cycle retire of the whole window.
 */

#ifndef BTBSIM_BACKEND_BACKEND_H
#define BTBSIM_BACKEND_BACKEND_H

#include <array>
#include <cstdint>
#include <vector>

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
        c.commit_width = 8192;
        c.issue_width = 8192;
        return c;
    }

    bool operator==(const BackendConfig &) const = default;
};

/**
 * The backend pipeline from Allocate to Commit. The Cpu pushes decoded
 * instructions through allocate() and polls for exec-resolved resteers.
 * Instructions must arrive with contiguous seqs starting at 1: the ROB
 * is a ring indexed by seq.
 *
 * Issue is dependency-driven. allocate() links each consumer onto the
 * wake list of every producer that has not issued yet. When the last
 * one issues, the consumer's ready cycle is known and it goes on a
 * cycle-indexed wheel. Each cycle drains the due bucket into a ready
 * bitmap (one bit per ROB slot), and issue scans that bitmap from the
 * ROB head, so it visits only entries whose operands are ready.
 */
class Backend
{
  public:
    /// Largest rob_size the wake lists can address: a link is a 16-bit
    /// (slot << 1 | operand) and 0xffff ends a list.
    static constexpr unsigned kMaxRobSize = 1u << 14;
    /// Cycles the wakeup wheel spans. A consumer due further out stays
    /// in its bucket for another turn of the wheel.
    static constexpr unsigned kWheelCycles = 256;

    /** Throws std::invalid_argument naming the backend.<field> of @p cfg
     *  when a size or width is 0, a port count is 0 (non-ideal only), or
     *  rob_size exceeds kMaxRobSize. */
    Backend(const BackendConfig &cfg, MemHier &mem);

    /** Space for one more instruction this cycle? */
    bool canAllocate() const;

    /** Allocate @p inst into ROB/IQ (call only when canAllocate()); the
     *  ROB keeps its own record, so @p inst may be reused at once.
     *  Throws std::logic_error unless @p inst.seq follows the previous
     *  allocation's and the ROB ring has a free slot. */
    void allocate(const DynInst &inst, Cycle now);

    /** Issue + complete + commit for cycle @p now. */
    void runCycle(Cycle now);

    /**
     * If a resteer-flagged branch finished executing at or before @p now,
     * consume the event. @return the resolution cycle, or 0 when none.
     */
    Cycle takeExecResteer(Cycle now);

    std::uint64_t committed() const { return last_committed_seq_; }
    std::uint64_t
    robOccupancy() const
    {
        return last_allocated_seq_ - last_committed_seq_;
    }

  private:
    using Link = std::uint16_t;
    static constexpr Link kNil = 0xffff;

    /** What the backend reads of an in-flight instruction. */
    struct RobEntry
    {
        Addr pc = 0;
        Addr mem_addr = 0;
        /// Cycle the result is available (valid once issued).
        Cycle complete_cycle = 0;
        /// Earliest cycle the operands can be ready: the latest
        /// completion among the issued producers, and alloc cycle + 1.
        Cycle ready_at = 0;
        InstClass cls = InstClass::kAlu;
        Resteer resteer = Resteer::kNone;
        bool issued = false;
        /// Producers that have not issued yet.
        std::uint8_t pending = 0;
        /// Head of the consumer operands waiting on this entry.
        Link waiters = kNil;
        /// This entry's link in its producers' wake lists, per operand.
        Link next_waiter[2] = {kNil, kNil};
        /// Next slot in the same wheel bucket.
        Link next_due = kNil;

        bool isLoad() const { return cls == InstClass::kLoad; }
        bool isStore() const { return cls == InstClass::kStore; }
    };

    BackendConfig cfg_;
    MemHier *mem_;

    /// The ROB: bit_ceil(rob_size) slots indexed by seq. The in-flight
    /// range is (last_committed_seq_, last_allocated_seq_], so a
    /// producer whose seq is above last_committed_seq_ is at its slot.
    std::vector<RobEntry> rob_;
    std::uint64_t rob_mask_; ///< rob_.size() - 1.
    std::uint64_t last_allocated_seq_ = 0;
    std::uint64_t last_committed_seq_ = 0;

    unsigned loads_in_flight_ = 0;
    unsigned stores_in_flight_ = 0;
    unsigned iq_occupancy_ = 0;

    /// Outstanding exec-resolved resteer (at most one; the frontend
    /// stalls). 0 = none; otherwise the branch's completion cycle.
    Cycle pending_resteer_complete_ = 0;
    bool has_pending_resteer_ = false;

    /// Rename: architectural register -> producing seq.
    std::uint64_t last_writer_[64] = {};

    /// Wakeup wheel: bucket c % kWheelCycles chains the slots whose
    /// ready_at is c (or a later turn's c).
    std::array<Link, kWheelCycles> wheel_;
    Cycle wheel_now_ = 0; ///< Last cycle whose bucket was drained.

    /// One bit per ROB slot: operands ready, not yet issued.
    std::vector<std::uint64_t> ready_;
    unsigned ready_count_ = 0;

    const RobEntry &
    slot(std::uint64_t seq) const
    {
        return rob_[seq & rob_mask_];
    }
    void schedule(std::size_t s);
    void drainWheel(Cycle now);
    void issue(Cycle now);
    void wake(const RobEntry &producer);
    unsigned execLatency(const RobEntry &e, Cycle now);
};

} // namespace btbsim

#endif // BTBSIM_BACKEND_BACKEND_H
