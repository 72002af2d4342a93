/**
 * @file
 * Fetch Target Queue: the decoupling queue between PC generation and
 * instruction fetch (Reinman et al.). One entry relates to a single cache
 * line (Table 1) and names the run of fetch PCs that fall within it. The
 * queue also owns those instructions, in one seq-indexed store, until the
 * core hands them to the backend.
 */

#ifndef BTBSIM_FRONTEND_FTQ_H
#define BTBSIM_FRONTEND_FTQ_H

#include <cassert>
#include <deque>
#include <vector>

#include "common/types.h"
#include "sim/dyn_inst.h"

namespace btbsim {

/** One FTQ entry: the stored instructions (previous entry's end_seq,
 *  end_seq], all within a single I-cache line. */
struct FtqEntry
{
    Addr line = 0;
    std::uint64_t end_seq = 0; ///< Seq of the entry's youngest instruction.
    Cycle min_issue_cycle = 0; ///< Earliest I$ access (FTQ bypass when 0-delay).
    bool issued = false;       ///< I$ access started.
    Cycle data_ready = 0;      ///< I$ data available (valid when issued).
};

/** The queue itself (64 entries per Table 1). */
class Ftq
{
  public:
    explicit Ftq(std::size_t capacity = 64) : capacity_(capacity) {}

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * Append @p inst, opening a new entry when the line changes (or when
     * the stream was redirected). @return false if a new entry was needed
     * but the queue is full.
     *
     * @param new_entry Force a fresh entry even within the same line
     *                  (redirect targets start a new fetch block).
     */
    bool
    push(const DynInst &inst, Cycle now, bool bypass, bool new_entry)
    {
        const Addr line = alignDown(inst.in.pc, kLineBytes);
        if (!appends(line, new_entry)) {
            if (full())
                return false;
            entries_.push_back({line, 0, bypass ? now : now + 1});
        }
        store(inst);
        entries_.back().end_seq = inst.seq;
        return true;
    }

    /** Can a new entry be opened for @p pc without allocating? */
    bool
    canAccept(Addr pc, bool new_entry) const
    {
        return appends(alignDown(pc, kLineBytes), new_entry) || !full();
    }

    std::deque<FtqEntry> &entries() { return entries_; }
    FtqEntry &front() { return entries_.front(); }

    void
    popFront()
    {
        // Issued entries form a prefix; dropping an issued front shifts
        // the first-unissued index left by one.
        if (first_unissued_ > 0)
            --first_unissued_;
        entries_.pop_front();
    }

    void
    clear()
    {
        entries_.clear();
        first_unissued_ = 0;
        head_seq_ = tail_seq_;
    }

    /**
     * Index of the oldest un-issued entry (== size() when all are
     * issued). Valid because issue happens strictly in queue order and
     * nothing un-issues an entry.
     */
    std::size_t firstUnissued() const { return first_unissued_; }

    /** Record that the entry at firstUnissued() was just issued. */
    void noteIssued() { ++first_unissued_; }

    /** The stored instruction @p seq; valid until release(seq). */
    DynInst &inst(std::uint64_t seq) { return ring_[seq & (ring_.size() - 1)]; }

    /** Drop every stored instruction up to and including @p seq (it
     *  has moved on to the backend). */
    void release(std::uint64_t seq) { head_seq_ = seq + 1; }

  private:
    std::size_t capacity_;
    std::deque<FtqEntry> entries_;
    std::size_t first_unissued_ = 0;

    /// Instruction store: a power-of-two ring holding seqs
    /// [head_seq_, tail_seq_). It doubles when full rather than assume a
    /// per-entry bound: a ChampSim `rep` stream repeats one IP, so one
    /// entry can hold any number of instructions.
    std::vector<DynInst> ring_ = std::vector<DynInst>(256);
    std::uint64_t head_seq_ = 0;
    std::uint64_t tail_seq_ = 0;

    bool
    appends(Addr line, bool new_entry) const
    {
        return !new_entry && !entries_.empty() && !entries_.back().issued &&
               entries_.back().line == line;
    }

    void
    store(const DynInst &d)
    {
        if (head_seq_ == tail_seq_)
            head_seq_ = tail_seq_ = d.seq;
        assert(d.seq == tail_seq_ && "FTQ stream seqs must be contiguous");
        if (tail_seq_ - head_seq_ == ring_.size()) {
            std::vector<DynInst> bigger(ring_.size() * 2);
            for (std::uint64_t s = head_seq_; s < tail_seq_; ++s)
                bigger[s & (bigger.size() - 1)] = inst(s);
            ring_.swap(bigger);
        }
        inst(tail_seq_++) = d;
    }
};

} // namespace btbsim

#endif // BTBSIM_FRONTEND_FTQ_H
