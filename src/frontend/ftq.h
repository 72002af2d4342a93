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

#include <bit>
#include <cassert>
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
    explicit Ftq(std::size_t capacity = 64)
        : capacity_(capacity), slots_(std::bit_ceil(capacity)),
          slot_mask_(slots_.size() - 1)
    {}

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /**
     * Append @p in as instruction @p seq, opening a new entry when the
     * line changes (or when the stream was redirected).
     *
     * @param new_entry Force a fresh entry even within the same line
     *                  (redirect targets start a new fetch block).
     * @return the stored instruction, built in its slot with no resteer
     *         and no decode cycle yet; valid until the next push() (the
     *         store may grow). Null if a new entry was needed but the
     *         queue is full.
     */
    DynInst *
    push(const Instruction &in, std::uint64_t seq, Cycle now, bool bypass,
         bool new_entry)
    {
        const Addr line = alignDown(in.pc, kLineBytes);
        if (!appends(line, new_entry)) {
            if (full())
                return nullptr;
            slots_[(head_ + size_++) & slot_mask_] =
                FtqEntry{line, 0, bypass ? now : now + 1};
        }
        entry(size_ - 1).end_seq = seq;
        DynInst &d = store(seq);
        d.in = in;
        d.seq = seq;
        d.resteer = Resteer::kNone;
        d.decode_cycle = 0;
        return &d;
    }

    /** Can a new entry be opened for @p pc without allocating? */
    bool
    canAccept(Addr pc, bool new_entry) const
    {
        return appends(alignDown(pc, kLineBytes), new_entry) || !full();
    }

    /** The @p i-th entry from the front (i < size()). */
    FtqEntry &entry(std::size_t i) { return slots_[(head_ + i) & slot_mask_]; }
    FtqEntry &front() { return entry(0); }

    void
    popFront()
    {
        // Issued entries form a prefix; dropping an issued front shifts
        // the first-unissued index left by one.
        if (first_unissued_ > 0)
            --first_unissued_;
        head_ = (head_ + 1) & slot_mask_;
        --size_;
    }

    void
    clear()
    {
        size_ = 0;
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
    DynInst &inst(std::uint64_t seq) { return ring_[seq & ring_mask_]; }

    /** Drop every stored instruction up to and including @p seq (it
     *  has moved on to the backend). */
    void release(std::uint64_t seq) { head_seq_ = seq + 1; }

  private:
    std::size_t capacity_;
    /// Entry ring of bit_ceil(capacity_) slots; the queue is the size_
    /// entries from head_ on.
    std::vector<FtqEntry> slots_;
    std::size_t slot_mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t first_unissued_ = 0;

    /// Instruction store: a power-of-two ring holding seqs
    /// [head_seq_, tail_seq_). It doubles when full rather than assume a
    /// per-entry bound: a TraceSource may repeat one IP (as the stream of
    /// Cpu.RepStreamGolden does), so one entry can hold any number of
    /// instructions.
    std::vector<DynInst> ring_ = std::vector<DynInst>(256);
    std::uint64_t ring_mask_ = 255; ///< ring_.size() - 1.
    std::uint64_t head_seq_ = 0;
    std::uint64_t tail_seq_ = 0;

    bool
    appends(Addr line, bool new_entry) const
    {
        if (new_entry || empty())
            return false;
        const FtqEntry &tail = slots_[(head_ + size_ - 1) & slot_mask_];
        return !tail.issued && tail.line == line;
    }

    /** The slot for @p seq, the next seq of the stream. */
    DynInst &
    store(std::uint64_t seq)
    {
        if (head_seq_ == tail_seq_)
            head_seq_ = tail_seq_ = seq;
        assert(seq == tail_seq_ && "FTQ stream seqs must be contiguous");
        if (tail_seq_ - head_seq_ == ring_.size()) {
            std::vector<DynInst> bigger(ring_.size() * 2);
            for (std::uint64_t s = head_seq_; s < tail_seq_; ++s)
                bigger[s & (bigger.size() - 1)] = inst(s);
            ring_.swap(bigger);
            ring_mask_ = ring_.size() - 1;
        }
        return inst(tail_seq_++);
    }
};

} // namespace btbsim

#endif // BTBSIM_FRONTEND_FTQ_H
