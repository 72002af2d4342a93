/**
 * @file
 * Cycle-free functional reference models for the differential checker.
 *
 * The reference side deliberately avoids re-implementing the
 * organizations: a mirror that duplicates the real replacement and
 * cursor machinery would share its bugs. Instead it tracks only facts
 * that are *obviously* derivable from the access/update stream with
 * unbounded maps, and is honest about when capacity effects make a
 * prediction impossible:
 *
 *  - An EvictionMonitor per set-associative level counts the distinct
 *    keys ever inserted into each set. While a set has seen at most
 *    `ways` distinct keys, no eviction can possibly have happened
 *    there, so entry *presence* is exactly predictable. The first time
 *    a set overflows it is marked permanently, and every prediction
 *    about its keys downgrades from "must be present" to "may be
 *    present" (containment checking via BranchHistory only).
 *
 *  - RefIbtb / RefRbtb additionally know which branches each entry must
 *    expose in the no-eviction regime (an R-BTB region with at most
 *    `branch_slots` distinct trained offsets cannot have displaced any
 *    of them). The block-structured organizations (B-/MB-BTB, hetero)
 *    have history-dependent entry boundaries, so the checker validates
 *    them through structural invariants and BranchHistory containment
 *    instead of presence predictions.
 */

#ifndef BTBSIM_CHECK_REFERENCE_H
#define BTBSIM_CHECK_REFERENCE_H

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"
#include "core/btb_config.h"

namespace btbsim::check {

/**
 * Tracks, per set of one set-associative level, the distinct keys ever
 * inserted. clean(key) answers "can key's set have evicted anything?"
 * soundly: false positives (spurious overflow marks) only weaken the
 * checking, never break it, so callers may insertKey() conservatively.
 */
class EvictionMonitor
{
  public:
    EvictionMonitor(unsigned sets, unsigned ways, unsigned index_shift)
        : sets_(sets), ways_(ways), shift_(index_shift)
    {}

    void
    insertKey(Addr key)
    {
        const std::size_t idx = setIndex(key);
        if (overflowed_.contains(idx))
            return;
        auto &keys = keys_[idx];
        keys.insert(key);
        if (keys.size() > ways_) {
            overflowed_.insert(idx);
            keys_.erase(idx);
        }
    }

    /** True when @p key's set has never held more distinct keys than
     *  ways — i.e. no eviction can have occurred there. */
    bool
    clean(Addr key) const
    {
        return !overflowed_.contains(setIndex(key));
    }

  private:
    std::size_t
    setIndex(Addr key) const
    {
        return static_cast<std::size_t>((key >> shift_) % sets_);
    }

    unsigned sets_;
    unsigned ways_;
    unsigned shift_;
    std::unordered_map<std::size_t, std::unordered_set<Addr>> keys_;
    std::unordered_set<std::size_t> overflowed_;
};

/** Reference for the I-BTB: one branch per entry, keyed by branch PC. */
class RefIbtb
{
  public:
    explicit RefIbtb(const BtbConfig &cfg);

    /** Mirror a (potential) allocation for @p pc. */
    void train(Addr pc);

    /** Must the real organization currently hold an entry for @p pc?
     *  True only when @p pc was trained and no eviction can have
     *  touched its set at any level. */
    bool mustHold(Addr pc) const;

  private:
    bool ideal_;
    EvictionMonitor l1_;
    EvictionMonitor l2_;
    std::unordered_set<Addr> trained_;
};

/** Reference for the R-BTB: region entries with bounded branch slots. */
class RefRbtb
{
  public:
    explicit RefRbtb(const BtbConfig &cfg);

    void train(Addr pc);

    /** Must the region entry for @p pc's region exist and expose every
     *  trained branch of the region? True only when the region's sets
     *  never overflowed at any level AND the region never held more
     *  distinct branch offsets than branch_slots (no displacement). */
    bool mustHoldAll(Addr region) const;

    /** Distinct trained branch PCs of @p region (only meaningful when
     *  mustHoldAll(region)). */
    const std::unordered_set<Addr> *trainedBranches(Addr region) const;

    Addr regionBase(Addr pc) const { return alignDown(pc, region_bytes_); }

  private:
    unsigned region_bytes_;
    unsigned branch_slots_;
    bool ideal_;
    EvictionMonitor l1_;
    EvictionMonitor l2_;
    /** Region base -> trained branch PCs; erased once the region
     *  overflows its slot budget (displacement possible). */
    std::unordered_map<Addr, std::unordered_set<Addr>> regions_;
    std::unordered_set<Addr> slot_overflowed_;
};

} // namespace btbsim::check

#endif // BTBSIM_CHECK_REFERENCE_H
