/**
 * @file
 * Per-access prediction bundle: the data contract between a BTB
 * organization and the PC-generation walker.
 *
 * At beginAccess() the organization fills a fixed-capacity, stack-
 * allocated PredictionBundle: the access window (one segment per supplied
 * block — MB-BTB continuation records are the segments past the first),
 * plus one slot per tracked branch inside the window. The frontend then
 * walks the bundle inline with probe(), one call per actual-path PC.
 * Two virtual hooks remain, neither per instruction: chainAccess(), per
 * access event, for organizations that can extend the window at a
 * dynamic taken target (I-BTB Skp); and lookupSlot(), per probed branch
 * slot, for organizations that name themselves in @c lookup_org. The
 * I-BTB does: each PC its banked access reads is one BTB lookup, so the
 * walk looks a slot up (recency touch, L2-to-L1 fill) when it probes it,
 * in probe order, and reports the level that lookup hit.
 *
 * Semantics the walker preserves exactly from the virtual step() protocol
 * it replaced:
 *  - Slot recency ticks and lookups happen at probe time, before the
 *    frontend decides whether the instruction is actually consumed (an
 *    FTQ-full retry ticks the slot twice, as the per-PC protocol did).
 *  - Slots below the walk's entry PC (an access starting mid-region) are
 *    skipped without ticking.
 *  - A probe outside the current segment reports kEndOfWindow; chained
 *    segments are only entered through chain() on a correct taken
 *    prediction with @c follow set.
 *
 * Capacity rules: a bundle holds at most kMaxSegments segments and
 * kMaxSlots slots. makeBtb() rejects every configuration whose windows
 * could exceed them (width, and branch_slots per kind: MB-BTB supplies
 * branch_slots + 1 segments, the dual-region R-BTB 2 x branch_slots
 * slots); addSegment()/addSlot() assert it.
 */

#ifndef BTBSIM_CORE_PREDICTION_BUNDLE_H
#define BTBSIM_CORE_PREDICTION_BUNDLE_H

#include <cassert>
#include <cstdint>

#include "common/types.h"
#include "trace/instruction.h"

namespace btbsim {

class BtbOrg;

/** What the organization says about one PC inside the current access. */
struct StepView
{
    enum class Kind : std::uint8_t {
        kEndOfWindow, ///< PC is outside what this access can supply.
        kSequential,  ///< PC supplied; no tracked branch here.
        kBranch,      ///< PC supplied; a tracked branch lives here.
    };

    Kind kind = Kind::kEndOfWindow;
    BranchClass type = BranchClass::kNone; ///< kBranch: stored type.
    Addr target = 0;                       ///< kBranch: stored target.
    bool follow = false; ///< kBranch: taking it continues in-entry (MB).
    /** kBranch: the entry holds no fall-through for this slot, so a
     *  not-taken prediction must end the access (MB-BTB pulled slots). */
    bool end_on_not_taken = false;
    int level = 0; ///< BTB level supplying this info (1 or 2).
};

/** One access worth of predictions, filled by BtbOrg::beginAccess(). */
struct PredictionBundle
{
    static constexpr unsigned kMaxSegments = 16;
    static constexpr unsigned kMaxSlots = 64;

    /** One contiguous PC range the access supplies. Segments past the
     *  first are continuation records (MB-BTB chained blocks). */
    struct Segment
    {
        Addr start;
        Addr end; ///< Exclusive.
    };

    /** One tracked branch inside the window. */
    struct Slot
    {
        Addr pc;
        Addr target;
        std::uint64_t *tick; ///< Slot recency to stamp at probe time.
        BranchClass type;
        std::uint8_t seg;   ///< Owning segment index.
        /** BTB level that supplied the slot (1/2); with @c lookup_org set
         *  the probe-time lookup reports it instead. */
        std::uint8_t level;
        bool follow;
        bool end_on_not_taken;
    };

    // ---- fill state (written by the organization) -------------------------
    Segment segments[kMaxSegments]; ///< Only [0, n_segments) are valid.
    Slot slots[kMaxSlots];          ///< Sorted by (seg, pc); [0, n_slots).
    unsigned n_segments = 0;
    unsigned n_slots = 0;
    /** The organization's recency clock; stamped through Slot::tick. */
    std::uint64_t *tick_counter = nullptr;
    /** Call BtbOrg::chainAccess() when an in-bundle continuation is not
     *  recorded (I-BTB Skp extends the window at dynamic targets). */
    bool dynamic_chain = false;
    /** Look each probed slot up through this organization's lookupSlot()
     *  (I-BTB); null when the slots' fill-time levels stand. */
    BtbOrg *lookup_org = nullptr;

    // ---- walk state (maintained by probe()/chain()) -----------------------
    unsigned cur_seg = 0;
    unsigned cursor = 0; ///< First slot not yet passed by the walk.
    unsigned probes = 0; ///< PCs supplied so far (across segments).

    // ---- fill API (organizations) -----------------------------------------

    void
    addSegment(Addr start, Addr end)
    {
        assert(n_segments < kMaxSegments && "bundle segment overflow");
        segments[n_segments++] = {start, end};
    }

    void
    addSlot(unsigned seg, Addr pc, BranchClass type, Addr target, int level,
            std::uint64_t *tick = nullptr, bool follow = false,
            bool end_on_not_taken = false)
    {
        assert(n_slots < kMaxSlots && "bundle slot overflow");
        Slot &s = slots[n_slots++];
        s.pc = pc;
        s.target = target;
        s.tick = tick;
        s.type = type;
        s.seg = static_cast<std::uint8_t>(seg);
        s.level = static_cast<std::uint8_t>(level);
        s.follow = follow;
        s.end_on_not_taken = end_on_not_taken;
    }

    /** Restore (seg, pc) slot order for organizations whose entries do
     *  not store slots sorted (R-BTB). Insertion sort: n is tiny. */
    void
    sortSlots()
    {
        for (unsigned i = 1; i < n_slots; ++i) {
            const Slot s = slots[i];
            unsigned j = i;
            for (; j > 0 && (slots[j - 1].seg > s.seg ||
                             (slots[j - 1].seg == s.seg &&
                              slots[j - 1].pc > s.pc));
                 --j)
                slots[j] = slots[j - 1];
            slots[j] = s;
        }
    }

    /** Drop all fill and walk-position state, keeping the probe budget:
     *  chainAccess() re-fills the bundle at a dynamic target. */
    void
    restartFill()
    {
        n_segments = 0;
        n_slots = 0;
        cur_seg = 0;
        cursor = 0;
    }

    // ---- walk API (PcGen, tests, examples) --------------------------------

    /**
     * The bundle's answer for @p pc — the inline replacement for the
     * virtual per-PC step(). Probing a slot stamps its recency tick; with
     * @c lookup_org set it also looks the slot up, and a slot whose entry
     * an earlier lookup of this access evicted reports kSequential.
     * Defined in btb_org.h (needs BtbOrg).
     */
    inline StepView probe(Addr pc);

    /**
     * Continue the access across the correct-taken branch at @p pc toward
     * @p target. Follows a recorded continuation segment when one starts
     * at the target (MB-BTB), else asks the organization to extend the
     * window (I-BTB Skp). @return true when the access keeps supplying
     * PCs at the target. Defined in btb_org.h (needs BtbOrg).
     */
    inline bool chain(BtbOrg &org, Addr pc, Addr target);

    /** No-op: a walk has nothing left to commit when it ends. Kept only
     *  because btbbench/layers.cpp still calls it. */
    void finish(BtbOrg &) {}
};

} // namespace btbsim

#endif // BTBSIM_CORE_PREDICTION_BUNDLE_H
