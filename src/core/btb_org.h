/**
 * @file
 * Abstract BTB organization interface and the two-level storage helper.
 *
 * The frontend's PC-generation stage performs one BTB *access* per cycle
 * (two region probes for the 2L1 R-BTB). An access opens a window of
 * instruction PCs the organization can supply: beginAccess() fills a
 * PredictionBundle (window segments plus branch slots) and the frontend
 * walks the actual trace through it inline — see prediction_bundle.h.
 * This keeps the organizations swappable exactly as the paper requires
 * while letting the trace-driven frontend detect every divergence class
 * (BTB miss, branch-slot miss, stale target, direction mispredict)
 * without a virtual call per instruction.
 */

#ifndef BTBSIM_CORE_BTB_ORG_H
#define BTBSIM_CORE_BTB_ORG_H

#include <cstdint>
#include <memory>

#include "common/stats.h"
#include "common/types.h"
#include "core/btb_config.h"
#include "core/prediction_bundle.h"
#include "core/soa_table.h"
#include "trace/instruction.h"

namespace btbsim {

/** Periodic structure sample (Sections 5 and 6.1 metrics). */
struct OccupancySample
{
    double l1_slot_occupancy = 0.0; ///< Used slots per valid L1 entry.
    double l2_slot_occupancy = 0.0;
    double l1_redundancy = 0.0; ///< Avg entries tracking each branch PC.
    double l2_redundancy = 0.0;
    std::uint64_t l1_entries = 0;
    std::uint64_t l2_entries = 0;
};

/** Event counters of a BTB organization, exported under "btb.". Each
 *  key appears once its event has fired (see exportCounters). */
struct BtbCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t allocs = 0;
    std::uint64_t pulls = 0;      ///< MB-BTB: blocks pulled into an entry.
    std::uint64_t downgrades = 0; ///< MB-BTB: pulled blocks removed again.
    std::uint64_t splits = 0;     ///< Splt: blocks split on slot overflow.
    std::uint64_t slot_displacements = 0;
    std::uint64_t chained_blocks = 0; ///< Recorded continuations followed.
    std::uint64_t l2_allocs = 0;
    std::uint64_t l2_slot_displacements = 0;
    std::uint64_t l2_synthesized_fills = 0;

    static constexpr bool kExportZero = false;
    static constexpr CounterName<BtbCounters> kNames[] = {
        {"accesses", &BtbCounters::accesses},
        {"allocs", &BtbCounters::allocs},
        {"pulls", &BtbCounters::pulls},
        {"downgrades", &BtbCounters::downgrades},
        {"splits", &BtbCounters::splits},
        {"slot_displacements", &BtbCounters::slot_displacements},
        {"chained_blocks", &BtbCounters::chained_blocks},
        {"l2_allocs", &BtbCounters::l2_allocs},
        {"l2_slot_displacements", &BtbCounters::l2_slot_displacements},
        {"l2_synthesized_fills", &BtbCounters::l2_synthesized_fills},
    };
};

/**
 * A BTB organization over a two-level hierarchy.
 *
 * Protocol per access: beginAccess(pc, bundle) once; the frontend then
 * walks the bundle inline with PredictionBundle::probe() for successive
 * PCs along the (actual) path — no virtual dispatch per instruction.
 * When a tracked branch with @c follow is predicted taken and verified
 * correct, the walker follows a recorded continuation segment (MB-BTB
 * multi-block supply) or calls chainAccess() to extend the window at the
 * dynamic target (I-BTB Skp). An organization that names itself in
 * bundle.lookup_org (I-BTB) has each probed slot looked up through
 * lookupSlot() at probe time.
 *
 * update() is called for every actual branch instruction in program order
 * (immediate update, per Section 4.1).
 */
class BtbOrg
{
  public:
    virtual ~BtbOrg() = default;

    /**
     * Start an access at @p pc, filling @p b (a fresh, default-constructed
     * bundle) with the window and its branch slots.
     */
    virtual void beginAccess(Addr pc, PredictionBundle &b) = 0;

    /**
     * Extend the current access across the correct-taken branch at @p pc
     * toward @p target by re-filling @p b (only called when the bundle
     * has @c dynamic_chain set and no recorded continuation matches).
     * @return true if the access keeps supplying PCs at @p target.
     */
    virtual bool
    chainAccess(Addr pc, Addr target, PredictionBundle &b)
    {
        (void)pc;
        (void)target;
        (void)b;
        return false;
    }

    /**
     * Look up the slot at @p pc as the walk probes it (only called on the
     * organization a bundle names in @c lookup_org), with the lookup's
     * side effects (recency touch, L2-to-L1 fill).
     * @return the level that supplied the entry (1, 2), 0 when absent.
     */
    virtual int
    lookupSlot(Addr pc)
    {
        (void)pc;
        return 0;
    }

    /**
     * Train with the actual branch @p br. @p resteer is true when the
     * frontend was redirected at this branch (any misfetch/mispredict).
     */
    virtual void update(const Instruction &br, bool resteer) = 0;

    /** Sample slot occupancy and redundancy across the structure. */
    virtual OccupancySample sampleOccupancy() const = 0;

    virtual const BtbConfig &config() const = 0;

    /**
     * Debug probe: the level (1 or 2) at which an entry keyed by @p key
     * currently resides, 0 when absent, or -1 when the organization does
     * not support the query. Must not disturb LRU or fill state — it
     * exists for the differential checker (src/check/), never for the
     * simulated machinery.
     */
    virtual int
    peekLevel(Addr key) const
    {
        (void)key;
        return -1;
    }

    /** Bubbles charged when a taken branch was supplied by @p level. */
    unsigned
    takenPenalty(int level) const
    {
        if (level >= 2)
            return config().l2_penalty;
        return 0;
    }

    BtbCounters counters;

    /** Where bundle-walk helpers account their counters. Defaults to this
     *  organization's own @c counters; a checking decorator points it at
     *  the wrapped organization's so harvested counters stay identical
     *  with and without checking. */
    BtbCounters *walk_counters = &counters;
};

/**
 * Two-level inclusive storage shared by all organizations. L2 is the
 * backing level; L1 hits are fast (0-cycle turnaround), L2 hits fill into
 * L1 and charge the taken-branch penalty. With BtbConfig::ideal, only a
 * single huge 0-penalty level exists.
 */
template <typename Entry>
class TwoLevelTable
{
  public:
    using Table = SoaSetTable<Entry>;

    TwoLevelTable(const BtbConfig &cfg, unsigned index_shift)
        : ideal_(cfg.ideal),
          l1_(cfg.ideal ? 16384 : cfg.l1.sets, cfg.ideal ? 32 : cfg.l1.ways,
              index_shift),
          l2_(cfg.ideal ? 1 : cfg.l2.sets, cfg.ideal ? 1 : cfg.l2.ways,
              index_shift)
    {}

    /**
     * Hierarchy lookup. On an L2 hit the entry is filled into L1.
     * @return {entry pointer or nullptr, level (0/1/2)}.
     */
    std::pair<Entry *, int>
    lookup(Addr key)
    {
        if (Entry *e = touchingFind(l1_, key))
            return {e, 1};
        if (ideal_)
            return {nullptr, 0};
        if (Entry *e = touchingFind(l2_, key)) {
            Entry &filled = fillEntry(l1_, key);
            filled = *e;
            return {&filled, 2};
        }
        return {nullptr, 0};
    }

    /** Lookup without LRU update or fill (stats probes). */
    const Entry *
    peek(Addr key) const
    {
        if (const Entry *e = peekFind(l1_, key))
            return e;
        if (!ideal_)
            return peekFind(l2_, key);
        return nullptr;
    }

    /**
     * Find the entry for updating: L1 first, then L2 (without promoting).
     * @return pointers to the L1 and L2 copies (either may be null).
     */
    std::pair<Entry *, Entry *>
    findBoth(Addr key)
    {
        Entry *a = touchingFind(l1_, key);
        Entry *b = ideal_ ? nullptr : touchingFind(l2_, key);
        return {a, b};
    }

    /** Allocate in both levels (immediate update, inclusive fill). */
    std::pair<Entry *, Entry *>
    allocate(Addr key)
    {
        Entry *a = &fillEntry(l1_, key);
        Entry *b = ideal_ ? nullptr : &fillEntry(l2_, key);
        return {a, b};
    }

    /** Write @p value to both levels, allocating where absent. */
    void
    upsert(Addr key, const Entry &value)
    {
        if (Entry *e = touchingFind(l1_, key))
            *e = value;
        else
            fillEntry(l1_, key) = value;
        if (!ideal_) {
            if (Entry *e = touchingFind(l2_, key))
                *e = value;
            else
                fillEntry(l2_, key) = value;
        }
    }

    /** Authoritative copy for read-modify-write updates: L2 when present
     *  (it outlives L1 residency), else L1. */
    const Entry *
    peekAuthoritative(Addr key) const
    {
        if (!ideal_)
            if (const Entry *e = peekFind(l2_, key))
                return e;
        return peekFind(l1_, key);
    }

    Table &l1() { return l1_; }
    Table &l2() { return l2_; }
    const Table &l1() const { return l1_; }
    const Table &l2() const { return l2_; }
    bool ideal() const { return ideal_; }

  private:
    bool ideal_;
    Table l1_;
    Table l2_;
};

/** Construct the organization described by @p cfg. */
std::unique_ptr<BtbOrg> makeBtb(const BtbConfig &cfg);

// ---- PredictionBundle walk hooks (need the complete BtbOrg) ---------------

inline StepView
PredictionBundle::probe(Addr pc)
{
    StepView v;
    if (cur_seg >= n_segments)
        return v; // kEndOfWindow
    const Segment &sg = segments[cur_seg];
    if (pc < sg.start || pc >= sg.end)
        return v; // kEndOfWindow
    ++probes;
    while (cursor < n_slots &&
           (slots[cursor].seg < cur_seg ||
            (slots[cursor].seg == cur_seg && slots[cursor].pc < pc)))
        ++cursor;
    v.kind = StepView::Kind::kSequential;
    if (cursor == n_slots || slots[cursor].seg != cur_seg ||
        slots[cursor].pc != pc)
        return v;
    const Slot &s = slots[cursor];
    if (s.tick)
        *s.tick = ++*tick_counter;
    v.level = lookup_org ? lookup_org->lookupSlot(pc) : s.level;
    if (v.level == 0)
        return v; // Evicted by an earlier lookup of this access.
    v.kind = StepView::Kind::kBranch;
    v.type = s.type;
    v.target = s.target;
    v.follow = s.follow;
    v.end_on_not_taken = s.end_on_not_taken;
    return v;
}

inline bool
PredictionBundle::chain(BtbOrg &org, Addr pc, Addr target)
{
    if (cur_seg + 1 < n_segments && segments[cur_seg + 1].start == target) {
        // Recorded continuation: the entry chained this block (MB-BTB).
        ++cur_seg;
        ++org.walk_counters->chained_blocks;
        return true;
    }
    if (dynamic_chain)
        return org.chainAccess(pc, target, *this);
    return false;
}

} // namespace btbsim

#endif // BTBSIM_CORE_BTB_ORG_H
