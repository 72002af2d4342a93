/**
 * @file
 * Block and region entries and the per-entry slot algorithms that the
 * Block BTB, the Region BTB and the heterogeneous hierarchy (block L1,
 * region L2) share. Everything here acts on one entry value or one slot
 * vector, never on a table: which level is read, written or allocated,
 * and which counters an event bumps, stays with each organization.
 */

#ifndef BTBSIM_CORE_BTB_ENTRY_H
#define BTBSIM_CORE_BTB_ENTRY_H

#include <algorithm>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/btb_org.h"

namespace btbsim {

/** One branch slot of a block or region entry. */
struct BranchSlot
{
    std::uint32_t offset = 0; ///< Byte offset within the block/region.
    BranchClass type = BranchClass::kNone;
    Addr target = 0;
    std::uint64_t tick = 0; ///< Slot-LRU recency.
};

/** One dynamic instruction block (B-BTB entry, hetero L1 entry). */
struct BlockEntry
{
    std::vector<BranchSlot> slots; ///< Kept sorted by offset.
    std::uint32_t end_bytes = 0;   ///< Block extent from its start.
    bool split = false;
};

/** One aligned region (R-BTB entry, hetero L2 entry). */
struct RegionEntry
{
    std::vector<BranchSlot> slots; ///< In insertion order.
};

/** What training a block entry with one taken branch did. */
struct BlockSlotUpdate
{
    bool displaced = false; ///< The LRU slot was overwritten.
    /** With splitting: the slot pushed out of the entry (offset still
     *  relative to the entry's start)... */
    std::optional<BranchSlot> spill;
    /** ...and the offset of the block it now belongs to (the entry's end
     *  right after the split). */
    std::uint32_t spill_block = 0;
};

/**
 * Train block entry @p e with the taken branch at byte @p offset: on a
 * slot hit refresh it; else insert it sorted while a slot is free; else
 * split (with @p split: keep the first @p max_slots slots by offset, end
 * the entry after the last one and hand back the rest as the spill,
 * Section 6.3) or displace the least recently used slot. Always-taken
 * branches then end the block at their offset — and so do taken
 * conditionals with @p cond_ends_block (Yeh/Patt-style blocks, Section
 * 2.3) — since the flow can never pass them. Bumps @p tick once.
 */
inline BlockSlotUpdate
updateBlockSlot(BlockEntry &e, std::uint32_t offset, BranchClass type,
                Addr target, std::uint64_t &tick, unsigned max_slots,
                bool split, bool cond_ends_block)
{
    auto by_offset = [](const BranchSlot &a, const BranchSlot &b) {
        return a.offset < b.offset;
    };
    const BranchSlot s{offset, type, target, ++tick};
    BlockSlotUpdate r;
    auto hit = std::find_if(e.slots.begin(), e.slots.end(),
                            [&](const BranchSlot &x) {
                                return x.offset == offset;
                            });
    if (hit != e.slots.end()) {
        *hit = s;
    } else if (e.slots.size() < max_slots) {
        e.slots.insert(std::upper_bound(e.slots.begin(), e.slots.end(), s,
                                        by_offset),
                       s);
    } else if (split) {
        e.slots.insert(std::upper_bound(e.slots.begin(), e.slots.end(), s,
                                        by_offset),
                       s);
        r.spill = e.slots.back();
        e.slots.resize(max_slots);
        e.end_bytes = e.slots.back().offset + kInstBytes;
        e.split = true;
        r.spill_block = e.end_bytes;
    } else {
        *std::min_element(e.slots.begin(), e.slots.end(),
                          [](const BranchSlot &a, const BranchSlot &b) {
                              return a.tick < b.tick;
                          }) = s;
        std::sort(e.slots.begin(), e.slots.end(), by_offset);
        r.displaced = true;
    }

    if (isAlwaysTaken(type) ||
        (cond_ends_block && type == BranchClass::kCondDirect)) {
        const std::uint32_t end = offset + kInstBytes;
        if (end < e.end_bytes) {
            e.end_bytes = end;
            std::erase_if(e.slots, [&](const BranchSlot &x) {
                return x.offset >= end;
            });
        }
    }
    return r;
}

/** What training a region entry with one taken branch did. */
struct RegionSlotUpdate
{
    BranchSlot &slot; ///< The slot now holding the branch.
    bool displaced;   ///< It overwrote the LRU slot of a full entry.
};

/**
 * Train region entry @p e with the taken branch at byte @p offset: on a
 * slot hit refresh it, else append while a slot is free, else displace
 * the least recently used slot. Bumps @p tick once.
 */
inline RegionSlotUpdate
updateRegionSlot(RegionEntry &e, std::uint32_t offset, BranchClass type,
                 Addr target, std::uint64_t &tick, unsigned max_slots)
{
    bool displaced = false;
    auto hit = std::find_if(e.slots.begin(), e.slots.end(),
                            [&](const BranchSlot &x) {
                                return x.offset == offset;
                            });
    if (hit == e.slots.end()) {
        if (e.slots.size() < max_slots) {
            hit = e.slots.emplace(e.slots.end());
        } else {
            hit = std::min_element(e.slots.begin(), e.slots.end(),
                                   [](const BranchSlot &a,
                                      const BranchSlot &b) {
                                       return a.tick < b.tick;
                                   });
            displaced = true;
        }
    }
    *hit = BranchSlot{offset, type, target, ++tick};
    return {*hit, displaced};
}

/** Update-side cursor of a block organization: the start of the dynamic
 *  block being trained. */
struct BlockCursor
{
    Addr block = 0;
    bool valid = false;

    void
    restart(Addr pc)
    {
        block = pc;
        valid = true;
    }

    /** Move to the block containing @p pc, walking forward across
     *  fall-through blocks whose extents @p block_end(start) reports. A
     *  cursor past @p pc, or a pathological distance, restarts at @p pc. */
    template <typename BlockEnd>
    void
    normalize(Addr pc, BlockEnd block_end)
    {
        if (!valid || pc < block) {
            restart(pc);
            return;
        }
        for (int guard = 0; guard < 4096; ++guard) {
            const std::uint32_t end = block_end(block);
            if (pc < block + end)
                return;
            block += end;
        }
        block = pc;
    }
};

/** Occupancy of one table level (see OccupancySample). */
struct LevelOccupancy
{
    double slot_occupancy = 0.0;
    double redundancy = 1.0;
    std::uint64_t entries = 0;
};

/**
 * Slots per valid entry of @p t, and entries per tracked branch PC:
 * @p slot_pc(key, entry, slot) names the PC a slot tracks, or nullopt to
 * leave it out. Without @p slot_pc every branch is stored once (region
 * storage), so the redundancy is 1.
 */
template <typename Entry, typename SlotPc = std::nullptr_t>
LevelOccupancy
sampleLevel(const SoaSetTable<Entry> &t, SlotPc slot_pc = nullptr)
{
    std::uint64_t slots = 0, tracked = 0;
    std::unordered_set<Addr> pcs;
    LevelOccupancy l;
    t.forEach([&](Addr key, const Entry &e) {
        ++l.entries;
        slots += e.slots.size();
        if constexpr (!std::is_null_pointer_v<SlotPc>) {
            for (const auto &s : e.slots) {
                if (const std::optional<Addr> pc = slot_pc(key, e, s)) {
                    ++tracked;
                    pcs.insert(*pc);
                }
            }
        }
    });
    if (l.entries)
        l.slot_occupancy = static_cast<double>(slots) / l.entries;
    if (!pcs.empty())
        l.redundancy = static_cast<double>(tracked) / pcs.size();
    return l;
}

/** Slot PC of a block entry keyed by its start address. */
inline std::optional<Addr>
blockSlotPc(Addr key, const BlockEntry &, const BranchSlot &s)
{
    return key + s.offset;
}

/** The two levels' samples as one OccupancySample. */
inline OccupancySample
occupancyOf(const LevelOccupancy &l1, const LevelOccupancy &l2)
{
    OccupancySample s;
    s.l1_slot_occupancy = l1.slot_occupancy;
    s.l2_slot_occupancy = l2.slot_occupancy;
    s.l1_redundancy = l1.redundancy;
    s.l2_redundancy = l2.redundancy;
    s.l1_entries = l1.entries;
    s.l2_entries = l2.entries;
    return s;
}

} // namespace btbsim

#endif // BTBSIM_CORE_BTB_ENTRY_H
