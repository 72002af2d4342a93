#include "core/rbtb.h"

#include <algorithm>
#include <unordered_map>

#include "check/fault.h"

namespace btbsim {

RegionBtb::RegionBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(cfg.region_bytes))
{}

void
RegionBtb::bundleSlots(PredictionBundle &b, Entry &e, Addr base, int level)
{
    for (Slot &s : e.slots)
        if (s.type != BranchClass::kNone)
            b.addSlot(0, base + s.offset, s.type, s.target, level, &s.tick);
}

int
RegionBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++stats["accesses"];
    const Addr region0 = regionBase(pc);
    Addr window_end = region0 + cfg_.region_bytes;

    auto [e0, lvl0] = table_.lookup(region0);

    Entry *entry1 = nullptr;
    if (cfg_.dual_region) {
        // The interleaved L1 can serve the next sequential region in the
        // same cycle, but only on an L1 hit (the L2 is not interleaved).
        const Addr region1 = region0 + cfg_.region_bytes;
        if (Entry *e1 = touchingFind(table_.l1(), region1)) {
            entry1 = e1;
            window_end = region1 + cfg_.region_bytes;
        }
    }

    b.tick_counter = &tick_;
    b.addSegment(region0, window_end);
    if (e0)
        bundleSlots(b, *e0, region0, lvl0);
    if (entry1)
        bundleSlots(b, *entry1, region0 + cfg_.region_bytes, 1);
    b.sortSlots(); // Entry slot vectors are not offset-sorted.
    return lvl0;
}

void
RegionBtb::applySlotUpdate(const Instruction &br)
{
    const Addr region = regionBase(br.pc);
    const auto offset = static_cast<std::uint32_t>(br.pc - region);

    auto [l1, l2] = table_.findBoth(region);
    if (!l1 && !l2) {
        auto [a, b] = table_.allocate(region);
        l1 = a;
        l2 = b;
        ++stats["allocs"];
    }

    bool displaced = false;
    for (Entry *e : {l1, l2}) {
        if (!e)
            continue;
        Slot *hit = nullptr;
        for (Slot &s : e->slots)
            if (s.offset == offset)
                hit = &s;
        if (!hit) {
            if (e->slots.size() < cfg_.branch_slots) {
                e->slots.emplace_back();
                hit = &e->slots.back();
            } else {
                // Slot contention: displace the least recently used slot.
                hit = &*std::min_element(
                    e->slots.begin(), e->slots.end(),
                    [](const Slot &a, const Slot &b) { return a.tick < b.tick; });
                displaced = true;
            }
            hit->offset = offset;
        }
        hit->type = br.branch;
        hit->target = br.takenTarget();
        hit->tick = ++tick_;
        BTBSIM_FAULT_POINT("rbtb_update_target",
                           hit->target = br.takenTarget() + kInstBytes);
    }
    if (displaced)
        ++stats["slot_displacements"];
}

void
RegionBtb::update(const Instruction &br, bool resteer)
{
    (void)resteer;
    if (!br.taken)
        return;
    applySlotUpdate(br);
}

void
RegionBtb::prefill(const Instruction &br)
{
    // Non-destructive prefill: never displace demand-trained slots, and
    // skip branches already visible through their region entry.
    const Addr region = regionBase(br.pc);
    const auto offset = static_cast<std::uint32_t>(br.pc - region);
    if (const Entry *e = table_.peek(region)) {
        for (const Slot &s : e->slots)
            if (s.offset == offset)
                return;
        if (e->slots.size() >= cfg_.branch_slots)
            return; // Entry full: a prefill must not evict training.
    }
    applySlotUpdate(br);
    ++stats["prefills"];
}

OccupancySample
RegionBtb::sampleOccupancy() const
{
    OccupancySample s;
    auto probe = [](const SoaSetTable<Entry> &t, double &occ,
                    std::uint64_t &n) {
        std::uint64_t entries = 0, slots = 0;
        t.forEach([&](Addr, const Entry &e) {
            ++entries;
            slots += e.slots.size();
        });
        n = entries;
        occ = entries ? static_cast<double>(slots) / entries : 0.0;
    };
    probe(table_.l1(), s.l1_slot_occupancy, s.l1_entries);
    probe(table_.l2(), s.l2_slot_occupancy, s.l2_entries);
    s.l1_redundancy = 1.0; // A branch lives in at most one region entry.
    s.l2_redundancy = 1.0;
    return s;
}

} // namespace btbsim
