#include "core/rbtb.h"

#include "check/fault.h"

namespace btbsim {

RegionBtb::RegionBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(cfg.region_bytes))
{}

void
RegionBtb::bundleSlots(PredictionBundle &b, RegionEntry &e, Addr base,
                       int level)
{
    for (BranchSlot &s : e.slots)
        if (s.type != BranchClass::kNone)
            b.addSlot(0, base + s.offset, s.type, s.target, level, &s.tick);
}

void
RegionBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++counters.accesses;
    const Addr region0 = regionBase(pc);
    Addr window_end = region0 + cfg_.region_bytes;

    auto [e0, lvl0] = table_.lookup(region0);

    RegionEntry *entry1 = nullptr;
    if (cfg_.dual_region) {
        // The interleaved L1 can serve the next sequential region in the
        // same cycle, but only on an L1 hit (the L2 is not interleaved).
        const Addr region1 = region0 + cfg_.region_bytes;
        if (RegionEntry *e1 = touchingFind(table_.l1(), region1)) {
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
        ++counters.allocs;
    }

    bool displaced = false;
    for (RegionEntry *e : {l1, l2}) {
        if (!e)
            continue;
        const RegionSlotUpdate r = updateRegionSlot(
            *e, offset, br.branch, br.takenTarget(), tick_, cfg_.branch_slots);
        displaced |= r.displaced;
        BTBSIM_FAULT_POINT("rbtb_update_target",
                           r.slot.target = br.takenTarget() + kInstBytes);
    }
    if (displaced)
        ++counters.slot_displacements;
}

void
RegionBtb::update(const Instruction &br, bool resteer)
{
    (void)resteer;
    if (!br.taken)
        return;
    applySlotUpdate(br);
}

OccupancySample
RegionBtb::sampleOccupancy() const
{
    return occupancyOf(sampleLevel(table_.l1()), sampleLevel(table_.l2()));
}

} // namespace btbsim
