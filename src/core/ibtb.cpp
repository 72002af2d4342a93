#include "core/ibtb.h"

#include "check/fault.h"

namespace btbsim {

InstructionBtb::InstructionBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(kInstBytes))
{}

/**
 * Fill @p b with a window of @p count banked probes starting at @p start,
 * using side-effect-free peeks. The lookup each probe models happens when
 * the walk probes a slot (lookupSlot), which reports the slot's level; a
 * lookup miss has no side effects, so sequential PCs need none.
 */
void
InstructionBtb::fillWindow(Addr start, unsigned count, PredictionBundle &b)
{
    b.addSegment(start, start + Addr{count} * kInstBytes);
    const unsigned seg = b.n_segments - 1;
    for (unsigned i = 0; i < count; ++i) {
        const Addr pc = start + Addr{i} * kInstBytes;
        const Entry *e = table_.peek(pc);
        if (!e)
            continue;
        b.addSlot(seg, pc, e->type, e->target, /*level=*/1, nullptr,
                  cfg_.skip_taken);
        // The walk can never continue past an always-taken-class slot
        // within this segment (it either ends the access, diverges, or
        // chains into a fresh window), so stop peeking here.
        if (isAlwaysTaken(e->type))
            break;
    }
}

void
InstructionBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++counters.accesses;
    b.dynamic_chain = cfg_.skip_taken;
    b.lookup_org = this;
    fillWindow(pc, cfg_.width, b);
}

bool
InstructionBtb::chainAccess(Addr pc, Addr target, PredictionBundle &b)
{
    (void)pc;
    // Skp mode chains across taken branches within the access width.
    if (!cfg_.skip_taken || b.probes >= cfg_.width)
        return false;
    const unsigned remaining = cfg_.width - b.probes;
    b.restartFill();
    fillWindow(target, remaining, b);
    return true;
}

int
InstructionBtb::lookupSlot(Addr pc)
{
    const int level = table_.lookup(pc).second;
    BTBSIM_FAULT_POINT("ibtb_probe_level", if (level == 2) return 1);
    return level;
}

void
InstructionBtb::update(const Instruction &br, bool resteer)
{
    (void)resteer;
    if (!br.taken)
        return; // Never-taken branches occupy no BTB storage.

    auto [l1, l2] = table_.findBoth(br.pc);
    if (!l1 && !l2) {
        auto [a, b] = table_.allocate(br.pc);
        l1 = a;
        l2 = b;
        ++counters.allocs;
    }
    for (Entry *e : {l1, l2}) {
        if (!e)
            continue;
        e->type = br.branch;
        e->target = br.takenTarget();
        BTBSIM_FAULT_POINT("ibtb_update_target",
                           e->target = br.takenTarget() + kInstBytes);
    }
}

OccupancySample
InstructionBtb::sampleOccupancy() const
{
    OccupancySample s;
    std::uint64_t n1 = 0, n2 = 0;
    table_.l1().forEach([&](Addr, const Entry &) { ++n1; });
    table_.l2().forEach([&](Addr, const Entry &) { ++n2; });
    s.l1_entries = n1;
    s.l2_entries = n2;
    s.l1_slot_occupancy = 1.0;
    s.l2_slot_occupancy = 1.0;
    s.l1_redundancy = 1.0;
    s.l2_redundancy = 1.0;
    return s;
}

} // namespace btbsim
