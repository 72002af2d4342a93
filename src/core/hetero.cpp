#include "core/hetero.h"

#include <algorithm>

namespace btbsim {

HeteroBtb::HeteroBtb(const BtbConfig &cfg)
    : cfg_(cfg),
      l1_(cfg.ideal ? 16384 : cfg.l1.sets, cfg.ideal ? 32 : cfg.l1.ways,
          log2i(kInstBytes)),
      l2_(cfg.ideal ? 1 : cfg.l2.sets, cfg.ideal ? 1 : cfg.l2.ways,
          log2i(cfg.region_bytes))
{}

std::uint32_t
HeteroBtb::blockEnd(Addr start) const
{
    if (const BlockEntry *e = peekFind(l1_, start))
        return e->end_bytes;
    return static_cast<std::uint32_t>(reachBytes());
}

BlockEntry *
HeteroBtb::synthesizeFromL2(Addr start)
{
    // The L2 is region-organized: gather the slots of every region the
    // candidate block [start, start + reach) overlaps and rebuild the
    // block entry the L1 would have held. A miss in every overlapping
    // region means the L2 knows nothing about this code: full miss.
    BlockEntry blk;
    blk.end_bytes = static_cast<std::uint32_t>(reachBytes());
    bool any_region_hit = false;
    for (Addr region = regionBase(start); region < start + reachBytes();
         region += cfg_.region_bytes) {
        const RegionEntry *re = touchingFind(l2_, region);
        if (!re)
            continue;
        any_region_hit = true;
        for (const BranchSlot &s : re->slots) {
            const Addr pc = region + s.offset;
            if (pc < start || pc >= start + blk.end_bytes)
                continue;
            BranchSlot copy = s;
            copy.offset = static_cast<std::uint32_t>(pc - start);
            blk.slots.push_back(copy);
            // Blocks end at architecturally-taken branches.
            if (isAlwaysTaken(s.type))
                blk.end_bytes = std::min<std::uint32_t>(
                    blk.end_bytes,
                    copy.offset + static_cast<std::uint32_t>(kInstBytes));
        }
    }
    if (!any_region_hit)
        return nullptr;
    std::sort(blk.slots.begin(), blk.slots.end(),
              [](const BranchSlot &a, const BranchSlot &b) {
                  return a.offset < b.offset;
              });
    std::erase_if(blk.slots, [&](const BranchSlot &s) {
        return s.offset >= blk.end_bytes;
    });
    // Respect the L1 slot budget: keep the earliest slots and shrink the
    // block so no tracked branch is silently dropped.
    if (blk.slots.size() > cfg_.branch_slots) {
        blk.end_bytes = blk.slots[cfg_.branch_slots].offset;
        blk.slots.resize(cfg_.branch_slots);
        blk.split = true;
    }
    ++counters.l2_synthesized_fills;
    BlockEntry &filled = fillEntry(l1_, start);
    filled = blk;
    return &filled;
}

void
HeteroBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++counters.accesses;
    BlockEntry *entry = nullptr;
    int level = 0;
    if ((entry = touchingFind(l1_, pc)))
        level = 1;
    else if ((entry = synthesizeFromL2(pc)))
        level = 2;
    b.tick_counter = &tick_;
    b.addSegment(pc, pc + (entry ? entry->end_bytes : reachBytes()));
    if (entry)
        for (BranchSlot &s : entry->slots)
            b.addSlot(0, pc + s.offset, s.type, s.target, level, &s.tick);
    // BlockEntry slots are kept offset-sorted.
}

void
HeteroBtb::insertIntoBlock(Addr block, Addr pc, BranchClass type, Addr target)
{
    // Like BlockBtb::insertTaken, but over the single block level: a
    // stale cursor is skipped without writing, and taken conditionals
    // never end a block.
    for (int guard = 0; guard < 64; ++guard) {
        BlockEntry *e = touchingFind(l1_, block);
        BlockEntry canon;
        if (e)
            canon = *e;
        else
            canon.end_bytes = static_cast<std::uint32_t>(reachBytes());
        if (pc >= block + canon.end_bytes) {
            block += canon.end_bytes;
            continue;
        }

        const BlockSlotUpdate r = updateBlockSlot(
            canon, static_cast<std::uint32_t>(pc - block), type, target,
            tick_, cfg_.branch_slots, cfg_.split, /*cond_ends_block=*/false);
        if (e)
            *e = canon;
        else
            fillEntry(l1_, block) = canon;
        if (r.displaced)
            ++counters.slot_displacements;
        if (!r.spill)
            return;
        ++counters.splits;
        pc = block + r.spill->offset;
        type = r.spill->type;
        target = r.spill->target;
        block += r.spill_block;
    }
}

void
HeteroBtb::insertIntoRegion(Addr pc, BranchClass type, Addr target)
{
    const Addr region = regionBase(pc);
    RegionEntry *e = touchingFind(l2_, region);
    if (!e) {
        e = &fillEntry(l2_, region);
        ++counters.l2_allocs;
    }
    if (updateRegionSlot(*e, static_cast<std::uint32_t>(pc - region), type,
                         target, tick_, kRegionSlots)
            .displaced)
        ++counters.l2_slot_displacements;
}

void
HeteroBtb::update(const Instruction &br, bool resteer)
{
    if (br.taken) {
        cursor_.normalize(br.pc, [this](Addr start) { return blockEnd(start); });
        insertIntoBlock(cursor_.block, br.pc, br.branch, br.takenTarget());
        insertIntoRegion(br.pc, br.branch, br.takenTarget());
        cursor_.restart(br.next_pc);
    } else if (resteer) {
        cursor_.restart(br.fallThrough());
    }
}

OccupancySample
HeteroBtb::sampleOccupancy() const
{
    return occupancyOf(sampleLevel(l1_, blockSlotPc), sampleLevel(l2_));
}

} // namespace btbsim
