#include "core/bbtb.h"

#include "check/fault.h"

namespace btbsim {

BlockBtb::BlockBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(kInstBytes))
{}

std::uint32_t
BlockBtb::blockEnd(Addr start) const
{
    if (const BlockEntry *e = table_.peekAuthoritative(start))
        return e->end_bytes;
    return static_cast<std::uint32_t>(reachBytes());
}

void
BlockBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++counters.accesses;
    auto [e, lvl] = table_.lookup(pc);
    b.tick_counter = &tick_;
    b.addSegment(pc, pc + (e ? e->end_bytes : reachBytes()));
    if (e)
        for (BranchSlot &s : e->slots)
            b.addSlot(0, pc + s.offset, s.type, s.target, lvl, &s.tick);
    // Entry slots are kept offset-sorted; no sortSlots needed.
}

void
BlockBtb::insertTaken(const Instruction &br)
{
    // Entry splitting may spill a slot into the fall-through block, which
    // is then trained in turn.
    Addr block = cursor_.block, pc = br.pc;
    BranchClass type = br.branch;
    Addr target = br.takenTarget();
    BTBSIM_FAULT_POINT("bbtb_update_target",
                       target = br.takenTarget() + kInstBytes);

    for (int guard = 0; guard < 64; ++guard) {
        BlockEntry canon;
        if (const BlockEntry *e = table_.peekAuthoritative(block)) {
            canon = *e;
        } else {
            canon.end_bytes = static_cast<std::uint32_t>(reachBytes());
            ++counters.allocs;
        }
        if (pc >= block + canon.end_bytes) {
            // Stale cursor relative to a shrunk entry: the branch belongs
            // to a later block.
            table_.upsert(block, canon);
            block += canon.end_bytes;
            continue;
        }

        const BlockSlotUpdate r = updateBlockSlot(
            canon, static_cast<std::uint32_t>(pc - block), type, target,
            tick_, cfg_.branch_slots, cfg_.split, cfg_.cond_ends_block);
        table_.upsert(block, canon);
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
BlockBtb::update(const Instruction &br, bool resteer)
{
    if (br.taken) {
        cursor_.normalize(br.pc, [this](Addr start) { return blockEnd(start); });
        insertTaken(br);
        cursor_.restart(br.next_pc);
    } else if (resteer) {
        // Mispredicted-taken conditional: the frontend refetches from the
        // fall-through, which begins a new dynamic block.
        cursor_.restart(br.fallThrough());
    }
}

OccupancySample
BlockBtb::sampleOccupancy() const
{
    return occupancyOf(sampleLevel(table_.l1(), blockSlotPc),
                       sampleLevel(table_.l2(), blockSlotPc));
}

} // namespace btbsim
