#include "core/hetero.h"

#include <algorithm>
#include <unordered_map>

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

HeteroBtb::BlockEntry *
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
        for (const Slot &s : re->slots) {
            const Addr pc = region + s.offset;
            if (pc < start || pc >= start + blk.end_bytes)
                continue;
            Slot copy = s;
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
              [](const Slot &a, const Slot &b) { return a.offset < b.offset; });
    std::erase_if(blk.slots, [&](const Slot &s) {
        return s.offset >= blk.end_bytes;
    });
    // Respect the L1 slot budget: keep the earliest slots and shrink the
    // block so no tracked branch is silently dropped.
    if (blk.slots.size() > cfg_.branch_slots) {
        blk.end_bytes = blk.slots[cfg_.branch_slots].offset;
        blk.slots.resize(cfg_.branch_slots);
        blk.split = true;
    }
    ++stats["l2_synthesized_fills"];
    BlockEntry &filled = fillEntry(l1_, start);
    filled = blk;
    return &filled;
}

int
HeteroBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++stats["accesses"];
    BlockEntry *entry = nullptr;
    int level = 0;
    if ((entry = touchingFind(l1_, pc)))
        level = 1;
    else if ((entry = synthesizeFromL2(pc)))
        level = 2;
    b.tick_counter = &tick_;
    b.addSegment(pc, pc + (entry ? entry->end_bytes : reachBytes()));
    if (entry)
        for (Slot &s : entry->slots)
            b.addSlot(0, pc + s.offset, s.type, s.target, level, &s.tick);
    return level; // BlockEntry slots are kept offset-sorted.
}

void
HeteroBtb::normalizeCursor(Addr pc)
{
    if (!cur_valid_ || pc < cur_block_) {
        cur_block_ = pc;
        cur_valid_ = true;
        return;
    }
    for (int guard = 0; guard < 4096; ++guard) {
        const std::uint32_t end = blockEnd(cur_block_);
        if (pc < cur_block_ + end)
            return;
        cur_block_ += end;
    }
    cur_block_ = pc;
}

void
HeteroBtb::insertIntoBlock(Addr block, Addr pc, BranchClass type, Addr target)
{
    for (int guard = 0; guard < 64; ++guard) {
        BlockEntry *e = touchingFind(l1_, block);
        BlockEntry canon;
        if (e) {
            canon = *e;
        } else {
            canon.end_bytes = static_cast<std::uint32_t>(reachBytes());
        }
        if (pc >= block + canon.end_bytes) {
            block += canon.end_bytes;
            continue;
        }
        const auto offset = static_cast<std::uint32_t>(pc - block);

        Slot *hit = nullptr;
        for (Slot &s : canon.slots)
            if (s.offset == offset)
                hit = &s;
        Addr spill_block = 0, spill_pc = 0;
        BranchClass spill_type = BranchClass::kNone;
        Addr spill_target = 0;

        if (hit) {
            hit->type = type;
            hit->target = target;
            hit->tick = ++tick_;
        } else {
            Slot s;
            s.offset = offset;
            s.type = type;
            s.target = target;
            s.tick = ++tick_;
            if (canon.slots.size() < cfg_.branch_slots) {
                canon.slots.insert(
                    std::upper_bound(
                        canon.slots.begin(), canon.slots.end(), s,
                        [](const Slot &a, const Slot &b) {
                            return a.offset < b.offset;
                        }),
                    s);
            } else if (cfg_.split) {
                std::vector<Slot> staged = canon.slots;
                staged.insert(
                    std::upper_bound(
                        staged.begin(), staged.end(), s,
                        [](const Slot &a, const Slot &b) {
                            return a.offset < b.offset;
                        }),
                    s);
                canon.slots.assign(staged.begin(),
                                   staged.begin() + cfg_.branch_slots);
                Slot spill = staged.back();
                canon.end_bytes = canon.slots.back().offset +
                    static_cast<std::uint32_t>(kInstBytes);
                canon.split = true;
                ++stats["splits"];
                spill_block = block + canon.end_bytes;
                spill_pc = block + spill.offset;
                spill_type = spill.type;
                spill_target = spill.target;
            } else {
                Slot *victim = &*std::min_element(
                    canon.slots.begin(), canon.slots.end(),
                    [](const Slot &a, const Slot &b) {
                        return a.tick < b.tick;
                    });
                *victim = s;
                std::sort(canon.slots.begin(), canon.slots.end(),
                          [](const Slot &a, const Slot &b) {
                              return a.offset < b.offset;
                          });
                ++stats["slot_displacements"];
            }
        }

        if (isAlwaysTaken(type)) {
            const std::uint32_t end =
                offset + static_cast<std::uint32_t>(kInstBytes);
            if (end < canon.end_bytes) {
                canon.end_bytes = end;
                std::erase_if(canon.slots, [&](const Slot &s2) {
                    return s2.offset >= end;
                });
            }
        }

        if (e)
            *e = canon;
        else
            fillEntry(l1_, block) = canon;

        if (spill_type != BranchClass::kNone) {
            block = spill_block;
            pc = spill_pc;
            type = spill_type;
            target = spill_target;
            continue;
        }
        return;
    }
}

void
HeteroBtb::insertIntoRegion(Addr pc, BranchClass type, Addr target)
{
    const Addr region = regionBase(pc);
    const auto offset = static_cast<std::uint32_t>(pc - region);
    RegionEntry *e = touchingFind(l2_, region);
    if (!e) {
        e = &fillEntry(l2_, region);
        ++stats["l2_allocs"];
    }
    Slot *hit = nullptr;
    for (Slot &s : e->slots)
        if (s.offset == offset)
            hit = &s;
    if (!hit) {
        if (e->slots.size() < kRegionSlots) {
            e->slots.emplace_back();
            hit = &e->slots.back();
        } else {
            hit = &*std::min_element(
                e->slots.begin(), e->slots.end(),
                [](const Slot &a, const Slot &b) { return a.tick < b.tick; });
            ++stats["l2_slot_displacements"];
        }
        hit->offset = offset;
    }
    hit->type = type;
    hit->target = target;
    hit->tick = ++tick_;
}

void
HeteroBtb::update(const Instruction &br, bool resteer)
{
    if (br.taken) {
        normalizeCursor(br.pc);
        insertIntoBlock(cur_block_, br.pc, br.branch, br.takenTarget());
        insertIntoRegion(br.pc, br.branch, br.takenTarget());
        cur_block_ = br.next_pc;
        cur_valid_ = true;
    } else if (resteer) {
        cur_block_ = br.fallThrough();
        cur_valid_ = true;
    }
}

void
HeteroBtb::prefill(const Instruction &br)
{
    // Region-organized L2 accepts decode-based prefill directly, but a
    // prefill never displaces demand-trained slots.
    const Addr region = regionBase(br.pc);
    const auto offset = static_cast<std::uint32_t>(br.pc - region);
    if (const RegionEntry *e = peekFind(l2_, region)) {
        for (const Slot &s : e->slots)
            if (s.offset == offset)
                return;
        if (e->slots.size() >= kRegionSlots)
            return;
    }
    insertIntoRegion(br.pc, br.branch, br.takenTarget());
    ++stats["prefills"];
}

OccupancySample
HeteroBtb::sampleOccupancy() const
{
    OccupancySample s;
    {
        std::uint64_t entries = 0, slots = 0;
        std::unordered_map<Addr, std::uint32_t> track;
        l1_.forEach([&](Addr key, const BlockEntry &e) {
            ++entries;
            slots += e.slots.size();
            for (const Slot &sl : e.slots)
                ++track[key + sl.offset];
        });
        s.l1_entries = entries;
        s.l1_slot_occupancy =
            entries ? static_cast<double>(slots) / entries : 0.0;
        std::uint64_t total = 0;
        for (const auto &[pc, c] : track)
            total += c;
        s.l1_redundancy = track.empty()
            ? 1.0 : static_cast<double>(total) / track.size();
    }
    {
        std::uint64_t entries = 0, slots = 0;
        l2_.forEach([&](Addr, const RegionEntry &e) {
            ++entries;
            slots += e.slots.size();
        });
        s.l2_entries = entries;
        s.l2_slot_occupancy =
            entries ? static_cast<double>(slots) / entries : 0.0;
        s.l2_redundancy = 1.0; // Region storage holds each branch once.
    }
    return s;
}

} // namespace btbsim
