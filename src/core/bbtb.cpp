#include "core/bbtb.h"

#include <algorithm>
#include <unordered_map>

#include "check/fault.h"

namespace btbsim {

BlockBtb::BlockBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(kInstBytes))
{}

std::uint32_t
BlockBtb::blockEnd(Addr start) const
{
    if (const Entry *e = table_.peekAuthoritative(start))
        return e->end_bytes;
    return static_cast<std::uint32_t>(reachBytes());
}

int
BlockBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++counters.accesses;
    auto [e, lvl] = table_.lookup(pc);
    b.tick_counter = &tick_;
    b.addSegment(pc, pc + (e ? e->end_bytes : reachBytes()));
    if (e)
        for (Slot &s : e->slots)
            b.addSlot(0, pc + s.offset, s.type, s.target, lvl, &s.tick);
    return lvl; // Entry slots are kept offset-sorted; no sortSlots needed.
}

void
BlockBtb::normalizeCursor(Addr pc)
{
    if (!cur_valid_ || pc < cur_block_) {
        cur_block_ = pc;
        cur_valid_ = true;
        return;
    }
    // Walk forward across fall-through blocks until pc falls inside one.
    // Guard against pathological distances with a bounded walk.
    for (int guard = 0; guard < 4096; ++guard) {
        const std::uint32_t end = blockEnd(cur_block_);
        if (pc < cur_block_ + end)
            return;
        cur_block_ += end;
    }
    cur_block_ = pc;
}

void
BlockBtb::insertTaken(const Instruction &br)
{
    // Worklist of (block_start, offset, type, target) insertions; entry
    // splitting may spill a slot into the fall-through block.
    struct Pending
    {
        Addr block;
        Addr pc;
        BranchClass type;
        Addr target;
    };
    std::vector<Pending> work{{cur_block_, br.pc, br.branch, br.takenTarget()}};
    BTBSIM_FAULT_POINT("bbtb_update_target",
                       work.back().target = br.takenTarget() + kInstBytes);

    for (int guard = 0; guard < 64 && !work.empty(); ++guard) {
        Pending p = work.back();
        work.pop_back();

        Entry canon;
        if (const Entry *e = table_.peekAuthoritative(p.block)) {
            canon = *e;
        } else {
            canon.end_bytes = static_cast<std::uint32_t>(reachBytes());
            ++counters.allocs;
        }
        if (p.pc >= p.block + canon.end_bytes) {
            // Stale cursor relative to a shrunk entry: the branch belongs
            // to a later block.
            work.push_back({p.block + canon.end_bytes, p.pc, p.type, p.target});
            table_.upsert(p.block, canon);
            continue;
        }

        const auto offset = static_cast<std::uint32_t>(p.pc - p.block);
        Slot *hit = nullptr;
        for (Slot &s : canon.slots)
            if (s.offset == offset)
                hit = &s;

        if (hit) {
            hit->type = p.type;
            hit->target = p.target;
            hit->tick = ++tick_;
        } else if (canon.slots.size() < cfg_.branch_slots) {
            Slot s;
            s.offset = offset;
            s.type = p.type;
            s.target = p.target;
            s.tick = ++tick_;
            canon.slots.insert(
                std::upper_bound(canon.slots.begin(), canon.slots.end(), s,
                                 [](const Slot &a, const Slot &b) {
                                     return a.offset < b.offset;
                                 }),
                s);
        } else if (cfg_.split) {
            // Stage the n+1 slots sorted by offset, keep the first n, and
            // split the entry after the n-th slot (Section 6.3).
            Slot s;
            s.offset = offset;
            s.type = p.type;
            s.target = p.target;
            s.tick = ++tick_;
            std::vector<Slot> staged = canon.slots;
            staged.insert(
                std::upper_bound(staged.begin(), staged.end(), s,
                                 [](const Slot &a, const Slot &b) {
                                     return a.offset < b.offset;
                                 }),
                s);
            canon.slots.assign(staged.begin(),
                               staged.begin() + cfg_.branch_slots);
            Slot spill = staged.back();
            canon.end_bytes = canon.slots.back().offset + kInstBytes;
            canon.split = true;
            ++counters.splits;
            work.push_back({p.block + canon.end_bytes,
                            p.block + spill.offset, spill.type,
                            spill.target});
        } else {
            // Displace the least recently used slot.
            hit = &*std::min_element(
                canon.slots.begin(), canon.slots.end(),
                [](const Slot &a, const Slot &b) { return a.tick < b.tick; });
            hit->offset = offset;
            hit->type = p.type;
            hit->target = p.target;
            hit->tick = ++tick_;
            std::sort(canon.slots.begin(), canon.slots.end(),
                      [](const Slot &a, const Slot &b) {
                          return a.offset < b.offset;
                      });
            ++counters.slot_displacements;
        }

        // Always-taken-class branches end the block at their offset; the
        // flow can never pass them, so no slot may live beyond. With the
        // cond_ends_block ablation, taken conditionals end it too
        // (Yeh/Patt-style blocks, Section 2.3).
        if (isAlwaysTaken(p.type) ||
            (cfg_.cond_ends_block && p.type == BranchClass::kCondDirect)) {
            const std::uint32_t end = offset + kInstBytes;
            if (end < canon.end_bytes) {
                canon.end_bytes = end;
                std::erase_if(canon.slots, [&](const Slot &s2) {
                    return s2.offset >= end;
                });
            }
        }

        table_.upsert(p.block, canon);
    }
}

void
BlockBtb::update(const Instruction &br, bool resteer)
{
    if (br.taken) {
        normalizeCursor(br.pc);
        insertTaken(br);
        cur_block_ = br.next_pc;
        cur_valid_ = true;
    } else if (resteer) {
        // Mispredicted-taken conditional: the frontend refetches from the
        // fall-through, which begins a new dynamic block.
        cur_block_ = br.fallThrough();
        cur_valid_ = true;
    }
}

OccupancySample
BlockBtb::sampleOccupancy() const
{
    OccupancySample s;
    auto probe = [](const SoaSetTable<Entry> &t, double &occ, double &red,
                    std::uint64_t &n) {
        std::uint64_t entries = 0, slots = 0;
        std::unordered_map<Addr, std::uint32_t> track;
        t.forEach([&](Addr key, const Entry &e) {
            ++entries;
            slots += e.slots.size();
            for (const Slot &sl : e.slots)
                ++track[key + sl.offset];
        });
        n = entries;
        occ = entries ? static_cast<double>(slots) / entries : 0.0;
        std::uint64_t total = 0;
        for (const auto &[pc, c] : track)
            total += c;
        red = track.empty() ? 1.0
                            : static_cast<double>(total) / track.size();
    };
    probe(table_.l1(), s.l1_slot_occupancy, s.l1_redundancy, s.l1_entries);
    probe(table_.l2(), s.l2_slot_occupancy, s.l2_redundancy, s.l2_entries);
    return s;
}

} // namespace btbsim
