#include "core/mbbtb.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "check/fault.h"
#include "common/sat_counter.h"

namespace btbsim {

MultiBlockBtb::MultiBlockBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(kInstBytes))
{}

MultiBlockBtb::Entry
MultiBlockBtb::freshEntry(Addr key) const
{
    Entry e;
    e.blocks.push_back({key, reachBytes()});
    return e;
}

std::uint32_t
MultiBlockBtb::usedBytes(const Entry &e, std::size_t upto)
{
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < upto && i < e.blocks.size(); ++i)
        sum += e.blocks[i].len;
    return sum;
}

MultiBlockBtb::Slot *
MultiBlockBtb::findSlot(Entry &e, unsigned blk, std::uint32_t offset)
{
    for (Slot &s : e.slots)
        if (s.blk == blk && s.offset == offset)
            return &s;
    return nullptr;
}

void
MultiBlockBtb::sortSlots(Entry &e)
{
    std::sort(e.slots.begin(), e.slots.end(),
              [](const Slot &a, const Slot &b) {
                  return a.blk != b.blk ? a.blk < b.blk : a.offset < b.offset;
              });
}

// ---- access protocol -------------------------------------------------------

int
MultiBlockBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++stats["accesses"];
    auto [e, lvl] = table_.lookup(pc);
    b.tick_counter = &tick_;
    if (!e) {
        b.addSegment(pc, pc + reachBytes());
        return lvl;
    }
    // One segment per chained block: segments past the first are the
    // entry's continuation records, entered only through chain() on a
    // correct-taken @c follow branch.
    for (const Block &blk : e->blocks)
        b.addSegment(blk.start, blk.start + blk.len);
    for (Slot &s : e->slots) {
        if (s.blk >= e->blocks.size() ||
            s.offset >= e->blocks[s.blk].len)
            continue; // Beyond a truncated block: unreachable by the walk.
        // A pulled slot replaced its fall-through with the target block,
        // so a not-taken prediction must end the access (Section 6.4.1).
        b.addSlot(s.blk, e->blocks[s.blk].start + s.offset, s.type,
                  s.target, lvl, &s.tick, s.follow, s.follow);
    }
    return lvl; // Entry slots are kept (blk, offset)-sorted.
}

// ---- pull / downgrade machinery --------------------------------------------

bool
MultiBlockBtb::eligibleToPull(const Entry &e, const Slot &slot,
                              std::size_t slot_index) const
{
    if (cfg_.pull == PullPolicy::kNone)
        return false;
    // The last branch slot of an entry never pulls (Section 6.4.2),
    // unless the ablation flag re-enables it.
    if (!cfg_.allow_last_slot_pull && slot_index + 1 >= cfg_.branch_slots)
        return false;
    // Pulls only extend the chain at the end of the entry.
    if (slot.blk + 1u != e.blocks.size())
        return false;
    // The slot must be the deepest in the entry (nothing beyond it).
    for (const Slot &o : e.slots)
        if (o.blk > slot.blk || (o.blk == slot.blk && o.offset > slot.offset))
            return false;
    if (e.blocks.size() >= cfg_.branch_slots + 1)
        return false;
    // Remaining reach budget for the pulled block.
    const std::uint32_t prefix = usedBytes(e, slot.blk);
    if (prefix + slot.offset + kInstBytes >= reachBytes())
        return false;

    switch (slot.type) {
      case BranchClass::kUncondDirect:
        return true;
      case BranchClass::kDirectCall:
        return cfg_.pull >= PullPolicy::kCallDir;
      case BranchClass::kCondDirect:
        return cfg_.pull == PullPolicy::kAllBr &&
               slot.stabl >= cfg_.stability_threshold;
      case BranchClass::kIndirectJump:
      case BranchClass::kIndirectCall:
        return cfg_.pull == PullPolicy::kAllBr &&
               slot.stabl >= cfg_.stability_threshold;
      case BranchClass::kReturn:
      case BranchClass::kNone:
        return false;
    }
    return false;
}

void
MultiBlockBtb::doPull(Entry &e, Slot &slot)
{
    const std::uint32_t prefix = usedBytes(e, slot.blk);
    const std::uint32_t term = slot.offset + kInstBytes;
    e.blocks[slot.blk].len = term;
    const std::uint32_t remaining = reachBytes() - (prefix + term);
    e.blocks.push_back({slot.target, remaining});
    BTBSIM_FAULT_POINT("mbbtb_pull_seam",
                       e.blocks.back().start = slot.target + kInstBytes);
    slot.follow = true;
    ++stats["pulls"];
}

void
MultiBlockBtb::removePulled(Entry &e, std::size_t slot_index)
{
    Slot &slot = e.slots[slot_index];
    const unsigned keep_blk = slot.blk;
    slot.follow = false;
    slot.stabl = 0;
    if (e.blocks.size() > keep_blk + 1)
        e.blocks.resize(keep_blk + 1);
    std::erase_if(e.slots,
                  [&](const Slot &s) { return s.blk > keep_blk; });
    // Restore the fall-through coverage of the (now last) block.
    const std::uint32_t prefix = usedBytes(e, keep_blk);
    e.blocks[keep_blk].len = reachBytes() - prefix;
    ++stats["downgrades"];
}

// ---- update-side cursor -----------------------------------------------------

void
MultiBlockBtb::resetCursor(Addr pc)
{
    cur_valid_ = true;
    cur_key_ = pc;
    cur_blk_ = 0;
    cur_start_ = pc;
}

void
MultiBlockBtb::normalizeCursor(Addr pc)
{
    if (!cur_valid_ || pc < cur_start_) {
        resetCursor(pc);
        return;
    }
    for (int guard = 0; guard < 4096; ++guard) {
        const Entry *e = table_.peekAuthoritative(cur_key_);
        std::uint32_t len = reachBytes();
        if (e && cur_blk_ < e->blocks.size() &&
            e->blocks[cur_blk_].start == cur_start_) {
            len = e->blocks[cur_blk_].len;
        } else if (cur_blk_ != 0) {
            // Entry changed underneath the cursor; restart at cur_start_.
            cur_key_ = cur_start_;
            cur_blk_ = 0;
            continue;
        } else if (e) {
            len = e->blocks[0].len;
        }
        if (pc < cur_start_ + len)
            return;
        // Sequential flow ran off the end of this block: the fall-through
        // begins a new entry.
        cur_start_ += len;
        cur_key_ = cur_start_;
        cur_blk_ = 0;
    }
    resetCursor(pc);
}

// ---- updates ----------------------------------------------------------------

void
MultiBlockBtb::updateTaken(const Instruction &br)
{
    normalizeCursor(br.pc);

    Entry canon;
    bool fresh = false;
    if (const Entry *e = table_.peekAuthoritative(cur_key_)) {
        canon = *e;
        if (cur_blk_ >= canon.blocks.size() ||
            canon.blocks[cur_blk_].start != cur_start_) {
            // Inconsistent cursor (entry mutated): restart as a new entry
            // keyed at the current block start.
            cur_key_ = cur_start_;
            cur_blk_ = 0;
            if (const Entry *e2 = table_.peekAuthoritative(cur_key_)) {
                canon = *e2;
            } else {
                canon = freshEntry(cur_key_);
                fresh = true;
            }
        }
    } else {
        if (cur_blk_ != 0) {
            cur_key_ = cur_start_;
            cur_blk_ = 0;
        }
        canon = freshEntry(cur_key_);
        fresh = true;
    }
    if (fresh)
        ++stats["allocs"];

    auto offset = static_cast<std::uint32_t>(br.pc - cur_start_);
    if (offset >= canon.blocks[cur_blk_].len) {
        // Shrunk block (entry mutated since normalization): restart with
        // the branch opening a new block.
        resetCursor(br.pc);
        if (const Entry *e2 = table_.peekAuthoritative(cur_key_)) {
            canon = *e2;
        } else {
            canon = freshEntry(cur_key_);
            ++stats["allocs"];
        }
        offset = 0;
    }

    Slot *slot = findSlot(canon, cur_blk_, offset);
    const bool is_ind = isIndirect(br.branch) &&
                        br.branch != BranchClass::kReturn;

    if (slot) {
        if (is_ind) {
            if (slot->target == br.takenTarget()) {
                if (slot->stabl < SatCounter<6>::max())
                    ++slot->stabl;
            } else {
                slot->stabl = 0;
                if (slot->follow) {
                    const auto idx = static_cast<std::size_t>(
                        slot - canon.slots.data());
                    removePulled(canon, idx);
                    slot = findSlot(canon, cur_blk_, offset);
                }
                slot->target = br.takenTarget();
            }
        } else {
            slot->target = br.takenTarget();
        }
        slot->type = br.branch;
        slot->tick = ++tick_;
    } else {
        // Insert a new slot, making room if necessary.
        if (canon.slots.size() >= cfg_.branch_slots) {
            // Displace the least recently used slot (tearing down its
            // pulled chain first if it had one).
            std::size_t victim = 0;
            for (std::size_t i = 1; i < canon.slots.size(); ++i)
                if (canon.slots[i].tick < canon.slots[victim].tick)
                    victim = i;
            if (canon.slots[victim].follow)
                removePulled(canon, victim);
            // removePulled may have erased slots; re-pick the LRU victim.
            if (canon.slots.size() >= cfg_.branch_slots) {
                victim = 0;
                for (std::size_t i = 1; i < canon.slots.size(); ++i)
                    if (canon.slots[i].tick < canon.slots[victim].tick)
                        victim = i;
                canon.slots.erase(canon.slots.begin() +
                                  static_cast<std::ptrdiff_t>(victim));
            }
            ++stats["slot_displacements"];
        }
        Slot s;
        s.blk = static_cast<std::uint8_t>(cur_blk_);
        s.offset = offset;
        s.type = br.branch;
        s.target = br.takenTarget();
        s.tick = ++tick_;
        // Conditionals taken at allocation are treated as always-taken
        // until proven otherwise; direct unconditional classes are pinned.
        if (br.branch == BranchClass::kCondDirect ||
            br.branch == BranchClass::kUncondDirect ||
            br.branch == BranchClass::kDirectCall) {
            s.stabl = SatCounter<6>::max();
        } else if (is_ind) {
            s.stabl = 0;
        }
        canon.slots.push_back(s);
        sortSlots(canon);
        slot = findSlot(canon, cur_blk_, offset);
    }

    // Pull the target block in when eligible and not already pulled.
    bool pulled = slot->follow;
    if (!pulled) {
        const auto idx =
            static_cast<std::size_t>(slot - canon.slots.data());
        if (eligibleToPull(canon, *slot, idx)) {
            doPull(canon, *slot);
            pulled = true;
        }
    }

    table_.upsert(cur_key_, canon);

    if (pulled) {
        ++cur_blk_;
        cur_start_ = br.takenTarget();
    } else {
        cur_key_ = br.takenTarget();
        cur_blk_ = 0;
        cur_start_ = cur_key_;
    }
    cur_valid_ = true;
}

void
MultiBlockBtb::updateNotTaken(const Instruction &br, bool resteer)
{
    // A pulled conditional observed not taken is immediately downgraded
    // (Section 6.4.3).
    if (cur_valid_) {
        if (const Entry *e = table_.peekAuthoritative(cur_key_)) {
            if (cur_blk_ < e->blocks.size() &&
                e->blocks[cur_blk_].start == cur_start_ &&
                br.pc >= cur_start_ &&
                br.pc < cur_start_ + e->blocks[cur_blk_].len) {
                Entry canon = *e;
                const auto offset =
                    static_cast<std::uint32_t>(br.pc - cur_start_);
                if (Slot *s = findSlot(canon, cur_blk_, offset)) {
                    if (s->follow) {
                        const auto idx = static_cast<std::size_t>(
                            s - canon.slots.data());
                        removePulled(canon, idx);
                        table_.upsert(cur_key_, canon);
                    } else if (s->type == BranchClass::kCondDirect &&
                               s->stabl > 0) {
                        // No longer always-taken: block future pulls.
                        s->stabl = 0;
                        table_.upsert(cur_key_, canon);
                    }
                }
            }
        }
    }
    if (resteer)
        resetCursor(br.fallThrough());
}

void
MultiBlockBtb::update(const Instruction &br, bool resteer)
{
    if (br.taken)
        updateTaken(br);
    else
        updateNotTaken(br, resteer);
}

OccupancySample
MultiBlockBtb::sampleOccupancy() const
{
    OccupancySample s;
    auto probe = [](const SoaSetTable<Entry> &t, double &occ, double &red,
                    std::uint64_t &n) {
        std::uint64_t entries = 0, slots = 0;
        std::unordered_map<Addr, std::uint32_t> track;
        t.forEach([&](Addr, const Entry &e) {
            ++entries;
            slots += e.slots.size();
            for (const Slot &sl : e.slots) {
                if (sl.blk < e.blocks.size())
                    ++track[e.blocks[sl.blk].start + sl.offset];
            }
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
