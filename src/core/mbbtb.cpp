#include "core/mbbtb.h"

#include <algorithm>
#include <cassert>

#include "check/fault.h"
#include "common/sat_counter.h"

namespace btbsim {

MultiBlockBtb::MultiBlockBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(kInstBytes))
{}

std::pair<std::size_t, bool>
MultiBlockBtb::slotPos(const Entry &e, unsigned blk, std::uint32_t offset)
{
    std::size_t i = 0;
    while (i < e.slots.size() &&
           (e.slots[i].blk < blk ||
            (e.slots[i].blk == blk && e.slots[i].offset < offset)))
        ++i;
    return {i, i < e.slots.size() && e.slots[i].blk == blk &&
                   e.slots[i].offset == offset};
}

// ---- access protocol -------------------------------------------------------

void
MultiBlockBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++counters.accesses;
    auto [e, lvl] = table_.lookup(pc);
    b.tick_counter = &tick_;
    if (!e) {
        b.addSegment(pc, pc + reachBytes());
        return;
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
}

// ---- pull / downgrade machinery --------------------------------------------

bool
MultiBlockBtb::eligibleToPull(const Entry &e, std::size_t slot_index) const
{
    const Slot &slot = e.slots[slot_index];
    if (cfg_.pull == PullPolicy::kNone)
        return false;
    // The last branch slot of an entry never pulls (Section 6.4.2),
    // unless the ablation flag re-enables it.
    if (!cfg_.allow_last_slot_pull && slot_index + 1 >= cfg_.branch_slots)
        return false;
    // Pulls only extend the chain at its end: the slot must be the
    // deepest of the last block, with reach left over for the target.
    if (slot.blk + 1u != e.blocks.size() ||
        slot_index + 1 != e.slots.size() ||
        e.blocks.size() >= cfg_.branch_slots + 1 ||
        slot.offset + kInstBytes >= e.blocks.back().len)
        return false;

    switch (slot.type) {
      case BranchClass::kUncondDirect:
        return true;
      case BranchClass::kDirectCall:
        return cfg_.pull >= PullPolicy::kCallDir;
      case BranchClass::kCondDirect:
      case BranchClass::kIndirectJump:
      case BranchClass::kIndirectCall:
        return cfg_.pull == PullPolicy::kAllBr &&
               slot.stabl >= cfg_.stability_threshold;
      default:
        return false;
    }
}

void
MultiBlockBtb::doPull(Entry &e, Slot &slot)
{
    // The slot's block now ends at the branch; the rest of its reach
    // goes to the target block.
    const std::uint32_t term = slot.offset + kInstBytes;
    const std::uint32_t remaining = e.blocks[slot.blk].len - term;
    e.blocks[slot.blk].len = term;
    e.blocks.push_back({slot.target, remaining});
    BTBSIM_FAULT_POINT("mbbtb_pull_seam",
                       e.blocks.back().start = slot.target + kInstBytes);
    slot.follow = true;
    ++counters.pulls;
}

void
MultiBlockBtb::removePulled(Entry &e, std::size_t slot_index)
{
    Slot &slot = e.slots[slot_index];
    const unsigned keep_blk = slot.blk;
    slot.follow = false;
    slot.stabl = 0;
    // The slot's block takes back the reach of the blocks it chained,
    // restoring its fall-through coverage.
    for (std::size_t i = keep_blk + 1; i < e.blocks.size(); ++i)
        e.blocks[keep_blk].len += e.blocks[i].len;
    e.blocks.resize(keep_blk + 1);
    std::erase_if(e.slots,
                  [&](const Slot &s) { return s.blk > keep_blk; });
    ++counters.downgrades;
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

const MultiBlockBtb::Entry *
MultiBlockBtb::cursorEntry() const
{
    if (!cur_valid_)
        return nullptr;
    const Entry *e = table_.peekAuthoritative(cur_key_);
    if (e && cur_blk_ < e->blocks.size() &&
        e->blocks[cur_blk_].start == cur_start_)
        return e;
    return nullptr;
}

void
MultiBlockBtb::normalizeCursor(Addr pc)
{
    bool covered = false;
    for (int guard = 0; cur_valid_ && pc >= cur_start_ && guard < 4096;
         ++guard) {
        const Entry *e = cursorEntry();
        if (!e && cur_blk_ != 0) {
            // The entry lost the cursor's block; restart at its start.
            cur_key_ = cur_start_;
            cur_blk_ = 0;
            continue;
        }
        const std::uint32_t len = e ? e->blocks[cur_blk_].len : reachBytes();
        if (pc < cur_start_ + len) {
            covered = true;
            break;
        }
        // Sequential flow ran off the end of this block: the fall-through
        // begins a new entry.
        cur_start_ += len;
        cur_key_ = cur_start_;
        cur_blk_ = 0;
    }
    if (!covered)
        resetCursor(pc);

    // The cursor invariant: a block-0 cursor is keyed at its own start,
    // and an entry at cur_key_ (first block at the key) holds the
    // cursor's block, which covers pc.
    [[maybe_unused]] const Entry *e = table_.peekAuthoritative(cur_key_);
    assert(cur_blk_ != 0 || cur_key_ == cur_start_);
    assert(!e || e->blocks[0].start == cur_key_);
    assert(e ? e == cursorEntry() && pc - cur_start_ < e->blocks[cur_blk_].len
             : cur_blk_ == 0 && pc - cur_start_ < reachBytes());
}

// ---- updates ----------------------------------------------------------------

void
MultiBlockBtb::updateTaken(const Instruction &br)
{
    normalizeCursor(br.pc);
    const Entry *e = table_.peekAuthoritative(cur_key_);
    Entry canon = e ? *e : Entry{{Block{cur_key_, reachBytes()}}, {}};
    if (!e)
        ++counters.allocs;

    const auto offset = static_cast<std::uint32_t>(br.pc - cur_start_);
    const Addr target = br.takenTarget();
    auto [i, hit] = slotPos(canon, cur_blk_, offset);
    if (hit) {
        // removePulled erases only slots after this one.
        Slot &slot = canon.slots[i];
        if (isIndirect(br.branch) && br.branch != BranchClass::kReturn) {
            if (slot.target == target) {
                if (slot.stabl < SatCounter<6>::max())
                    ++slot.stabl;
            } else {
                slot.stabl = 0;
                if (slot.follow)
                    removePulled(canon, i);
            }
        }
        slot.type = br.branch;
        slot.target = target;
        slot.tick = ++tick_;
    } else {
        if (canon.slots.size() >= cfg_.branch_slots) {
            // Displace the least recently used slot, tearing down its
            // pulled chain first; the teardown may free a slot itself.
            const auto victim = static_cast<std::size_t>(
                std::min_element(canon.slots.begin(), canon.slots.end(),
                                 [](const Slot &a, const Slot &b) {
                                     return a.tick < b.tick;
                                 }) -
                canon.slots.begin());
            if (canon.slots[victim].follow)
                removePulled(canon, victim);
            if (canon.slots.size() >= cfg_.branch_slots)
                canon.slots.erase(canon.slots.begin() +
                                  static_cast<std::ptrdiff_t>(victim));
            ++counters.slot_displacements;
            i = slotPos(canon, cur_blk_, offset).first;
        }
        // Conditionals taken at allocation count as always taken until
        // seen not taken; direct unconditional classes are pinned.
        const bool pinned = br.branch == BranchClass::kCondDirect ||
                            br.branch == BranchClass::kUncondDirect ||
                            br.branch == BranchClass::kDirectCall;
        canon.slots.insert(
            canon.slots.begin() + static_cast<std::ptrdiff_t>(i),
            Slot{{offset, br.branch, target, ++tick_},
                 static_cast<std::uint8_t>(cur_blk_), false,
                 static_cast<std::uint8_t>(pinned ? SatCounter<6>::max()
                                                  : 0)});
    }

    // Pull the target block in when eligible and not already pulled.
    Slot &slot = canon.slots[i];
    if (!slot.follow && eligibleToPull(canon, i))
        doPull(canon, slot);
    const bool pulled = slot.follow;

    table_.upsert(cur_key_, canon);

    if (pulled) {
        ++cur_blk_;
        cur_start_ = target;
    } else {
        resetCursor(target);
    }
}

void
MultiBlockBtb::updateNotTaken(const Instruction &br, bool resteer)
{
    // A pulled conditional observed not taken is immediately downgraded
    // (Section 6.4.3); an unpulled one stops counting as always taken.
    const Entry *e = cursorEntry();
    if (e && br.pc >= cur_start_ &&
        br.pc - cur_start_ < e->blocks[cur_blk_].len) {
        const auto offset = static_cast<std::uint32_t>(br.pc - cur_start_);
        const auto [i, hit] = slotPos(*e, cur_blk_, offset);
        if (hit &&
            (e->slots[i].follow ||
             (e->slots[i].type == BranchClass::kCondDirect &&
              e->slots[i].stabl > 0))) {
            Entry canon = *e;
            if (canon.slots[i].follow)
                removePulled(canon, i);
            else
                canon.slots[i].stabl = 0;
            table_.upsert(cur_key_, canon);
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
    auto slot_pc = [](Addr, const Entry &e,
                      const Slot &sl) -> std::optional<Addr> {
        if (sl.blk < e.blocks.size())
            return e.blocks[sl.blk].start + sl.offset;
        return std::nullopt;
    };
    return occupancyOf(sampleLevel(table_.l1(), slot_pc),
                       sampleLevel(table_.l2(), slot_pc));
}

} // namespace btbsim
