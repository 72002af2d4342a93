/**
 * @file
 * MultiBlock BTB (Section 6.4): each entry chains up to N+1 blocks by
 * "pulling" the target block of eligible branches into the entry.
 *
 * Eligibility follows the paper's policies:
 *  - kUncndDir: unconditional direct jumps (not calls);
 *  - kCallDir:  + direct calls;
 *  - kAllBr:    + conditional branches taken at allocation (immediately)
 *               and non-return indirect branches whose target repeated
 *               @c stability_threshold times in a row (6-bit counter).
 *
 * The last branch slot of an entry never pulls (reduces redundancy,
 * Section 6.4.2). When a pulled conditional turns out not taken, or a
 * pulled indirect changes target, the entry is immediately downgraded:
 * the target block and its followers are removed (Section 6.4.3).
 */

#ifndef BTBSIM_CORE_MBBTB_H
#define BTBSIM_CORE_MBBTB_H

#include <vector>

#include "core/btb_org.h"

namespace btbsim {

class MultiBlockBtb : public BtbOrg
{
  public:
    explicit MultiBlockBtb(const BtbConfig &cfg);

    void beginAccess(Addr pc, PredictionBundle &b) override;
    void update(const Instruction &br, bool resteer) override;
    OccupancySample sampleOccupancy() const override;
    const BtbConfig &config() const override { return cfg_; }

  private:
    struct Slot
    {
        std::uint8_t blk = 0;     ///< Which chained block the slot lives in.
        std::uint32_t offset = 0; ///< Byte offset within that block.
        BranchClass type = BranchClass::kNone;
        Addr target = 0;
        bool follow = false;      ///< Taking it continues in-entry.
        std::uint8_t stabl = 0;   ///< 6-bit stability counter.
        std::uint64_t tick = 0;
    };

    struct Block
    {
        Addr start = 0;
        std::uint32_t len = 0; ///< Bytes covered by this chained block.
    };

    struct Entry
    {
        std::vector<Block> blocks; ///< blocks[0].start == entry key.
        std::vector<Slot> slots;   ///< Sorted by (blk, offset).
    };

    BtbConfig cfg_;
    TwoLevelTable<Entry> table_;
    std::uint64_t tick_ = 0;

    // Update-side cursor.
    bool cur_valid_ = false;
    Addr cur_key_ = 0;
    unsigned cur_blk_ = 0;
    Addr cur_start_ = 0;

    std::uint32_t reachBytes() const
    {
        return cfg_.reach_instrs * static_cast<std::uint32_t>(kInstBytes);
    }

    Entry freshEntry(Addr key) const;
    static std::uint32_t usedBytes(const Entry &e, std::size_t upto);
    Slot *findSlot(Entry &e, unsigned blk, std::uint32_t offset);
    void sortSlots(Entry &e);
    bool eligibleToPull(const Entry &e, const Slot &slot,
                        std::size_t slot_index) const;
    void doPull(Entry &e, Slot &slot);
    void removePulled(Entry &e, std::size_t slot_index);
    void normalizeCursor(Addr pc);
    void resetCursor(Addr pc);
    void updateTaken(const Instruction &br);
    void updateNotTaken(const Instruction &br, bool resteer);
};

} // namespace btbsim

#endif // BTBSIM_CORE_MBBTB_H
