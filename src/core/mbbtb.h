/**
 * @file
 * MultiBlock BTB (Section 6.4): each entry chains up to N+1 blocks by
 * "pulling" the target block of eligible branches into the entry. Each
 * rule of the section lives in one function:
 *
 *  - Eligibility per policy (eligibleToPull): kUncondDir pulls
 *    unconditional direct jumps (not calls); kCallDir adds direct calls;
 *    kAllBr adds conditional and non-return indirect branches whose 6-bit
 *    stability counter has reached @c stability_threshold.
 *  - The stability counter: updateTaken allocates a conditional with a
 *    saturated counter, so it pulls at once, and updateNotTaken zeroes it
 *    when the branch falls through; updateTaken counts an indirect's
 *    repeats of its stored target and zeroes the counter on a new one.
 *  - The last-slot rule (eligibleToPull): the last branch slot of an
 *    entry never pulls, which limits redundancy (Section 6.4.2); only the
 *    deepest slot of the chain's last block may pull, within the reach
 *    left after the blocks before it.
 *  - Downgrade (removePulled, Section 6.4.3): a pulled conditional seen
 *    not taken (updateNotTaken), a pulled indirect seen with a new target
 *    (updateTaken) or a pulled slot displaced as LRU loses its target
 *    block and every block after it, and its own block regains its
 *    fall-through reach.
 */

#ifndef BTBSIM_CORE_MBBTB_H
#define BTBSIM_CORE_MBBTB_H

#include <utility>
#include <vector>

#include "core/btb_entry.h"

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
    struct Slot : BranchSlot
    {
        std::uint8_t blk = 0;   ///< Which chained block the slot lives in.
        bool follow = false;    ///< Taking it continues in-entry.
        std::uint8_t stabl = 0; ///< 6-bit stability counter.
    };

    struct Block
    {
        Addr start = 0;
        std::uint32_t len = 0; ///< Bytes covered by this chained block.
    };

    /** Block lengths always sum to the reach: a pull splits the last
     *  block's reach, a downgrade merges it back. */
    struct Entry
    {
        std::vector<Block> blocks; ///< blocks[0].start == entry key.
        std::vector<Slot> slots;   ///< Sorted by (blk, offset), unique.
    };

    BtbConfig cfg_;
    TwoLevelTable<Entry> table_;
    std::uint64_t tick_ = 0;

    // Update-side cursor: block cur_blk_ of the entry keyed cur_key_,
    // starting at cur_start_. A block-0 cursor has cur_key_ == cur_start_.
    bool cur_valid_ = false;
    Addr cur_key_ = 0;
    unsigned cur_blk_ = 0;
    Addr cur_start_ = 0;

    std::uint32_t reachBytes() const
    {
        return cfg_.reach_instrs * static_cast<std::uint32_t>(kInstBytes);
    }

    /** Where slot (@p blk, @p offset) sits in @p e's sorted slots, or
     *  would be inserted, and whether it is there. */
    static std::pair<std::size_t, bool> slotPos(const Entry &e, unsigned blk,
                                                std::uint32_t offset);
    bool eligibleToPull(const Entry &e, std::size_t slot_index) const;
    void doPull(Entry &e, Slot &slot);
    void removePulled(Entry &e, std::size_t slot_index);
    const Entry *cursorEntry() const;
    void normalizeCursor(Addr pc);
    void resetCursor(Addr pc);
    void updateTaken(const Instruction &br);
    void updateNotTaken(const Instruction &br, bool resteer);
};

} // namespace btbsim

#endif // BTBSIM_CORE_MBBTB_H
