/**
 * @file
 * Block BTB: one dynamic instruction block per entry, with N branch slots.
 *
 * A block is a run of at most @c reach_instrs instructions starting at a
 * control-flow-target (or fall-through) address. Following the paper's
 * baseline (Section 2.3), sometimes-taken conditional branches do NOT end
 * a block — the block falls through until the reach limit, keeping the
 * fall-through address computable in parallel with the BTB access.
 * Always-taken-class branches (unconditional jumps, calls, returns,
 * indirects) end the block at their offset.
 *
 * With @c split (Section 6.3), a supernumerary taken branch splits the
 * entry after its n-th slot instead of displacing another branch.
 */

#ifndef BTBSIM_CORE_BBTB_H
#define BTBSIM_CORE_BBTB_H

#include "core/btb_entry.h"

namespace btbsim {

class BlockBtb : public BtbOrg
{
  public:
    explicit BlockBtb(const BtbConfig &cfg);

    void beginAccess(Addr pc, PredictionBundle &b) override;
    void update(const Instruction &br, bool resteer) override;
    OccupancySample sampleOccupancy() const override;
    const BtbConfig &config() const override { return cfg_; }

  private:
    BtbConfig cfg_;
    TwoLevelTable<BlockEntry> table_;
    std::uint64_t tick_ = 0;
    BlockCursor cursor_;

    Addr reachBytes() const { return Addr{cfg_.reach_instrs} * kInstBytes; }

    /** Extent of the (possibly missing) block starting at @p start. */
    std::uint32_t blockEnd(Addr start) const;

    void insertTaken(const Instruction &br);
};

} // namespace btbsim

#endif // BTBSIM_CORE_BBTB_H
