/**
 * @file
 * Heterogeneous BTB hierarchy (Section 3.6.2, left as future work by the
 * paper): a block-organized L1 — the organization best suited for 0-cycle
 * turnaround — backed by a region-organized L2, which stores each branch
 * exactly once and therefore wastes none of its capacity on the metadata
 * redundancy a homogeneous B-BTB hierarchy suffers from.
 *
 * On an L1 miss, the region entries covering the missing block are read
 * from the L2 and a block entry is synthesized into the L1 (charging the
 * usual L2 taken-branch penalty). Updates train both levels: the L1 like
 * a Block BTB (with optional entry splitting), the L2 like a Region BTB.
 */

#ifndef BTBSIM_CORE_HETERO_H
#define BTBSIM_CORE_HETERO_H

#include "core/btb_entry.h"

namespace btbsim {

class HeteroBtb : public BtbOrg
{
  public:
    explicit HeteroBtb(const BtbConfig &cfg);

    void beginAccess(Addr pc, PredictionBundle &b) override;
    void update(const Instruction &br, bool resteer) override;
    OccupancySample sampleOccupancy() const override;
    const BtbConfig &config() const override { return cfg_; }

    /** Branch slots per L2 region entry. */
    static constexpr unsigned kRegionSlots = 4;

  private:
    BtbConfig cfg_;
    SoaSetTable<BlockEntry> l1_;
    SoaSetTable<RegionEntry> l2_;
    std::uint64_t tick_ = 0;
    BlockCursor cursor_;

    Addr reachBytes() const { return Addr{cfg_.reach_instrs} * kInstBytes; }
    Addr regionBase(Addr pc) const { return alignDown(pc, cfg_.region_bytes); }

    std::uint32_t blockEnd(Addr start) const;
    BlockEntry *synthesizeFromL2(Addr start);
    void insertIntoBlock(Addr block, Addr pc, BranchClass type, Addr target);
    void insertIntoRegion(Addr pc, BranchClass type, Addr target);
};

} // namespace btbsim

#endif // BTBSIM_CORE_HETERO_H
