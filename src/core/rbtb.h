/**
 * @file
 * Region BTB: one aligned memory region per entry, with N branch slots.
 *
 * An access covers the region containing the fetch PC; with
 * @c dual_region (2L1 R-BTB, Section 6.2), the window extends into the
 * next sequential region when — and only when — that region's entry hits
 * the L1 (even/odd set interleaving only doubles L1 bandwidth).
 */

#ifndef BTBSIM_CORE_RBTB_H
#define BTBSIM_CORE_RBTB_H

#include "core/btb_entry.h"

namespace btbsim {

class RegionBtb : public BtbOrg
{
  public:
    explicit RegionBtb(const BtbConfig &cfg);

    void beginAccess(Addr pc, PredictionBundle &b) override;
    void update(const Instruction &br, bool resteer) override;
    OccupancySample sampleOccupancy() const override;
    const BtbConfig &config() const override { return cfg_; }

  private:
    BtbConfig cfg_;
    TwoLevelTable<RegionEntry> table_;
    std::uint64_t tick_ = 0;

    Addr regionBase(Addr pc) const { return alignDown(pc, cfg_.region_bytes); }

    void bundleSlots(PredictionBundle &b, RegionEntry &e, Addr base,
                     int level);
    void applySlotUpdate(const Instruction &br);
};

} // namespace btbsim

#endif // BTBSIM_CORE_RBTB_H
