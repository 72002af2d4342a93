/**
 * @file
 * Instruction BTB: one branch per entry (the "classical" organization).
 *
 * An access models @c width banked probes with consecutive instruction
 * addresses, supplying up to @c width fetch PCs and ending at the first
 * predicted-taken branch. With @c skip_taken (I-BTB 16 Skp, Fig. 4), the
 * access keeps supplying PCs across taken branches — an idealization used
 * to gauge sensitivity to fetch-PC throughput.
 *
 * Each PC a bank reads is one BTB lookup. The window is filled with
 * side-effect-free peeks (presence, type, target); the walk then looks up
 * each branch slot as it probes it (lookupSlot: recency touch, L2-to-L1
 * fill), so the level it reports is the real one in probe order even
 * when window PCs collide in an L1 set.
 */

#ifndef BTBSIM_CORE_IBTB_H
#define BTBSIM_CORE_IBTB_H

#include "core/btb_org.h"

namespace btbsim {

class InstructionBtb : public BtbOrg
{
  public:
    explicit InstructionBtb(const BtbConfig &cfg);

    void beginAccess(Addr pc, PredictionBundle &b) override;
    bool chainAccess(Addr pc, Addr target, PredictionBundle &b) override;
    int lookupSlot(Addr pc) override;
    void update(const Instruction &br, bool resteer) override;
    OccupancySample sampleOccupancy() const override;
    const BtbConfig &config() const override { return cfg_; }

    int
    peekLevel(Addr key) const override
    {
        if (table_.l1().set(key).probe(key) >= 0)
            return 1;
        if (!table_.ideal() && table_.l2().set(key).probe(key) >= 0)
            return 2;
        return 0;
    }

  private:
    struct Entry
    {
        BranchClass type = BranchClass::kNone;
        Addr target = 0;
    };

    BtbConfig cfg_;
    TwoLevelTable<Entry> table_;

    void fillWindow(Addr start, unsigned count, PredictionBundle &b);
};

} // namespace btbsim

#endif // BTBSIM_CORE_IBTB_H
