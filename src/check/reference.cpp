#include "check/reference.h"

namespace btbsim::check {

namespace {

// Mirrors TwoLevelTable's geometry selection (btb_org.h): with ideal,
// only the single huge L1 exists.
EvictionMonitor
monitorL1(const BtbConfig &cfg, unsigned shift)
{
    if (cfg.ideal)
        return EvictionMonitor(16384, 32, shift);
    return EvictionMonitor(cfg.l1.sets, cfg.l1.ways, shift);
}

EvictionMonitor
monitorL2(const BtbConfig &cfg, unsigned shift)
{
    if (cfg.ideal)
        return EvictionMonitor(1, 1, shift); // Unused when ideal.
    return EvictionMonitor(cfg.l2.sets, cfg.l2.ways, shift);
}

} // namespace

// ---- RefIbtb ---------------------------------------------------------------

RefIbtb::RefIbtb(const BtbConfig &cfg)
    : ideal_(cfg.ideal),
      l1_(monitorL1(cfg, log2i(kInstBytes))),
      l2_(monitorL2(cfg, log2i(kInstBytes)))
{}

void
RefIbtb::train(Addr pc)
{
    trained_.insert(pc);
    // Fills (L2 -> L1) re-insert keys that were already counted at
    // allocation, so counting only at train time covers every insertion
    // the real table can perform.
    l1_.insertKey(pc);
    if (!ideal_)
        l2_.insertKey(pc);
}

bool
RefIbtb::mustHold(Addr pc) const
{
    if (!trained_.contains(pc))
        return false;
    if (!l1_.clean(pc))
        return false;
    return ideal_ || l2_.clean(pc);
}

// ---- RefRbtb ---------------------------------------------------------------

RefRbtb::RefRbtb(const BtbConfig &cfg)
    : region_bytes_(cfg.region_bytes),
      branch_slots_(cfg.branch_slots),
      ideal_(cfg.ideal),
      l1_(monitorL1(cfg, log2i(cfg.region_bytes))),
      l2_(monitorL2(cfg, log2i(cfg.region_bytes)))
{}

void
RefRbtb::train(Addr pc)
{
    const Addr region = regionBase(pc);
    l1_.insertKey(region);
    if (!ideal_)
        l2_.insertKey(region);
    if (slot_overflowed_.contains(region))
        return;
    auto &branches = regions_[region];
    branches.insert(pc);
    if (branches.size() > branch_slots_) {
        // Slot displacement is now possible; which branch survives
        // depends on probe recency, so stop predicting completeness.
        slot_overflowed_.insert(region);
        regions_.erase(region);
    }
}

bool
RefRbtb::mustHoldAll(Addr region) const
{
    const auto it = regions_.find(region);
    if (it == regions_.end())
        return false;
    if (!l1_.clean(region))
        return false;
    return ideal_ || l2_.clean(region);
}

const std::unordered_set<Addr> *
RefRbtb::trainedBranches(Addr region) const
{
    const auto it = regions_.find(region);
    return it == regions_.end() ? nullptr : &it->second;
}

} // namespace btbsim::check
