#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/bbtb.h"
#include "core/btb_org.h"
#include "core/hetero.h"
#include "core/ibtb.h"
#include "core/mbbtb.h"
#include "core/rbtb.h"

namespace btbsim {

namespace {

/** Reject a level geometry SoaSetTable cannot hold: at least one set,
 *  1..32 ways (the per-set valid mask is 32 bits wide). */
void
checkLevelGeom(const BtbLevelGeom &g, const char *level)
{
    if (g.sets < 1)
        throw std::invalid_argument(std::string(level) +
                                    ".sets must be >= 1, got 0");
    if (g.ways < 1 || g.ways > 32)
        throw std::invalid_argument(std::string(level) +
                                    ".ways must be in 1..32, got " +
                                    std::to_string(g.ways));
}

/** Reject a field value no organization can run with: out of its
 *  counter's range, or a window that would overflow the PredictionBundle. */
void
checkField(bool ok, const char *field, const std::string &rule, unsigned got)
{
    if (!ok)
        throw std::invalid_argument(std::string(field) + " must be " + rule +
                                    ", got " + std::to_string(got));
}

void
checkFields(const BtbConfig &cfg)
{
    const unsigned max_width = PredictionBundle::kMaxSlots;
    checkField(cfg.width >= 1 && cfg.width <= max_width, "width",
               "in 1.." + std::to_string(max_width), cfg.width);
    // MB-BTB supplies up to branch_slots + 1 chained blocks; the dual
    // R-BTB supplies two regions' slots.
    unsigned max_slots = PredictionBundle::kMaxSlots;
    if (cfg.kind == BtbKind::kMultiBlock)
        max_slots = PredictionBundle::kMaxSegments - 1;
    else if (cfg.kind == BtbKind::kRegion && cfg.dual_region)
        max_slots = PredictionBundle::kMaxSlots / 2;
    checkField(cfg.branch_slots >= 1 && cfg.branch_slots <= max_slots,
               "branch_slots", "in 1.." + std::to_string(max_slots),
               cfg.branch_slots);
    checkField(cfg.region_bytes >= kInstBytes &&
                   (cfg.region_bytes & (cfg.region_bytes - 1)) == 0,
               "region_bytes",
               "a power of two >= " + std::to_string(kInstBytes),
               cfg.region_bytes);
    checkField(cfg.reach_instrs >= 1, "reach_instrs", ">= 1",
               cfg.reach_instrs);
    checkField(cfg.stability_threshold <= 63, "stability_threshold",
               "<= 63 (the 6-bit stability counter's maximum)",
               cfg.stability_threshold);
}

} // namespace

void
BtbConfig::realGeometry(unsigned slots, BtbLevelGeom &l1, BtbLevelGeom &l2)
{
    // Section 6.1: structures are resized so the total number of branch
    // slots matches the 3K-entry L1 / 13K-entry L2 I-BTB.
    switch (slots) {
      case 1:
        l1 = {512, 6};
        l2 = {1024, 13};
        return;
      case 2:
        l1 = {512, 3};
        l2 = {512, 13};
        return;
      case 3:
        l1 = {256, 4};
        l2 = {256, 18};
        return;
      case 4:
        l1 = {256, 3};
        l2 = {256, 13};
        return;
      default: {
        // Generic iso-slot scaling for the remaining sweep points.
        const unsigned l1_entries = std::max(64u, 3072 / slots);
        const unsigned l2_entries = std::max(256u, 13312 / slots);
        unsigned sets1 = 1;
        while (sets1 * 2 * 4 <= l1_entries)
            sets1 *= 2;
        unsigned sets2 = 1;
        while (sets2 * 2 * 8 <= l2_entries)
            sets2 *= 2;
        l1 = {sets1, std::max(1u, l1_entries / sets1)};
        l2 = {sets2, std::max(1u, l2_entries / sets2)};
        return;
      }
    }
}

BtbConfig
BtbConfig::ibtb(unsigned width, bool skip)
{
    BtbConfig c;
    c.kind = BtbKind::kInstruction;
    c.width = width;
    c.skip_taken = skip;
    c.branch_slots = 1;
    realGeometry(1, c.l1, c.l2);
    return c;
}

BtbConfig
BtbConfig::rbtb(unsigned slots, unsigned region_bytes, bool dual)
{
    BtbConfig c;
    c.kind = BtbKind::kRegion;
    c.branch_slots = slots;
    c.region_bytes = region_bytes;
    c.dual_region = dual;
    realGeometry(slots, c.l1, c.l2);
    return c;
}

BtbConfig
BtbConfig::bbtb(unsigned slots, bool split, unsigned reach)
{
    BtbConfig c;
    c.kind = BtbKind::kBlock;
    c.branch_slots = slots;
    c.split = split;
    c.reach_instrs = reach;
    realGeometry(slots, c.l1, c.l2);
    return c;
}

BtbConfig
BtbConfig::mbbtb(unsigned slots, PullPolicy pull, unsigned reach)
{
    BtbConfig c;
    c.kind = BtbKind::kMultiBlock;
    c.branch_slots = slots;
    c.pull = pull;
    c.reach_instrs = reach;
    realGeometry(slots, c.l1, c.l2);
    return c;
}

BtbConfig
BtbConfig::hetero(unsigned slots, bool split, unsigned reach)
{
    BtbConfig c;
    c.kind = BtbKind::kHetero;
    c.branch_slots = slots;
    c.split = split;
    c.reach_instrs = reach;
    realGeometry(slots, c.l1, c.l2);
    // The L2 is region-organized with kRegionSlots per entry: size it
    // iso-slot against the 13K-slot homogeneous L2.
    const unsigned l2_entries =
        std::max(256u, 13312u / HeteroBtb::kRegionSlots);
    unsigned sets = 1;
    while (sets * 2 * 8 <= l2_entries)
        sets *= 2;
    c.l2 = {sets, std::max(1u, l2_entries / sets)};
    return c;
}

BtbConfig &
BtbConfig::makeIdeal()
{
    ideal = true;
    l2_penalty = 0;
    return *this;
}

std::string
BtbConfig::name() const
{
    std::ostringstream os;
    switch (kind) {
      case BtbKind::kInstruction:
        os << "I-BTB " << width;
        if (skip_taken)
            os << " Skp";
        break;
      case BtbKind::kRegion:
        if (dual_region)
            os << "2L1 ";
        os << "R-BTB";
        if (region_bytes != 64)
            os << " " << region_bytes << "B";
        os << " " << branch_slots << "BS";
        break;
      case BtbKind::kBlock:
        os << "B-BTB";
        if (reach_instrs != 16)
            os << " " << reach_instrs;
        os << " " << branch_slots << "BS";
        if (split)
            os << " Splt";
        if (cond_ends_block)
            os << " CndEnd";
        break;
      case BtbKind::kHetero:
        os << "Hetero-BTB";
        if (reach_instrs != 16)
            os << " " << reach_instrs;
        os << " " << branch_slots << "BS";
        if (split)
            os << " Splt";
        break;
      case BtbKind::kMultiBlock:
        os << "MB-BTB";
        if (reach_instrs != 16)
            os << " " << reach_instrs;
        os << " " << branch_slots << "BS";
        switch (pull) {
          case PullPolicy::kNone: break;
          case PullPolicy::kUncondDir: os << " UncndDir"; break;
          case PullPolicy::kCallDir: os << " CallDir"; break;
          case PullPolicy::kAllBr: os << " AllBr"; break;
        }
        if (allow_last_slot_pull)
            os << " LSP";
        if (stability_threshold != 63)
            os << " T" << stability_threshold;
        break;
    }
    if (ideal)
        os << " (ideal)";
    return os.str();
}

std::unique_ptr<BtbOrg>
makeBtb(const BtbConfig &cfg)
{
    // An ideal BTB ignores l1/l2 and builds its own fixed-size table.
    if (!cfg.ideal) {
        checkLevelGeom(cfg.l1, "l1");
        checkLevelGeom(cfg.l2, "l2");
    }
    checkFields(cfg);
    switch (cfg.kind) {
      case BtbKind::kInstruction:
        return std::make_unique<InstructionBtb>(cfg);
      case BtbKind::kRegion:
        return std::make_unique<RegionBtb>(cfg);
      case BtbKind::kBlock:
        return std::make_unique<BlockBtb>(cfg);
      case BtbKind::kMultiBlock:
        return std::make_unique<MultiBlockBtb>(cfg);
      case BtbKind::kHetero:
        return std::make_unique<HeteroBtb>(cfg);
    }
    return nullptr;
}

} // namespace btbsim
