#include "check/checker.h"

#include <algorithm>
#include <sstream>

#include "common/env.h"

namespace btbsim::check {

namespace {

std::string
hexAddr(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

void
dumpBundle(std::ostream &os, const PredictionBundle &b)
{
    os << "  segments (" << b.n_segments << "):\n";
    for (unsigned i = 0; i < b.n_segments && i < PredictionBundle::kMaxSegments;
         ++i)
        os << "    [" << i << "] " << hexAddr(b.segments[i].start) << " .. "
           << hexAddr(b.segments[i].end) << "\n";
    os << "  slots (" << b.n_slots << ", cursor=" << b.cursor
       << ", committed=" << b.committed << ", probes=" << b.probes
       << ", probed_mask=" << hexAddr(b.probed) << "):\n";
    for (unsigned i = 0; i < b.n_slots && i < PredictionBundle::kMaxSlots;
         ++i) {
        const auto &s = b.slots[i];
        os << "    [" << i << "] seg=" << unsigned{s.seg} << " pc="
           << hexAddr(s.pc) << " type=" << branchClassName(s.type)
           << " target=" << hexAddr(s.target) << " level="
           << unsigned{s.level} << (s.follow ? " follow" : "")
           << (s.end_on_not_taken ? " end_on_not_taken" : "")
           << ((b.probed >> i & 1) ? " probed" : "") << "\n";
    }
}

} // namespace

CheckedBtb::CheckedBtb(BtbOrg &inner) : inner_(inner)
{
    // Walk helpers (PredictionBundle::chain) account through the wrapper
    // when it fronts the frontend; keep the counters on the inner org so
    // harvested stats are identical with and without checking.
    walk_counters = &inner_.counters;
    const BtbConfig &cfg = inner_.config();
    switch (cfg.kind) {
      case BtbKind::kInstruction:
        ref_ibtb_.emplace(cfg);
        break;
      case BtbKind::kRegion:
        ref_rbtb_.emplace(cfg);
        break;
      default:
        break; // Block-structured: structural + containment checks only.
    }
}

std::unique_ptr<CheckedBtb>
CheckedBtb::wrapFromEnv(BtbOrg &inner)
{
    if (!env::flag("BTBSIM_CHECK"))
        return nullptr;
    return std::make_unique<CheckedBtb>(inner);
}

void
CheckedBtb::fail(const PredictionBundle *b, const std::string &msg)
{
    std::ostringstream os;
    os << "btbsim differential check FAILED: " << msg << "\n"
       << "  org: " << inner_.config().name() << "\n"
       << "  cycle: " << now_ << "  access#: " << accesses_
       << "  access_pc: " << hexAddr(access_pc_) << "\n";
    if (b)
        dumpBundle(os, *b);
    throw CheckFailure(os.str());
}

void
CheckedBtb::trainTaken(const Instruction &br)
{
    history_.train(br.pc, br.branch, br.takenTarget());
    if (ref_ibtb_)
        ref_ibtb_->train(br.pc);
    if (ref_rbtb_)
        ref_rbtb_->train(br.pc);
}

int
CheckedBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++accesses_;
    access_pc_ = pc;
    const int lvl = inner_.beginAccess(pc, b);
    access_dirty_ = false;
    validateBundle(b, /*chained=*/false);
    return lvl;
}

bool
CheckedBtb::chainAccess(Addr pc, Addr target, PredictionBundle &b)
{
    const bool ok = inner_.chainAccess(pc, target, b);
    if (ok) {
        access_pc_ = target;
        access_dirty_ = false;
        validateBundle(b, /*chained=*/true);
    }
    return ok;
}

void
CheckedBtb::update(const Instruction &br, bool resteer)
{
    if (br.taken)
        trainTaken(br);
    access_dirty_ = true;
    inner_.update(br, resteer);
}

void
CheckedBtb::prefill(const Instruction &br)
{
    // Prefilled targets of direct branches are static, so recording them
    // as training is exact even when the organization declines the fill.
    history_.train(br.pc, br.branch, br.takenTarget());
    if (ref_ibtb_)
        ref_ibtb_->train(br.pc);
    if (ref_rbtb_)
        ref_rbtb_->prefill(br.pc);
    access_dirty_ = true;
    inner_.prefill(br);
}

void
CheckedBtb::endAccess(PredictionBundle &b)
{
    // ShadowL1 cross-check: the I-BTB records per-slot supply levels from
    // side-effect-free peeks and replays the real lookups here. For any
    // probed, not-yet-committed slot whose L1 set no other probed slot
    // maps to (so commit order inside the set cannot matter) and with no
    // interleaved table mutation, the peeked level must match the real
    // hierarchy before the replay, and the replay must leave the entry
    // L1-resident.
    if (inner_.config().kind != BtbKind::kInstruction || access_dirty_) {
        inner_.endAccess(b);
        return;
    }
    const BtbConfig &cfg = inner_.config();
    const unsigned sets = cfg.ideal ? 16384 : cfg.l1.sets;

    unsigned idx[PredictionBundle::kMaxSlots];
    std::size_t set_of[PredictionBundle::kMaxSlots];
    unsigned n = 0;
    for (unsigned i = b.committed; i < b.n_slots; ++i)
        if (b.probed >> i & 1) {
            idx[n] = i;
            set_of[n] = static_cast<std::size_t>(
                (b.slots[i].pc >> log2i(kInstBytes)) % sets);
            ++n;
        }
    bool shared[PredictionBundle::kMaxSlots] = {};
    for (unsigned a = 0; a < n; ++a)
        for (unsigned c = a + 1; c < n; ++c)
            if (set_of[a] == set_of[c])
                shared[a] = shared[c] = true;

    for (unsigned k = 0; k < n; ++k) {
        if (shared[k])
            continue;
        const auto &s = b.slots[idx[k]];
        const int lvl = inner_.peekLevel(s.pc);
        if (lvl < 0) {
            inner_.endAccess(b);
            return; // Organization cannot answer residency queries.
        }
        if (lvl != int{s.level})
            fail(&b, "probed slot at " + hexAddr(s.pc) + " recorded level " +
                         std::to_string(unsigned{s.level}) +
                         " but the entry resides at level " +
                         std::to_string(lvl) + " before commit");
    }

    inner_.endAccess(b);

    for (unsigned k = 0; k < n; ++k) {
        if (shared[k])
            continue;
        const auto &s = b.slots[idx[k]];
        if (inner_.peekLevel(s.pc) != 1)
            fail(&b, "probed slot at " + hexAddr(s.pc) +
                         " is not L1-resident after its deferred lookup "
                         "committed");
    }
}

void
CheckedBtb::validateBundle(const PredictionBundle &b, bool chained)
{
    const BtbConfig &cfg = inner_.config();
    const Addr pc = access_pc_;
    const Addr reach_bytes = Addr{cfg.reach_instrs} * kInstBytes;

    // ---- segment geometry -------------------------------------------------
    if (b.n_segments < 1 || b.n_segments > PredictionBundle::kMaxSegments)
        fail(&b, "bundle has " + std::to_string(b.n_segments) + " segments");
    if (b.n_slots > PredictionBundle::kMaxSlots)
        fail(&b, "bundle has " + std::to_string(b.n_slots) + " slots");
    for (unsigned i = 0; i < b.n_segments; ++i)
        if (b.segments[i].start >= b.segments[i].end)
            fail(&b, "segment " + std::to_string(i) + " is empty or inverted");

    const auto &seg0 = b.segments[0];
    switch (cfg.kind) {
      case BtbKind::kInstruction: {
        if (b.n_segments != 1)
            fail(&b, "I-BTB window must be a single segment");
        if (seg0.start != pc)
            fail(&b, "window does not start at the access pc");
        // chainAccess() refills with the remaining probe budget.
        const Addr want = Addr{cfg.width - b.probes} * kInstBytes;
        if (seg0.end - seg0.start != want)
            fail(&b, "I-BTB window length " +
                         std::to_string(seg0.end - seg0.start) +
                         " != banked probe budget " + std::to_string(want));
        break;
      }
      case BtbKind::kRegion: {
        if (b.n_segments != 1)
            fail(&b, "R-BTB window must be a single segment");
        if (seg0.start != alignDown(pc, cfg.region_bytes))
            fail(&b, "window not aligned to the access pc's region");
        if (pc >= seg0.end)
            fail(&b, "access pc beyond the region window");
        const Addr len = seg0.end - seg0.start;
        if (len != cfg.region_bytes &&
            !(cfg.dual_region && len == Addr{2} * cfg.region_bytes))
            fail(&b, "region window length " + std::to_string(len) +
                         " is not one region (or two with dual_region)");
        break;
      }
      case BtbKind::kBlock:
      case BtbKind::kHetero: {
        if (b.n_segments != 1)
            fail(&b, "block window must be a single segment");
        if (seg0.start != pc)
            fail(&b, "window does not start at the access pc");
        const Addr len = seg0.end - seg0.start;
        if (len > reach_bytes)
            fail(&b, "block length " + std::to_string(len) +
                         " exceeds the entry reach");
        break;
      }
      case BtbKind::kMultiBlock: {
        if (seg0.start != pc)
            fail(&b, "window does not start at the access pc");
        Addr sum = 0;
        for (unsigned i = 0; i < b.n_segments; ++i)
            sum += b.segments[i].end - b.segments[i].start;
        // freshEntry/doPull/removePulled all keep the chained blocks
        // summing exactly to the entry reach.
        if (sum != reach_bytes)
            fail(&b, "chained block lengths sum to " + std::to_string(sum) +
                         " != entry reach " + std::to_string(reach_bytes));
        break;
      }
    }
    if (chained && cfg.kind != BtbKind::kInstruction)
        fail(&b, "chainAccess succeeded on a non-Skp organization");

    // ---- slots ------------------------------------------------------------
    const bool latest_semantics = cfg.kind == BtbKind::kInstruction ||
                                  cfg.kind == BtbKind::kRegion;
    unsigned at_seen = 0;
    Addr at_pc = 0;
    for (unsigned i = 0; i < b.n_slots; ++i) {
        const auto &s = b.slots[i];
        const std::string who = "slot " + std::to_string(i) + " (" +
                                hexAddr(s.pc) + ")";
        if (s.seg >= b.n_segments)
            fail(&b, who + " references segment " + std::to_string(s.seg));
        const auto &sg = b.segments[s.seg];
        if (s.pc < sg.start || s.pc >= sg.end)
            fail(&b, who + " lies outside its segment");
        if (s.pc % kInstBytes != 0)
            fail(&b, who + " is not instruction-aligned");
        if (s.type == BranchClass::kNone)
            fail(&b, who + " has no branch type");
        if (s.level != 1 && s.level != 2)
            fail(&b, who + " has level " + std::to_string(unsigned{s.level}));
        if (cfg.ideal && cfg.kind != BtbKind::kHetero && s.level != 1)
            fail(&b, who + " reports L2 in an ideal (single-level) config");
        if (i > 0) {
            const auto &p = b.slots[i - 1];
            if (!(s.seg > p.seg || (s.seg == p.seg && s.pc > p.pc)))
                fail(&b, who + " breaks strict (segment, pc) ordering");
        }

        switch (cfg.kind) {
          case BtbKind::kInstruction:
            if (s.follow != cfg.skip_taken)
                fail(&b, who + " follow flag disagrees with skip_taken");
            if (s.end_on_not_taken)
                fail(&b, who + " sets end_on_not_taken on an I-BTB");
            // fillWindow() stops peeking past an always-taken slot.
            if (at_seen)
                fail(&b, who + " lies beyond the always-taken slot at " +
                             hexAddr(at_pc));
            break;
          case BtbKind::kRegion:
          case BtbKind::kBlock:
          case BtbKind::kHetero:
            if (s.follow || s.end_on_not_taken)
                fail(&b, who + " sets chain flags on a non-chaining org");
            break;
          case BtbKind::kMultiBlock:
            if (s.end_on_not_taken != s.follow)
                fail(&b, who + " pulled-slot flags disagree");
            if (s.follow) {
                if (s.pc != sg.end - kInstBytes)
                    fail(&b, who + " is a pulled slot away from its block "
                                   "seam");
                if (unsigned{s.seg} + 1 >= b.n_segments)
                    fail(&b, who + " pulls past the last chained block");
                if (s.target != b.segments[s.seg + 1].start)
                    fail(&b, who + " pull target disagrees with the next "
                                   "chained block");
                if (i + 1 < b.n_slots && b.slots[i + 1].seg == s.seg)
                    fail(&b, who + " pulled slot is not the last of its "
                                   "block");
            }
            break;
        }

        if (isAlwaysTaken(s.type)) {
            ++at_seen;
            at_pc = s.pc;
            if (cfg.kind == BtbKind::kBlock || cfg.kind == BtbKind::kHetero) {
                // Blocks end at architecturally-taken branches.
                if (i + 1 < b.n_slots)
                    fail(&b, who + " always-taken slot is not last in its "
                                   "block");
                if (sg.end != s.pc + kInstBytes)
                    fail(&b, who + " always-taken slot does not end its "
                                   "block");
            }
        }

        // ---- value oracle -------------------------------------------------
        if (latest_semantics) {
            const BranchHistory::Value *latest = history_.latest(s.pc);
            if (!latest)
                fail(&b, who + " exposes a branch that was never trained");
            if (latest->first != s.type || latest->second != s.target)
                fail(&b, who + " exposes (" +
                             std::string(branchClassName(s.type)) + ", " +
                             hexAddr(s.target) + ") but the latest training "
                             "was (" +
                             std::string(branchClassName(latest->first)) +
                             ", " + hexAddr(latest->second) + ")");
        } else if (!history_.contains(s.pc, s.type, s.target)) {
            fail(&b, who + " exposes (" +
                         std::string(branchClassName(s.type)) + ", " +
                         hexAddr(s.target) +
                         "), which was never trained for this pc");
        }
    }

    // ---- completeness (eviction-free regimes only) ------------------------
    if (cfg.kind == BtbKind::kInstruction && ref_ibtb_) {
        unsigned si = 0;
        for (Addr p = seg0.start; p < seg0.end; p += kInstBytes) {
            while (si < b.n_slots && b.slots[si].pc < p)
                ++si;
            if (si < b.n_slots && b.slots[si].pc == p) {
                if (isAlwaysTaken(b.slots[si].type))
                    break; // The window fill stops peeking here.
                continue;
            }
            if (ref_ibtb_->mustHold(p))
                fail(&b, "trained branch at " + hexAddr(p) +
                             " is missing from the window although its sets "
                             "never overflowed");
        }
    }
    if (cfg.kind == BtbKind::kRegion && ref_rbtb_) {
        const Addr region0 = seg0.start;
        if (ref_rbtb_->mustHoldAll(region0)) {
            for (const Addr p : *ref_rbtb_->trainedBranches(region0)) {
                bool found = false;
                for (unsigned i = 0; i < b.n_slots && !found; ++i)
                    found = b.slots[i].pc == p;
                if (!found)
                    fail(&b, "trained branch at " + hexAddr(p) +
                                 " is missing from its region entry although "
                                 "neither sets nor slots ever overflowed");
            }
        }
    }
}

} // namespace btbsim::check
