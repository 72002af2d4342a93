/**
 * @file
 * Tests for the differential-checking subsystem (src/check/): the
 * training oracle, the eviction monitors, the reference models, and the
 * CheckedBtb decorator — both that it stays silent over the stock
 * organizations and that it actually fires on a corrupted one.
 */

#include <gtest/gtest.h>

#include "btb_test_util.h"
#include "check/branch_history.h"
#include "check/checker.h"
#include "check/reference.h"
#include "env_util.h"
#include "exp/experiment.h"
#include "sim/cpu.h"

using namespace btbsim;
using check::BranchHistory;
using check::CheckedBtb;
using check::CheckFailure;
using check::EvictionMonitor;

namespace {

Instruction
cond(Addr pc, Addr target, bool taken = true)
{
    return test::branchAt(pc, BranchClass::kCondDirect, target, taken);
}

} // namespace

// ---- BranchHistory --------------------------------------------------------

TEST(BranchHistory, TracksEveryValueAndTheLatest)
{
    BranchHistory h;
    EXPECT_FALSE(h.knows(0x1000));
    h.train(0x1000, BranchClass::kIndirectCall, 0x2000);
    h.train(0x1000, BranchClass::kIndirectCall, 0x3000);
    h.train(0x1000, BranchClass::kIndirectCall, 0x2000); // Re-train, dedup.

    EXPECT_TRUE(h.knows(0x1000));
    EXPECT_TRUE(h.contains(0x1000, BranchClass::kIndirectCall, 0x2000));
    EXPECT_TRUE(h.contains(0x1000, BranchClass::kIndirectCall, 0x3000));
    EXPECT_FALSE(h.contains(0x1000, BranchClass::kIndirectCall, 0x4000));
    EXPECT_FALSE(h.contains(0x1000, BranchClass::kIndirectJump, 0x2000));
    ASSERT_NE(h.latest(0x1000), nullptr);
    EXPECT_EQ(h.latest(0x1000)->second, 0x2000u);
    EXPECT_EQ(h.trackedPcs(), 1u);
    EXPECT_EQ(h.latest(0x1004), nullptr);
}

// ---- EvictionMonitor ------------------------------------------------------

TEST(EvictionMonitor, CleanUntilDistinctKeysExceedWays)
{
    EvictionMonitor m(/*sets=*/2, /*ways=*/2, /*shift=*/2);
    // Keys 0x0, 0x8, 0x10 map to set 0; 0x4 maps to set 1.
    m.insertKey(0x0);
    m.insertKey(0x8);
    m.insertKey(0x8); // Same key again: not a new distinct key.
    EXPECT_TRUE(m.clean(0x0));
    m.insertKey(0x10); // Third distinct key in a 2-way set.
    EXPECT_FALSE(m.clean(0x0));
    EXPECT_FALSE(m.clean(0x10)); // Same set, same verdict.
    EXPECT_TRUE(m.clean(0x4));   // Other set unaffected.
}

// ---- reference models -----------------------------------------------------

TEST(RefIbtb, MustHoldOnlyBeforeAnyPossibleEviction)
{
    BtbConfig cfg;
    cfg.kind = BtbKind::kInstruction;
    cfg.l1 = {1, 2};
    cfg.l2 = {64, 4};
    check::RefIbtb ref(cfg);

    EXPECT_FALSE(ref.mustHold(0x1000)); // Never trained.
    ref.train(0x1000);
    ref.train(0x1004);
    EXPECT_TRUE(ref.mustHold(0x1000));
    EXPECT_TRUE(ref.mustHold(0x1004));
    ref.train(0x1008); // Third distinct key in the 2-way L1 set.
    EXPECT_FALSE(ref.mustHold(0x1000));
}

TEST(RefRbtb, SlotOverflowDropsCompleteness)
{
    BtbConfig cfg;
    cfg.kind = BtbKind::kRegion;
    cfg.region_bytes = 64;
    cfg.branch_slots = 2;
    cfg.l1 = {16, 4};
    cfg.l2 = {64, 4};
    check::RefRbtb ref(cfg);

    const Addr region = ref.regionBase(0x1010);
    EXPECT_EQ(region, 0x1000u);
    ref.train(0x1004);
    ref.train(0x1010);
    ASSERT_TRUE(ref.mustHoldAll(region));
    ASSERT_NE(ref.trainedBranches(region), nullptr);
    EXPECT_EQ(ref.trainedBranches(region)->size(), 2u);

    ref.train(0x1020); // Third distinct offset with 2 branch slots.
    EXPECT_FALSE(ref.mustHoldAll(region));
}

// ---- CheckedBtb: silent on correct organizations --------------------------

TEST(CheckedBtb, CleanOverStockOrganizations)
{
    const BtbConfig cfgs[] = {
        BtbConfig::ibtb(8),
        BtbConfig::ibtb(8, /*skip=*/true),
        BtbConfig::rbtb(2),
        BtbConfig::bbtb(2),
        BtbConfig::mbbtb(2, PullPolicy::kAllBr),
        BtbConfig::hetero(2),
    };
    for (const BtbConfig &cfg : cfgs) {
        auto org = makeBtb(cfg);
        CheckedBtb chk(*org);
        // Train a small loop body, then walk accesses over it.
        for (int round = 0; round < 3; ++round) {
            chk.update(cond(0x1008, 0x1100), false);
            chk.update(
                test::branchAt(0x1104, BranchClass::kUncondDirect, 0x1000),
                false);
            for (Addr pc : {Addr{0x1000}, Addr{0x1100}}) {
                PredictionBundle b;
                chk.beginAccess(pc, b);
                for (Addr p = pc; p < pc + 0x20; p += kInstBytes)
                    if (b.probe(p).kind == StepView::Kind::kEndOfWindow)
                        break;
            }
        }
        EXPECT_GT(chk.accessesChecked(), 0u) << cfg.name();
        EXPECT_EQ(&chk.config(), &org->config()) << cfg.name();
    }
}

// ---- CheckedBtb: fires on corrupted organizations --------------------------

namespace {

/** Configurable broken organization for negative tests. */
class BogusOrg : public BtbOrg
{
  public:
    enum class Mode {
        kUntrainedSlot,  ///< Exposes a value never trained.
        kStaleTarget,    ///< Exposes a superseded target (I-BTB semantics).
        kMisaligned,     ///< Slot pc not instruction-aligned.
        kInvertedSegment,///< Segment with start >= end.
        kWrongWindow,    ///< Window not anchored at the access pc.
    };

    explicit BogusOrg(Mode mode) : mode_(mode)
    {
        cfg_ = BtbConfig::ibtb(4);
    }

    void
    beginAccess(Addr pc, PredictionBundle &b) override
    {
        switch (mode_) {
          case Mode::kInvertedSegment:
            b.addSegment(pc, pc);
            return;
          case Mode::kWrongWindow:
            b.addSegment(pc + kInstBytes, pc + 5 * kInstBytes);
            return;
          default:
            break;
        }
        b.addSegment(pc, pc + Addr{4} * kInstBytes);
        switch (mode_) {
          case Mode::kUntrainedSlot:
            // pc + 4 is never trained by any test using this mode.
            b.addSlot(0, pc + kInstBytes, BranchClass::kUncondDirect,
                      0xdead0000, 1);
            break;
          case Mode::kStaleTarget:
            if (const auto *v = first_value_)
                b.addSlot(0, trained_pc_, BranchClass::kCondDirect, *v, 1);
            break;
          case Mode::kMisaligned:
            b.addSlot(0, pc + 2, BranchClass::kCondDirect, 0x2000, 1);
            break;
          default:
            break;
        }
    }

    void
    update(const Instruction &br, bool) override
    {
        if (!br.taken)
            return;
        if (!first_value_) {
            trained_pc_ = br.pc;
            stored_ = br.takenTarget();
            first_value_ = &stored_;
        }
    }

    OccupancySample sampleOccupancy() const override { return {}; }
    const BtbConfig &config() const override { return cfg_; }

  private:
    Mode mode_;
    BtbConfig cfg_;
    Addr trained_pc_ = 0;
    Addr stored_ = 0;
    const Addr *first_value_ = nullptr;
};

void
expectFailure(BogusOrg::Mode mode, const char *needle)
{
    BogusOrg org(mode);
    CheckedBtb chk(org);
    // Give modes that replay trained values something to go stale: train
    // the same pc twice with different targets.
    chk.update(cond(0x1000, 0x2000), false);
    chk.update(cond(0x1000, 0x3000), false);
    PredictionBundle b;
    try {
        chk.beginAccess(0x1000, b);
        FAIL() << "checker stayed silent in mode " << static_cast<int>(mode);
    } catch (const CheckFailure &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "unexpected report:\n"
            << e.what();
    }
}

} // namespace

TEST(CheckedBtb, CatchesUntrainedSlot)
{
    expectFailure(BogusOrg::Mode::kUntrainedSlot, "never trained");
}

TEST(CheckedBtb, CatchesStaleValueUnderLatestSemantics)
{
    expectFailure(BogusOrg::Mode::kStaleTarget, "latest training");
}

TEST(CheckedBtb, CatchesMisalignedSlot)
{
    expectFailure(BogusOrg::Mode::kMisaligned, "not instruction-aligned");
}

TEST(CheckedBtb, CatchesInvertedSegment)
{
    expectFailure(BogusOrg::Mode::kInvertedSegment, "empty or inverted");
}

TEST(CheckedBtb, CatchesMisanchoredWindow)
{
    expectFailure(BogusOrg::Mode::kWrongWindow, "does not start at the access pc");
}

// The failure report must carry enough context to debug from the text
// alone: organization name, access pc, and the full slot dump.
TEST(CheckedBtb, FailureReportCarriesContext)
{
    BogusOrg org(BogusOrg::Mode::kUntrainedSlot);
    CheckedBtb chk(org);
    chk.setNow(1234);
    PredictionBundle b;
    try {
        chk.beginAccess(0x1000, b);
        FAIL() << "checker stayed silent";
    } catch (const CheckFailure &e) {
        const std::string report = e.what();
        EXPECT_NE(report.find("cycle: 1234"), std::string::npos) << report;
        EXPECT_NE(report.find("access_pc: 0x1000"), std::string::npos)
            << report;
        EXPECT_NE(report.find("0xdead0000"), std::string::npos) << report;
    }
}

// Under BTBSIM_CHECK=1 a divergence fails only its sweep point, and the
// engine names the reproducer; the process lives on.
TEST(CheckedBtb, DivergenceFailsOnlyItsSweepPoint)
{
    test::ScopedEnv check("BTBSIM_CHECK", "1");
    WorkloadSpec spec;
    spec.name = "check_wl";
    spec.trace_seed = 7;

    exp::ExperimentOptions opt;
    opt.run.warmup = 1000;
    opt.run.measure = 2000;
    opt.run.threads = 1;
    opt.simulate = [](const CpuConfig &cfg, const WorkloadSpec &w,
                      const RunOptions &o) {
        const std::unique_ptr<Workload> source = makeWorkload(w);
        Cpu cpu(cfg, *source,
                std::make_unique<BogusOrg>(BogusOrg::Mode::kUntrainedSlot));
        cpu.run(o.warmup, o.measure);
        return cpu.stats();
    };
    const exp::ExperimentResult r =
        exp::runExperiment("check_test", {CpuConfig{}}, {spec}, opt);

    ASSERT_EQ(r.points.size(), 1u);
    const exp::PointResult &p = r.points[0];
    EXPECT_EQ(p.status, exp::PointStatus::kFailed);
    EXPECT_NE(p.error.find("trace_seed 7"), std::string::npos) << p.error;
    EXPECT_NE(p.error.find("differential check FAILED"), std::string::npos)
        << p.error;
}

// ---- environment gate -----------------------------------------------------

TEST(CheckedBtb, WrapFromEnvHonorsBtbsimCheck)
{
    auto org = makeBtb(BtbConfig::ibtb(8));
    {
        test::ScopedEnv off("BTBSIM_CHECK", nullptr);
        EXPECT_EQ(CheckedBtb::wrapFromEnv(*org), nullptr);
    }
    {
        test::ScopedEnv off("BTBSIM_CHECK", "0");
        EXPECT_EQ(CheckedBtb::wrapFromEnv(*org), nullptr);
    }
    {
        test::ScopedEnv on("BTBSIM_CHECK", "1");
        auto chk = CheckedBtb::wrapFromEnv(*org);
        ASSERT_NE(chk, nullptr);
        EXPECT_EQ(&chk->config(), &org->config());
    }
}
