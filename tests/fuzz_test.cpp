/**
 * @file
 * Tests for the property-based fuzzer (src/check/fuzz.h): generation
 * determinism, clean runs over the stock organizations across many
 * seeds, repro round-tripping, shrink behavior on passing cases, and
 * the PredictionBundle capacity negative paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "check/fuzz.h"
#include "core/btb_org.h"

using namespace btbsim;

namespace {

/** Fresh scratch directory, removed on scope exit. */
struct ScratchDir
{
    std::filesystem::path path;

    ScratchDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("btbsim-fuzz-test-" + std::to_string(::getpid()));
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
};

} // namespace

TEST(Fuzz, RandomCaseIsDeterministic)
{
    check::FuzzCase a = check::randomCase(42, 500);
    check::FuzzCase b = check::randomCase(42, 500);
    EXPECT_EQ(a.btb, b.btb);
    ASSERT_EQ(a.insts.size(), b.insts.size());
    for (std::size_t i = 0; i < a.insts.size(); ++i) {
        EXPECT_EQ(a.insts[i].pc, b.insts[i].pc) << "index " << i;
        EXPECT_EQ(a.insts[i].next_pc, b.insts[i].next_pc) << "index " << i;
    }
    // A different seed must not produce the same stream.
    check::FuzzCase c = check::randomCase(43, 500);
    EXPECT_TRUE(c.btb != a.btb || c.insts[0].pc != a.insts[0].pc ||
                c.insts.size() != a.insts.size() ||
                !std::equal(a.insts.begin(), a.insts.end(), c.insts.begin(),
                            [](const Instruction &x, const Instruction &y) {
                                return x.pc == y.pc && x.next_pc == y.next_pc;
                            }));
}

TEST(Fuzz, SeedsCoverEveryOrganizationKind)
{
    bool seen[5] = {};
    for (std::uint64_t s = 1; s <= 64; ++s)
        seen[static_cast<int>(check::randomCase(s, 1).btb.kind)] = true;
    for (int k = 0; k < 5; ++k)
        EXPECT_TRUE(seen[k]) << "kind " << k << " never generated";
}

// The stock organizations must survive the checker across many random
// configurations. (The CI fuzz job runs far more seeds; this is the
// always-on regression floor.)
TEST(Fuzz, StockOrganizationsRunClean)
{
    for (std::uint64_t s = 1; s <= 20; ++s) {
        check::FuzzCase c = check::randomCase(s, 4000);
        auto fail = check::runCase(c);
        EXPECT_FALSE(fail.has_value())
            << "seed " << s << " (" << c.btb.name() << "):\n"
            << fail->message;
    }
}

TEST(Fuzz, ReproRoundTrips)
{
    ScratchDir dir;
    check::FuzzCase c = check::randomCase(7, 600);
    const std::string path = (dir.path / "case.btbt").string();
    check::writeRepro(c, path);
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(check::reproConfigPath(path)));

    check::FuzzCase back = check::loadRepro(path);
    EXPECT_EQ(back.btb, c.btb);
    ASSERT_EQ(back.insts.size(), c.insts.size());
    for (std::size_t i = 0; i < c.insts.size(); ++i) {
        EXPECT_EQ(back.insts[i].pc, c.insts[i].pc) << "index " << i;
        EXPECT_EQ(back.insts[i].next_pc, c.insts[i].next_pc) << "index " << i;
        EXPECT_EQ(back.insts[i].taken, c.insts[i].taken) << "index " << i;
    }

    // Running the loaded case must agree with the original (both clean).
    EXPECT_FALSE(check::runCase(back).has_value());
}

TEST(Fuzz, LoadReproRejectsMissingSidecar)
{
    ScratchDir dir;
    check::FuzzCase c = check::randomCase(7, 100);
    const std::string path = (dir.path / "case.btbt").string();
    check::writeRepro(c, path);
    std::filesystem::remove(check::reproConfigPath(path));
    EXPECT_THROW(check::loadRepro(path), std::runtime_error);
}

// A sidecar is outside input: a geometry SoaSetTable cannot hold (no
// sets, or more ways than its 32-bit valid mask), a window that would
// overflow the PredictionBundle, or a field out of its counter's range
// must be rejected by name when the repro's BTB is built, not crash or
// run on a bad table.
TEST(Fuzz, ReproWithBadGeometryIsRejectedByName)
{
    ScratchDir dir;
    const std::string path = (dir.path / "case.btbt").string();
    using Set = void (*)(BtbConfig &);
    const struct
    {
        Set set;
        const char *name;
    } cases[] = {
        {[](BtbConfig &b) { b.l1.sets = 0; }, "l1.sets"},
        {[](BtbConfig &b) { b.l1.ways = 40; }, "l1.ways"},
        {[](BtbConfig &b) { b.l2.sets = 0; }, "l2.sets"},
        {[](BtbConfig &b) { b.l2.ways = 0; }, "l2.ways"},
        {[](BtbConfig &b) { b.width = 0; }, "width"},
        {[](BtbConfig &b) { b.width = 100; }, "width"},
        {[](BtbConfig &b) { b.branch_slots = 0; }, "branch_slots"},
        {[](BtbConfig &b) { b.branch_slots = 65; }, "branch_slots"},
        {[](BtbConfig &b) {
             b.kind = BtbKind::kMultiBlock;
             b.branch_slots = 16;
         },
         "branch_slots"},
        {[](BtbConfig &b) {
             b.kind = BtbKind::kRegion;
             b.dual_region = true;
             b.branch_slots = 33;
         },
         "branch_slots"},
        {[](BtbConfig &b) { b.region_bytes = 48; }, "region_bytes"},
        {[](BtbConfig &b) { b.region_bytes = 2; }, "region_bytes"},
        {[](BtbConfig &b) { b.reach_instrs = 0; }, "reach_instrs"},
        {[](BtbConfig &b) { b.stability_threshold = 64; },
         "stability_threshold"},
    };
    for (const auto &bad : cases) {
        check::FuzzCase c = check::randomCase(7, 100);
        c.btb.ideal = false; // An ideal BTB ignores l1/l2.
        bad.set(c.btb);
        check::writeRepro(c, path);

        const check::FuzzCase back = check::loadRepro(path);
        try {
            check::runCase(back);
            ADD_FAILURE() << "bad " << bad.name << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(bad.name),
                      std::string::npos)
                << e.what();
        }
    }
}

// Shrinking a case that does not fail must change nothing but the
// truncation point — the ddmin loop only keeps failing candidates.
TEST(Fuzz, ShrinkOfPassingCaseOnlyTruncates)
{
    check::FuzzCase c = check::randomCase(3, 400);
    ASSERT_FALSE(check::runCase(c).has_value());
    check::FuzzFailure f{99, "synthetic"};
    check::ShrinkResult r = check::shrinkCase(c, f);
    EXPECT_EQ(r.reduced.insts.size(), 100u);
    EXPECT_EQ(r.reduced.btb, c.btb);
    EXPECT_EQ(r.failure.message, "synthetic");
}

// ---- PredictionBundle capacity negative paths ------------------------------

#ifdef NDEBUG
TEST(BundleCapacity, OverflowIsAssertChecked)
{
    GTEST_SKIP() << "capacity asserts compiled out under NDEBUG";
}
#else
using BundleCapacityDeath = ::testing::Test;

TEST(BundleCapacityDeath, SegmentOverflowAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            PredictionBundle b;
            for (unsigned i = 0; i <= PredictionBundle::kMaxSegments; ++i)
                b.addSegment(i * 0x100, i * 0x100 + 0x40);
        },
        "segment overflow");
}

TEST(BundleCapacityDeath, SlotOverflowAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            PredictionBundle b;
            b.addSegment(0, 0x10000);
            for (unsigned i = 0; i <= PredictionBundle::kMaxSlots; ++i)
                b.addSlot(0, i * 4, BranchClass::kCondDirect, 0x100, 1);
        },
        "slot overflow");
}
#endif

// The fill APIs must accept exactly the documented capacities.
TEST(BundleCapacity, FullBundleIsRepresentable)
{
    PredictionBundle b;
    for (unsigned i = 0; i < PredictionBundle::kMaxSegments; ++i)
        b.addSegment(i * 0x100, i * 0x100 + 0x100);
    for (unsigned i = 0; i < PredictionBundle::kMaxSlots; ++i)
        b.addSlot(i % PredictionBundle::kMaxSegments, (i % 16) * 4,
                  BranchClass::kCondDirect, 0x100, 1);
    EXPECT_EQ(b.n_segments, PredictionBundle::kMaxSegments);
    EXPECT_EQ(b.n_slots, PredictionBundle::kMaxSlots);
}
