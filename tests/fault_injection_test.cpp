/**
 * @file
 * Mutation smoke for the differential checker: each compiled-in fault
 * point (check/fault.h) corrupts one organization's update or lookup
 * path; the fuzzer must find the corruption, shrink it to a tiny repro,
 * and the repro must round-trip and stay failing. Meaningful only in builds
 * configured with -DBTBSIM_FAULT_POINTS=ON (the CI fuzz-smoke job);
 * elsewhere every test skips.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "check/fault.h"
#include "check/fuzz.h"
#include "env_util.h"

using namespace btbsim;

namespace {

#ifdef BTBSIM_FAULT_POINTS
constexpr bool kFaultsCompiled = true;
#else
constexpr bool kFaultsCompiled = false;
#endif

/** Fuzz with @p point armed until a failure is found, then shrink and
 *  validate the whole repro pipeline. */
void
mutationSmoke(const char *point)
{
    if (!kFaultsCompiled)
        GTEST_SKIP() << "build has no fault points (-DBTBSIM_FAULT_POINTS=ON)";
    test::ScopedEnv arm("BTBSIM_FAULT", point);
    ASSERT_TRUE(check::faultArmed(point));

    std::optional<check::FuzzFailure> fail;
    check::FuzzCase failing;
    for (std::uint64_t seed = 1; seed <= 64 && !fail; ++seed) {
        failing = check::randomCase(seed, 20000);
        fail = check::runCase(failing);
    }
    ASSERT_TRUE(fail.has_value())
        << "checker missed the " << point << " corruption over 64 seeds";

    check::ShrinkResult r = check::shrinkCase(failing, *fail);
    EXPECT_LE(r.reduced.insts.size(), 1000u)
        << "shrunk repro for " << point << " is not minimal";
    EXPECT_TRUE(check::runCase(r.reduced).has_value());

    // Shrinking is deterministic, so a second pass is a fixpoint.
    check::ShrinkResult again = check::shrinkCase(r.reduced, r.failure);
    EXPECT_EQ(again.reduced.insts.size(), r.reduced.insts.size());
    EXPECT_EQ(again.reduced.btb, r.reduced.btb);

    // The repro must survive a disk round trip and still fail armed.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("btbsim-fault-" + std::string(point) + "-" +
                      std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "repro.btbt").string();
    check::writeRepro(r.reduced, path);
    check::FuzzCase loaded = check::loadRepro(path);
    EXPECT_TRUE(check::runCase(loaded).has_value())
        << "loaded repro no longer fails for " << point;
    std::filesystem::remove_all(dir);
}

} // namespace

// Unarmed builds must never execute a fault, compiled in or not.
TEST(FaultInjection, UnarmedFaultsAreInert)
{
    test::ScopedEnv off("BTBSIM_FAULT", nullptr);
    EXPECT_FALSE(check::faultArmed("ibtb_update_target"));
    check::FuzzCase c = check::randomCase(5, 3000);
    EXPECT_FALSE(check::runCase(c).has_value());
}

TEST(FaultInjection, ArmingIsPerPoint)
{
    test::ScopedEnv arm("BTBSIM_FAULT", "ibtb_update_target");
    EXPECT_TRUE(check::faultArmed("ibtb_update_target"));
    EXPECT_FALSE(check::faultArmed("rbtb_update_target"));
}

TEST(FaultInjection, CatchesIbtbUpdateTarget)
{
    mutationSmoke("ibtb_update_target");
}

TEST(FaultInjection, CatchesIbtbProbeLevel)
{
    mutationSmoke("ibtb_probe_level");
}

TEST(FaultInjection, CatchesRbtbUpdateTarget)
{
    mutationSmoke("rbtb_update_target");
}

TEST(FaultInjection, CatchesBbtbUpdateTarget)
{
    mutationSmoke("bbtb_update_target");
}

TEST(FaultInjection, CatchesMbbtbPullSeam)
{
    mutationSmoke("mbbtb_pull_seam");
}
