/**
 * @file
 * Behavior-preservation regression test for the BTB↔frontend protocol.
 *
 * Runs every organization (plus the protocol edge cases: I-BTB Skp
 * chaining, dual-region R-BTB, B-BTB splitting, MB-BTB pulled slots with
 * end-on-not-taken and chain seams, ideal mode) over a fixed synthetic
 * workload and digests the integral SimStats counters with SHA-256. The
 * digests below were captured from the pre-bundle step()/chainTaken()
 * protocol; the PredictionBundle walker must reproduce them bit for bit.
 *
 * On mismatch the test prints the full counter dump so the diverging
 * counter is immediately visible. Regenerate a golden only for a change
 * that is *supposed* to alter simulated behavior — never for a refactor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "exp/sha256.h"
#include "sim/cpu.h"
#include "trace/generator.h"
#include "trace/synthetic_trace.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

using namespace btbsim;

namespace {

constexpr std::uint64_t kWarmup = 20'000;
constexpr std::uint64_t kMeasure = 120'000;

const Program &
goldenProgram()
{
    static const Program prog = [] {
        GenParams p;
        p.seed = 0xB7B5EED;
        p.target_static_insts = 96 * 1024;
        p.num_handlers = 12;
        return generateProgram(p);
    }();
    return prog;
}

/**
 * Canonical serialization of the run's integral counters. Doubles that
 * are not integral (e.g. the FTQ occupancy running mean) are excluded so
 * the digest stays stable across compilers and optimization levels;
 * every protocol-relevant statistic is an integer count.
 */
std::string
canonicalCounters(const SimStats &s)
{
    std::string out;
    out += "instructions=" + std::to_string(s.instructions) + "\n";
    out += "cycles=" + std::to_string(s.cycles) + "\n";
    for (const auto &[key, value] : s.counters) {
        if (std::nearbyint(value) != value)
            continue;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.0f", value);
        out += key;
        out += "=";
        out += buf;
        out += "\n";
    }
    return out;
}

/**
 * A denser program than goldenProgram(): short straight-line runs and
 * more always-taken ifs and jumps put a second branch in many blocks, so
 * one-slot block entries displace often. Blocks still end at their first
 * always-taken branch, so two-slot entries here rarely fill.
 */
const Program &
denseProgram()
{
    static const Program prog = [] {
        GenParams p;
        p.seed = 0xD3B5EED;
        p.target_static_insts = 96 * 1024;
        p.num_handlers = 12;
        p.mean_block_len = 4.0;
        p.w_always_if = 0.25;
        p.w_jump = 0.12;
        return generateProgram(p);
    }();
    return prog;
}

/** The integral counters of @p cfg run over @p prog (trace seed 7). */
std::string
runCanon(const CpuConfig &cfg, const Program &prog = goldenProgram())
{
    SyntheticTrace trace(prog, 7);
    Cpu cpu(cfg, trace);
    cpu.run(kWarmup, kMeasure);
    return canonicalCounters(cpu.stats());
}

CpuConfig
withBtb(const BtbConfig &btb)
{
    CpuConfig cfg;
    cfg.btb = btb;
    return cfg;
}

std::string
runDigest(const CpuConfig &cfg, const Program &prog = goldenProgram())
{
    return exp::Sha256::hexDigest(runCanon(cfg, prog));
}

std::string
runDigest(const BtbConfig &btb)
{
    return runDigest(withBtb(btb));
}

void
expectGolden(const CpuConfig &cfg, const std::string &golden,
             const Program &prog = goldenProgram())
{
    const std::string canon = runCanon(cfg, prog);
    EXPECT_EQ(exp::Sha256::hexDigest(canon), golden)
        << "SimStats diverged for " << cfg.btb.name() << "\n"
        << "counter dump:\n"
        << canon;
}

void
expectGolden(const BtbConfig &btb, const std::string &golden)
{
    expectGolden(withBtb(btb), golden);
}

/**
 * The golden workload recorded as a `.btbt` file, once per process. The
 * recording carries a frontend-slack margin beyond warmup + measure so
 * replay never wraps (a wrap rewrites the seam instruction and would
 * change the stream).
 */
const std::string &
goldenRecording()
{
    static const std::string path = [] {
        const auto dir = std::filesystem::temp_directory_path() /
                         ("btbsim-golden-" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
        const std::string p = (dir / "golden.btbt").string();
        SyntheticTrace live(goldenProgram(), 7);
        traceio::TraceWriter w(p, "golden", &goldenProgram());
        constexpr std::uint64_t kRecorded = kWarmup + kMeasure + 96 * 1024;
        for (std::uint64_t i = 0; i < kRecorded; ++i)
            w.append(live.next());
        w.finish();
        return p;
    }();
    return path;
}

/** The replay path must reproduce the live-source digest bit for bit:
 *  same golden constants, delivered through TraceReplaySource. */
void
expectGoldenReplay(const BtbConfig &btb, const std::string &golden)
{
    CpuConfig cfg;
    cfg.btb = btb;
    traceio::TraceReplaySource trace(goldenRecording());
    Cpu cpu(cfg, trace);
    cpu.run(kWarmup, kMeasure);
    EXPECT_EQ(trace.wraps(), 0u) << "recording margin too small";
    const std::string canon = canonicalCounters(cpu.stats());
    const std::string digest = exp::Sha256::hexDigest(canon);
    EXPECT_EQ(digest, golden)
        << "replayed SimStats diverged for " << btb.name() << "\n"
        << "counter dump:\n"
        << canon;
}

/** B-BTB 2BS with Yeh/Patt-style blocks: taken conditionals end the
 *  block too (the CndEnd truncation). */
BtbConfig
condEndsBlock()
{
    BtbConfig c = BtbConfig::bbtb(2);
    c.cond_ends_block = true;
    return c;
}

/** I-BTB 16 whose L1 is a single 2-way set: every window PC collides in
 *  it, so each probe-time lookup's L2-to-L1 fill can evict the entry a
 *  later slot of the same window would have hit. */
BtbConfig
collidingIbtb()
{
    BtbConfig c = BtbConfig::ibtb(16);
    c.l1 = {1, 2};
    return c;
}

/** Fig. 11a's pair: idealistic 512K-entry BTBs on the ideal backend. */
CpuConfig
idealBackendIbtb()
{
    BtbConfig btb = BtbConfig::ibtb(16);
    btb.makeIdeal();
    return withBtb(btb).withIdealBackend();
}

CpuConfig
idealBackendMbbtb()
{
    return withBtb(BtbConfig::mbbtb(3, PullPolicy::kAllBr, 64).makeIdeal())
        .withIdealBackend();
}

} // namespace

TEST(GoldenStats, InstructionBtb)
{
    expectGolden(BtbConfig::ibtb(16), "0c9ec7760d28f0ab6d1ad55ebe5698519c1892f7f2b3797b14797692d02c1138");
}

TEST(GoldenStats, InstructionBtbSkip)
{
    expectGolden(BtbConfig::ibtb(16, /*skip=*/true), "e5dfef3d24bab47eb531ac7f9237c7ddf73e509819d135b447389875798709f0");
}

TEST(GoldenStats, InstructionBtbIdeal)
{
    BtbConfig c = BtbConfig::ibtb(16);
    c.makeIdeal();
    expectGolden(c, "404410eee2c131060c7c17258eb9bd256cc0ab14406166d8f43c6b2e66c0f016");
}

TEST(GoldenStats, InstructionBtbCollidingL1)
{
    expectGolden(collidingIbtb(), "8e201cb65ee6fbf7d300f02d4a5641c26198a3b3bd2e66b51688f8d97e5a0a51");
}

TEST(GoldenStats, RegionBtb)
{
    expectGolden(BtbConfig::rbtb(3), "e65578889b508987aa3111d06a7f1660b11aa8e88976953b870467223547a183");
}

TEST(GoldenStats, RegionBtbDual)
{
    expectGolden(BtbConfig::rbtb(2, 64, /*dual=*/true), "7e5969e6f90bbd122609d2fba1bebfffb3d5358823ab5244fc5ede2db8020879");
}

TEST(GoldenStats, BlockBtb)
{
    expectGolden(BtbConfig::bbtb(2), "0d4186b21ec1c9cc92de8c039b520b6a8ec3e9bdcef2d57ed03a5a1b94adf0de");
}

TEST(GoldenStats, BlockBtbSplit)
{
    expectGolden(BtbConfig::bbtb(1, /*split=*/true), "cfc4f36d6a5231c037ae13ffacd47e7d2facd179b927f34f68772dfe9619445e");
}

TEST(GoldenStats, BlockBtbCondEndsBlock)
{
    expectGolden(condEndsBlock(), "a64775d33cf981716841a35d391a8bb835812ab199dd807d1a3b40ba69185f27");
}

TEST(GoldenStats, MultiBlockBtbAllBr)
{
    expectGolden(BtbConfig::mbbtb(3, PullPolicy::kAllBr), "30358f709265c666fa32e68014beb1f39faf5b7d26cc7ed6d51cf8d6148ccf78");
}

TEST(GoldenStats, MultiBlockBtbCallDir32)
{
    expectGolden(BtbConfig::mbbtb(2, PullPolicy::kCallDir, 32),
                 "b16f8ea7909183d95364cc3d340ff5c0d6b9c58a9b8bc1f6308787060c76a789");
}

TEST(GoldenStats, HeteroBtb)
{
    expectGolden(BtbConfig::hetero(2, /*split=*/true), "915e3f03dfbab451c1de96299165510e1e5469a52e65063bb986aae473e2c5b0");
}

TEST(GoldenStats, HeteroBtbNoSplit)
{
    expectGolden(BtbConfig::hetero(2, /*split=*/false), "ffaa51aa84c78c500ece0c88d6fe818fa5f4b8d49106ecfdd6d8afb12e60bf18");
}

TEST(GoldenStats, IdealBackendInstructionBtb)
{
    expectGolden(idealBackendIbtb(), "d7667370273dd1cb1cd8c13db7e81f63c053677e1fa5fe0f7dbb513b202b6792");
}

TEST(GoldenStats, IdealBackendMultiBlockBtb)
{
    expectGolden(idealBackendMbbtb(), "6acc1b50cc5493e3c77cd4ee8224818a06363e09c3eb0138a50f52f6103d79b7");
}

// ---- dense program (several taken branches per block) ---------------------

TEST(GoldenStats, DenseHeteroBtbNoSplit)
{
    expectGolden(withBtb(BtbConfig::hetero(1, /*split=*/false)),
                 "1b8494914204d51c0ee966345d070f0f78c88971849505d05439f88deba2f4a1",
                 denseProgram());
}

TEST(GoldenStats, DenseBlockBtb)
{
    expectGolden(withBtb(BtbConfig::bbtb(1)),
                 "a50ce9b32e242e79fe0b45ce99439061345e42fd8b649ffecb59a1f26b407277",
                 denseProgram());
}

TEST(GoldenStats, DenseMultiBlockBtbAllBr)
{
    expectGolden(withBtb(BtbConfig::mbbtb(3, PullPolicy::kAllBr)),
                 "fd3602a444829b50c8df9befbafb461ffa38444c32903203dfcf5b97cc49e5c7",
                 denseProgram());
}

// ---- replay path (TraceReplaySource must be stream-identical) -------------
// One test per organization kind, against the same golden constants as
// the live-source tests above.

TEST(GoldenStatsReplay, InstructionBtb)
{
    expectGoldenReplay(BtbConfig::ibtb(16), "0c9ec7760d28f0ab6d1ad55ebe5698519c1892f7f2b3797b14797692d02c1138");
}

TEST(GoldenStatsReplay, RegionBtb)
{
    expectGoldenReplay(BtbConfig::rbtb(3), "e65578889b508987aa3111d06a7f1660b11aa8e88976953b870467223547a183");
}

TEST(GoldenStatsReplay, BlockBtb)
{
    expectGoldenReplay(BtbConfig::bbtb(2), "0d4186b21ec1c9cc92de8c039b520b6a8ec3e9bdcef2d57ed03a5a1b94adf0de");
}

TEST(GoldenStatsReplay, MultiBlockBtb)
{
    expectGoldenReplay(BtbConfig::mbbtb(3, PullPolicy::kAllBr),
                       "30358f709265c666fa32e68014beb1f39faf5b7d26cc7ed6d51cf8d6148ccf78");
}

TEST(GoldenStatsReplay, HeteroBtb)
{
    expectGoldenReplay(BtbConfig::hetero(2, /*split=*/true),
                       "915e3f03dfbab451c1de96299165510e1e5469a52e65063bb986aae473e2c5b0");
}

/** Utility: prints every golden digest (run with --gtest_also_run_disabled_tests
 *  to regenerate after an intentional behavior change). */
TEST(GoldenStats, DISABLED_PrintDigests)
{
    std::printf("IBTB16          %s\n", runDigest(BtbConfig::ibtb(16)).c_str());
    std::printf("IBTB16SKP       %s\n",
                runDigest(BtbConfig::ibtb(16, true)).c_str());
    BtbConfig ideal = BtbConfig::ibtb(16);
    ideal.makeIdeal();
    std::printf("IBTB16IDEAL     %s\n", runDigest(ideal).c_str());
    std::printf("IBTB16L1COLLIDE %s\n", runDigest(collidingIbtb()).c_str());
    std::printf("RBTB3           %s\n", runDigest(BtbConfig::rbtb(3)).c_str());
    std::printf("RBTB2DUAL       %s\n",
                runDigest(BtbConfig::rbtb(2, 64, true)).c_str());
    std::printf("BBTB2           %s\n", runDigest(BtbConfig::bbtb(2)).c_str());
    std::printf("BBTB1SPLIT      %s\n",
                runDigest(BtbConfig::bbtb(1, true)).c_str());
    std::printf("BBTB2CNDEND     %s\n", runDigest(condEndsBlock()).c_str());
    std::printf("MBBTB3ALLBR     %s\n",
                runDigest(BtbConfig::mbbtb(3, PullPolicy::kAllBr)).c_str());
    std::printf("MBBTB2CALLDIR32 %s\n",
                runDigest(BtbConfig::mbbtb(2, PullPolicy::kCallDir, 32)).c_str());
    std::printf("HETERO2         %s\n",
                runDigest(BtbConfig::hetero(2, true)).c_str());
    std::printf("HETERO2NOSPLIT  %s\n",
                runDigest(BtbConfig::hetero(2, false)).c_str());
    std::printf("IBTB16IDEALBE   %s\n", runDigest(idealBackendIbtb()).c_str());
    std::printf("MBBTB64IDEALBE  %s\n", runDigest(idealBackendMbbtb()).c_str());
    std::printf("DENSEHETERO1    %s\n",
                runDigest(withBtb(BtbConfig::hetero(1, false)), denseProgram())
                    .c_str());
    std::printf("DENSEBBTB1      %s\n",
                runDigest(withBtb(BtbConfig::bbtb(1)), denseProgram()).c_str());
    std::printf("DENSEMBBTB3     %s\n",
                runDigest(withBtb(BtbConfig::mbbtb(3, PullPolicy::kAllBr)),
                          denseProgram())
                    .c_str());
}
