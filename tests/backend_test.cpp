/** @file Tests for the out-of-order backend. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "backend/backend.h"
#include "trace_util.h"

using namespace btbsim;
using namespace btbsim::test;

namespace {

struct Fixture
{
    MemHier mem;
    BackendConfig cfg;
    std::unique_ptr<Backend> be;

    explicit Fixture(BackendConfig c = {}) : cfg(c)
    {
        be = std::make_unique<Backend>(cfg, mem);
    }

    std::uint64_t seq = 0;

    DynInst
    alu(std::uint8_t dst = 0, std::uint8_t src = 0)
    {
        DynInst d;
        d.in = seqAt(0x1000 + seq * 4);
        d.in.cls = InstClass::kAlu;
        d.in.dst = dst;
        d.in.src1 = src;
        d.seq = ++seq;
        return d;
    }

    DynInst
    load(Addr addr, std::uint8_t dst)
    {
        DynInst d = alu(dst);
        d.in.cls = InstClass::kLoad;
        d.in.mem_addr = addr;
        return d;
    }

    void
    drain(Cycle &now, std::uint64_t target)
    {
        while (be->committed() < target && now < 100000)
            be->runCycle(++now);
    }
};

} // namespace

TEST(Backend, IndependentInstructionsCommitWide)
{
    Fixture f;
    Cycle now = 1;
    for (int i = 0; i < 32; ++i)
        f.be->allocate(f.alu(), now);
    f.drain(now, 32);
    EXPECT_EQ(f.be->committed(), 32u);
    // 32 independent ALUs at 16-wide issue: a handful of cycles.
    EXPECT_LE(now, 8u);
}

TEST(Backend, DependencyChainSerializes)
{
    Fixture f;
    Cycle now = 1;
    // r1 <- r1 chain of 16.
    for (int i = 0; i < 16; ++i)
        f.be->allocate(f.alu(1, 1), now);
    f.drain(now, 16);
    EXPECT_GE(now, 16u); // one per cycle at best
}

TEST(Backend, LoadLatencyDelaysDependents)
{
    Fixture f;
    Cycle now = 1;
    f.be->allocate(f.load(0x100000, 1), now); // cold: DRAM latency
    f.be->allocate(f.alu(2, 1), now);         // consumes the load
    f.drain(now, 2);
    EXPECT_GT(now, 100u);
}

TEST(Backend, LoadPortsLimitIssue)
{
    Fixture f;
    // Warm the cache line so loads are short.
    f.mem.l1d().access(0x200000, 0);
    Cycle now = 10;
    for (int i = 0; i < 9; ++i)
        f.be->allocate(f.load(0x200000, 0), now);
    // 9 independent loads, 3 load ports -> at least 3 issue cycles.
    Cycle start = now;
    f.drain(now, 9);
    EXPECT_GE(now - start, 3u);
}

TEST(Backend, RobCapacityGatesAllocate)
{
    BackendConfig cfg;
    cfg.rob_size = 8;
    Fixture f(cfg);
    Cycle now = 1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(f.be->canAllocate());
        f.be->allocate(f.alu(), now);
    }
    EXPECT_FALSE(f.be->canAllocate());
    f.drain(now, 1);
    EXPECT_TRUE(f.be->canAllocate());
}

TEST(Backend, ExecResteerFiresAtCompletion)
{
    Fixture f;
    Cycle now = 1;
    DynInst br = f.alu();
    br.in.cls = InstClass::kBranch;
    br.in.branch = BranchClass::kCondDirect;
    br.resteer = Resteer::kExec;
    f.be->allocate(std::move(br), now);
    EXPECT_EQ(f.be->takeExecResteer(now), 0u); // not yet issued
    f.be->runCycle(++now);
    const Cycle fired = f.be->takeExecResteer(now + 1);
    EXPECT_GT(fired, 0u);
    // Event consumed.
    EXPECT_EQ(f.be->takeExecResteer(now + 2), 0u);
}

TEST(Backend, InOrderCommit)
{
    Fixture f;
    Cycle now = 1;
    f.be->allocate(f.load(0x300000, 1), now); // slow head
    for (int i = 0; i < 10; ++i)
        f.be->allocate(f.alu(), now);
    // Run a few cycles: nothing commits while the head load is in flight.
    for (int i = 0; i < 20; ++i)
        f.be->runCycle(++now);
    EXPECT_EQ(f.be->committed(), 0u);
    f.drain(now, 11);
    EXPECT_EQ(f.be->committed(), 11u);
}

TEST(Backend, IdealModeDataflowLimited)
{
    Fixture real;
    Fixture ideal{BackendConfig::idealBackend()};
    Cycle now_r = 1, now_i = 1;
    for (int i = 0; i < 64; ++i) {
        real.be->allocate(real.alu(1, 1), now_r);
        ideal.be->allocate(ideal.alu(1, 1), now_i);
    }
    real.drain(now_r, 64);
    ideal.drain(now_i, 64);
    // A serial chain is one-per-cycle in both cases.
    EXPECT_GE(now_i, 64u);
    // But loads are unit latency in ideal mode.
    Fixture ideal2{BackendConfig::idealBackend()};
    Cycle now2 = 1;
    ideal2.be->allocate(ideal2.load(0x500000, 1), now2);
    ideal2.be->allocate(ideal2.alu(2, 1), now2);
    ideal2.drain(now2, 2);
    EXPECT_LT(now2, 10u);
}

TEST(Backend, StoresRetireThroughSq)
{
    BackendConfig cfg;
    cfg.sq_size = 2;
    Fixture f(cfg);
    Cycle now = 1;
    for (int i = 0; i < 2; ++i) {
        DynInst st = f.alu();
        st.in.cls = InstClass::kStore;
        st.in.mem_addr = 0x400000;
        ASSERT_TRUE(f.be->canAllocate());
        f.be->allocate(std::move(st), now);
    }
    EXPECT_FALSE(f.be->canAllocate()); // SQ full
    f.drain(now, 2);
    EXPECT_TRUE(f.be->canAllocate());
}

TEST(Backend, NonPowerOfTwoRobRing)
{
    // The ROB ring rounds up to 8 slots; occupancy must still cap at 5.
    BackendConfig cfg;
    cfg.rob_size = 5;
    Fixture f(cfg);
    Cycle now = 1;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(f.be->canAllocate());
        f.be->allocate(f.alu(1, 1), now);
    }
    EXPECT_FALSE(f.be->canAllocate());

    // Feed a serial r1 <- r1 chain far longer than the ring: every
    // producer is found at its slot and the chain commits one per cycle.
    constexpr std::uint64_t kChain = 64;
    std::uint64_t last = 0;
    while (f.be->committed() < kChain && now < 1000) {
        f.be->runCycle(++now);
        ASSERT_LE(f.be->committed(), last + 1);
        last = f.be->committed();
        while (f.seq < kChain && f.be->canAllocate())
            f.be->allocate(f.alu(1, 1), now);
    }
    EXPECT_EQ(f.be->committed(), kChain);
    EXPECT_EQ(now, 66u);
}

TEST(Backend, AllocateChecksRingInvariants)
{
    Fixture f;
    f.be->allocate(f.alu(), 1);
    DynInst gap = f.alu();
    ++gap.seq; // Seq 3 after seq 1.
    EXPECT_THROW(f.be->allocate(std::move(gap), 1), std::logic_error);

    // Past canAllocate(): the 8-slot ring of a 5-entry ROB fills up.
    BackendConfig cfg;
    cfg.rob_size = 5;
    Fixture g(cfg);
    for (int i = 0; i < 8; ++i)
        g.be->allocate(g.alu(), 1);
    EXPECT_THROW(g.be->allocate(g.alu(), 1), std::logic_error);
}
