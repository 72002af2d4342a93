/** @file Tests for the synthetic trace interpreter. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "trace/generator.h"
#include "trace/synthetic_trace.h"

using namespace btbsim;

namespace {

Program
makeProgram(std::uint64_t seed = 1)
{
    GenParams p;
    p.seed = seed;
    p.target_static_insts = 8 * 1024;
    p.num_handlers = 4;
    return generateProgram(p);
}

} // namespace

TEST(SyntheticTrace, ControlFlowIsConsistent)
{
    const Program prog = makeProgram();
    SyntheticTrace t(prog, 7);
    Addr expected = 0;
    for (int i = 0; i < 200000; ++i) {
        const Instruction &in = t.next();
        if (expected != 0) {
            ASSERT_EQ(in.pc, expected) << "discontinuity at step " << i;
        }
        // next_pc must be the fall-through unless taken.
        if (!in.taken) {
            ASSERT_EQ(in.next_pc, in.pc + kInstBytes);
        }
        expected = in.next_pc;
    }
}

TEST(SyntheticTrace, DeterministicAndResettable)
{
    const Program prog = makeProgram();
    SyntheticTrace a(prog, 7), b(prog, 7);
    std::vector<Addr> first;
    for (int i = 0; i < 10000; ++i)
        first.push_back(a.next().pc);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(b.next().pc, first[i]);
    a.reset();
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(a.next().pc, first[i]);
}

TEST(SyntheticTrace, CallsAndReturnsBalance)
{
    const Program prog = makeProgram();
    SyntheticTrace t(prog, 3);
    std::int64_t depth = 0;
    std::int64_t max_depth = 0;
    for (int i = 0; i < 500000; ++i) {
        const Instruction &in = t.next();
        if (isCall(in.branch))
            ++depth;
        if (in.branch == BranchClass::kReturn)
            --depth;
        max_depth = std::max(max_depth, depth);
        ASSERT_GE(depth, 0) << "return without call";
    }
    EXPECT_GT(max_depth, 2);
    EXPECT_LT(max_depth, 64) << "RAS would overflow constantly";
}

TEST(SyntheticTrace, ReturnsGoBackToCallSite)
{
    const Program prog = makeProgram();
    SyntheticTrace t(prog, 3);
    std::vector<Addr> stack;
    for (int i = 0; i < 500000; ++i) {
        const Instruction &in = t.next();
        if (isCall(in.branch))
            stack.push_back(in.pc + kInstBytes);
        if (in.branch == BranchClass::kReturn) {
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(in.next_pc, stack.back());
            stack.pop_back();
        }
    }
}

TEST(SyntheticTrace, DirectBranchTargetsAreStable)
{
    const Program prog = makeProgram();
    SyntheticTrace t(prog, 3);
    std::map<Addr, Addr> seen;
    for (int i = 0; i < 300000; ++i) {
        const Instruction &in = t.next();
        if (isDirect(in.branch) && in.taken) {
            auto [it, fresh] = seen.emplace(in.pc, in.next_pc);
            if (!fresh) {
                ASSERT_EQ(it->second, in.next_pc)
                    << "direct branch changed target";
            }
        }
    }
}

TEST(SyntheticTrace, UnconditionalsAlwaysTaken)
{
    const Program prog = makeProgram();
    SyntheticTrace t(prog, 5);
    for (int i = 0; i < 300000; ++i) {
        const Instruction &in = t.next();
        if (isBranch(in.branch) && in.branch != BranchClass::kCondDirect) {
            ASSERT_TRUE(in.taken);
        }
    }
}

TEST(SyntheticTrace, MemoryAddressesWithinStreams)
{
    const Program prog = makeProgram();
    SyntheticTrace t(prog, 5);
    for (int i = 0; i < 200000; ++i) {
        const Instruction &in = t.next();
        if (in.mem_addr != 0) {
            bool inside = false;
            for (const MemStream &s : prog.streams)
                inside |= (in.mem_addr >= s.base &&
                           in.mem_addr < s.base + s.footprint);
            ASSERT_TRUE(inside);
        }
    }
}

TEST(SyntheticTrace, LoopTripCountsRespected)
{
    // A tiny hand-built program: loop with fixed 4 trips.
    Program prog;
    prog.name = "loop4";
    CondBehavior loop;
    loop.kind = CondBehavior::Kind::kLoop;
    loop.min_trips = loop.max_trips = 4;
    prog.conds.push_back(loop);

    // 0: alu ; 1: backedge to 0 ; 2: jump to 0 (outer restart)
    StaticInst alu;
    StaticInst backedge;
    backedge.cls = InstClass::kBranch;
    backedge.branch = BranchClass::kCondDirect;
    backedge.target = 0;
    backedge.behavior = 0;
    StaticInst restart;
    restart.cls = InstClass::kBranch;
    restart.branch = BranchClass::kUncondDirect;
    restart.target = 0;
    prog.insts = {alu, backedge, restart};
    prog.entries = {0};
    prog.entry_weights = {1.0};
    ASSERT_EQ(prog.validate(), "");

    SyntheticTrace t(prog, 1);
    // Expect pattern: (alu, backedge-taken) x3, (alu, backedge-NT), restart.
    for (int outer = 0; outer < 10; ++outer) {
        for (int trip = 0; trip < 4; ++trip) {
            ASSERT_EQ(t.next().pc, prog.pcOf(0));
            const Instruction &b = t.next();
            ASSERT_EQ(b.pc, prog.pcOf(1));
            if (trip < 3)
                ASSERT_TRUE(b.taken) << "outer " << outer << " trip " << trip;
            else
                ASSERT_FALSE(b.taken);
        }
        ASSERT_EQ(t.next().pc, prog.pcOf(2)); // restart jump
    }
}
