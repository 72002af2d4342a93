/** @file Tests for the out-of-order backend. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

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
    f.be->allocate(br, now);
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
        f.be->allocate(st, now);
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
    EXPECT_THROW(f.be->allocate(gap, 1), std::logic_error);

    // Past canAllocate(): the 8-slot ring of a 5-entry ROB fills up.
    BackendConfig cfg;
    cfg.rob_size = 5;
    Fixture g(cfg);
    for (int i = 0; i < 8; ++i)
        g.be->allocate(g.alu(), 1);
    EXPECT_THROW(g.be->allocate(g.alu(), 1), std::logic_error);
}

TEST(Backend, RejectsImpossibleConfigsByName)
{
    // Each case breaks one field of the Table-1 backend; the error must
    // name it.
    struct Case
    {
        const char *field;
        void (*mutate)(BackendConfig &);
    };
    const Case cases[] = {
        {"backend.rob_size", [](BackendConfig &c) { c.rob_size = 0; }},
        {"backend.iq_size", [](BackendConfig &c) { c.iq_size = 0; }},
        {"backend.lq_size", [](BackendConfig &c) { c.lq_size = 0; }},
        {"backend.sq_size", [](BackendConfig &c) { c.sq_size = 0; }},
        {"backend.commit_width",
         [](BackendConfig &c) { c.commit_width = 0; }},
        {"backend.issue_width", [](BackendConfig &c) { c.issue_width = 0; }},
        {"backend.misc_ports", [](BackendConfig &c) { c.misc_ports = 0; }},
        {"backend.load_ports", [](BackendConfig &c) { c.load_ports = 0; }},
        {"backend.store_ports", [](BackendConfig &c) { c.store_ports = 0; }},
        {"backend.rob_size",
         [](BackendConfig &c) { c.rob_size = Backend::kMaxRobSize + 1; }},
    };
    MemHier mem;
    for (const Case &k : cases) {
        BackendConfig cfg;
        k.mutate(cfg);
        try {
            Backend be(cfg, mem);
            ADD_FAILURE() << k.field << ": accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
                << e.what();
        }
    }

    // The ideal backend has no ports to size, and the largest ROB the
    // wake lists address constructs.
    BackendConfig ideal = BackendConfig::idealBackend();
    ideal.misc_ports = ideal.load_ports = ideal.store_ports = 0;
    EXPECT_NO_THROW(Backend(ideal, mem));
    BackendConfig max;
    max.rob_size = Backend::kMaxRobSize;
    EXPECT_NO_THROW(Backend(max, mem));
}

namespace {

/**
 * Brute-force reference scheduler: every cycle it scans all un-issued
 * entries in seq order and issues one when each in-flight producer has
 * completed by now and a port and an issue slot are free. Commit,
 * rename and the resteer event follow the backend's documented rules.
 */
class RefBackend
{
  public:
    RefBackend(const BackendConfig &cfg, MemHier &mem) : cfg_(cfg), mem_(mem)
    {}

    bool
    canAllocate() const
    {
        return rob_.size() < cfg_.rob_size && unissued_ < cfg_.iq_size &&
               loads_ < cfg_.lq_size && stores_ < cfg_.sq_size;
    }

    void
    allocate(const DynInst &d, Cycle now)
    {
        Entry e{d};
        e.alloc_cycle = now;
        e.dep1 = d.in.src1 ? last_writer_[d.in.src1] : 0;
        e.dep2 = d.in.src2 ? last_writer_[d.in.src2] : 0;
        if (d.in.dst)
            last_writer_[d.in.dst] = d.seq;
        loads_ += d.in.isLoad();
        stores_ += d.in.isStore();
        ++unissued_;
        rob_.push_back(e);
    }

    void
    runCycle(Cycle now)
    {
        unsigned issued = 0, loads = 0, stores = 0, misc = 0;
        for (Entry &e : rob_) {
            if (issued == cfg_.issue_width)
                break;
            const DynInst &d = e.d;
            if (e.issued || e.alloc_cycle >= now || !done(e.dep1, now) ||
                !done(e.dep2, now))
                continue;
            unsigned &used = d.in.isLoad()    ? loads
                             : d.in.isStore() ? stores
                                              : misc;
            if (used >= (d.in.isLoad()    ? cfg_.load_ports
                         : d.in.isStore() ? cfg_.store_ports
                                          : cfg_.misc_ports))
                continue;
            ++used;
            ++issued;
            e.issued = true;
            --unissued_;
            Cycle lat = 1;
            switch (d.in.cls) {
              case InstClass::kMul:
              case InstClass::kFp:
                lat = 3;
                break;
              case InstClass::kDiv:
                lat = 12;
                break;
              case InstClass::kLoad: {
                const Cycle t = mem_.load(d.in.pc, d.in.mem_addr, now);
                lat = t > now ? t - now : 1;
                break;
              }
              default:
                break;
            }
            max_latency = std::max(max_latency, lat);
            e.complete_cycle = now + lat;
            if (d.resteer == Resteer::kExec)
                resteer_ = e.complete_cycle;
        }
        for (unsigned n = 0; n < cfg_.commit_width && !rob_.empty(); ++n) {
            const DynInst &d = rob_.front().d;
            if (!rob_.front().issued || rob_.front().complete_cycle > now)
                break;
            if (d.in.isStore()) {
                mem_.store(d.in.mem_addr, now);
                --stores_;
            }
            loads_ -= d.in.isLoad();
            rob_.pop_front();
            ++committed_;
        }
    }

    Cycle
    takeExecResteer(Cycle now)
    {
        if (resteer_ == 0 || resteer_ > now)
            return 0;
        return std::exchange(resteer_, 0);
    }

    std::uint64_t committed() const { return committed_; }

    /// Longest execution latency issued so far.
    Cycle max_latency = 0;

  private:
    struct Entry
    {
        DynInst d;
        std::uint64_t dep1 = 0, dep2 = 0; ///< Producer seqs (0 = none).
        Cycle alloc_cycle = 0;
        Cycle complete_cycle = 0;
        bool issued = false;
    };

    bool
    done(std::uint64_t dep, Cycle now) const
    {
        if (dep <= committed_)
            return true;
        const Entry &p = rob_[dep - committed_ - 1];
        return p.issued && p.complete_cycle <= now;
    }

    BackendConfig cfg_;
    MemHier &mem_;
    std::deque<Entry> rob_;
    std::uint64_t committed_ = 0;
    std::uint64_t last_writer_[64] = {};
    unsigned unissued_ = 0, loads_ = 0, stores_ = 0;
    Cycle resteer_ = 0;
};

/** Knobs of one differential stream. */
struct StreamSpec
{
    BackendConfig backend;
    MemConfig mem;
    unsigned alloc_width = 16;   ///< Largest allocation burst.
    std::uint64_t insts = 4000;
    unsigned regs = 16;          ///< Registers drawn from 0..regs-1.
    unsigned cold_lines = 4096;  ///< Distinct load/store lines.
    double load_frac = 0.25;
};

/** Random instruction @p seq: every class, random registers (0 = none,
 *  src1 == src2 now and then) and exec-resteer branches. */
DynInst
randomInst(std::mt19937_64 &rng, const StreamSpec &spec, std::uint64_t seq)
{
    std::uniform_real_distribution<double> u(0.0, 1.0);
    auto reg = [&] {
        return static_cast<std::uint8_t>(rng() % spec.regs);
    };
    DynInst d;
    d.seq = seq;
    d.in = seqAt(0x10000 + seq * 4);
    const double r = u(rng);
    const double rest = (1.0 - spec.load_frac) / 6.0;
    if (r < spec.load_frac) {
        d.in.cls = InstClass::kLoad;
    } else {
        const InstClass others[] = {InstClass::kAlu, InstClass::kMul,
                                    InstClass::kDiv, InstClass::kFp,
                                    InstClass::kStore, InstClass::kBranch};
        d.in.cls = others[std::min<std::size_t>(
            5, static_cast<std::size_t>((r - spec.load_frac) / rest))];
    }
    if (d.in.isLoad() || d.in.isStore())
        d.in.mem_addr = 0x800000 + (rng() % spec.cold_lines) * kLineBytes +
                        (rng() % 8) * 8;
    if (d.in.cls == InstClass::kBranch) {
        d.in.branch = BranchClass::kCondDirect;
        if (u(rng) < 0.3)
            d.resteer = Resteer::kExec;
    } else if (!d.in.isStore()) {
        d.in.dst = reg();
    }
    d.in.src1 = reg();
    d.in.src2 = u(rng) < 0.2 ? d.in.src1 : reg();
    return d;
}

/**
 * Run @p spec's seeded stream through Backend and RefBackend side by
 * side, each on its own MemHier, and require equal committed() and
 * takeExecResteer() on every cycle run. Allocation is bursty and
 * sometimes precedes runCycle in the same cycle, and a few stretches of
 * cycles are skipped. @return the reference's longest execution
 * latency.
 */
Cycle
runDifferential(const StreamSpec &spec, std::uint64_t seed)
{
    if (::testing::Test::HasFailure())
        return 0; // Report only the first diverging stream.
    MemHier mem(spec.mem), ref_mem(spec.mem);
    Backend be(spec.backend, mem);
    RefBackend ref(spec.backend, ref_mem);
    std::mt19937_64 rng(seed);
    std::uint64_t seq = 0;
    Cycle now = 0;
    auto allocateBurst = [&] {
        // Idle, a trickle, or as much as fits.
        const unsigned pick = static_cast<unsigned>(rng() % 4);
        const unsigned burst = pick == 0   ? 0
                               : pick == 1 ? 1 + rng() % 3
                                           : spec.alloc_width;
        for (unsigned n = 0; n < burst && seq < spec.insts; ++n) {
            EXPECT_EQ(be.canAllocate(), ref.canAllocate())
                << "seed " << seed << " cycle " << now;
            if (!be.canAllocate())
                break;
            const DynInst d = randomInst(rng, spec, ++seq);
            ref.allocate(d, now);
            be.allocate(d, now);
        }
    };
    // Stop at the first divergence: later cycles only echo it.
    while (ref.committed() < spec.insts && now < 10'000'000 &&
           !::testing::Test::HasFailure()) {
        // Now and then skip cycles, up to more than a wheel turn.
        now += rng() % 64 == 0 ? 2 + rng() % 300 : 1;
        EXPECT_EQ(be.takeExecResteer(now), ref.takeExecResteer(now))
            << "seed " << seed << " cycle " << now;
        const bool alloc_first = rng() % 8 == 0;
        if (alloc_first)
            allocateBurst();
        be.runCycle(now);
        ref.runCycle(now);
        if (!alloc_first)
            allocateBurst();
        EXPECT_EQ(be.committed(), ref.committed())
            << "seed " << seed << " cycle " << now;
    }
    EXPECT_EQ(be.committed(), spec.insts) << "seed " << seed;
    return ref.max_latency;
}

} // namespace

TEST(Backend, MatchesBruteForceSchedulerOnRandomStreams)
{
    StreamSpec table1; // The Table-1 core.
    StreamSpec small;  // Tight ports and queues, a non-power-of-two ROB.
    small.backend.rob_size = 37;
    small.backend.iq_size = 9;
    small.backend.lq_size = 5;
    small.backend.sq_size = 3;
    small.alloc_width = small.backend.issue_width = 4;
    small.backend.commit_width = 3;
    small.backend.misc_ports = 2;
    small.backend.load_ports = small.backend.store_ports = 1;
    small.regs = 6;
    StreamSpec chained; // Few registers: long dependency chains.
    chained.regs = 4;
    chained.load_frac = 0.4;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        for (const StreamSpec *spec : {&table1, &small, &chained})
            runDifferential(*spec, seed);
}

TEST(Backend, MatchesBruteForceBeyondTheWakeWheel)
{
    // One L1D MSHR and a slow DRAM: cold loads queue behind each other,
    // so their consumers come due more than a wheel turn after issue.
    StreamSpec spec;
    spec.mem.l1d.mshrs = 1;
    spec.mem.dram_latency = 300;
    spec.load_frac = 0.5;
    spec.cold_lines = 1u << 16;
    spec.insts = 800;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        EXPECT_GT(runDifferential(spec, seed), Cycle{Backend::kWheelCycles});
}

TEST(Backend, AllocatedThisCycleIssuesNextCycle)
{
    Fixture f;
    DynInst br = f.alu();
    br.in.cls = InstClass::kBranch;
    br.in.branch = BranchClass::kCondDirect;
    br.resteer = Resteer::kExec;
    f.be->allocate(br, 5);
    f.be->runCycle(5); // Same cycle as the allocation: must not issue.
    EXPECT_EQ(f.be->takeExecResteer(100), 0u);
    f.be->runCycle(6);
    EXPECT_EQ(f.be->takeExecResteer(100), 7u); // Issued at 6, 1 cycle.
}
