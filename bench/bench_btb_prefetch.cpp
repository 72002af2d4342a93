/**
 * @file
 * Decode-based BTB prefill extension (Section 7.3, Boomerang-style): on
 * every L1I miss the incoming line is predecoded and its direct
 * unconditional branches/calls are inserted into the BTB, shrinking the
 * misfetch rate of organizations whose entries are not tied to dynamic
 * blocks (I-BTB, R-BTB; block organizations ignore prefill, matching the
 * paper's remark that decode-based prefetching cannot chain blocks).
 */

#include <cmath>
#include <cstdio>

#include "bench_common.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Extension — decode-based BTB prefill",
                        "Section 7.3 (BTB prefetching)");

    std::vector<CpuConfig> configs;
    std::vector<std::string> suffixes;
    for (const BtbConfig &btb : {BtbConfig::ibtb(16), BtbConfig::rbtb(3),
                                 BtbConfig::hetero(1, true)}) {
        for (bool prefill : {false, true}) {
            CpuConfig cfg;
            cfg.btb = btb;
            cfg.btb_predecode_fill = prefill;
            configs.push_back(cfg);
            suffixes.push_back(prefill ? " +pf" : "");
        }
    }
    const ResultSet rs = runAll(ctx, configs, suffixes);

    std::printf("%-24s %9s %9s %9s %9s\n", "config", "IPC(gm)", "MFPKI",
                "MPKI", "L1hit%");
    std::printf("%s\n", std::string(64, '-').c_str());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string name = configs[i].btb.name() + suffixes[i];
        double ipc = 1.0, mf = 0, mp = 0, hit = 0;
        for (const WorkloadSpec &spec : ctx.suite) {
            const SimStats *s = rs.find(name, spec.name);
            if (!s)
                continue; // Failed point; finish() reports it.
            ipc *= s->ipc;
            mf += s->misfetch_pki;
            mp += s->branch_mpki;
            hit += s->l1_btb_hitrate;
        }
        const double n = static_cast<double>(ctx.suite.size());
        std::printf("%-24s %9.3f %9.2f %9.2f %9.1f\n", name.c_str(),
                    std::pow(ipc, 1.0 / n), mf / n, mp / n,
                    100.0 * hit / n);
    }
    std::printf("\n");

    exportResults(rs, "");

    expectation(
        "Prefill removes most cold/capacity misfetches on unconditional "
        "branches and calls for the I-BTB and R-BTB (and feeds the "
        "heterogeneous hierarchy's region L2 directly); conditional and "
        "indirect-branch mispredictions are untouched, so the IPC gain "
        "tracks the misfetch share of the resteer mix.");
    return bench::finish();
}
