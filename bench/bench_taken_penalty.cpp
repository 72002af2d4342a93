/**
 * @file
 * Introduction / Section 3.6.1 limit study: cost of a 1-cycle taken-branch
 * penalty with a very large (512K-entry) I-BTB. The paper reports 0.8%
 * geomean IPC loss (up to 2.2%).
 */

#include <cstdio>

#include "bench_common.h"
#include "common/stats.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Limit study — 1-cycle taken-branch penalty",
                        "Section 1 / Section 3.6.1");

    CpuConfig zero = idealIbtb16();

    // Same huge BTB, but every taken branch costs one bubble: model by
    // giving the single (L1) level a miss-free backing with penalty via
    // the L2 path: route all hits through a 1-cycle-penalty level.
    CpuConfig one = idealIbtb16();
    one.btb.ideal = false;
    one.btb.l1 = {1, 1};          // effectively always miss L1
    one.btb.l2 = {16384, 32};     // huge second level
    one.btb.l2_penalty = 1;       // 1-cycle taken-branch bubble

    // Tag the penalized runs: their BTB name alone reads as the
    // realistic I-BTB 16.
    const ResultSet rs = runAll(ctx, {zero, one}, {"", " 1c-taken"});

    std::vector<double> ratios;
    std::printf("%-12s %10s %10s %10s\n", "workload", "IPC 0c", "IPC 1c",
                "loss%%");
    std::printf("%s\n", std::string(46, '-').c_str());
    for (const WorkloadSpec &spec : ctx.suite) {
        const SimStats *a = rs.find(zero.btb.name(), spec.name);
        const SimStats *b = rs.find(one.btb.name() + " 1c-taken", spec.name);
        if (!a || !b)
            continue; // Failed point; finish() reports it.
        ratios.push_back(b->ipc / a->ipc);
        std::printf("%-12s %10.3f %10.3f %9.2f%%\n", spec.name.c_str(),
                    a->ipc, b->ipc, 100.0 * (1.0 - b->ipc / a->ipc));
    }
    std::printf("%-12s %21s %9.2f%%  (max %.2f%%)\n\n", "geomean", "",
                100.0 * (1.0 - geomean(ratios)),
                100.0 * (1.0 - vecMin(ratios)));

    exportResults(rs);

    expectation(
        "A 1-cycle taken-branch penalty costs around 1% geomean IPC (paper: "
        "0.8%, up to 2.2%) even though decoupling hides most bubbles — "
        "pipeline refills and high-IPC phases still feel them.");
    return bench::finish();
}
