/**
 * @file
 * Workload characterization table: the trace statistics the paper cites in
 * its background/methodology sections (dynamic basic-block size, branch
 * class mix, code footprints), measured on the synthetic server suite.
 */

#include <cstdio>

#include "bench_common.h"
#include "trace/analyzer.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Workload characterization",
                        "Sections 1, 2 and 4 statistics");

    std::printf("%-10s %8s %7s %7s %7s %7s %7s %8s %8s\n", "workload",
                "codeKB", "BBsize", "nvrT%", "alwT%", "1tgtI%", "ret%",
                "90%KB", "100%KB");
    std::printf("%s\n", std::string(76, '-').c_str());

    double bb = 0, nt = 0, at = 0, sti = 0, c90 = 0, c100 = 0;
    for (const WorkloadSpec &spec : ctx.suite) {
        auto w = makeWorkload(spec);
        const TraceProperties p =
            analyzeTrace(*w, ctx.opt.warmup + ctx.opt.measure);
        std::printf("%-10s %8.0f %7.2f %7.1f %7.1f %7.1f %7.1f %8.0f %8.0f\n",
                    spec.name.c_str(),
                    w->program().footprintBytes() / 1024.0, p.avg_bb_size,
                    100.0 * p.frac_never_taken_cond,
                    100.0 * p.frac_always_taken_cond,
                    100.0 * p.frac_single_target_indirect,
                    100.0 * p.frac_returns, p.bytes_for_90pct / 1024.0,
                    p.bytes_for_100pct / 1024.0);
        bb += p.avg_bb_size;
        nt += p.frac_never_taken_cond;
        at += p.frac_always_taken_cond;
        sti += p.frac_single_target_indirect;
        c90 += static_cast<double>(p.bytes_for_90pct) / 1024.0;
        c100 += static_cast<double>(p.bytes_for_100pct) / 1024.0;
    }
    const double n = static_cast<double>(ctx.suite.size());
    std::printf("%-10s %8s %7.2f %7.1f %7.1f %7.1f %7s %8.0f %8.0f\n\n",
                "mean", "", bb / n, 100.0 * nt / n, 100.0 * at / n,
                100.0 * sti / n, "", c90 / n, c100 / n);

    expectation(
        "Paper (CVP-1 server traces): avg dynamic basic block 9.4 "
        "instructions; 34.8% of dynamic branches are never-taken "
        "conditionals; 15.0% always-taken conditionals; 9.1% "
        "single-target indirects; 138KB average for 90% dynamic line "
        "coverage (319KB for 100%).");
    return 0;
}
