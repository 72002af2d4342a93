/**
 * @file
 * Figure 11b: shrinking the conditional branch predictor from 64KB down
 * to 2KB raises branch MPKI; the speedup of MB-BTB 64 AllBr over I-BTB 16
 * (512K-entry BTBs, realistic backend) grows with MPKI because the
 * multi-block frontend refills the pipeline faster after each flush.
 */

#include <cstdio>

#include "bench_common.h"
#include "common/stats.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Fig. 11b — MB-BTB speedup vs branch predictor size",
                        "Figure 11b (Section 6.5.2)");

    const std::vector<unsigned> sizes = {64u, 32u, 16u, 8u, 4u, 2u};
    auto tag = [](unsigned kb) { return " bp" + std::to_string(kb) + "KB"; };
    CpuConfig ibtb = idealIbtb16();
    CpuConfig mb;
    mb.btb = BtbConfig::mbbtb(3, PullPolicy::kAllBr, 64).makeIdeal();
    std::vector<CpuConfig> configs;
    std::vector<std::string> suffixes; // Distinguish predictor sizes.
    for (unsigned kb : sizes) {
        ibtb.bpred.perceptron = mb.bpred.perceptron =
            PerceptronConfig::ofSizeKB(kb);
        configs.insert(configs.end(), {ibtb, mb});
        suffixes.insert(suffixes.end(), 2, tag(kb));
    }
    const ResultSet rs = runAll(ctx, configs, suffixes);

    std::printf("%-8s %10s %12s %12s %12s\n", "BP size", "avg MPKI",
                "min spdup", "geomean", "max spdup");
    std::printf("%s\n", std::string(58, '-').c_str());
    for (unsigned kb : sizes) {
        std::vector<double> speedups;
        double mpki = 0.0;
        for (const WorkloadSpec &spec : ctx.suite) {
            const SimStats *a = rs.find(ibtb.btb.name() + tag(kb), spec.name);
            const SimStats *b = rs.find(mb.btb.name() + tag(kb), spec.name);
            if (!a || !b)
                continue; // Failed point; finish() reports it.
            speedups.push_back(b->ipc / a->ipc);
            mpki += a->branch_mpki;
        }
        mpki /= static_cast<double>(ctx.suite.size());
        std::printf("%5uKB %10.2f %12.3f %12.3f %12.3f\n", kb, mpki,
                    vecMin(speedups), geomean(speedups), vecMax(speedups));
    }
    std::printf("\n");

    exportResults(rs);

    expectation(
        "Geomean MPKI rises as the predictor shrinks, and the MB-BTB "
        "speedup over I-BTB 16 rises with it (paper: from ~1.00 at 64KB "
        "toward ~1.02+ at 2KB, with the max across traces growing "
        "faster): pipeline refills expose the multi-block advantage.");
    return bench::finish();
}
