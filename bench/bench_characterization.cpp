/**
 * @file
 * Workload characterization table: the trace statistics the paper cites in
 * its background/methodology sections (dynamic basic-block size, branch
 * class mix, code footprints), measured on the synthetic server suite,
 * plus the taken distance, the rest of the branch mix and the static
 * branch sites (the BTB working set) behind them.
 */

#include <array>
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

    std::printf("%-10s %7s %6s %6s %6s %6s %6s %6s %6s %6s %6s %7s %8s "
                "%6s %6s\n",
                "workload", "codeKB", "BBsize", "tkdist", "nvrT%", "alwT%",
                "mixC%", "1tgtI%", "ret%", "call%", "uncD%", "sites",
                "tknSites", "90%KB", "100%KB");
    std::printf("%s\n", std::string(118, '-').c_str());

    // One row of the table: every column after the workload name.
    using Row = std::array<double, 14>;
    const auto print = [](const char *name, const Row &r) {
        std::printf("%-10s %7.0f %6.2f %6.2f %6.1f %6.1f %6.1f %6.1f %6.1f "
                    "%6.1f %6.1f %7.0f %8.0f %6.0f %6.0f\n",
                    name, r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7],
                    r[8], r[9], r[10], r[11], r[12], r[13]);
    };

    Row sum{};
    for (const WorkloadSpec &spec : ctx.suite) {
        auto w = makeWorkload(spec);
        const TraceProperties p =
            analyzeTrace(*w, ctx.opt.warmup + ctx.opt.measure);
        const Row row = {
            w->program().footprintBytes() / 1024.0,
            p.avg_bb_size,
            p.avg_taken_distance,
            100.0 * p.frac_never_taken_cond,
            100.0 * p.frac_always_taken_cond,
            100.0 * p.frac_mixed_cond,
            100.0 * p.frac_single_target_indirect,
            100.0 * p.frac_returns,
            100.0 * p.frac_calls,
            100.0 * p.frac_uncond_direct,
            static_cast<double>(p.static_branch_sites),
            static_cast<double>(p.static_taken_sites),
            p.bytes_for_90pct / 1024.0,
            p.bytes_for_100pct / 1024.0,
        };
        print(spec.name.c_str(), row);
        for (std::size_t i = 0; i < row.size(); ++i)
            sum[i] += row[i];
    }
    const double n = static_cast<double>(ctx.suite.size());
    for (double &v : sum)
        v /= n;
    print("mean", sum);
    std::printf("\n");

    expectation(
        "Paper (CVP-1 server traces): avg dynamic basic block 9.4 "
        "instructions; 34.8% of dynamic branches are never-taken "
        "conditionals; 15.0% always-taken conditionals; 9.1% "
        "single-target indirects; 138KB average for 90% dynamic line "
        "coverage (319KB for 100%).");
    return 0;
}
