/**
 * @file
 * Figure 10: average fetch PCs per BTB access alongside geomean IPC for
 * the realistic configurations compared throughout Section 6.
 */

#include <cstdio>

#include "bench_common.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Fig. 10 — Fetch PCs per BTB access vs geomean IPC",
                        "Figure 10 (Section 6.5.2)");

    std::vector<CpuConfig> configs;
    configs.push_back(realIbtb16());
    auto add = [&](BtbConfig b) {
        CpuConfig c;
        c.btb = b;
        configs.push_back(c);
    };

    add(BtbConfig::rbtb(3, 64, /*dual=*/true));
    add(BtbConfig::bbtb(1, /*split=*/true));
    add(BtbConfig::bbtb(2));
    add(BtbConfig::mbbtb(2, PullPolicy::kUncondDir));
    add(BtbConfig::mbbtb(2, PullPolicy::kCallDir));
    add(BtbConfig::mbbtb(2, PullPolicy::kAllBr));
    add(BtbConfig::mbbtb(2, PullPolicy::kAllBr, 32));
    add(BtbConfig::bbtb(3));
    add(BtbConfig::mbbtb(3, PullPolicy::kUncondDir));
    add(BtbConfig::mbbtb(3, PullPolicy::kCallDir));
    add(BtbConfig::mbbtb(3, PullPolicy::kAllBr));
    add(BtbConfig::mbbtb(3, PullPolicy::kAllBr, 64));

    ResultSet rs = runAll(ctx, configs);

    // The figure's two series: fetch PCs per access and geomean IPC.
    std::printf("%-28s %12s %12s\n", "config", "fetchPCs/acc", "geomean IPC");
    std::printf("%s\n", std::string(54, '-').c_str());
    for (const std::string &cfg : rs.configs()) {
        double pcs = 0.0;
        int n = 0;
        for (const SimStats &s : rs.all()) {
            if (s.config != cfg)
                continue;
            pcs += s.fetch_pcs_per_access;
            ++n;
        }
        std::printf("%-28s %12.2f %12.3f\n", cfg.c_str(), pcs / n,
                    geomeanIpc(rs.all(), cfg));
    }
    std::printf("\n");

    exportResults(rs);

    expectation(
        "MB-BTB raises fetch PCs per access well above plain B-BTB at the "
        "same slot count (partially compensating misses by supplying "
        "several blocks per hit), but in this contended setting that does "
        "not beat B-BTB 1BS Splt: avoiding BTB misses matters more than "
        "raw fetch-PC throughput.");
    return bench::finish();
}
