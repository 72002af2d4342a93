/** @file Tests for the result-JSON exporter (obs/export.h) and the
 *  document ResultSet::writeJson makes. */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "sim/report.h"
#include "sim/sim_stats.h"

using namespace btbsim;
using obs::JsonValue;

namespace {

SimStats
makeRun(const std::string &config, const std::string &workload, double ipc)
{
    SimStats s;
    s.config = config;
    s.workload = workload;
    s.instructions = 1'000'000;
    s.cycles = static_cast<std::uint64_t>(1'000'000 / ipc);
    s.ipc = ipc;
    s.branch_mpki = 3.5;
    s.misfetch_pki = 1.25;
    s.l1_btb_hitrate = 0.97;
    s.btb_hitrate = 0.99;
    s.icache_mpki = 0.5;
    s.host_seconds = 2.0;
    s.minst_per_host_sec = 0.5;
    s.counters["pcgen.accesses"] = 123456;
    s.counters["l1i.demand_misses"] = 789;

    s.sample_interval = 100'000;
    for (int i = 1; i <= 3; ++i) {
        obs::IntervalSample p;
        p.cycle = 100'000u * i;
        p.instructions = 150'000;
        p.ipc = 1.5;
        p.ftq_occupancy = 12.0 + i;
        s.samples.push_back(p);
    }
    return s;
}

} // namespace

TEST(ObsExport, JsonRoundTrip)
{
    ResultSet rs;
    rs.add(makeRun("I-BTB 16", "wl-a", 2.0));
    rs.add(makeRun("I-BTB 16", "wl-b", 1.0));
    rs.add(makeRun("B-BTB 16", "wl-a", 1.5));

    std::ostringstream os;
    rs.writeJson(os, "unit-test");

    const JsonValue root = obs::parseJson(os.str());
    EXPECT_DOUBLE_EQ(root.at("schema_version").asNumber(),
                     obs::kSchemaVersion);
    EXPECT_EQ(root.at("generator").asString(), "btbsim");
    EXPECT_EQ(root.at("bench").asString(), "unit-test");

    const JsonValue &runs = root.at("runs");
    ASSERT_EQ(runs.array.size(), 3u);
    const JsonValue &r0 = runs.array[0];
    EXPECT_EQ(r0.at("config").asString(), "I-BTB 16");
    EXPECT_EQ(r0.at("workload").asString(), "wl-a");

    const JsonValue &stats = r0.at("stats");
    EXPECT_DOUBLE_EQ(stats.at("ipc").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(stats.at("instructions").asNumber(), 1e6);
    EXPECT_DOUBLE_EQ(stats.at("branch_mpki").asNumber(), 3.5);
    EXPECT_DOUBLE_EQ(stats.at("l1_btb_hitrate").asNumber(), 0.97);

    EXPECT_DOUBLE_EQ(r0.at("counters").at("pcgen.accesses").asNumber(),
                     123456.0);
    EXPECT_DOUBLE_EQ(r0.at("host").at("seconds").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(r0.at("host").at("minst_per_sec").asNumber(), 0.5);

    const JsonValue &samples = r0.at("samples");
    EXPECT_DOUBLE_EQ(samples.at("interval_cycles").asNumber(), 100'000.0);
    const JsonValue &pts = samples.at("points");
    ASSERT_EQ(pts.array.size(), 3u);
    EXPECT_DOUBLE_EQ(pts.array[0].at("cycle").asNumber(), 100'000.0);
    EXPECT_DOUBLE_EQ(pts.array[2].at("ftq_occupancy").asNumber(), 15.0);
}

TEST(ObsExport, RunObjectKeysAreTheSchema)
{
    // The writer and the reader share one field table, so a misnamed
    // field would still round-trip; these literal key lists pin the
    // schema itself.
    std::ostringstream os;
    {
        obs::JsonWriter w(os);
        obs::writeSimStatsJson(w, makeRun("c", "w", 1.0));
    }
    const JsonValue run = obs::parseJson(os.str());
    const auto keys = [](const JsonValue &v) {
        std::vector<std::string> out;
        for (const auto &[k, m] : v.object)
            out.push_back(k);
        return out;
    };
    EXPECT_EQ(keys(run),
              (std::vector<std::string>{"config", "workload", "stats",
                                        "counters", "host", "samples"}));
    EXPECT_EQ(keys(run.at("stats")),
              (std::vector<std::string>{
                  "instructions", "cycles", "ipc", "branch_mpki",
                  "misfetch_pki", "combined_mpki", "cond_mispredict_rate",
                  "l1_btb_hitrate", "btb_hitrate", "fetch_pcs_per_access",
                  "taken_per_ki", "l1_slot_occupancy", "l2_slot_occupancy",
                  "l1_redundancy", "l2_redundancy", "icache_mpki",
                  "avg_dyn_bb_size"}));
    EXPECT_EQ(keys(run.at("host")),
              (std::vector<std::string>{"seconds", "minst_per_sec"}));
    EXPECT_EQ(keys(run.at("samples")),
              (std::vector<std::string>{"interval_cycles", "points"}));
    EXPECT_EQ(keys(run.at("samples").at("points").array.at(0)),
              (std::vector<std::string>{
                  "cycle", "instructions", "ipc", "l1_btb_hitrate",
                  "btb_hitrate", "branch_mpki", "misfetch_pki",
                  "ftq_occupancy", "icache_mpki"}));
}

TEST(ObsExport, DocumentKeysAreTheSchema)
{
    // The top-level keys of a result document, literally: a key no
    // reader uses must not creep back in.
    ResultSet rs;
    rs.add(makeRun("c", "w", 1.0));
    std::ostringstream os;
    rs.writeJson(os, "unit-test");
    std::vector<std::string> keys;
    for (const auto &[k, v] : obs::parseJson(os.str()).object)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<std::string>{"schema_version", "generator",
                                              "bench", "runs"}));
}

TEST(ObsExport, Slugify)
{
    EXPECT_EQ(obs::slugify("I-BTB 16"), "i_btb_16");
    EXPECT_EQ(obs::slugify("Fig. 10: fetch PCs / access"),
              "fig_10_fetch_pcs_access");
    EXPECT_EQ(obs::slugify(""), "unnamed");
    EXPECT_EQ(obs::slugify("---"), "unnamed");
}
