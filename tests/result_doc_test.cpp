/** @file Tests for the result-JSON loader (obs/result_doc.h): runs read
 *  back as SimStats, retired keys ignored, version rejection, the exact
 *  diff and the sparkline renderer. */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/result_doc.h"
#include "sim/report.h"

using namespace btbsim;

namespace {

/** Two runs in the shape of a small fig10_fetchpcs sweep. */
std::vector<SimStats>
fixtureRuns()
{
    SimStats a;
    a.config = "I-BTB 16";
    a.workload = "srv-small";
    a.instructions = 50'000;
    a.cycles = 31'250;
    a.ipc = 1.6;
    a.branch_mpki = 4.2;
    a.l1_btb_hitrate = 0.97;
    a.btb_hitrate = 0.99;
    a.counters = {{"btb.l1.hits", 9000.0}, {"btb.l1.misses", 270.0}};
    a.host_seconds = 0.42;
    a.minst_per_host_sec = 0.119;
    a.sample_interval = 10'000;
    obs::IntervalSample p;
    p.cycle = 10'000;
    p.instructions = 16'100;
    p.ipc = 1.61;
    p.ftq_occupancy = 11.25;
    a.samples = {p, p};
    a.samples[1].cycle = 20'000;
    a.samples[1].ipc = 1.59;
    a.samples[1].ftq_occupancy = 10.75;

    SimStats b;
    b.config = "B-BTB 1";
    b.workload = "srv-small";
    b.instructions = 50'000;
    b.cycles = 29'412;
    b.ipc = 1.7;
    return {a, b};
}

/** The result document ResultSet::writeJson makes of @p runs. */
std::string
docText(const std::vector<SimStats> &runs)
{
    ResultSet rs;
    rs.add(runs);
    std::ostringstream os;
    rs.writeJson(os, "fig10_fetchpcs");
    return os.str();
}

/** The parsed document of fixtureRuns() after @p mutate. */
template <typename Fn>
obs::JsonValue
docWith(Fn mutate)
{
    std::vector<SimStats> runs = fixtureRuns();
    mutate(runs);
    return obs::parseJson(docText(runs));
}

const auto kUnchanged = [](std::vector<SimStats> &) {};

/** @p text with the first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

/** @p text (a docText document) with the top-level host span "profile"
 *  block that writers emitted before it was retired. */
std::string
withRetiredProfile(const std::string &text)
{
    return replaced(
        text, "\"bench\": \"fig10_fetchpcs\"",
        "\"bench\": \"fig10_fetchpcs\", \"profile\": {\"total_spans\": 7, "
        "\"dropped\": 2, \"threads\": 3, \"counters_available\": 1, "
        "\"spans\": {\"run\": {\"count\": 1, \"wall_ns\": 1000, "
        "\"tsc\": 3000}, \"run/measure\": {\"count\": 1, "
        "\"wall_ns\": 800}}}");
}

} // namespace

TEST(ResultDoc, RunsLoadAsTheSimStatsWritten)
{
    const std::vector<SimStats> runs = fixtureRuns();
    const obs::ResultDoc doc = obs::parseResultDoc(
        obs::parseJson(docText(runs)), "inline");

    EXPECT_EQ(doc.schema_version, obs::kSchemaVersion);
    EXPECT_EQ(doc.bench, "fig10_fetchpcs");
    EXPECT_EQ(doc.runs, runs);
}

TEST(ResultDoc, IgnoresRetiredV2Keys)
{
    // Earlier v2 writers also emitted a top-level host span profile and
    // baseline name (btbbench still writes the latter), the workload
    // source, a host perf-counter flag and a per-run host.spans copy of
    // the profile. Those keys are retired; documents that still carry
    // them must load unchanged.
    const std::vector<SimStats> runs = fixtureRuns();
    std::string text = withRetiredProfile(docText(runs));
    text = replaced(text, "\"bench\": \"fig10_fetchpcs\"",
                    "\"bench\": \"fig10_fetchpcs\", \"baseline\": \"\"");
    text = replaced(text, "\"host\": {",
                    "\"host\": {\"source\": \"replay\", "
                    "\"counters_available\": 1, \"spans\": {\"run\": "
                    "{\"count\": 1, \"wall_ns\": 900}},");
    const obs::ResultDoc doc =
        obs::parseResultDoc(obs::parseJson(text), "inline");

    EXPECT_EQ(doc.bench, "fig10_fetchpcs");
    EXPECT_EQ(doc.runs, runs);
}

TEST(ResultDoc, RejectsUnsupportedVersions)
{
    const auto parse = [](int version) {
        const std::string text = "{\"schema_version\": " +
                                 std::to_string(version) + ", \"runs\": []}";
        return obs::parseResultDoc(obs::parseJson(text), "inline");
    };
    const auto rejected = [&](int version) {
        try {
            parse(version);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };

    EXPECT_NO_THROW(parse(obs::kSchemaVersion));
    EXPECT_NE(rejected(1).find("unsupported schema_version 1"),
              std::string::npos)
        << rejected(1);
    EXPECT_NE(rejected(obs::kSchemaVersion + 1)
                  .find("unsupported schema_version"),
              std::string::npos);
    EXPECT_NE(rejected(0).find("unsupported schema_version 0"),
              std::string::npos);
}

TEST(Sparkline, RendersScaledBlocks)
{
    EXPECT_EQ(obs::sparkline({}), "");

    // Constant series: mid-height blocks, one per point.
    const std::string flat = obs::sparkline({2.0, 2.0, 2.0});
    EXPECT_EQ(flat, "▄▄▄");

    // Monotone ramp: first char is the lowest block, last the highest.
    const std::string ramp =
        obs::sparkline({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
    ASSERT_EQ(ramp.size(), 8u * 3u); // One UTF-8 triplet per point.
    EXPECT_EQ(ramp.substr(0, 3), "▁");
    EXPECT_EQ(ramp.substr(ramp.size() - 3), "█");
}

TEST(Sparkline, DownsamplesToMaxPoints)
{
    std::vector<double> v(1000);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i);
    const std::string s = obs::sparkline(v, 16);
    EXPECT_EQ(s.size(), 16u * 3u); // Bucket-averaged down to 16 chars.
    EXPECT_EQ(s.substr(0, 3), "▁");
    EXPECT_EQ(s.substr(s.size() - 3), "█");
}

TEST(ExactDiff, IdenticalDocumentsMatch)
{
    const obs::JsonValue base = docWith(kUnchanged);
    EXPECT_EQ(obs::firstRunDifference(base, docWith(kUnchanged)), "");
    // Host timings are not simulated results.
    EXPECT_EQ(obs::firstRunDifference(
                  base, docWith([](std::vector<SimStats> &r) {
                      r[0].host_seconds = 9.5;
                  })),
              "");
    // A key only one file holds (a counter added later) is not compared.
    EXPECT_EQ(obs::firstRunDifference(
                  base, docWith([](std::vector<SimStats> &r) {
                      r[0].counters["btb.new"] = 1.0;
                  })),
              "");
}

TEST(ExactDiff, RetiredProfileIsNotADifference)
{
    // The identity gate diffs a parent document against a change's: a
    // parent written before the "profile" block was retired still
    // carries it, and only the runs are compared.
    const std::string text = docText(fixtureRuns());
    const obs::JsonValue with = obs::parseJson(withRetiredProfile(text));
    ASSERT_NE(with.find("profile"), nullptr);
    const obs::JsonValue without = obs::parseJson(text);
    EXPECT_EQ(obs::firstRunDifference(with, without), "");
    EXPECT_EQ(obs::firstRunDifference(without, with), "");
}

TEST(ExactDiff, MutatedCounterIsNamed)
{
    const std::string d = obs::firstRunDifference(
        docWith(kUnchanged), docWith([](std::vector<SimStats> &r) {
            r[0].counters["btb.l1.misses"] = 271.0;
        }));
    EXPECT_NE(d.find("(I-BTB 16 / srv-small).counters.btb.l1.misses"),
              std::string::npos)
        << d;
    EXPECT_NE(d.find("270 vs 271"), std::string::npos) << d;
}

TEST(ExactDiff, RaisedIpcAndSamplesAreFlagged)
{
    EXPECT_NE(obs::firstRunDifference(docWith(kUnchanged),
                                      docWith([](std::vector<SimStats> &r) {
                                          r[1].ipc = 2.55;
                                      }))
                  .find("(B-BTB 1 / srv-small).stats.ipc"),
              std::string::npos);
    EXPECT_NE(obs::firstRunDifference(docWith(kUnchanged),
                                      docWith([](std::vector<SimStats> &r) {
                                          r[0].samples[1].ftq_occupancy = 10.5;
                                      }))
                  .find("samples.points[1].ftq_occupancy"),
              std::string::npos);
}

TEST(ExactDiff, RunSetsMustMatch)
{
    const std::string d = obs::firstRunDifference(
        docWith(kUnchanged), docWith([](std::vector<SimStats> &r) {
            r[1].config = "B-BTB 2";
        }));
    EXPECT_NE(d.find("(B-BTB 2 / srv-small) only in the new file"),
              std::string::npos)
        << d;
}
