/** @file Tests for the result-JSON loader (obs/result_doc.h): schema
 *  v1 compatibility against a checked-in golden file, v2 span parsing,
 *  version rejection, and the sparkline renderer. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/result_doc.h"

using namespace btbsim;

#ifndef BTBSIM_TEST_DATA_DIR
#error "BTBSIM_TEST_DATA_DIR must point at tests/data"
#endif

namespace {

std::string
dataFile(const std::string &name)
{
    return std::string(BTBSIM_TEST_DATA_DIR) + "/" + name;
}

} // namespace

TEST(ResultDoc, LoadsCheckedInV1Golden)
{
    // The golden file is a schema-v1 document exactly as PR 1 wrote
    // them — no host.spans, no profile block. It must keep loading as
    // the schema moves forward.
    const obs::ResultDoc doc =
        obs::loadResultDoc(dataFile("schema_v1_golden.json"));

    EXPECT_EQ(doc.schema_version, 1);
    EXPECT_EQ(doc.bench, "fig10_fetchpcs");
    ASSERT_EQ(doc.runs.size(), 2u);

    const obs::DocRun &r0 = doc.runs[0];
    EXPECT_EQ(r0.config, "I-BTB 16");
    EXPECT_EQ(r0.workload, "srv-small");
    EXPECT_DOUBLE_EQ(r0.ipc, 1.6);
    EXPECT_DOUBLE_EQ(r0.branch_mpki, 4.2);
    EXPECT_EQ(r0.sample_interval, 10000u);
    ASSERT_EQ(r0.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(r0.samples[1].ipc, 1.59);

    // v2-only members come back empty, not as parse errors.
    EXPECT_TRUE(r0.spans.empty());
    EXPECT_FALSE(doc.has_profile);
    EXPECT_TRUE(doc.mergedSpans().empty());

    // Second run has no samples block at all.
    EXPECT_TRUE(doc.runs[1].samples.empty());
}

TEST(ResultDoc, ParsesV2SpansAndProfile)
{
    // Earlier v2 writers also emitted the workload source, a host
    // perf-counter flag and per-span counter columns. Those keys are
    // retired; documents that still carry them must load unchanged.
    const std::string text = R"({
      "schema_version": 2,
      "bench": "b",
      "runs": [
        {
          "config": "c0", "workload": "w0",
          "stats": { "ipc": 1.5, "branch_mpki": 2.0 },
          "host": {
            "seconds": 0.1,
            "source": "replay",
            "counters_available": 1,
            "spans": {
              "run": { "count": 1, "wall_ns": 1000, "tsc": 3000,
                       "cycles": 500, "instructions": 900,
                       "branch_misses": 4, "cache_misses": 6,
                       "task_clock_ns": 990 },
              "run/measure": { "count": 1, "wall_ns": 800 }
            }
          }
        }
      ],
      "profile": {
        "total_spans": 7, "dropped": 2, "threads": 3,
        "counters_available": 1,
        "spans": {
          "run": { "count": 1, "wall_ns": 1000, "cycles": 500 },
          "run/measure": { "count": 1, "wall_ns": 800 },
          "setup": { "count": 1, "wall_ns": 50 }
        }
      }
    })";
    const obs::ResultDoc doc =
        obs::parseResultDoc(obs::parseJson(text), "inline");

    ASSERT_EQ(doc.runs.size(), 1u);
    EXPECT_EQ(doc.runs[0].spans.at("run"), (obs::SpanAgg{1, 1000}));
    EXPECT_EQ(doc.runs[0].spans.at("run/measure").wall_ns, 800u);

    ASSERT_TRUE(doc.has_profile);
    EXPECT_EQ(doc.profile.total_spans, 7u);
    EXPECT_EQ(doc.profile.dropped, 2u);
    EXPECT_EQ(doc.profile.threads, 3u);

    // With a profile block present, mergedSpans() is the profile table
    // alone — run spans are already inside it (double-count guard).
    const obs::SpanProfile merged = doc.mergedSpans();
    EXPECT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged.at("run").count, 1u);
}

TEST(ResultDoc, MergedSpansFallsBackToSummingRuns)
{
    // A v2 document written without a profile block (e.g. a run-cache
    // envelope consumer) still yields a tree by summing per-run tables.
    const std::string text = R"({
      "schema_version": 2,
      "runs": [
        { "config": "c0", "workload": "w0", "stats": { "ipc": 1.0 },
          "host": { "spans": { "run": { "count": 1, "wall_ns": 10 } } } },
        { "config": "c1", "workload": "w0", "stats": { "ipc": 1.0 },
          "host": { "spans": { "run": { "count": 1, "wall_ns": 30 } } } }
      ]
    })";
    const obs::ResultDoc doc =
        obs::parseResultDoc(obs::parseJson(text), "inline");

    EXPECT_FALSE(doc.has_profile);
    const obs::SpanProfile merged = doc.mergedSpans();
    EXPECT_EQ(merged.at("run").count, 2u);
    EXPECT_EQ(merged.at("run").wall_ns, 40u);
}

TEST(ResultDoc, RejectsUnsupportedVersions)
{
    const auto parse = [](int version) {
        const std::string text = "{\"schema_version\": " +
                                 std::to_string(version) + ", \"runs\": []}";
        return obs::parseResultDoc(obs::parseJson(text), "inline");
    };

    EXPECT_NO_THROW(parse(1));
    EXPECT_NO_THROW(parse(obs::kSchemaVersion));
    try {
        parse(obs::kSchemaVersion + 1);
        FAIL() << "future schema_version must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported schema_version"),
                  std::string::npos);
    }
    EXPECT_THROW(parse(0), std::runtime_error);
}

TEST(ResultDoc, SpanProfileJsonRoundTrips)
{
    obs::SpanProfile in;
    in["a"].count = 3;
    in["a"].wall_ns = 1234;
    in["a/b"].count = 1;
    in["a/b"].wall_ns = 55;

    std::ostringstream os;
    {
        obs::JsonWriter w(os);
        obs::writeSpanProfileJson(w, in);
    }
    const obs::JsonValue v = obs::parseJson(os.str());

    obs::SpanProfile out;
    for (const auto &[path, agg] : v.object) {
        obs::SpanAgg a;
        a.count = static_cast<std::uint64_t>(agg.at("count").asNumber());
        a.wall_ns = static_cast<std::uint64_t>(agg.at("wall_ns").asNumber());
        out[path] = a;
    }
    EXPECT_EQ(out, in);
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

namespace {

/** The v1 golden's text with @p from replaced by @p to, parsed. */
obs::JsonValue
goldenWith(const std::string &from, const std::string &to)
{
    std::ifstream is(dataFile("schema_v1_golden.json"));
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string text = buf.str();
    if (!from.empty()) {
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
    }
    return obs::parseJson(text);
}

} // namespace

TEST(ExactDiff, IdenticalDocumentsMatch)
{
    EXPECT_EQ(obs::firstRunDifference(goldenWith("", ""), goldenWith("", "")),
              "");
    // Host timings are not simulated results.
    EXPECT_EQ(obs::firstRunDifference(
                  goldenWith("", ""),
                  goldenWith("\"seconds\": 0.42", "\"seconds\": 9.5")),
              "");
    // A key only one file holds (a counter added later) is not compared.
    EXPECT_EQ(obs::firstRunDifference(
                  goldenWith("", ""),
                  goldenWith("\"btb.l1.hits\": 9000",
                             "\"btb.l1.hits\": 9000, \"btb.new\": 1")),
              "");
}

TEST(ExactDiff, MutatedCounterIsNamed)
{
    const std::string d = obs::firstRunDifference(
        goldenWith("", ""),
        goldenWith("\"btb.l1.misses\": 270", "\"btb.l1.misses\": 271"));
    EXPECT_NE(d.find("(I-BTB 16 / srv-small).counters.btb.l1.misses"),
              std::string::npos)
        << d;
    EXPECT_NE(d.find("270 vs 271"), std::string::npos) << d;
}

TEST(ExactDiff, RaisedIpcAndSamplesAreFlagged)
{
    EXPECT_NE(obs::firstRunDifference(goldenWith("", ""),
                                      goldenWith("\"ipc\": 1.7",
                                                 "\"ipc\": 2.55"))
                  .find("(B-BTB 1 / srv-small).stats.ipc"),
              std::string::npos);
    EXPECT_NE(obs::firstRunDifference(goldenWith("", ""),
                                      goldenWith("\"ftq_occupancy\": 10.8",
                                                 "\"ftq_occupancy\": 10.9"))
                  .find("samples.points[1].ftq_occupancy"),
              std::string::npos);
}

TEST(ExactDiff, RunSetsMustMatch)
{
    const std::string d = obs::firstRunDifference(
        goldenWith("", ""),
        goldenWith("\"config\": \"B-BTB 1\"", "\"config\": \"B-BTB 2\""));
    EXPECT_NE(d.find("(B-BTB 2 / srv-small) only in the new file"),
              std::string::npos)
        << d;
}
