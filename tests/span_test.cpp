/** @file Tests for the host span recorder (obs/span.h): per-thread
 *  aggregates and its Chrome-trace export. */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/json.h"
#include "obs/span.h"

using namespace btbsim;

namespace {

// The gate as the process starts, read before any test opens it.
const bool g_enabled_at_start = obs::SpanCollector::instance().enabled();

obs::SpanCollector &
collector()
{
    obs::SpanCollector &c = obs::SpanCollector::instance();
    c.reset();
    c.setEnabled(true);
    return c;
}

/** The parsed Chrome trace of everything @p c retains. */
obs::JsonValue
chromeTrace(const obs::SpanCollector &c)
{
    std::ostringstream os;
    c.writeChromeTrace(os);
    return obs::parseJson(os.str());
}

} // namespace

TEST(Span, RecordingStartsOff)
{
    // A fresh process records nothing until a client opens the gate;
    // only btbbench's traced passes (and these tests) do.
    EXPECT_FALSE(g_enabled_at_start);
}

TEST(Span, NestingBuildsSlashJoinedPaths)
{
    obs::SpanCollector &c = collector();
    const obs::SpanCollector::ThreadMark m = c.mark();
    {
        obs::ObsSpan a("alpha");
        {
            obs::ObsSpan b("beta");
        }
        {
            obs::ObsSpan g("gamma");
        }
    }

    const obs::SpanProfile p = c.aggregateSince(m);
    EXPECT_EQ(p.size(), 3u);
    ASSERT_EQ(p.count("alpha"), 1u);
    ASSERT_EQ(p.count("alpha/beta"), 1u);
    ASSERT_EQ(p.count("alpha/gamma"), 1u);
    EXPECT_EQ(p.at("alpha").count, 1u);
    EXPECT_EQ(chromeTrace(c).at("otherData").at("dropped_spans").asNumber(),
              0.0);
}

TEST(Span, UnwindsOnException)
{
    obs::SpanCollector &c = collector();
    const obs::SpanCollector::ThreadMark m = c.mark();
    try {
        obs::ObsSpan outer("throwing_region");
        obs::ObsSpan inner("inner");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    // Unwinding ran both destructors: the stack is balanced (the next
    // span opens at the top level) and both spans were recorded with the
    // time spent until the throw.
    {
        obs::ObsSpan after("after_throw");
    }
    const obs::SpanProfile p = c.aggregateSince(m);
    EXPECT_EQ(p.count("after_throw"), 1u);
    EXPECT_EQ(p.at("throwing_region").count, 1u);
    EXPECT_EQ(p.at("throwing_region/inner").count, 1u);
}

TEST(Span, RingOverflowCountsDroppedButAggregatesEverything)
{
    obs::SpanCollector &c = collector();
    const obs::SpanCollector::ThreadMark m = c.mark();
    constexpr std::uint64_t kSpans = obs::kSpanRingCapacity + 100;
    for (std::uint64_t i = 0; i < kSpans; ++i)
        obs::ObsSpan span("overflow_probe");

    // The ring keeps the most recent kSpanRingCapacity records and the
    // dump counts the rest as dropped ...
    const obs::JsonValue trace = chromeTrace(c);
    EXPECT_EQ(trace.at("otherData").at("dropped_spans").asNumber(),
              static_cast<double>(kSpans - obs::kSpanRingCapacity));
    std::size_t kept = 0;
    for (const obs::JsonValue &e : trace.at("traceEvents").array)
        kept += e.at("ph").asString() == "X";
    EXPECT_EQ(kept, obs::kSpanRingCapacity);
    // ... while the aggregate never loses a span to ring eviction.
    EXPECT_EQ(c.aggregateSince(m).at("overflow_probe").count, kSpans);
}

TEST(Span, DisabledRecordsNothing)
{
    obs::SpanCollector &c = collector();
    const obs::SpanCollector::ThreadMark m = c.mark();
    c.setEnabled(false);
    {
        obs::ObsSpan span("invisible");
    }
    c.setEnabled(true);
    EXPECT_TRUE(c.aggregateSince(m).empty());
}

TEST(Span, MarkAggregateSinceYieldsOnlyTheDelta)
{
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan span("before_mark");
    }
    const obs::SpanCollector::ThreadMark m = c.mark();
    for (int i = 0; i < 3; ++i)
        obs::ObsSpan span("after_mark");

    const obs::SpanProfile d = c.aggregateSince(m);
    ASSERT_EQ(d.count("after_mark"), 1u);
    EXPECT_EQ(d.at("after_mark").count, 3u);
    EXPECT_EQ(d.count("before_mark"), 0u);
}

TEST(Span, WorkerThreadsRecordIndependently)
{
    obs::SpanCollector &c = collector();
    // The main thread registers first (tid 0) and records nothing more.
    const obs::SpanCollector::ThreadMark m = c.mark();
    // The experiment engine's worker pool is the real multi-thread
    // client (btbbench's sweep); a stub simulate keeps it hermetic and
    // opens the only span, on whichever worker runs the point.
    std::vector<CpuConfig> configs(2);
    configs[0].btb = BtbConfig::ibtb(16);
    configs[1].btb = BtbConfig::ibtb(14);
    std::vector<WorkloadSpec> workloads(2);
    workloads[0].name = "wl0";
    workloads[1].name = "wl1";

    exp::ExperimentOptions opt;
    opt.run.threads = 4;
    opt.simulate = [](const CpuConfig &cfg, const WorkloadSpec &w,
                      const RunOptions &) {
        obs::ObsSpan span("stub_sim");
        SimStats s;
        s.config = cfg.btb.name();
        s.workload = w.name;
        s.ipc = 1.0;
        return s;
    };

    const exp::ExperimentResult res = exp::runExperiment(
        "span_test_sweep", configs, workloads, std::move(opt));
    ASSERT_TRUE(res.allOk());

    // Every point's span is in the dump as a top-level path, on a worker
    // thread; the main thread's own aggregate stays empty.
    const obs::JsonValue trace = chromeTrace(c);
    std::size_t stub_spans = 0;
    for (const obs::JsonValue &e : trace.at("traceEvents").array) {
        if (e.at("ph").asString() != "X")
            continue;
        EXPECT_EQ(e.at("name").asString(), "stub_sim");
        EXPECT_NE(e.at("tid").asNumber(), 0.0);
        ++stub_spans;
    }
    EXPECT_EQ(stub_spans, 4u);
    EXPECT_TRUE(c.aggregateSince(m).empty());
}

TEST(Span, ChromeTraceIsStructurallyValidJson)
{
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan outer("trace_outer");
        obs::ObsSpan inner("trace_inner");
    }
    // The dump must parse as JSON and carry the Chrome trace-event
    // structure Perfetto expects: complete ("X") events with
    // microsecond ts/dur plus thread-name metadata ("M").
    const obs::JsonValue root = chromeTrace(c);
    EXPECT_EQ(root.at("displayTimeUnit").asString(), "ns");
    EXPECT_EQ(root.at("otherData").at("generator").asString(), "btbsim");

    const auto &events = root.at("traceEvents").array;
    ASSERT_GE(events.size(), 3u); // 1 metadata + 2 spans.
    std::size_t complete = 0, meta = 0;
    bool saw_inner = false;
    for (const obs::JsonValue &e : events) {
        const std::string ph = e.at("ph").asString();
        ASSERT_TRUE(e.at("pid").isNumber());
        ASSERT_TRUE(e.at("tid").isNumber());
        if (ph == "M") {
            ++meta;
            EXPECT_EQ(e.at("name").asString(), "thread_name");
        } else {
            ASSERT_EQ(ph, "X");
            ++complete;
            EXPECT_TRUE(e.at("ts").isNumber());
            EXPECT_GE(e.at("dur").asNumber(), 0.0);
            if (e.at("name").asString() == "trace_outer/trace_inner")
                saw_inner = true;
        }
    }
    EXPECT_GE(meta, 1u);
    EXPECT_EQ(complete, 2u);
    EXPECT_TRUE(saw_inner);
}
