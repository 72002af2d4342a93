/** @file Tests for the host span profiler (obs/span.h) and its
 *  Chrome-trace export. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/experiment.h"
#include "obs/json.h"
#include "obs/span.h"

using namespace btbsim;

namespace {

// The collector singleton reads its knobs once, at first use — pin them
// before any test touches it: a tiny ring so overflow is cheap to
// trigger.
const bool g_env_init = [] {
    ::setenv("BTBSIM_SPAN_CAP", "64", 1);
    ::setenv("BTBSIM_SPANS", "1", 1);
    return true;
}();

obs::SpanCollector &
collector()
{
    (void)g_env_init;
    obs::SpanCollector &c = obs::SpanCollector::instance();
    c.reset();
    c.setEnabled(true);
    return c;
}

} // namespace

TEST(Span, NestingBuildsSlashJoinedPaths)
{
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan a("alpha");
        EXPECT_EQ(c.currentPath(), "alpha");
        {
            obs::ObsSpan b("beta");
            EXPECT_EQ(c.currentPath(), "alpha/beta");
        }
        {
            obs::ObsSpan g("gamma");
            EXPECT_EQ(c.currentPath(), "alpha/gamma");
        }
    }
    EXPECT_EQ(c.currentPath(), "");

    const obs::ProfileBlock p = c.profile();
    ASSERT_EQ(p.spans.count("alpha"), 1u);
    ASSERT_EQ(p.spans.count("alpha/beta"), 1u);
    ASSERT_EQ(p.spans.count("alpha/gamma"), 1u);
    EXPECT_EQ(p.spans.at("alpha").count, 1u);
    EXPECT_EQ(p.total_spans, 3u);
    EXPECT_EQ(p.dropped, 0u);
}

TEST(Span, UnwindsOnException)
{
    obs::SpanCollector &c = collector();
    try {
        obs::ObsSpan outer("throwing_region");
        obs::ObsSpan inner("inner");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    // Unwinding ran both destructors: the stack is balanced and both
    // spans were recorded with the time spent until the throw.
    EXPECT_EQ(c.currentPath(), "");
    const obs::ProfileBlock p = c.profile();
    EXPECT_EQ(p.spans.at("throwing_region").count, 1u);
    EXPECT_EQ(p.spans.at("throwing_region/inner").count, 1u);
}

TEST(Span, RingOverflowCountsDroppedButAggregatesEverything)
{
    obs::SpanCollector &c = collector();
    constexpr std::uint64_t kSpans = 100; // Ring capacity pinned to 64.
    for (std::uint64_t i = 0; i < kSpans; ++i)
        obs::ObsSpan span("overflow_probe");

    EXPECT_EQ(c.dropped(), kSpans - 64);
    const obs::ProfileBlock p = c.profile();
    EXPECT_EQ(p.dropped, kSpans - 64);
    // The aggregate table never loses spans to ring eviction.
    EXPECT_EQ(p.spans.at("overflow_probe").count, kSpans);
    EXPECT_EQ(p.total_spans, kSpans);
}

TEST(Span, DisabledRecordsNothing)
{
    obs::SpanCollector &c = collector();
    c.setEnabled(false);
    {
        obs::ObsSpan span("invisible");
    }
    c.setEnabled(true);
    EXPECT_EQ(c.profile().total_spans, 0u);
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
    // The experiment engine's worker pool is the real multi-thread
    // client: a stub simulate keeps it hermetic while the engine's own
    // point/execute spans record on each worker thread.
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

    const obs::ProfileBlock p = c.profile();
    EXPECT_EQ(p.spans.at("sweep").count, 1u);
    EXPECT_EQ(p.spans.at("point").count, 4u);
    EXPECT_EQ(p.spans.at("point/execute").count, 4u);
    EXPECT_EQ(p.spans.at("point/execute/stub_sim").count, 4u);
    EXPECT_GE(p.threads, 2u); // Main (sweep) plus at least one worker.
}

TEST(Span, RunOneRecordsItsPhases)
{
    obs::SpanCollector &c = collector();
    CpuConfig cfg;
    WorkloadSpec spec;
    spec.name = "span_phases_wl";

    RunOptions opt;
    opt.warmup = 1000;
    opt.measure = 2000;

    (void)runOne(cfg, spec, opt);

    // The process profile (the result JSON's "profile" block) holds the
    // run and each of its phases exactly once.
    const obs::SpanProfile spans = c.profile().spans;
    for (const char *path : {"run", "run/init", "run/warmup", "run/measure"})
        ASSERT_EQ(spans.count(path), 1u) << path;
    EXPECT_EQ(spans.at("run/measure").count, 1u);
    EXPECT_GT(spans.at("run/measure").wall_ns, 0u);
}

TEST(Span, ChromeTraceIsStructurallyValidJson)
{
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan outer("trace_outer");
        obs::ObsSpan inner("trace_inner");
    }
    std::ostringstream os;
    c.writeChromeTrace(os);

    // The dump must parse as JSON and carry the Chrome trace-event
    // structure Perfetto expects: complete ("X") events with
    // microsecond ts/dur plus thread-name metadata ("M").
    const obs::JsonValue root = obs::parseJson(os.str());
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
