#include "sim/runner.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/env.h"
#include "exp/experiment.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/tracer.h"
#include "sim/cpu.h"
#include "traceio/replay_env.h"

namespace btbsim {

namespace {

/** Dump a run's trace ring buffer to BTBSIM_TRACE_DIR (default
 *  results/traces) as <config>__<workload>.jsonl. */
void
dumpTrace(const obs::Tracer &tracer, const SimStats &s)
{
    const std::filesystem::path dir =
        env::str("BTBSIM_TRACE_DIR", "results/traces");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return;
    const std::filesystem::path file =
        dir / (obs::slugify(s.config) + "__" + obs::slugify(s.workload) +
               ".jsonl");
    std::ofstream os(file);
    if (os)
        tracer.dumpJsonl(os);
}

} // namespace

RunOptions
RunOptions::fromEnv()
{
    RunOptions o;
    o.warmup = env::u64("BTBSIM_WARMUP", o.warmup);
    o.measure = env::u64("BTBSIM_MEASURE", o.measure);
    o.traces =
        static_cast<std::size_t>(env::u64("BTBSIM_TRACES", o.traces));
    o.threads = static_cast<unsigned>(env::u64("BTBSIM_THREADS", 0));
    return o;
}

SimStats
runOne(const CpuConfig &cfg, const WorkloadSpec &spec, const RunOptions &opt)
{
    // The spans completed on this thread between the two marks become
    // the run's own profile slice (SimStats::span_profile -> the result
    // JSON's host.spans). The "run" span must close before the diff, so
    // the whole body lives in an inner scope.
    obs::SpanCollector &spans = obs::SpanCollector::instance();
    const obs::SpanCollector::ThreadMark span_mark = spans.mark();

    SimStats s;
    {
        obs::ObsSpan run_span("run");

        // Live-generated workload, or a recorded .btbt replay when
        // BTBSIM_TRACE_DIR holds one. A fresh source per run keeps
        // concurrent runMatrix workers isolated (TraceSource instances
        // are not shareable across threads).
        std::unique_ptr<Cpu> cpu;
        traceio::OpenedSource opened;
        std::unique_ptr<obs::Tracer> tracer;
        {
            obs::ObsSpan init_span("init");
            opened = traceio::openWorkloadSource(spec);
            cpu = std::make_unique<Cpu>(cfg, *opened.source);
            if (obs::Tracer::enabledFromEnv()) {
                tracer = std::make_unique<obs::Tracer>(
                    obs::Tracer::capacityFromEnv());
                cpu->attachTracer(tracer.get());
            }
        }

        const auto t0 = std::chrono::steady_clock::now();
        cpu->run(opt.warmup, opt.measure);
        const auto t1 = std::chrono::steady_clock::now();

        s = cpu->stats();
        s.host_seconds = std::chrono::duration<double>(t1 - t0).count();
        const double total_insts = static_cast<double>(opt.warmup) +
                                   static_cast<double>(s.instructions);
        s.minst_per_host_sec =
            s.host_seconds > 0 ? total_insts / 1e6 / s.host_seconds : 0.0;

        s.source_kind = opened.replay ? "replay" : "generated";

        if (tracer) {
            obs::ObsSpan dump_span("trace_dump");
            dumpTrace(*tracer, s);
        }
    }

    s.span_profile = spans.aggregateSince(span_mark);
    s.host_counters_available = spans.countersAvailable();
    return s;
}

std::vector<SimStats>
runMatrix(const std::vector<CpuConfig> &configs,
          const std::vector<WorkloadSpec> &suite, const RunOptions &opt)
{
    // Thin delegating wrapper over the experiment engine (exp/
    // experiment.h). The run cache stays off unless BTBSIM_RUN_CACHE is
    // explicitly set, keeping direct callers (tests) hermetic; benches
    // get caching by default through bench_common's Experiment use.
    exp::ExperimentOptions eopt;
    eopt.run = opt;
    eopt.cache_dir = exp::RunCache::dirFromEnv("");

    exp::ExperimentResult r = exp::runExperiment(
        "run_matrix", configs, suite, std::move(eopt));
    if (!r.allOk()) {
        std::string what = "runMatrix: " +
                           std::to_string(r.summary.failed) +
                           " point(s) failed:";
        for (const exp::PointResult *p : r.failures())
            what += "\n  " + p->error;
        throw std::runtime_error(what);
    }
    return r.stats();
}

} // namespace btbsim
