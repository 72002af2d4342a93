#include "common/env.h"

#include <cstdlib>

namespace btbsim::env {

const std::vector<Knob> &
knobs()
{
    // One entry per knob the library reads anywhere. Grouped by layer.
    static const std::vector<Knob> table = {
        // sim/runner
        {"BTBSIM_WARMUP", "500000", "Warmup instructions per run."},
        {"BTBSIM_MEASURE", "1000000", "Measured instructions per run."},
        {"BTBSIM_TRACES", "6", "Workloads taken from the server suite."},
        {"BTBSIM_THREADS", "0",
         "Worker threads for sweeps (0 = hardware concurrency)."},
        // exp/experiment
        {"BTBSIM_RUN_CACHE", "results/cache",
         "Content-addressed run-result store; a path, or 0 to disable."},
        // obs/sampler
        {"BTBSIM_SAMPLE_INTERVAL", "100000",
         "Cycles per time-series sample; 0 disables sampling."},
        // obs/span + obs/host_counters + obs/progress
        {"BTBSIM_SPANS", "1",
         "0 disables the host-time span profiler (on by default; span "
         "sites are phase-grained, not per-instruction)."},
        {"BTBSIM_SPAN_CAP", "65536",
         "Per-thread span-record ring capacity for the Chrome trace "
         "(aggregates are exact regardless)."},
        {"BTBSIM_SPAN_OUT", "",
         "Chrome-trace span dump (Perfetto-loadable): 1/true = "
         "results/spans/<bench>.trace.json, else a path; 0/empty "
         "disables."},
        {"BTBSIM_HOST_COUNTERS", "1",
         "0 skips perf_event_open so span profiles carry timestamps "
         "only (auto-fallback when the kernel denies perf access)."},
        {"BTBSIM_PROGRESS_FD", "",
         "File descriptor number for the JSONL sweep-progress stream; "
         "empty disables."},
        {"BTBSIM_PROGRESS_FILE", "",
         "Append-mode file for the JSONL sweep-progress stream "
         "(BTBSIM_PROGRESS_FD wins when both are set)."},
        // obs/tracer + sim/runner trace dump; also the .btbt replay dir
        {"BTBSIM_TRACE", "0", "Non-0 enables the pipeline event tracer."},
        {"BTBSIM_TRACE_CAP", "65536",
         "Event-tracer ring-buffer capacity (events kept per run)."},
        {"BTBSIM_TRACE_DIR", "results/traces",
         "Directory for per-run .jsonl event dumps, and the directory "
         "searched for recorded .btbt workload traces to replay."},
        // bench output
        {"BTBSIM_JSON_OUT", "",
         "Result JSON: 1/true = results/<bench>.json, else a path; "
         "0/empty disables."},
        {"BTBSIM_CSV_OUT", "",
         "Per-run CSV: same semantics as BTBSIM_JSON_OUT."},
        // check/checker + check/fault
        {"BTBSIM_CHECK", "0",
         "Non-0 wraps every BTB in the differential checker (reference "
         "model + structural invariants; aborts on divergence)."},
        {"BTBSIM_FAULT", "",
         "Name of the fault point to arm (builds configured with "
         "-DBTBSIM_FAULT_POINTS=ON only); empty disables."},
    };
    return table;
}

bool
isKnown(const std::string &name)
{
    for (const Knob &k : knobs())
        if (name == k.name)
            return true;
    return false;
}

std::string
raw(const char *name)
{
    const char *v = std::getenv(name);
    return (v && *v) ? v : std::string();
}

bool
isSet(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v;
}

std::uint64_t
u64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

bool
flag(const char *name)
{
    const std::string v = raw(name);
    return !v.empty() && v != "0";
}

bool
disabled(const char *name)
{
    return raw(name) == "0";
}

std::string
str(const char *name, const std::string &fallback)
{
    const std::string v = raw(name);
    return v.empty() ? fallback : v;
}

std::string
outPath(const char *name, const std::string &default_path)
{
    const std::string v = raw(name);
    if (v.empty() || v == "0")
        return {};
    if (v == "1" || v == "true")
        return default_path;
    return v;
}

} // namespace btbsim::env
