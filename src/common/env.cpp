#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

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
        // bench output
        {"BTBSIM_JSON_OUT", "",
         "Result JSON: 1/true = results/<bench>.json, else a path; "
         "0/empty disables."},
        // check/checker + check/fault
        {"BTBSIM_CHECK", "0",
         "Non-0 wraps every BTB in the differential checker (reference "
         "model + structural invariants); a divergence fails its sweep "
         "point."},
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
    // Unlike strtoull, from_chars takes no sign or whitespace, and the
    // whole value must parse.
    std::uint64_t n = 0;
    const char *end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, n);
    if (ec != std::errc() || ptr != end)
        throw std::invalid_argument(std::string(name) + "=\"" + v +
                                    "\": expected an unsigned decimal "
                                    "integer");
    return n;
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
