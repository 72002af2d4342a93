#include "traceio/replay_env.h"

#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>

#include "common/env.h"
#include "traceio/format.h"
#include "traceio/trace_reader.h"

namespace btbsim::traceio {

std::string
replayDirFromEnv()
{
    return env::raw("BTBSIM_TRACE_DIR");
}

std::string
replayPath(const std::string &dir, const std::string &workload_name)
{
    if (dir.empty())
        return {};
    return (std::filesystem::path(dir) / (workload_name + kTraceExt))
        .string();
}

namespace {

/** Warn once per broken file, even across concurrent engine workers. */
void
warnOnce(const std::string &path, const std::string &what)
{
    static std::mutex m;
    static std::set<std::string> seen;
    std::lock_guard<std::mutex> lk(m);
    if (seen.insert(path).second)
        std::fprintf(stderr,
                     "btbsim: cannot replay %s (%s); falling back to live "
                     "generation\n",
                     path.c_str(), what.c_str());
}

} // namespace

OpenedSource
openWorkloadSource(const WorkloadSpec &spec)
{
    OpenedSource out;
    const std::string path = replayPath(replayDirFromEnv(), spec.name);
    if (!path.empty()) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            try {
                out.source = std::make_unique<TraceReplaySource>(path);
                out.replay = true;
                out.trace_path = path;
                return out;
            } catch (const TraceError &e) {
                warnOnce(path, e.what());
            }
        }
    }
    out.source = makeWorkload(spec);
    return out;
}

} // namespace btbsim::traceio
