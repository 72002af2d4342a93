/**
 * @file
 * Environment-driven workload source selection.
 *
 * When BTBSIM_TRACE_DIR is set and holds `<workload-name>.btbt`, the
 * runner transparently replays the recorded trace instead of
 * regenerating and re-interpreting the synthetic program — same
 * instruction stream, same code image, a fraction of the setup and
 * delivery cost. Workloads without a recording fall back to live
 * generation, so partially recorded suites still run.
 */

#ifndef BTBSIM_TRACEIO_REPLAY_ENV_H
#define BTBSIM_TRACEIO_REPLAY_ENV_H

#include <memory>
#include <string>

#include "trace/suite.h"

namespace btbsim::traceio {

/** A workload source plus how it was produced. */
struct OpenedSource
{
    std::unique_ptr<TraceSource> source;
    bool replay = false;      ///< True when replaying a `.btbt` file.
    std::string trace_path;   ///< The replayed file (empty when live).
};

/** The replay directory from BTBSIM_TRACE_DIR; empty when unset. */
std::string replayDirFromEnv();

/**
 * Path a recording of @p workload_name lives at under @p dir
 * (`<dir>/<workload_name>.btbt`); empty when @p dir is empty.
 */
std::string replayPath(const std::string &dir,
                       const std::string &workload_name);

/**
 * Open @p spec: a TraceReplaySource when BTBSIM_TRACE_DIR holds a
 * recording of it, the live generated workload otherwise. A recording
 * that fails to open (corrupt, truncated, wrong version) is reported
 * to stderr once and falls back to live generation rather than
 * aborting a whole bench matrix.
 *
 * Each call constructs a fresh interpreter, so every engine worker
 * gets its own instance (the thread-safety contract of TraceSource); a
 * live workload's Program is the read-only sharedProgram() image.
 */
OpenedSource openWorkloadSource(const WorkloadSpec &spec);

} // namespace btbsim::traceio

#endif // BTBSIM_TRACEIO_REPLAY_ENV_H
