/**
 * @file
 * Shared scaffolding for the figure-reproduction benches. Every bench
 * simulates a set of BTB configurations over the server suite and prints
 * the same rows/series the paper reports, normalized to the idealistic
 * 512K-entry I-BTB 16 exactly as the paper does (footnote 5).
 *
 * Scale with environment variables: BTBSIM_WARMUP, BTBSIM_MEASURE
 * (instructions), BTBSIM_TRACES (workload count).
 */

#ifndef BTBSIM_BENCH_BENCH_COMMON_H
#define BTBSIM_BENCH_BENCH_COMMON_H

#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/runner.h"

namespace btbsim::bench {

/** Everything a bench needs: options and the workload suite. */
struct Context
{
    RunOptions opt;
    std::vector<WorkloadSpec> suite;
};

/** Parse env options, build the suite, print the bench banner. */
Context setup(const std::string &title, const std::string &paper_ref);

/** The paper's normalization baseline: idealistic 512K-entry I-BTB 16. */
CpuConfig idealIbtb16();

/** Table 1 realistic I-BTB 16. */
CpuConfig realIbtb16();

/**
 * Run all configurations over the suite through the experiment engine
 * (exp/experiment.h): points run in parallel, warm points come from the
 * content-addressed run cache (BTBSIM_RUN_CACHE, default results/cache;
 * 0 disables) — so rerunning an interrupted sweep simulates only the
 * points it had not finished — and a failed point is reported with its
 * reproducer without aborting the sweep.
 * Prints per-point progress, per-config geomeans and the sweep summary
 * (cache-hit rate, failures). Failures are remembered for finish().
 *
 * @p suffixes (empty, or one per config) is appended to the results'
 * SimStats::config so configs sharing a BtbConfig::name() stay distinct
 * in the tables and the exported runs, e.g. " bp8KB" or " +pf".
 */
ResultSet runAll(const Context &ctx, const std::vector<CpuConfig> &configs,
                 const std::vector<std::string> &suffixes = {});

/**
 * Bench epilogue: prints any failed points (with their reproducers)
 * recorded by runAll and returns the bench's exit code (1 when the sweep lost
 * points, 0 otherwise). Call as `return bench::finish();` from main.
 */
int finish();

/**
 * Print the normalized-IPC whisker table plus the detail table, then —
 * when BTBSIM_JSON_OUT is set — write the schema-versioned result JSON:
 * to the given path when the value looks like one, otherwise to
 * results/<slug-of-bench-title>.json.
 */
void printFigure(const ResultSet &results, const std::string &baseline);

/**
 * Write @p results as result JSON for bench @p bench_name to @p path
 * (parent directories are created). @return false on I/O failure.
 */
bool writeJsonTo(const ResultSet &results, const std::string &bench_name,
                 const std::string &baseline, const std::string &path);

/**
 * Honour BTBSIM_JSON_OUT for @p results (see
 * printFigure). Benches with custom table printing call this directly so
 * every bench produces machine-readable output.
 */
void exportResults(const ResultSet &results, const std::string &baseline);

/** Note the paper's expected qualitative result under the tables. */
void expectation(const std::string &text);

} // namespace btbsim::bench

#endif // BTBSIM_BENCH_BENCH_COMMON_H
