/**
 * @file
 * Loader for btbsim result JSON (schema v2, obs/export.h) shared by
 * tools/btbsim-stats and the tests. Each run is read back into a full
 * SimStats by obs::simStatsFromJson; any other schema_version is
 * rejected.
 */

#ifndef BTBSIM_OBS_RESULT_DOC_H
#define BTBSIM_OBS_RESULT_DOC_H

#include <cstddef>
#include <string>
#include <vector>

#include "obs/span.h"
#include "sim/sim_stats.h"

namespace btbsim::obs {

struct JsonValue;

/** A parsed result document. */
struct ResultDoc
{
    int schema_version = 0;
    std::string bench;
    std::vector<SimStats> runs;

    /** Top-level "profile" block; has_profile false when absent. */
    bool has_profile = false;
    ProfileBlock profile;

    /**
     * The complete span tree `btbsim-stats prof` renders: the process
     * profile block when present (it already contains every run's
     * spans), otherwise the runs' host.spans summed.
     */
    SpanProfile mergedSpans() const;
};

/** Parse @p root; @p origin names the source in error messages. Throws
 *  std::runtime_error on malformed documents or unsupported versions. */
ResultDoc parseResultDoc(const JsonValue &root, const std::string &origin);

/** Read and parse @p path (throws std::runtime_error). */
ResultDoc loadResultDoc(const std::string &path);

/** Read @p path as plain JSON (throws std::runtime_error). */
JsonValue loadJson(const std::string &path);

/**
 * The exact comparison `btbsim-stats diff --threshold 0` applies to two
 * result documents: both must hold the same (config, workload) runs, and
 * every matched run's "stats", "counters" and "samples" must be equal,
 * limited to the object keys present in both. @return "" when they
 * match, else a message naming the first differing field.
 */
std::string firstRunDifference(const JsonValue &old_root,
                               const JsonValue &new_root);

/**
 * Unicode block-character sparkline of @p v scaled to its own min..max
 * ("▁▂▃▅▇█"); constant series render mid-height. Empty input -> "".
 * @p max_points caps the width by averaging adjacent points.
 */
std::string sparkline(const std::vector<double> &v,
                      std::size_t max_points = 32);

} // namespace btbsim::obs

#endif // BTBSIM_OBS_RESULT_DOC_H
