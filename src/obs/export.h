/**
 * @file
 * Machine-readable exporters for simulation results. The JSON document
 * schema is versioned (kSchemaVersion, emitted as "schema_version") and
 * documented in DESIGN.md §Observability; tools/btbsim-stats consumes it.
 *
 * Schema v2 (one document per bench invocation):
 *
 *   {
 *     "schema_version": 2,
 *     "generator": "btbsim",
 *     "bench": "<bench slug>",
 *     "runs": [
 *       {
 *         "config": "...", "workload": "...",
 *         "stats": { instructions, cycles, ipc, branch_mpki, ... },
 *         "counters": { "<component.stat>": <number>, ... },
 *         "host": { "seconds": s, "minst_per_sec": r },
 *         "samples": {
 *           "interval_cycles": N,
 *           "points": [ { cycle, instructions, ipc, l1_btb_hitrate,
 *                         btb_hitrate, branch_mpki, misfetch_pki,
 *                         ftq_occupancy, icache_mpki }, ... ]
 *         }
 *       }, ...
 *     ],
 *     "experiment": { "<exp.metric>": v, ... }    // sweeps only
 *   }
 *
 * Only v2 loads: obs/result_doc.h rejects every other schema_version.
 * Keys a reader does not know are ignored, so v2 documents from builds
 * that also wrote the workload source, a top-level "baseline" name or
 * "profile" block (the retired host span profile), a host perf-counter
 * flag or a per-run "host.spans" copy of that profile still load.
 *
 * A run object is the one JSON form of a SimStats: the result document
 * lists them under "runs", and the run cache (exp/run_cache.h) stores
 * one per entry. writeSimStatsJson writes it and simStatsFromJson reads
 * it back exactly.
 */

#ifndef BTBSIM_OBS_EXPORT_H
#define BTBSIM_OBS_EXPORT_H

#include <string>
#include <string_view>

#include "obs/json.h"

namespace btbsim {
struct SimStats;
}

namespace btbsim::obs {

/** Version of the result-JSON schema documented above. */
constexpr int kSchemaVersion = 2;

/** Emit one run as a JSON object (config/workload/stats/counters/...). */
void writeSimStatsJson(JsonWriter &w, const SimStats &s);

/**
 * Exact inverse of writeSimStatsJson: every SimStats field comes back
 * bit-identical (doubles are written at %.17g; a null reads as the NaN
 * it stands for). Throws std::runtime_error naming the first missing or
 * mistyped key ("stats.ipc"); keys it does not know are ignored.
 */
SimStats simStatsFromJson(const JsonValue &run);

/** Filesystem-safe slug: lowercase alnum, everything else collapsed
 *  to single underscores ("I-BTB 16" -> "i_btb_16"). */
std::string slugify(std::string_view s);

} // namespace btbsim::obs

#endif // BTBSIM_OBS_EXPORT_H
