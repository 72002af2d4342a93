/**
 * @file
 * Content-addressed, persistent store of completed run results.
 *
 * A run point is identified by the SHA-256 digest of its canonical run
 * key: the canonical JSON (exp/config_json.h) of the CpuConfig, the
 * WorkloadSpec and the result-affecting RunOptions fields, plus the
 * key/result schema versions. Anything
 * that can change the resulting SimStats is in the key; anything that
 * cannot (thread count, suite size, output knobs) deliberately is not,
 * so re-sharding a sweep never invalidates its cache.
 *
 * Entry layout under the cache directory (BTBSIM_RUN_CACHE):
 *
 *   <dir>/<digest[0:2]>/<digest>.json
 *   { "cache_schema": 3, "digest": "...", "run_sha256": "...",
 *     "key": { ...canonical run key... }, "run": { ...result run... } }
 *
 * The payload is the result-JSON run object (obs::writeSimStatsJson),
 * read back by obs::simStatsFromJson. Writes are atomic (temp file +
 * rename), so concurrent sweep workers and parallel test jobs can share
 * a directory. Loads hash the stored payload bytes and check them
 * against run_sha256; a corrupted, truncated or stale-schema entry is
 * discarded (unlinked) and reported as a miss, never returned. A warm
 * hit restores SimStats bit-identically: the run object carries every
 * field, with doubles at %.17g.
 *
 * NOTE the cache cannot see simulator *code* changes. Bump
 * kRunKeySchemaVersion whenever a change alters simulation results so
 * stale entries stop matching (run_benches.sh --fresh wipes locally).
 */

#ifndef BTBSIM_EXP_RUN_CACHE_H
#define BTBSIM_EXP_RUN_CACHE_H

#include <optional>
#include <string>

#include "exp/config_json.h"
#include "sim/runner.h"
#include "sim/sim_stats.h"

namespace btbsim::exp {

/** Bump on any change that alters simulation results or the canonical
 *  key/stats serialization (see file comment).
 *  v2: SimStats gained span_profile.
 *  v3: the key dropped the sample interval (fixed at 100k cycles). */
constexpr int kRunKeySchemaVersion = 3;

/** Version of the on-disk cache-entry envelope.
 *  v3: the payload is the result-JSON run object. */
constexpr int kRunCacheSchemaVersion = 3;

/** Everything that identifies one run point's results. */
struct RunKey
{
    CpuConfig config;
    WorkloadSpec workload;
    RunOptions opt; ///< Only warmup/measure are hashed (see file comment).
};

/**
 * Canonical JSON of @p key. @p key_schema defaults to the build's
 * version; it is a parameter so tests can prove a bump invalidates
 * digests.
 */
std::string canonicalRunKeyJson(const RunKey &key,
                                int key_schema = kRunKeySchemaVersion);

/** SHA-256 hex digest of canonicalRunKeyJson(key). */
std::string runKeyDigest(const RunKey &key,
                         int key_schema = kRunKeySchemaVersion);

/** The persistent store. An empty directory string disables it: load()
 *  always misses and store() is a no-op. */
class RunCache
{
  public:
    /**
     * Resolve the cache directory from BTBSIM_RUN_CACHE: unset/empty ->
     * @p fallback_dir (pass "" to default off), "0" -> disabled,
     * anything else is the directory itself.
     */
    static std::string dirFromEnv(const std::string &fallback_dir);

    explicit RunCache(std::string dir = {}) : dir_(std::move(dir)) {}

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Path the entry for @p digest lives at (empty when disabled). */
    std::string entryPath(const std::string &digest) const;

    /**
     * Load the entry for @p digest. Returns the stored stats only when
     * the envelope parses, schema and digest match, and the payload
     * verifies against run_sha256; otherwise the entry (if any) is
     * unlinked and nullopt is returned.
     */
    std::optional<SimStats> load(const std::string &digest) const;

    /**
     * Persist @p stats for @p digest atomically. @p key_json is the
     * canonical run key, embedded for inspectability/diffing.
     * @return false on I/O failure (the sweep continues uncached).
     */
    bool store(const std::string &digest, const std::string &key_json,
               const SimStats &stats) const;

  private:
    std::string dir_;
};

} // namespace btbsim::exp

#endif // BTBSIM_EXP_RUN_CACHE_H
