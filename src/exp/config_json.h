/**
 * @file
 * Canonical, schema-versioned JSON serialization of the simulator's
 * configuration types. This is the substrate of the experiment engine's
 * content-addressed run cache (exp/run_cache.h): two configurations hash
 * equal exactly when their canonical JSON is byte-identical, so the
 * writers here emit EVERY field, in declaration order, with doubles
 * printed at full round-trip precision (%.17g via obs::JsonWriter).
 *
 * Only the BtbConfig has a reader (fuzz repro sidecars carry one, see
 * check::loadRepro). It is strict: a missing key, a wrong type or a
 * mismatched "_schema" version throws std::runtime_error, and its round
 * trip is exact (config_json_test proves value equality field by field).
 *
 * Bump kConfigSchemaVersion whenever a field is added, removed or
 * reinterpreted — the version is hashed into every run-cache key, so a
 * bump invalidates all cached results, never silently misreads them.
 */

#ifndef BTBSIM_EXP_CONFIG_JSON_H
#define BTBSIM_EXP_CONFIG_JSON_H

#include <string>

#include "obs/json.h"
#include "sim/config.h"
#include "trace/suite.h"

namespace btbsim::exp {

/** Version of the configuration-JSON schema (see file comment). */
constexpr int kConfigSchemaVersion = 3;

// ---- writers (canonical: full field set, declaration order) ------------

void writeBtbConfigJson(obs::JsonWriter &w, const BtbConfig &c);
void writeCpuConfigJson(obs::JsonWriter &w, const CpuConfig &c);
void writeWorkloadSpecJson(obs::JsonWriter &w, const WorkloadSpec &s);

// ---- strict reader (throws std::runtime_error on any mismatch) ----------

BtbConfig btbConfigFromJson(const obs::JsonValue &v);

/** Stable names for the BTB organization enums ("instruction", ...). */
const char *btbKindName(BtbKind k);
const char *pullPolicyName(PullPolicy p);
BtbKind btbKindFromName(const std::string &name);
PullPolicy pullPolicyFromName(const std::string &name);

} // namespace btbsim::exp

#endif // BTBSIM_EXP_CONFIG_JSON_H
