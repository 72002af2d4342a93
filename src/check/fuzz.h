/**
 * @file
 * Property-based fuzzer for the BTB organizations.
 *
 * A FuzzCase is a seeded random BtbConfig (deliberately tiny geometries,
 * so evictions, displacements and window collisions happen constantly)
 * plus a captured synthetic instruction stream. runCase() drives the
 * organization through the full bundle protocol under the differential
 * checker (checker.h) with an oracle direction predictor, tolerating
 * arbitrary control-flow discontinuities — which makes EVERY subsequence
 * of a failing stream a valid input, the property shrinkCase() exploits:
 * it truncates at the failure, deletes chunks ddmin-style down to single
 * instructions, then simplifies the configuration, all deterministically
 * (shrinking an already-shrunk case is a fixpoint).
 *
 * Repros round-trip through the traceio container: writeRepro() emits
 * the stream as a `.btbt` file plus a canonical-JSON BtbConfig sidecar,
 * loadRepro() reads both back, so a CI fuzz artifact replays locally
 * with `btbsim-fuzz replay`.
 */

#ifndef BTBSIM_CHECK_FUZZ_H
#define BTBSIM_CHECK_FUZZ_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/btb_config.h"
#include "trace/instruction.h"

namespace btbsim::check {

/** One fuzzing input: a configuration and an instruction stream. */
struct FuzzCase
{
    std::uint64_t seed = 0;
    BtbConfig btb;
    std::vector<Instruction> insts;
    std::string name = "fuzz";
};

/** A checker divergence observed while walking a case. */
struct FuzzFailure
{
    std::size_t index = 0; ///< Instruction index being walked at failure.
    std::string message;   ///< Full CheckFailure report.
};

/** Deterministic random case for @p seed. */
FuzzCase randomCase(std::uint64_t seed, std::uint64_t trace_insts = 20000);

/** Walk @p c under the checker; the first divergence, if any. */
std::optional<FuzzFailure> runCase(const FuzzCase &c);

struct ShrinkResult
{
    FuzzCase reduced;
    FuzzFailure failure; ///< The (possibly different) surviving failure.
    unsigned rounds = 0;
};

/**
 * Minimize @p c while it keeps failing. @p failure is the divergence a
 * prior runCase(c) returned. Deterministic and idempotent.
 */
ShrinkResult shrinkCase(const FuzzCase &c, const FuzzFailure &failure);

/** Write @p c as @p trace_path (.btbt) + its config sidecar. */
void writeRepro(const FuzzCase &c, const std::string &trace_path);

/** Read a repro written by writeRepro(); throws on any problem. */
FuzzCase loadRepro(const std::string &trace_path);

/** Sidecar config path for @p trace_path ("x.btbt" -> "x.btbt.json"). */
std::string reproConfigPath(const std::string &trace_path);

} // namespace btbsim::check

#endif // BTBSIM_CHECK_FUZZ_H
