/**
 * @file
 * Dynamic instruction in flight through the pipeline.
 */

#ifndef BTBSIM_SIM_DYN_INST_H
#define BTBSIM_SIM_DYN_INST_H

#include <cstdint>

#include "common/types.h"
#include "trace/instruction.h"

namespace btbsim {

/** Frontend redirect classes (Fig. 3). */
enum class Resteer : std::uint8_t {
    kNone,
    kDecode, ///< Misfetch: resolved when the branch reaches Decode.
    kExec,   ///< Misprediction: resolved when the branch executes.
};

/** One in-flight instruction with its timing record. */
struct DynInst
{
    Instruction in;
    std::uint64_t seq = 0;

    /// Frontend event this instruction resolves.
    Resteer resteer = Resteer::kNone;

    /// Producer sequence numbers (0 = no dependency).
    std::uint64_t dep1 = 0;
    std::uint64_t dep2 = 0;

    // Timing (absolute cycles, 0 = not reached).
    Cycle decode_cycle = 0;
    Cycle alloc_cycle = 0;
    Cycle complete_cycle = 0;
};

} // namespace btbsim

#endif // BTBSIM_SIM_DYN_INST_H
