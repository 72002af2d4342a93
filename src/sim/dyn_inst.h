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

/** One instruction between PC generation and allocation: what the
 *  frontend stores in its FTQ slot. The backend keeps its own record. */
struct DynInst
{
    Instruction in;
    std::uint64_t seq = 0;

    /// Frontend event this instruction resolves.
    Resteer resteer = Resteer::kNone;

    /// Cycle the instruction was decoded (0 = not yet).
    Cycle decode_cycle = 0;
};

} // namespace btbsim

#endif // BTBSIM_SIM_DYN_INST_H
