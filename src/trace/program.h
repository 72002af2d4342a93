/**
 * @file
 * Static program representation for the synthetic workload substrate.
 *
 * A Program is a flat array of static instructions laid out contiguously in
 * the simulated address space, plus behaviour descriptors that drive the
 * stochastic-but-seeded interpretation performed by SyntheticTrace.
 */

#ifndef BTBSIM_TRACE_PROGRAM_H
#define BTBSIM_TRACE_PROGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace/instruction.h"

namespace btbsim {

/** Behaviour model of a conditional branch. */
struct CondBehavior
{
    enum class Kind : std::uint8_t {
        kBernoulli, ///< Independent draws with probability @c bias of taken.
        kLoop,      ///< Loop back-edge: taken (trips-1) times, then not.
        kPattern,   ///< Fixed periodic taken/not-taken pattern.
    };

    Kind kind = Kind::kBernoulli;
    double bias = 0.0;             ///< P(taken) for kBernoulli.
    std::uint32_t min_trips = 1;   ///< kLoop: trip count lower bound.
    std::uint32_t max_trips = 1;   ///< kLoop: trip count upper bound.
    std::uint64_t pattern = 0;     ///< kPattern: bit i = outcome of step i.
    std::uint8_t pattern_len = 1;  ///< kPattern: period in [1, 64].

    bool operator==(const CondBehavior &) const = default;
};

/** Behaviour model of an indirect jump/call site. */
struct IndirectBehavior
{
    enum class Kind : std::uint8_t {
        kFixed,      ///< Always the first target (monomorphic site).
        kRoundRobin, ///< Cycle through targets in order.
        kSkewed,     ///< Mostly the first target, occasionally others.
        kWeighted,   ///< Random draw using @c weights (dispatcher loops).
        kBursty,     ///< Rotate targets, repeating each for @c burst runs.
    };

    Kind kind = Kind::kFixed;
    double skew = 0.9;          ///< kSkewed: probability of the first target.
    std::uint32_t burst = 6;    ///< kBursty: executions per target.
    std::vector<std::uint32_t> targets; ///< Static instruction indices.
    std::vector<double> weights;        ///< kWeighted: selection weights.

    bool operator==(const IndirectBehavior &) const = default;
};

/** Memory access stream attached to loads/stores. */
struct MemStream
{
    enum class Kind : std::uint8_t {
        kStack,   ///< Small, hot region (always L1-resident).
        kStride,  ///< Sequential walk with fixed stride (prefetchable).
        kRandom,  ///< Uniform random over the footprint (miss-heavy).
    };

    Kind kind = Kind::kStride;
    Addr base = 0;
    std::uint64_t footprint = 4096; ///< Bytes covered by the stream.
    std::int64_t stride = 64;       ///< kStride step in bytes.

    bool operator==(const MemStream &) const = default;
};

/** One static instruction with its semantic annotations. */
struct StaticInst
{
    InstClass cls = InstClass::kAlu;
    BranchClass branch = BranchClass::kNone;

    std::uint8_t dst = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;

    /// Direct branch target as a static instruction index.
    std::uint32_t target = 0;
    /// Index into Program::conds / Program::indirects, -1 if none.
    std::int32_t behavior = -1;
    /// Index into Program::streams, -1 if not a memory instruction.
    std::int32_t stream = -1;

    bool operator==(const StaticInst &) const = default;
};

/**
 * A complete synthetic program: code image plus behaviour tables.
 */
struct Program
{
    Addr code_base = 0x00400000;

    std::vector<StaticInst> insts;
    std::vector<CondBehavior> conds;
    std::vector<IndirectBehavior> indirects;
    std::vector<MemStream> streams;

    /// Entry static indices of the top-level "request handler" functions.
    std::vector<std::uint32_t> entries;
    /// Relative selection weight of each handler (same size as entries).
    std::vector<double> entry_weights;

    std::string name = "program";

    /** PC of static instruction @p idx. */
    Addr pcOf(std::uint32_t idx) const { return code_base + Addr{idx} * kInstBytes; }

    /** Static instruction index of @p pc (must be in range). */
    std::uint32_t
    indexOf(Addr pc) const
    {
        return static_cast<std::uint32_t>((pc - code_base) / kInstBytes);
    }

    /** Code footprint in bytes. */
    std::uint64_t footprintBytes() const { return insts.size() * kInstBytes; }

    /**
     * Validate structural invariants (branch targets in range, behaviour
     * indices valid, entries exist). Returns an empty string when valid,
     * otherwise a description of the first violation.
     */
    std::string validate() const;
};

} // namespace btbsim

#endif // BTBSIM_TRACE_PROGRAM_H
