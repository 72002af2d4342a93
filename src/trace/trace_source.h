/**
 * @file
 * Abstract source of dynamic instructions.
 */

#ifndef BTBSIM_TRACE_TRACE_SOURCE_H
#define BTBSIM_TRACE_TRACE_SOURCE_H

#include <string>

#include "trace/instruction.h"

namespace btbsim {

/**
 * An infinite, restartable stream of dynamic instructions. The simulator
 * pulls instructions one at a time; a source must be deterministic so the
 * same (source, config) pair reproduces identical results.
 *
 * Thread-ownership contract: a TraceSource belongs to exactly one
 * consumer. next()/reset() mutate cursor state without locking, so
 * concurrent simulations (engine workers) must each construct their
 * own instance rather than share one — implementations are required to
 * be independently instantiable and deterministic per instance, which
 * makes lock-free parallel replay safe by construction.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next dynamic instruction. The reference is valid
     *  until the next next() or reset() call; copy what must outlive it. */
    virtual const Instruction &next() = 0;

    /** Restart the stream from its initial state. */
    virtual void reset() = 0;

    /** Human-readable identifier used in reports. */
    virtual std::string name() const = 0;
};

} // namespace btbsim

#endif // BTBSIM_TRACE_TRACE_SOURCE_H
