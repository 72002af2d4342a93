/**
 * @file
 * Interpreter turning a static Program into an infinite dynamic stream.
 */

#ifndef BTBSIM_TRACE_SYNTHETIC_TRACE_H
#define BTBSIM_TRACE_SYNTHETIC_TRACE_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "trace/program.h"
#include "trace/trace_source.h"

namespace btbsim {

/**
 * Executes a synthetic Program functionally, producing the dynamic
 * instruction stream the timing model consumes. All stochastic choices
 * (Bernoulli branches, variable trip counts, skewed indirect targets,
 * memory addresses) come from a generator seeded at construction, so the
 * stream is fully deterministic and restartable.
 */
class SyntheticTrace : public TraceSource
{
  public:
    SyntheticTrace(const Program &program, std::uint64_t seed,
                   std::string name = "");

    const Instruction &next() override;
    void reset() override;
    std::string name() const override { return name_; }

    const Program &program() const { return *prog_; }

  private:
    const Program *prog_;
    std::uint64_t seed_;
    std::string name_;

    Rng rng_{0};
    std::uint32_t cur_ = 0;
    std::vector<std::uint32_t> call_stack_;

    /// Per kLoop behaviour: remaining back-edge takes, kInactive if idle.
    static constexpr std::uint32_t kInactive = 0xffffffffu;
    std::vector<std::uint32_t> loop_remaining_;
    /// Per kPattern behaviour: current position in the pattern.
    std::vector<std::uint32_t> pattern_pos_;
    /// Per indirect behaviour: round-robin cursor.
    std::vector<std::uint32_t> rr_pos_;
    /// Per indirect behaviour: remaining executions of the current burst.
    std::vector<std::uint32_t> burst_left_;
    /// Per memory stream: walk position.
    std::vector<std::uint64_t> stream_pos_;

    Instruction out_;

    bool evalCond(const StaticInst &si);
    std::uint32_t evalIndirect(const StaticInst &si);
    Addr evalAddress(const StaticInst &si);
};

} // namespace btbsim

#endif // BTBSIM_TRACE_SYNTHETIC_TRACE_H
